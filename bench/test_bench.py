"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench

They run every workload at the tiny size, traced and untraced, so they check
the code paths and the output format, not the timings.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in NAMES:
        for trace in (0, 1):
            proc = run_bench(name, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[name, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return out


def test_workloads_match_the_spec():
    assert NAMES == list(W.REGISTRY)
    assert set(W.SIZES["full"]) == set(W.SIZES["tiny"]) == set(NAMES)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_present_with_its_unit(results, trace, key):
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    for name in NAMES:
        _, res = results[name, trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want, name
        for k, v in res["metrics"].items():
            assert isinstance(v["value"], (int, float)) and v["value"] == v["value"], (name, k)


def test_per_layer_names_come_from_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.metric_names())


def test_traced_run_reports_each_layer_it_runs(results):
    for name in NAMES:
        _, res = results[name, 1]
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["corpus.process_table.calls"] > 0 and m["baselines.CorpusIndex.build.calls"] > 0
        assert m["encoder.encode.calls"] > 0 and m["numeric.matmul.fwd_s"] > 0 and m["numeric.ops"] > 0
        assert m["kernels.masked_softmax_fwd.self_s"] > 0 and m["numeric.Adam.step.calls"] > 0
        assert m["trace.overhead"] > 0
    small = {k: v["value"] for k, v in results["pretrain_small", 1][1]["metrics"].items()}
    assert small["pretrain.fit.calls"] == 1 and 0 < small["pretrain.masked_table_ratio"] <= 1
    assert small["numeric.matmul.bwd_s"] > 0 and small["pretrain.table_loss.calls"] > 0
    tasks = {k: v["value"] for k, v in results["tasks", 1][1]["metrics"].items()}
    assert tasks["tasks.finetune.calls"] == 5 and tasks["store.save_checkpoint.calls"] == 1
    assert tasks["store.bytes_written"] > 0 and tasks["tasks.train_linking.total_s"] > 0
    assert tasks["baselines.CorpusIndex.retrieve_tables.calls"] > 0


def test_provenance_is_recorded(results):
    info, _ = results["pretrain_small", 0]
    prov = info["provenance"]
    assert prov["seed"] == 3 and prov["blas_threads"] == 1 and prov["nproc"] >= 1
    for key in ("commit", "python", "numpy", "blas"):
        assert prov[key]
    assert info["step_samples"] >= 2


def _tiny_round(workload, tracer=None):
    size = W.SIZES["tiny"][workload]
    prepare, finish, run_round = W.REGISTRY[workload]
    state = finish(prepare(5, size), size, os.path.join(ROOT, ".bench_build"))
    if tracer is None:
        return run_round(state, W.NoClock())
    with tracer:
        return run_round(state, W.NoClock())


def _bindings():
    """Every attribute of every tabrep module and class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("tabrep.") and mod is not None:
            for attr, value in vars(mod).items():
                out[name, attr] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[name, attr, cattr] = id(cvalue)
    return out


def test_traced_round_matches_untraced_and_unwraps_everything():
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    import tabrep.encoder
    import tabrep.numeric
    import tabrep.tasks

    matmul, encode = tabrep.numeric.matmul, tabrep.encoder.encode
    plain = _tiny_round("pretrain_small")
    before = _bindings()
    tracer = tracing.Tracer()
    traced = _tiny_round("pretrain_small", tracer)
    assert _bindings() == before
    assert tabrep.numeric.matmul is matmul and tabrep.tasks.encode is encode
    assert tracer.calls["numeric.matmul.fwd"] > 0 and tracer.calls["numeric.matmul.bwd"] > 0
    assert {k: float(v).hex() for k, v in plain.quality.items()} == {
        k: float(v).hex() for k, v in traced.quality.items()
    }
    assert [v.hex() for v in plain.losses] == [v.hex() for v in traced.losses]


def test_tracer_patches_names_imported_into_other_modules():
    import tabrep.pretrain
    import tabrep.tasks

    tracer = tracing.Tracer()
    with tracer:
        assert tabrep.tasks.encode is tabrep.encoder.encode
        assert tabrep.pretrain.linearize is tabrep.encoding.linearize
        assert tabrep.tasks.entity_logits is tabrep.pretrain.entity_logits
        assert getattr(tabrep.encoder.encode, "__wrapped__", None) is not None
    assert getattr(tabrep.encoder.encode, "__wrapped__", None) is None


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    try:
        proc = run_bench("pretrain_small", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_scaled_time_counts_each_phase_at_its_probe_speed():
    import tabrep.numeric

    ref = W.REF_PROBE_S
    clock = W.StepClock(tabrep.numeric, elasticity=0.5)
    # Phase [0, 1] at reference speed; phase [1, 3] where the probe took 1.5x
    # as long on median, so it counts (2/3) ** 0.5.
    clock.marks = [(0.0, [ref] * 3), (1.0, [ref] * 3), (3.0, [2 * ref] * 3)]
    slow = (2 / 3) ** 0.5
    assert clock.scaled(0.0, 3.0) == pytest.approx(1.0 + 2.0 * slow)
    assert clock.scaled(-1.0, 0.5) == pytest.approx(1.5)
    assert clock.scaled(2.0, 4.0) == pytest.approx(2.0 * slow)
    assert W.probe() > 0
