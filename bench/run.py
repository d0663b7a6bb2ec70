"""Benchmark entry point for tabrep.

    python3 bench/run.py --workload pretrain_small --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/` next to this directory, never from an installed copy. One invocation
runs one workload in this one fresh process, on one thread. BLAS and OpenMP
are pinned to one thread before numpy is imported, and the pin is checked.

Order of a run: the set-up, a correctness gate on the seed's inputs, then
timed rounds, each followed by another set-up, until `--seconds` have
passed. `--trace 0` prints the end-to-end metrics. `--trace 1` wraps the
package's public functions in spans (see tracing.py) and prints the
per-layer metrics; it alternates untraced and traced rounds, checks that both
give bitwise-equal quality metrics, and reports the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it records
provenance. A failed check prints a reason to standard error and exits 1
without a result line; a missing package or thread pin exits 2.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "train_items_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "eval_items_per_s": "1/s",
    "loss_final": "nats",
    "coltype_f1": "ratio",
    "relations_f1": "ratio",
    "linking_f1": "ratio",
    "fill_p1": "ratio",
    "schema_map": "ratio",
}
TASK_QUALITY = ("coltype_f1", "relations_f1", "linking_f1", "fill_p1", "schema_map")
# Quality metrics of a workload that does not run the task: a constant, so
# every workload prints the same metric names.
NOT_RUN = 1.0


class CheckFailed(Exception):
    """A correctness check failed; the run prints no numbers."""


def fail(code: int, msg: str):
    print(f"bench: {msg}", file=sys.stderr, flush=True)
    raise SystemExit(code)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "tabrep", "__init__.py")):
        fail(2, f"no tabrep sources under {SRC}")
    sys.path.insert(0, SRC)
    import tabrep

    if not os.path.abspath(tabrep.__file__).startswith(SRC + os.sep):
        fail(2, f"tabrep imported from {tabrep.__file__}, not from {SRC}")
    return tabrep


def blas_threads():
    """Threads the BLAS bundled with numpy will use, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(args, tabrep) -> dict:
    import numpy
    import scipy

    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            commit = out.stdout.strip()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": commit,
        "tabrep": tabrep.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# correctness


def gate(encoder, pretrain, state) -> None:
    """C09 and C03 on this seed's inputs, before anything is timed."""
    import numpy as np

    data = state.data
    cfg = encoder.EncoderConfig(
        n_blocks=1, d_model=16, n_heads=2, d_intermediate=32, max_len=data.max_len,
        n_tokens=len(data.token_vocab), n_entities=len(data.entity_vocab),
    )
    settings = pretrain.TrainSettings(
        mlm_ratio=0.2, mer_ratio=0.6, lr0=1e-3, epochs=2, batch_size=4, candidate_cap=32, seed=5
    )
    tables = data.indexed[:6]
    _, h1 = pretrain.fit(tables, cfg, settings, data.index.cooccur)
    _, h2 = pretrain.fit(tables, cfg, settings, data.index.cooccur)
    if not h1.step_losses or h1.step_losses != h2.step_losses:
        raise CheckFailed("a short fit did not repeat its step losses bitwise (C09)")
    if not all(math.isfinite(v) for v in h1.step_losses):
        raise CheckFailed("a short fit gave a non-finite loss")

    model_cfg = state.base.cfg if hasattr(state, "base") else state.cfg
    model = encoder.init_model(model_cfg, np.random.default_rng(5))
    for pack in data.packs[:4]:
        off = encoder.encode(pack.seq, model, use_visibility=False)
        ref = encoder.encode(pack.seq, model, reference=True)
        if off.h.data.tobytes() != ref.h.data.tobytes():
            raise CheckFailed(f"{pack.seq.table_id}: all-ones mask differs from plain attention (C03)")


def check_round(r, first) -> None:
    if not all(math.isfinite(v) for v in r.losses):
        raise CheckFailed("a training loss is not finite")
    for name, value in r.quality.items():
        if not (0.0 <= value <= 1.0):
            raise CheckFailed(f"{name} = {value} lies outside [0, 1]")
    if not math.isfinite(r.extra["loss_final"]):
        raise CheckFailed("final loss is not finite")
    if first is not None:
        if [v.hex() for v in r.losses] != [v.hex() for v in first.losses]:
            raise CheckFailed("a repeated round gave different losses")
        if {k: float(v).hex() for k, v in r.quality.items()} != {k: float(v).hex() for k, v in first.quality.items()}:
            raise CheckFailed("a repeated round gave different quality metrics")


# ---------------------------------------------------------------------------
# runs


def set_up(W, numeric, args, size, scratch, tracer=None):
    """Run the set-up once; return (state, seconds at reference speed, raw
    seconds). The speed probe runs before and after it. Under `tracer` only
    the data preparation is traced."""
    prepare, finish, _ = W.REGISTRY[args.workload]
    with W.StepClock(numeric, W.ELASTICITY[args.workload]) as clock:
        clock.mark()
        t0 = clock.now()
        if tracer is not None:
            with tracer:
                data = prepare(args.seed, size)
        else:
            data = prepare(args.seed, size)
        state = finish(data, size, scratch)
        t1 = clock.now()
        clock.mark()
    return state, clock.scaled(t0, t1), t1 - t0


def more_rounds(start: float, seconds: float, spent: list[float]) -> bool:
    """Start another round if it should end less than half a round late."""
    return time.perf_counter() - start + 0.5 * statistics.mean(spent) < seconds


def end_to_end(W, numeric, args, size, scratch, state, setup_s):
    """Untraced rounds, each followed by another set-up, so that set-ups
    spread over the run like the rounds. On a shared machine speed can swing
    by up to two times over seconds to minutes while the process keeps its
    CPU (see the README). So every timing is scaled to reference speed by
    the speed probe run at the boundaries of its phase (`StepClock.scaled`).
    Each metric is the median over the rounds of a scaled time: of the round,
    its training, its evaluation, each optimizer step, and the set-up."""
    run_round = W.REGISTRY[args.workload][2]
    rounds, clocks, setups, raw_setups, spent = [], [], [setup_s], [], []
    start = time.perf_counter()
    while not rounds or more_rounds(start, args.seconds, spent):
        t = time.perf_counter()
        with W.StepClock(numeric, W.ELASTICITY[args.workload]) as clock:
            r = run_round(state, clock)
        check_round(r, rounds[0] if rounds else None)
        rounds.append(r)
        clocks.append(clock)
        _, scaled, raw = set_up(W, numeric, args, size, scratch)
        setups.append(scaled)
        raw_setups.append(raw)
        spent.append(time.perf_counter() - t)
    if len({len(c.steps) for c in clocks}) != 1 or len(clocks[0].steps) < 2:
        raise CheckFailed(f"rounds timed unequal or too few optimizer steps: {[len(c.steps) for c in clocks]}")
    med = statistics.median
    walls = [c.scaled(*r.wall) for r, c in zip(rounds, clocks)]
    trains = [c.scaled(*r.train) for r, c in zip(rounds, clocks)]
    evals = [c.scaled(*r.evaluation) for r, c in zip(rounds, clocks)]
    step_ms = [med(1000.0 * c.scaled(*span) for c, span in zip(clocks, k)) for k in zip(*(c.steps for c in clocks))]
    deciles = statistics.quantiles(step_ms, n=10)
    first = rounds[0]
    values = {
        "setup_s": med(setups),
        "run_s": med(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_items_per_s": first.train_items / med(trains),
        "step_ms_p50": med(step_ms),
        "step_ms_p90": deciles[8],
        "eval_items_per_s": first.eval_items / med(evals),
        "loss_final": first.extra["loss_final"],
    }
    for name in TASK_QUALITY:
        values[name] = first.quality.get(name, NOT_RUN)
    info = {
        "rounds": len(rounds),
        "speed_factors": [c.factor() for c in clocks],
        "round_s": walls,
        "raw_round_s": [r.wall_s for r in rounds],
        "train_s": trains,
        "eval_s": evals,
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "step_ms_deciles": deciles,
        "step_samples": len(step_ms),
        "quality": first.quality,
        "extra": first.extra,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, sum(r.attempted for r in rounds), info


def per_layer(W, tracing, args, size, state, setup_tracer, spans_path):
    run_round = W.REGISTRY[args.workload][2]
    tracer = tracing.Tracer()
    totals = tracing.Totals()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or more_rounds(start, args.seconds, [a.wall_s + b.wall_s for a, b in zip(plain, traced)]):
        r = run_round(state, W.NoClock())
        check_round(r, plain[0] if plain else None)
        plain.append(r)
        tracer.reset()
        with tracer:
            r = run_round(state, W.NoClock())
        check_round(r, plain[0])
        traced.append(r)
        totals.add(tracer)
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("phase\tid\tname\tstart\tend\tparent\titem\n")
        setup_tracer.write_spans(fh, "setup")
        tracer.write_spans(fh, "round")
    overhead = statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain)
    metrics = tracing.layer_metrics(setup_tracer, totals, len(traced), overhead)
    attempted = sum(r.attempted for r in plain + traced)
    info = {"rounds": len(traced), "untraced_rounds": len(plain), "spans": spans_path, "overhead": overhead}
    return metrics, attempted, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tabrep benchmark")
    ap.add_argument("--workload", required=True, choices=["pretrain_small", "pretrain_long", "tasks"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny only exercises the code paths")
    args = ap.parse_args(argv)

    tabrep = import_package()
    if blas_threads() not in (1, None):
        fail(2, f"BLAS runs {blas_threads()} threads; the pin to 1 did not take effect")

    import tracing
    import workloads as W
    from tabrep import encoder, numeric, pretrain
    from tabrep.errors import TabrepError

    size = W.SIZES[args.size][args.workload]
    os.makedirs(BUILD, exist_ok=True)
    scratch = os.path.join(BUILD, f"scratch-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch)
    prov = provenance(args, tabrep)
    try:
        setup_tracer = tracing.Tracer() if args.trace else None
        state, setup_s, _ = set_up(W, numeric, args, size, scratch, setup_tracer)
        gate(encoder, pretrain, state)
        if args.trace:
            spans = os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.tsv.gz")
            metrics, attempted, info = per_layer(W, tracing, args, size, state, setup_tracer, spans)
        else:
            metrics, attempted, info = end_to_end(W, numeric, args, size, scratch, state, setup_s)
    except CheckFailed as exc:
        fail(1, f"correctness check failed: {exc}")
    except TabrepError as exc:
        # An operation failed: the workload is chosen so that none does.
        fail(1, f"operation failed with {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if threading.active_count() != 1:
        fail(1, "the benchmark started a thread; load must come from one thread")
    print(json.dumps({"provenance": prov, **info}, sort_keys=True, default=str))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
