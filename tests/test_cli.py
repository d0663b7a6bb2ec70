"""End-to-end runs of the command line pipeline in a temp directory."""

import json
import os
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabrep import cli
from tabrep.baselines import CorpusIndex
from tabrep.cli import encoder_config, finetune_settings, main, resolve_seed, restore_model, run
from tabrep.encoder import init_model
from tabrep.errors import ConfigError, TabrepError
from tabrep.store import Config, load_checkpoint, parse_config, save_checkpoint
from tabrep.synth import write_corpus
from tabrep.tasks import TASKS

TINY_CFG = """
n_blocks = 1
d_model = 16
n_heads = 2
d_intermediate = 32
max_len = 128
pretrain_epochs = 2
finetune_epochs = 1
sa_epochs = 1
batch_size = 8
lr0 = 1e-3
finetune_lr0 = 1e-3
candidate_cap = 32
min_entity_count = 1
sa_min_header_tables = 2
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    data = root / "data"
    runs = root / "runs"
    write_corpus(str(corpus), seed=21, n_tables=30, flavor="tasks")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    assert run(["preprocess", "--corpus", str(corpus / "raw.jsonl"), "--out", str(data),
                "--config", str(cfg)]) == 0
    assert run(["pretrain", "--data", str(data), "--out", str(runs),
                "--config", str(cfg)]) == 0
    return {"root": root, "corpus": corpus, "data": data, "runs": runs, "cfg": cfg}


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_preprocess_outputs(pipeline):
    data = pipeline["data"]
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "token_vocab.tsv", "entity_vocab.tsv",
                 "config.txt", "meta.json"):
        assert (data / name).exists(), name
    splits = {name: read_jsonl(data / f"{name}.jsonl") for name in ("train", "valid", "test")}
    ids = {name: {t["table_id"] for t in recs} for name, recs in splits.items()}
    assert ids["train"] and ids["valid"] and ids["test"]
    assert not (ids["train"] & ids["valid"]) and not (ids["train"] & ids["test"])
    meta = json.loads((data / "meta.json").read_text())
    assert meta["source_dir"] == str(pipeline["corpus"])


def test_preprocess_visibility_dump(pipeline, tmp_path):
    data = pipeline["data"]
    some_id = read_jsonl(data / "train.jsonl")[0]["table_id"]
    out = tmp_path / "data2"
    assert run(["preprocess", "--corpus", str(pipeline["corpus"] / "raw.jsonl"), "--out", str(out),
                "--config", str(pipeline["cfg"]), "--dump-visibility", some_id]) == 0
    dump = json.loads((out / f"visibility_{some_id}.json").read_text())
    m = np.array(dump["matrix"])
    assert m.shape[0] == m.shape[1] == len(dump["elements"])
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 1)
    assert dump["table_id"] == some_id


def test_preprocess_writes_one_skip_record_per_skipped_table(pipeline, tmp_path):
    good = (pipeline["corpus"] / "raw.jsonl").read_text().splitlines()
    bad = [json.dumps({"table_id": "no_headers", "headers": [], "rows": []}), "", json.dumps([1, 2])]
    corpus = tmp_path / "raw.jsonl"
    corpus.write_text("\n".join(good[:5] + bad) + "\n")
    out = tmp_path / "data"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(out), "--config", str(pipeline["cfg"])]) == 0
    skipped = read_jsonl(out / "skipped.jsonl")
    assert len(skipped) == json.loads((out / "meta.json").read_text())["n_skipped"]
    assert [r["table_id"] for r in skipped[-2:]] == ["no_headers", "line8"]
    assert all(set(r) == {"table_id", "reason"} and r["reason"] for r in skipped)


def test_preprocess_keeps_tables_wider_than_max_cols_out_of_train(pipeline, tmp_path):
    narrow_cfg = tmp_path / "narrow.cfg"
    narrow_cfg.write_text(TINY_CFG + "max_cols = 4\n")
    out = tmp_path / "data"
    assert run(["preprocess", "--corpus", str(pipeline["corpus"] / "raw.jsonl"), "--out", str(out),
                "--config", str(narrow_cfg)]) == 0
    train = read_jsonl(pipeline["data"] / "train.jsonl")
    narrow = read_jsonl(out / "train.jsonl")
    assert narrow == [t for t in train if len(t["headers"]) <= 4]
    assert len(narrow) < len(train)


def test_pretrain_outputs(pipeline):
    runs = pipeline["runs"]
    assert (runs / "checkpoint.bin").exists()
    arrays, cfg_text, step, extra = load_checkpoint(runs / "checkpoint.bin")
    assert step > 0
    assert "word_emb" in arrays
    assert extra["n_tokens"] > 4 and extra["n_entities"] > 3
    history = read_jsonl(runs / "metrics.jsonl")
    assert len(history) == 2
    assert set(history[0]) >= {"epoch", "loss", "mlm_acc", "mer_acc", "oep_acc"}


HUGE = 10**13  # a size whose model would take hundreds of TiB


@pytest.mark.parametrize(
    "damage",
    ["missing_word_emb", "non_integer_n_tokens", "n_tokens", "n_entities", "max_len", "d_model", "d_intermediate",
     "n_blocks"],
)
def test_restore_model_rejects_wrong_contents(pipeline, tmp_path, damage):
    # a well-formed, correctly signed checkpoint whose contents do not fit;
    # a size the tensors do not hold is rejected before anything is allocated
    arrays, cfg_text, step, extra = load_checkpoint(pipeline["runs"] / "checkpoint.bin")
    if damage == "missing_word_emb":
        del arrays["word_emb"]
    elif damage == "non_integer_n_tokens":
        extra["n_tokens"] = "ten"
    elif damage in extra:
        extra[damage] = HUGE
    else:
        cfg = parse_config(cfg_text)
        # d_model must stay divisible by the heads for the config to parse
        setattr(cfg, damage, HUGE * cfg.n_heads if damage == "d_model" else HUGE)
        cfg_text = cfg.as_text()
    path = tmp_path / "damaged.bin"
    save_checkpoint(path, arrays, cfg_text, step=step, extra=extra)
    with pytest.raises(ConfigError):
        restore_model(str(path))


def test_restore_model_refuses_a_small_file_that_asks_for_a_huge_model(tmp_path, monkeypatch):
    # blocks named by empty tensors: at d_model 4096 a 75 kB file once asked for about 25 GiB of weights. Here
    # d_model is 512 (about 400 MiB), and the stub keeps a regression from allocating them.
    def no_model(*args, **kwargs):
        raise AssertionError("a model was allocated")

    monkeypatch.setattr(cli, "init_model", no_model)
    d, n_blocks = 512, 100
    arrays = {name: np.zeros((1, d), np.float32) for name in ("word_emb", "pos_emb", "ent_emb")}
    arrays.update({"fuse_W": np.zeros((2 * d, d), np.float32)[:0], "block0.ffn_W1": np.zeros((d, 1), np.float32)})
    arrays.update({f"block{i}.x": np.zeros(0, np.float32) for i in range(1, n_blocks)})
    path = tmp_path / "huge.bin"
    cfg = Config(n_blocks=n_blocks, d_model=d, n_heads=1, d_intermediate=1, max_len=1)
    save_checkpoint(path, arrays, cfg.as_text(), extra={"n_tokens": 1, "n_entities": 1})
    assert path.stat().st_size < 50_000
    with pytest.raises(ConfigError, match="'fuse_W' has shape"):
        restore_model(str(path))
    arrays["fuse_W"] = np.zeros((2 * d, d), np.float32)
    save_checkpoint(path, arrays, cfg.as_text(), extra={"n_tokens": 1, "n_entities": 1})
    with pytest.raises(ConfigError, match="missing tensor 'block0.Wq'"):
        restore_model(str(path))


@pytest.mark.parametrize("name,dtype", [("word_emb", np.int8), ("word_emb", np.complex64), ("mer_W", np.float64)])
def test_restore_model_refuses_a_tensor_of_another_dtype(pipeline, tmp_path, monkeypatch, capsys, name, dtype):
    # the model is built in word_emb's dtype: an int8 one would truncate every other weight, a complex one would
    # build a complex model, and a float64 mer_W would be cast to float32 without a word
    arrays, cfg_text, step, extra = load_checkpoint(pipeline["runs"] / "checkpoint.bin")
    arrays[name] = arrays[name].astype(dtype)
    path = tmp_path / "cast.bin"
    save_checkpoint(path, arrays, cfg_text, step=step, extra=extra)
    with pytest.raises(ConfigError, match=f"{name!r} has dtype {np.dtype(dtype)}"):
        restore_model(str(path))
    monkeypatch.setattr(sys, "argv", ["tabrep", "evaluate", "--task", "fill", "--checkpoint", str(path),
                                      "--data", str(pipeline["data"]), "--out", str(tmp_path / "fill.json")])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1 and name in capsys.readouterr().err
    assert not (tmp_path / "fill.json").exists()


FUZZ_CFG = Config(n_blocks=1, d_model=4, n_heads=2, d_intermediate=4, max_len=8)
FUZZ_SIZES = {"n_tokens": 7, "n_entities": 6}
FUZZ_DTYPES = [np.float16, np.float32, np.float64, np.int8, np.int64, np.uint8, np.bool_, np.complex64]
_SIZE_VALUES = st.integers() | st.none() | st.booleans() | st.floats() | st.text(max_size=3)


@st.composite
def _checkpoint_contents(draw):
    """The arrays and extra of a tiny model's checkpoint, with up to three of: a tensor cast to another dtype,
    given another shape, dropped or added; a vocabulary size, or the whole extra, replaced."""
    arrays = dict(init_model(encoder_config(FUZZ_CFG, **FUZZ_SIZES), np.random.default_rng(0)).named_arrays())
    extra = dict(FUZZ_SIZES)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["dtype", "shape", "drop", "add", "size", "extra"]))
        name = draw(st.sampled_from(sorted(arrays) + ["block1.Wq", "head.x"]))
        if kind == "dtype" and name in arrays:
            arrays[name] = np.real(arrays[name]).astype(draw(st.sampled_from(FUZZ_DTYPES)))  # a complex one may recur
        elif kind == "shape" and name in arrays:
            arrays[name] = np.zeros(draw(st.lists(st.integers(0, 8), max_size=3)), dtype=arrays[name].dtype)
        elif kind == "drop":
            arrays.pop(name, None)
        elif kind == "add":
            arrays[name] = np.ones(draw(st.lists(st.integers(0, 8), max_size=3)), dtype=draw(st.sampled_from(FUZZ_DTYPES)))
        elif kind == "size":
            extra[draw(st.sampled_from(sorted(FUZZ_SIZES)))] = draw(_SIZE_VALUES)
        elif kind == "extra":
            extra = draw(st.dictionaries(st.sampled_from(["n_tokens", "n_entities", "task", "x"]), _SIZE_VALUES))
    return arrays, extra


@settings(max_examples=200, deadline=None)
@given(_checkpoint_contents())
def test_restore_model_gives_the_checkpoint_weights_or_a_typed_error(tmp_path_factory, contents):
    arrays, extra = contents
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_checkpoint(path, arrays, FUZZ_CFG.as_text(), extra=extra)
    try:
        model = restore_model(str(path))[0]
    except (TabrepError, OSError):
        return
    for name, arr in model.named_arrays().items():  # every weight as stored, never cast
        assert arr.dtype == arrays[name].dtype and arr.tobytes() == arrays[name].tobytes(), name


def test_finetune_and_evaluate_column_types(pipeline, tmp_path):
    data, runs = pipeline["data"], pipeline["runs"]
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", "coltype", "--checkpoint", str(runs / "checkpoint.bin"),
                "--data", str(data), "--out", str(ft), "--config", str(pipeline["cfg"])]) == 0
    ckpt = ft / "coltype_checkpoint.bin"
    assert ckpt.exists()
    _, _, _, extra = load_checkpoint(ckpt)
    assert extra["labels"]

    report_path = tmp_path / "report.json"
    assert run(["evaluate", "--task", "coltype", "--checkpoint", str(ckpt), "--data", str(data),
                "--split", "test", "--out", str(report_path), "--config", str(pipeline["cfg"])]) == 0
    report = json.loads(report_path.read_text())
    assert report["task"] == "coltype" and report["split"] == "test"
    assert report["baseline"] is None
    assert 0.0 <= report["metrics"]["f1"] <= 1.0
    assert report["n_instances"] > 0
    assert report["config_hash"]
    assert 0.0 < report["wall_s"] < 60.0


@pytest.mark.parametrize(
    "task,flags,metric",
    [
        ("relations", [], "f1"),
        ("linking", [], "f1"),
        ("linking", ["--reweight"], "f1"),
        ("linking", ["--no-description"], "f1"),
        ("rowpop", [], "map"),
        ("schema", [], "map"),
    ],
)
def test_finetune_and_evaluate_each_task(pipeline, tmp_path, task, flags, metric):
    data, runs, cfg = pipeline["data"], pipeline["runs"], str(pipeline["cfg"])
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", task, "--checkpoint", str(runs / "checkpoint.bin"),
                "--data", str(data), "--out", str(ft), "--config", cfg]) == 0
    ckpt = ft / f"{task}_checkpoint.bin"
    _, _, step, extra = load_checkpoint(ckpt)
    assert extra["task"] == task and step == 1
    assert bool(extra["labels"]) == (task != "rowpop")

    report_path = tmp_path / "report.json"
    assert run(["evaluate", "--task", task, "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(report_path), "--config", cfg, *flags]) == 0
    report = json.loads(report_path.read_text())
    assert (report["task"], report["split"], report["baseline"]) == (task, "test", None)
    assert 0.0 <= report["metrics"][metric] <= 1.0
    assert report["n_instances"] > 0


@pytest.mark.parametrize("command", ["pretrain", "ablate"])
def test_zero_epochs_is_a_config_error(pipeline, tmp_path, command):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="pretrain_epochs"):
        run([command, "--data", str(pipeline["data"]), "--out", str(out), "--epochs", "0",
             "--config", str(pipeline["cfg"])])
    assert not out.exists()


def test_config_may_not_reshape_the_checkpoint_encoder(pipeline, tmp_path):
    data, ckpt = str(pipeline["data"]), str(pipeline["runs"] / "checkpoint.bin")
    wide = tmp_path / "wide.cfg"
    wide.write_text(TINY_CFG.replace("d_model = 16", "d_model = 32"))
    ft = tmp_path / "ft"
    with pytest.raises(ConfigError, match="d_model"):
        run(["finetune", "--task", "coltype", "--checkpoint", ckpt, "--data", data, "--out", str(ft),
             "--config", str(wide)])
    assert not ft.exists()
    report = tmp_path / "fill.json"
    with pytest.raises(ConfigError, match="d_model"):
        run(["evaluate", "--task", "fill", "--checkpoint", ckpt, "--data", data, "--out", str(report),
             "--config", str(wide)])
    assert not report.exists()


@pytest.mark.parametrize("bad", ["a_number", "integers"])
def test_evaluate_rejects_task_labels_that_are_not_strings(pipeline, tmp_path, bad):
    data, cfg = str(pipeline["data"]), str(pipeline["cfg"])
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", "relations", "--checkpoint", str(pipeline["runs"] / "checkpoint.bin"),
                "--data", data, "--out", str(ft), "--config", cfg]) == 0
    arrays, cfg_text, step, extra = load_checkpoint(ft / "relations_checkpoint.bin")
    # correctly signed, with labels that are a number or integers of the right count
    extra["labels"] = 5 if bad == "a_number" else list(range(len(extra["labels"])))
    ckpt = tmp_path / "bad_labels.bin"
    save_checkpoint(ckpt, arrays, cfg_text, step=step, extra=extra)
    report = tmp_path / "report.json"
    with pytest.raises(ConfigError, match="bad_labels.bin"):
        run(["evaluate", "--task", "relations", "--checkpoint", str(ckpt), "--data", data, "--out", str(report),
             "--config", cfg])
    assert not report.exists()


@pytest.mark.parametrize("text", ["[1, 2]", "{not json", '{"source_dir": 5}'])
def test_bad_meta_json_exits_one_with_an_error_line(pipeline, tmp_path, monkeypatch, capsys, text):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / "meta.json").write_text(text)
    monkeypatch.setattr(sys, "argv", ["tabrep", "evaluate", "--task", "linking", "--baseline", "lookup",
                                      "--data", str(data), "--config", str(pipeline["cfg"])])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "meta.json" in err


def test_missing_source_dir_exits_one_unless_side_is_given(pipeline, tmp_path, monkeypatch, capsys):
    data, gone = tmp_path / "data", tmp_path / "moved_corpus"
    shutil.copytree(pipeline["data"], data)
    meta = json.loads((data / "meta.json").read_text())
    (data / "meta.json").write_text(json.dumps({**meta, "source_dir": str(gone)}))
    argv = ["evaluate", "--task", "linking", "--baseline", "lookup", "--data", str(data),
            "--config", str(pipeline["cfg"])]
    monkeypatch.setattr(sys, "argv", ["tabrep", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(gone) in err and "--side" in err
    assert run([*argv, "--side", str(pipeline["corpus"]), "--out", str(tmp_path / "report.json")]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["n_instances"] > 0


@pytest.mark.parametrize("case", ["config", "checkpoint", "seed_flag", "seed_env", "preprocess_seed"])
def test_zero_heads_or_a_negative_seed_exit_one_with_an_error_line(pipeline, tmp_path, monkeypatch, capsys, case):
    data, out, cfg = str(pipeline["data"]), str(tmp_path / "out"), str(pipeline["cfg"])
    zero_heads = tmp_path / "zero_heads.cfg"
    zero_heads.write_text(TINY_CFG.replace("n_heads = 2", "n_heads = 0"))
    arrays, cfg_text, step, extra = load_checkpoint(pipeline["runs"] / "checkpoint.bin")
    assert "n_heads = 2" in cfg_text
    ckpt = tmp_path / "zero_heads.bin"
    save_checkpoint(ckpt, arrays, cfg_text.replace("n_heads = 2", "n_heads = 0"), step=step, extra=extra)
    monkeypatch.delenv("TABREP_SEED", raising=False)
    if case == "seed_env":
        monkeypatch.setenv("TABREP_SEED", "-3")
    argv = {
        "config": ["pretrain", "--data", data, "--out", out, "--config", str(zero_heads)],
        "checkpoint": ["evaluate", "--task", "fill", "--checkpoint", str(ckpt), "--data", data, "--out", out],
        "seed_flag": ["pretrain", "--data", data, "--out", out, "--config", cfg, "--seed", "-1"],
        "seed_env": ["pretrain", "--data", data, "--out", out, "--config", cfg],
        "preprocess_seed": ["preprocess", "--corpus", str(pipeline["corpus"] / "raw.jsonl"), "--out", out, "--seed", "-5"],
    }[case]
    monkeypatch.setattr(sys, "argv", ["tabrep", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("n_heads must be positive" in err or "seed must be non-negative" in err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("grid", ["abc", "1.5,-2", "0.2,nan"])
def test_ablate_rejects_a_bad_mer_grid_before_any_run(pipeline, tmp_path, monkeypatch, grid):
    def no_fit(*args, **kwargs):
        raise AssertionError("ablate started a run")

    monkeypatch.setattr(cli, "fit", no_fit)
    out = tmp_path / "grid.jsonl"
    with pytest.raises(ConfigError, match="mer"):
        run(["ablate", "--data", str(pipeline["data"]), "--out", str(out), "--epochs", "1", "--mer-grid", grid,
             "--config", str(pipeline["cfg"])])
    assert not out.exists()


def test_evaluate_baselines_need_no_checkpoint(pipeline, tmp_path):
    data = pipeline["data"]
    out = tmp_path / "lookup.json"
    assert run(["evaluate", "--task", "linking", "--data", str(data), "--baseline", "lookup",
                "--out", str(out), "--config", str(pipeline["cfg"])]) == 0
    report = json.loads(out.read_text())
    assert report["baseline"] == "lookup"
    assert report["metrics"]["recall"] > 0.0
    assert report["wall_s"] > 0.0  # baseline reports are timed too

    out2 = tmp_path / "votes.json"
    assert run(["evaluate", "--task", "relations", "--data", str(data), "--baseline", "votes",
                "--out", str(out2), "--config", str(pipeline["cfg"])]) == 0
    assert json.loads(out2.read_text())["metrics"]["f1"] > 0.0


@pytest.mark.parametrize("task,baseline", [("fill", "exact"), ("fill", "pair"), ("schema", "caption")])
def test_evaluate_ranking_baselines(pipeline, tmp_path, task, baseline):
    out = tmp_path / "report.json"
    assert run(["evaluate", "--task", task, "--data", str(pipeline["data"]), "--baseline", baseline,
                "--out", str(out), "--config", str(pipeline["cfg"])]) == 0
    report = json.loads(out.read_text())
    assert (report["task"], report["baseline"]) == (task, baseline)
    assert report["n_instances"] > 0
    metrics = ("p_at_1", "map") if task == "fill" else ("map",)
    assert all(0.0 <= report["metrics"][m] <= 1.0 for m in metrics)


def test_evaluate_builds_the_corpus_index_only_where_it_is_read(pipeline, tmp_path, monkeypatch):
    data, cfg = str(pipeline["data"]), str(pipeline["cfg"])
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", "schema", "--checkpoint", str(pipeline["runs"] / "checkpoint.bin"),
                "--data", data, "--out", str(ft), "--config", cfg]) == 0
    builds = []
    real = CorpusIndex.build
    monkeypatch.setattr(CorpusIndex, "build", lambda *args: builds.append(args) or real(*args))
    assert run(["evaluate", "--task", "schema", "--checkpoint", str(ft / "schema_checkpoint.bin"), "--data", data,
                "--config", cfg]) == 0
    assert len(builds) == 0  # schema instances and their model never read the index
    assert run(["evaluate", "--task", "schema", "--baseline", "caption", "--data", data, "--config", cfg]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize("flag", ["--reweight", "--no-description"])
@pytest.mark.parametrize("case", ["coltype", "fill", "lookup"])
def test_linking_flags_are_refused_where_no_linking_model_is_scored(pipeline, tmp_path, flag, case):
    ckpt = ["--checkpoint", str(pipeline["runs"] / "checkpoint.bin")]
    target = {"coltype": ["--task", "coltype", *ckpt], "fill": ["--task", "fill", *ckpt],
              "lookup": ["--task", "linking", "--baseline", "lookup"]}[case]
    out = tmp_path / "report.json"
    with pytest.raises(ConfigError, match=flag):
        run(["evaluate", *target, "--data", str(pipeline["data"]), "--out", str(out), "--config",
             str(pipeline["cfg"]), flag])
    assert not out.exists()


def test_pretrain_tracks_recovery_only_when_asked(pipeline, tmp_path):
    out = tmp_path / "runs"
    assert run(["pretrain", "--data", str(pipeline["data"]), "--out", str(out), "--config", str(pipeline["cfg"]),
                "--track-recovery"]) == 0
    tracked = [r["oep_acc"] for r in read_jsonl(out / "metrics.jsonl")]
    assert len(tracked) == 2 and all(isinstance(a, float) and 0.0 <= a <= 1.0 for a in tracked)
    assert [r["oep_acc"] for r in read_jsonl(pipeline["runs"] / "metrics.jsonl")] == [None, None]


def test_a_checkpoint_keeps_its_attention_mode(pipeline, tmp_path):
    data, pretrained = str(pipeline["data"]), pipeline["runs"] / "checkpoint.bin"
    arrays, cfg_text, step, extra = load_checkpoint(pretrained)
    assert "use_visibility = true" in cfg_text
    assert restore_model(str(pretrained))[0].use_visibility is True
    ablated = tmp_path / "ablated.bin"
    save_checkpoint(ablated, arrays, cfg_text.replace("use_visibility = true", "use_visibility = false"), step=step,
                    extra=extra)
    assert restore_model(str(ablated))[0].use_visibility is False
    # a --config may not score the weights in a mode they were not trained in
    on, off = tmp_path / "on.cfg", tmp_path / "off.cfg"
    on.write_text(TINY_CFG + "use_visibility = true\n")
    off.write_text(TINY_CFG + "use_visibility = false\n")
    for ckpt, cfg in ((pretrained, off), (ablated, on)):
        report = tmp_path / "fill.json"
        with pytest.raises(ConfigError, match="use_visibility"):
            run(["evaluate", "--task", "fill", "--checkpoint", str(ckpt), "--data", data, "--out", str(report),
                 "--config", str(cfg)])
        assert not report.exists()
    ft = tmp_path / "ft"
    with pytest.raises(ConfigError, match="use_visibility"):
        run(["finetune", "--task", "coltype", "--checkpoint", str(pretrained), "--data", data, "--out", str(ft),
             "--config", str(off)])
    assert not ft.exists()
    for cfg in (off, pipeline["cfg"]):  # the checkpoint's own mode, stated or left alone
        assert run(["evaluate", "--task", "fill", "--checkpoint", str(ablated), "--data", data, "--config", str(cfg)]) == 0


def test_evaluate_fill_uses_pretrain_checkpoint(pipeline, tmp_path):
    data, runs = pipeline["data"], pipeline["runs"]
    out = tmp_path / "fill.json"
    assert run(["evaluate", "--task", "fill", "--checkpoint", str(runs / "checkpoint.bin"),
                "--data", str(data), "--out", str(out), "--config", str(pipeline["cfg"])]) == 0
    report = json.loads(out.read_text())
    assert report["task"] == "fill"
    assert "p_at_1" in report["metrics"]


def test_finetune_rejects_fill(pipeline, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["finetune", "--task", "fill", "--checkpoint", "x", "--data", "y", "--out", "z"])
    assert exc.value.code == 2


def test_ablate_grid(pipeline, tmp_path):
    data = pipeline["data"]
    out = tmp_path / "grid.jsonl"
    assert run(["ablate", "--data", str(data), "--out", str(out), "--epochs", "1",
                "--mer-grid", "0.2", "--config", str(pipeline["cfg"])]) == 0
    rows = read_jsonl(out)
    assert len(rows) == 2  # visibility on and off for the single ratio
    assert {r["use_visibility"] for r in rows} == {True, False}
    for r in rows:
        assert set(r) >= {"use_visibility", "mer_ratio", "oep_acc", "final_loss"}


@pytest.mark.parametrize(
    "command,where",
    [(c, w) for c in ("ablate", "evaluate", "evaluate_baseline") for w in ("a_directory", "missing_dir")]
    + [(c, "a_file") for c in ("preprocess", "pretrain", "finetune")],
)
def test_an_unwritable_out_path_exits_one_before_any_work(pipeline, tmp_path, monkeypatch, capsys, command, where):
    def no_work(*args, **kwargs):
        raise AssertionError("the command loaded data or a model before checking --out")

    for name in ("fit", "restore_model", "_load_split", "load_raw_tables"):
        monkeypatch.setattr(cli, name, no_work)
    out = {"missing_dir": str(tmp_path / "missing" / "report.json"), "a_directory": str(tmp_path),
           "a_file": str(tmp_path / "taken")}[where]
    if where == "a_file":  # a file where the run directory of preprocess, pretrain or finetune goes
        (tmp_path / "taken").write_text("")
    data, cfg = ["--data", str(pipeline["data"])], ["--config", str(pipeline["cfg"])]
    ckpt = str(pipeline["runs"] / "checkpoint.bin")
    argv = {
        "ablate": ["ablate", *data, "--out", out, "--epochs", "1", *cfg],
        "evaluate": ["evaluate", "--task", "fill", "--checkpoint", ckpt, *data, "--out", out, *cfg],
        "evaluate_baseline": ["evaluate", "--task", "linking", "--baseline", "lookup", *data, "--out", out, *cfg],
        "preprocess": ["preprocess", "--corpus", str(pipeline["corpus"] / "raw.jsonl"), "--out", out, *cfg],
        "pretrain": ["pretrain", *data, "--out", out, "--epochs", "1", *cfg],
        "finetune": ["finetune", "--task", "coltype", "--checkpoint", ckpt, *data, "--out", out, *cfg],
    }[command]
    monkeypatch.setattr(sys, "argv", ["tabrep", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and out in err
    assert os.listdir(tmp_path) == (["taken"] if where == "a_file" else [])


def test_usage_errors_exit_two():
    for argv in ([], ["pretrain"], ["evaluate", "--task", "bogus", "--data", "x"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["pretrain", "ablate"])
def test_pretraining_rejects_an_empty_train_split(pipeline, tmp_path, monkeypatch, command):
    def no_fit(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "fit", no_fit)
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / "train.jsonl").write_text("")
    with pytest.raises(ConfigError, match="train.jsonl holds no tables"):
        run([command, "--data", str(data), "--out", str(tmp_path / "out"), "--epochs", "1",
             "--config", str(pipeline["cfg"])])


def test_missing_data_dir_raises_cleanly(tmp_path):
    with pytest.raises((OSError, ConfigError)):
        run(["pretrain", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "o")])


def test_finetune_settings_come_from_the_config():
    cfg = Config(seed=4, finetune_lr0=2e-3, finetune_epochs=3, sa_epochs=7, batch_size=5)
    s = finetune_settings(cfg, "coltype")
    assert (s.lr0, s.epochs, s.batch_size, s.seed) == (2e-3, 3, 5, 4)
    assert finetune_settings(cfg, "schema").epochs == 7  # schema augmentation has its own epoch count


def test_seed_precedence(monkeypatch):
    cfg = Config(seed=77)
    monkeypatch.delenv("TABREP_SEED", raising=False)
    assert resolve_seed(None, cfg) == 77
    monkeypatch.setenv("TABREP_SEED", "123")
    assert resolve_seed(None, cfg) == 123
    assert resolve_seed(5, cfg) == 5
    monkeypatch.setenv("TABREP_SEED", "noise")
    with pytest.raises(ConfigError):
        resolve_seed(None, cfg)
    assert resolve_seed(9, cfg) == 9  # explicit seed never consults the env


# Every flag of the commands that prepare data or pre-train, with the value a run passes; `--config` names a
# file that keeps the pipeline's config and changes two keys those commands read (see `run_config`).
RUN_FLAGS = {"--seed": ["5"], "--epochs": ["1"], "--track-recovery": [], "--dump-visibility": None,
             "--mer-grid": ["0.2,0.6"], "--config": None}
# the flags of RUN_FLAGS each command takes
RUN_TAKES = {"preprocess": {"--seed", "--config", "--dump-visibility"},
             "pretrain": {"--seed", "--config", "--epochs", "--track-recovery"},
             "ablate": {"--seed", "--config", "--epochs", "--mer-grid"}}


def run_argv(pipeline, command, out):
    """A command's run on the pipeline's data under the pipeline's config, writing to out."""
    data = ["--data", str(pipeline["data"])]
    return {
        "preprocess": ["preprocess", "--corpus", str(pipeline["corpus"] / "raw.jsonl"), "--out", str(out)],
        "pretrain": ["pretrain", *data, "--out", str(out)],
        "ablate": ["ablate", *data, "--out", str(out)],
    }[command] + ["--config", str(pipeline["cfg"])]


def run_result(command, out):
    """What a run writes, less the record of its own config: every file preprocess writes but config.txt and
    meta.json; pretrain's metrics and checkpoint tensors; ablate's grid."""
    if command == "preprocess":
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name not in ("config.txt", "meta.json")}
    if command == "pretrain":
        return read_jsonl(out / "metrics.jsonl"), {
            k: v.tobytes() for k, v in load_checkpoint(out / "checkpoint.bin")[0].items()}
    return read_jsonl(out)


@pytest.fixture(scope="module")
def run_config(pipeline):
    cfg = pipeline["root"] / "run_flag.cfg"
    cfg.write_text(TINY_CFG + "min_token_count = 2\nmlm_ratio = 0.5\n")
    return cfg


@pytest.fixture(scope="module")
def plain_results(pipeline, tmp_path_factory):
    """command -> run_result of its run with no flag of RUN_FLAGS but the pipeline's --config."""
    out = {}
    for command in RUN_TAKES:
        where = tmp_path_factory.mktemp("plain") / command
        assert run(run_argv(pipeline, command, where)) == 0
        out[command] = run_result(command, where)
    return out


@pytest.mark.parametrize("flag", RUN_FLAGS)
@pytest.mark.parametrize("command", RUN_TAKES)
def test_a_run_flag_changes_the_output_or_is_refused(pipeline, run_config, plain_results, tmp_path, monkeypatch,
                                                     capsys, command, flag):
    # a flag that a command takes must change what it writes; one it does not take is a usage error (exit 2)
    monkeypatch.delenv("TABREP_SEED", raising=False)
    out = tmp_path / "out"
    given = {"--dump-visibility": [read_jsonl(pipeline["data"] / "train.jsonl")[0]["table_id"]],
             "--config": [str(run_config)]}.get(flag, RUN_FLAGS[flag])
    argv = run_argv(pipeline, command, out) + [flag, *given]
    if flag in RUN_TAKES[command]:
        assert run(argv) == 0
        assert run_result(command, out) != plain_results[command]
        return
    monkeypatch.setattr(sys, "argv", ["tabrep", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2 and flag in capsys.readouterr().err
    assert not out.exists()


# Every flag that some task or baseline reads, with the value a run passes; `--side` names a directory that
# keeps every other record of each side file (see `halved_side`).
TASK_FLAGS = {"--seeds": ["2"], "--side": None, "--reweight": [], "--no-description": []}


def task_flag_cases():
    """(command, task, baseline, flag) for each finetune and evaluate run of each TASKS record and of each
    of its baselines, and each task flag the command takes."""
    for task, record in TASKS.items():
        runs = [("evaluate", None), *(("evaluate", name) for name in record.baselines)]
        runs += [("finetune", None)] if record.train is not None else []
        for command, baseline in runs:
            for flag in TASK_FLAGS:
                if command == "evaluate" or flag in ("--seeds", "--side"):
                    yield pytest.param(command, task, baseline, flag, id=f"{command}-{baseline or task}-{flag}")


@pytest.fixture(scope="module")
def tuned(pipeline):
    """task -> the checkpoint it evaluates: fine-tuned from the pipeline's with no task flag, or the
    pipeline's own for a task without fine-tuning."""
    out = {}
    for task, record in TASKS.items():
        out[task] = pipeline["runs"] / "checkpoint.bin"
        if record.train is not None:
            ft = pipeline["root"] / f"tuned_{task}"
            assert run(["finetune", "--task", task, "--checkpoint", str(out[task]), "--data", str(pipeline["data"]),
                        "--out", str(ft), "--config", str(pipeline["cfg"])]) == 0
            out[task] = ft / f"{task}_checkpoint.bin"
    return out


@pytest.fixture(scope="module")
def halved_side(pipeline):
    side = pipeline["root"] / "halved_side"
    side.mkdir(exist_ok=True)
    for name in ("types.jsonl", "relations.jsonl", "kb.jsonl", "candidates.jsonl"):
        lines = (pipeline["corpus"] / name).read_text().splitlines()
        (side / name).write_text("\n".join(lines[::2]) + "\n")
    return side


def task_argv(pipeline, tuned, command, task, baseline):
    argv = [command, "--task", task, "--data", str(pipeline["data"]), "--config", str(pipeline["cfg"])]
    if baseline is not None:
        return argv + ["--baseline", baseline]
    return argv + ["--checkpoint", str(tuned[task] if command == "evaluate" else pipeline["runs"] / "checkpoint.bin")]


def outcome(argv, out):
    """What a run gives: a finetune's epoch losses, or an evaluation's metrics."""
    assert run([*argv, "--out", str(out)]) == 0
    if argv[0] == "finetune":
        return [r["loss"] for r in read_jsonl(out / "metrics.jsonl")]
    return json.loads(out.read_text())["metrics"]


@pytest.mark.parametrize("command,task,baseline,flag", task_flag_cases())
def test_a_task_flag_changes_the_run_or_is_refused(pipeline, tuned, halved_side, tmp_path, monkeypatch, capsys,
                                                    command, task, baseline, flag):
    argv = task_argv(pipeline, tuned, command, task, baseline)
    given = [flag, *(TASK_FLAGS[flag] if TASK_FLAGS[flag] is not None else [str(halved_side)])]
    record = TASKS[task]
    if flag in (record.reads if baseline is None else record.baselines[baseline][0]):
        assert outcome(argv + given, tmp_path / "flag") != outcome(argv, tmp_path / "plain")
        return
    monkeypatch.setattr(sys, "argv", ["tabrep", *argv, *given, "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not (tmp_path / "out").exists()


def test_baseline_names_come_from_the_task_table(pipeline, capsys):
    for task, record in TASKS.items():
        argv = ["evaluate", "--task", task, "--baseline", "bogus", "--data", str(pipeline["data"])]
        with pytest.raises(ConfigError) as exc:
            run(argv)
        names = list(record.baselines)
        assert all(repr(name) in str(exc.value) for name in names) if names else "no baseline" in str(exc.value)
    with pytest.raises(SystemExit):
        run(["evaluate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ", ".join(name for record in TASKS.values() for name in record.baselines) in help_text


def test_side_data_loads_only_where_it_is_read(pipeline, tmp_path):
    data, side = tmp_path / "data", tmp_path / "side"
    shutil.copytree(pipeline["data"], data)
    shutil.copytree(pipeline["corpus"], side)
    (side / "kb.jsonl").write_text("[1, 2]\n")
    meta = json.loads((data / "meta.json").read_text())
    (data / "meta.json").write_text(json.dumps({**meta, "source_dir": str(side)}))
    argv = ["--data", str(data), "--config", str(pipeline["cfg"])]
    assert run(["evaluate", "--task", "schema", "--baseline", "caption", *argv]) == 0
    assert run(["evaluate", "--task", "fill", "--checkpoint", str(pipeline["runs"] / "checkpoint.bin"), *argv]) == 0
    with pytest.raises(ConfigError, match="kb.jsonl"):
        run(["evaluate", "--task", "linking", "--baseline", "lookup", *argv])
