"""Command line front end.

Subcommands:

    preprocess  raw JSONL corpus -> processed splits + vocabularies + skip log
    pretrain    processed splits -> pre-trained checkpoint + metrics log
    finetune    checkpoint + side files -> task checkpoint
    evaluate    task checkpoint (or baseline) -> report JSON
    ablate      grid over visibility and cell-mask ratio -> recovery log

Exit codes: 0 success, 1 runtime failure (bad files, bad config, a flag the
run would not read: see tasks.TASKS), 2 usage.
A run's config is the checkpoint's (finetune, evaluate) or the defaults, then
--config, the seed (--seed, then TABREP_SEED), --epochs and --seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from .baselines import CorpusIndex
from .corpus import (
    ENTITY_RESERVED,
    TOKEN_RESERVED,
    IndexedTable,
    Vocab,
    build_vocabs,
    index_table,
    load_processed,
    load_raw_tables,
    partition,
    read_text,
    save_processed,
    write_file,
    write_jsonl,
)
from .encoder import EncoderConfig, Model, init_model, load_tensors
from .encoding import linearize
from .errors import ConfigError, TabrepError
from .pretrain import TrainSettings, fit, masked_recovery_accuracy
from .store import Config, load_checkpoint, load_config, parse_config, save_checkpoint
from . import tasks as T

def _info(msg: str) -> None:
    print(msg, flush=True)


def resolve_seed(cli_seed, cfg: Config) -> int:
    if cli_seed is not None:
        return int(cli_seed)
    env = os.environ.get("TABREP_SEED")
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"TABREP_SEED must be an integer, got {env!r}") from exc
    return cfg.seed


# config keys that shape a checkpoint's tensors; a restored run may not change
# them, nor the attention mode the weights were trained in
ENCODER_SHAPE = ("n_blocks", "d_model", "n_heads", "d_intermediate", "max_len")


def _config_from_args(args, base: Config | None = None) -> Config:
    """The run's config: base (a checkpoint's config) or the defaults, then
    --config, the seed, --epochs and --seeds, validated once."""
    cfg = dataclasses.replace(base) if base is not None else Config()
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    cfg.seed = resolve_seed(getattr(args, "seed", None), cfg)
    if getattr(args, "epochs", None) is not None:
        cfg.pretrain_epochs = args.epochs
    if getattr(args, "seeds", None) is not None:
        cfg.seed_cells = args.seeds
    cfg.validate()
    if base is not None:
        changed = [k for k in (*ENCODER_SHAPE, "use_visibility") if getattr(cfg, k) != getattr(base, k)]
        if changed:
            raise ConfigError(f"--config changes the checkpoint's encoder ({', '.join(changed)})")
    return cfg


def encoder_config(cfg: Config, n_tokens: int, n_entities: int) -> EncoderConfig:
    return EncoderConfig(**{k: getattr(cfg, k) for k in ENCODER_SHAPE}, n_tokens=n_tokens, n_entities=n_entities)


def train_settings(cfg: Config) -> TrainSettings:
    return TrainSettings(
        mlm_ratio=cfg.mlm_ratio,
        mer_ratio=cfg.mer_ratio,
        lr0=cfg.lr0,
        epochs=cfg.pretrain_epochs,
        batch_size=cfg.batch_size,
        candidate_cap=cfg.candidate_cap,
        use_visibility=cfg.use_visibility,
        seed=cfg.seed,
    )


def finetune_settings(cfg: Config, task: str) -> T.FinetuneSettings:
    """The task trains for the epochs of its record's config key (tasks.TASKS)."""
    return T.FinetuneSettings(
        lr0=cfg.finetune_lr0,
        epochs=getattr(cfg, T.TASKS[task].epochs),
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )


def _load_vocabs(data_dir: str) -> tuple[Vocab, Vocab]:
    token_vocab = Vocab.load(os.path.join(data_dir, "token_vocab.tsv"), TOKEN_RESERVED)
    entity_vocab = Vocab.load(os.path.join(data_dir, "entity_vocab.tsv"), ENTITY_RESERVED)
    return token_vocab, entity_vocab


def _load_split(data_dir: str, name: str):
    path = os.path.join(data_dir, f"{name}.jsonl")
    if not os.path.exists(path):
        raise ConfigError(f"{path} not found; run preprocess first")
    return load_processed(path)


def _indexed_split(data_dir: str, name: str, token_vocab: Vocab, entity_vocab: Vocab) -> list[IndexedTable]:
    return [index_table(t, token_vocab, entity_vocab) for t in _load_split(data_dir, name)]


def _pretrain_inputs(data_dir: str, cfg: Config):
    """(train tables, valid tables, train-split index, encoder config) for pre-training."""
    token_vocab, entity_vocab = _load_vocabs(data_dir)
    train, valid = (_indexed_split(data_dir, name, token_vocab, entity_vocab) for name in ("train", "valid"))
    if not train:
        raise ConfigError(f"{os.path.join(data_dir, 'train.jsonl')} holds no tables to pre-train on")
    index = CorpusIndex.build(train, token_vocab.strings)
    return train, valid, index, encoder_config(cfg, len(token_vocab), len(entity_vocab))


def restore_model(path: str) -> tuple[Model, Config, dict, dict]:
    """Rebuild a Model from a checkpoint. Returns (model, config, arrays, extra)."""
    arrays, config_text, _, extra = load_checkpoint(path)
    cfg = parse_config(config_text)
    sizes = (extra.get("n_tokens"), extra.get("n_entities"))
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in sizes):
        raise ConfigError(f"{path}: checkpoint lacks integer vocabulary sizes")
    ecfg = encoder_config(cfg, *sizes)
    _check_sizes(path, ecfg, arrays)
    model = init_model(ecfg, np.random.default_rng(0), dtype=arrays["word_emb"].dtype)
    model.load_arrays({k: v for k, v in arrays.items() if not k.startswith("head.")})
    model.use_visibility = cfg.use_visibility
    return model, cfg, arrays, extra


def _check_sizes(path: str, ecfg: EncoderConfig, arrays: dict) -> None:
    """Raise ConfigError unless the arrays hold the config's blocks, with the
    largest weights of every kind in each, in every size the config and the
    vocabulary sizes claim, and one floating dtype, word_emb's, that of the
    model. A model is allocated only after this, so at most a few times the
    size of the arrays."""
    n_blocks = len({name.split(".")[0] for name in arrays if name.startswith("block")})
    if n_blocks != ecfg.n_blocks:
        raise ConfigError(f"{path}: the tensors hold {n_blocks} encoder block(s); the config says {ecfg.n_blocks}")
    d = ecfg.d_model
    want = {"word_emb": (ecfg.n_tokens, d), "pos_emb": (ecfg.max_len, d), "ent_emb": (ecfg.n_entities, d), "fuse_W": (2 * d, d)}
    for i in range(n_blocks):
        want.update({f"block{i}.Wq": (d, d), f"block{i}.ffn_W1": (d, ecfg.d_intermediate)})
    for name, shape in want.items():
        if name not in arrays:
            raise ConfigError(f"{path}: checkpoint is missing tensor {name!r}")
        if arrays[name].shape != shape:
            raise ConfigError(f"{path}: tensor {name!r} has shape {arrays[name].shape}, its sizes give {shape}")
    for name in ["word_emb", *arrays]:
        if arrays[name].dtype.kind != "f" or arrays[name].dtype != arrays["word_emb"].dtype:
            raise ConfigError(f"{path}: tensor {name!r} has dtype {arrays[name].dtype}; all must share one floating dtype")


def _head_tensors(head) -> dict:
    """A task head's tensors under their checkpoint names."""
    return {"head." + p.name: p for p in head.params()}


def _side_dir(args, data_dir: str) -> str:
    if getattr(args, "side", None):
        return args.side
    meta_path = os.path.join(data_dir, "meta.json")
    if os.path.exists(meta_path):
        text = read_text(meta_path)
        try:
            meta = json.loads(text)
        except (ValueError, RecursionError):
            meta = None
        src = meta.get("source_dir", "") if isinstance(meta, dict) else None
        if not isinstance(src, str):
            raise ConfigError(f"{meta_path}: not a JSON object with a string source_dir")
        if src:
            if not os.path.isdir(src):
                raise ConfigError(f"{meta_path}: source_dir {src} is not a directory; pass --side")
            return src
    return data_dir


def _check_out_file(path) -> None:
    """Raise ConfigError unless `path` (when given) can name a file to write
    later: its directory exists and it is not a directory itself."""
    if not path:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"--out {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory; name a file")


def _write_report(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        write_file(out_path, [text, "\n"])
        _info(f"wrote {out_path}")
    _info(text)


# ---------------------------------------------------------------------------
# preprocess


def cmd_preprocess(args) -> int:
    cfg = _config_from_args(args)
    tables, skipped = load_raw_tables(args.corpus)
    _info(f"parsed {len(tables)} tables, skipped {len(skipped)}")
    splits = partition(tables, cfg.seed, cfg.max_cols)
    os.makedirs(args.out, exist_ok=True)
    token_vocab, entity_vocab = build_vocabs(
        splits["train"], min_token_count=cfg.min_token_count, min_entity_count=cfg.min_entity_count
    )
    for name in ("train", "valid", "test"):
        save_processed(os.path.join(args.out, f"{name}.jsonl"), splits[name])
    token_vocab.save(os.path.join(args.out, "token_vocab.tsv"))
    entity_vocab.save(os.path.join(args.out, "entity_vocab.tsv"))
    write_jsonl(os.path.join(args.out, "skipped.jsonl"), ({"table_id": tid, "reason": why} for tid, why in skipped))
    write_file(os.path.join(args.out, "config.txt"), [cfg.as_text()])
    meta = {
        "n_raw": len(tables) + len(skipped),
        "n_skipped": len(skipped),
        "splits": {k: len(v) for k, v in splits.items()},
        "n_tokens": len(token_vocab),
        "n_entities": len(entity_vocab),
        "source_dir": os.path.dirname(os.path.abspath(args.corpus)),
        "config_hash": cfg.hash(),
    }
    write_file(os.path.join(args.out, "meta.json"), [json.dumps(meta, indent=2, sort_keys=True)])
    _info(f"splits: train={meta['splits']['train']} valid={meta['splits']['valid']} test={meta['splits']['test']}")
    _info(f"vocab: {len(token_vocab)} tokens, {len(entity_vocab)} entities")

    if args.dump_visibility:
        wanted = args.dump_visibility
        all_tables = {t.table_id: t for split in splits.values() for t in split}
        if wanted not in all_tables:
            raise ConfigError(f"table {wanted!r} not present in any split")
        it = index_table(all_tables[wanted], token_vocab, entity_vocab)
        seq = linearize(it, cfg.max_len)
        vis = seq.visibility()
        dump = {
            "table_id": wanted,
            "elements": [
                {"kind": kind, "row": row, "col": col, "is_entity": is_entity}
                for kind, row, col, is_entity in zip(
                    seq.kinds.tolist(), seq.rows.tolist(), seq.cols.tolist(), seq.is_entity.tolist()
                )
            ],
            "matrix": vis.astype(int).tolist(),
        }
        path = os.path.join(args.out, f"visibility_{wanted}.json")
        write_file(path, [json.dumps(dump)])
        _info(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# pretrain


def cmd_pretrain(args) -> int:
    cfg = _config_from_args(args)
    train, valid, index, ecfg = _pretrain_inputs(args.data, cfg)
    _info(f"pre-training on {len(train)} tables ({ecfg.n_tokens} tokens, {ecfg.n_entities} entities)")

    settings = train_settings(cfg)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    records: list[dict] = []

    def on_epoch(record: dict) -> bool:
        # rewritten whole each epoch, so the log on disk is always complete
        records.append(record)
        write_jsonl(metrics_path, records)
        if record["epoch"] % 10 == 0 or record["epoch"] == cfg.pretrain_epochs - 1:
            _info(
                f"epoch {record['epoch']}: loss={record['loss']:.4f} "
                f"mlm_acc={record['mlm_acc']:.3f} mer_acc={record['mer_acc']:.3f}"
            )
        return False

    model, history = fit(
        train,
        ecfg,
        settings,
        index.cooccur,
        valid_tables=valid if args.track_recovery else None,
        epoch_callback=on_epoch,
    )

    ckpt = os.path.join(args.out, "checkpoint.bin")
    save_checkpoint(
        ckpt,
        model.named_arrays(),
        cfg.as_text(),
        step=len(history.step_losses),
        extra={"n_tokens": ecfg.n_tokens, "n_entities": ecfg.n_entities},
    )
    write_file(os.path.join(args.out, "config.txt"), [cfg.as_text()])
    _info(f"wrote {ckpt} and {metrics_path}")
    return 0


# ---------------------------------------------------------------------------
# finetune and evaluate


def _refuse_unread(args, reads) -> None:
    """Raise ConfigError for a flag that some task reads, given to a run that does not read it."""
    for flag in ("--side", "--seeds", "--reweight", "--no-description"):
        given = getattr(args, flag[2:].replace("-", "_"), None)  # None or False when absent; --seeds 0 is given
        if given is not None and given is not False and flag not in reads:
            what = f"the {args.baseline} baseline" if getattr(args, "baseline", None) else f"task {args.task}"
            raise ConfigError(f"{flag} is not read by {what}")


def _run(args, cfg: Config, split: str, model: Model | None, training: bool = False) -> SimpleNamespace:
    """The namespace a task's steps read (tasks.TASKS). Side data and the
    train-split corpus index load on their first call, where a step reads them."""
    token_vocab, entity_vocab = _load_vocabs(args.data)
    return SimpleNamespace(
        args=args, cfg=cfg, token_vocab=token_vocab, entity_vocab=entity_vocab,
        side=functools.cache(lambda: T.load_side_data(_side_dir(args, args.data))),
        packs=T.pack_tables(_load_split(args.data, split), token_vocab, entity_vocab, cfg.max_len),
        index=functools.cache(lambda: CorpusIndex.build(
            _indexed_split(args.data, "train", token_vocab, entity_vocab), token_vocab.strings)),
        model=model, training=training, labels=None,
    )


def cmd_finetune(args) -> int:
    task = T.TASKS[args.task]
    _refuse_unread(args, task.reads)
    model, base, _, extra = restore_model(args.checkpoint)
    cfg = _config_from_args(args, base)
    r = _run(args, cfg, "train", model, training=True)
    instances, r.labels = task.build(r)
    _info(f"{len(instances)} {args.task} instances, {len(r.labels)} labels")
    r.head = task.head and task.head(model.cfg.d_model, r.labels, np.random.default_rng(cfg.seed), model.dtype)
    r.settings = finetune_settings(cfg, args.task)
    losses = task.train(r, instances)

    os.makedirs(args.out, exist_ok=True)
    write_jsonl(os.path.join(args.out, "metrics.jsonl"), ({"epoch": i, "loss": loss} for i, loss in enumerate(losses)))
    arrays = dict(model.named_arrays())
    if r.head is not None:
        arrays.update({k: p.data for k, p in _head_tensors(r.head).items()})
    ckpt = os.path.join(args.out, f"{args.task}_checkpoint.bin")
    sizes = {k: int(extra[k]) for k in ("n_tokens", "n_entities")}
    save_checkpoint(ckpt, arrays, cfg.as_text(), step=len(losses), extra={"task": args.task, "labels": r.labels, **sizes})
    _info(f"wrote {ckpt} (final epoch loss {losses[-1]:.4f})")
    return 0


def cmd_evaluate(args) -> int:
    start = time.perf_counter()
    _check_out_file(args.out)
    task = T.TASKS[args.task]
    if args.baseline is not None and args.baseline not in task.baselines:
        if not task.baselines:
            raise ConfigError(f"no baseline defined for task {args.task!r}")
        choices = " or ".join(map(repr, task.baselines))
        raise ConfigError(f"{args.task} baseline must be {choices}, got {args.baseline!r}")
    reads, baseline = task.baselines.get(args.baseline, (task.reads, None))
    _refuse_unread(args, reads)
    model, base, arrays, extra = None, None, {}, {}
    if baseline is None:
        if not args.checkpoint:
            raise ConfigError("evaluate needs --checkpoint unless --baseline is given")
        model, base, arrays, extra = restore_model(args.checkpoint)
        if task.train is not None and extra.get("task") not in (None, args.task):
            raise ConfigError(f"checkpoint was fine-tuned for {extra.get('task')!r}, not {args.task!r}")
    cfg = _config_from_args(args, base)
    r = _run(args, cfg, args.split, model)

    if baseline is not None:
        body = baseline(r)
    else:
        r.labels = extra.get("labels", [])
        if not (isinstance(r.labels, list) and all(isinstance(x, str) for x in r.labels)):
            raise ConfigError(f"{args.checkpoint}: task labels are not a list of strings")
        instances, _ = task.build(r)
        r.head = task.head and task.head(model.cfg.d_model, r.labels, np.random.default_rng(cfg.seed), model.dtype)
        if r.head is not None:
            load_tensors(_head_tensors(r.head), arrays)
        body = task.evaluate(r, instances)

    report = {
        "task": args.task,
        "split": args.split,
        "baseline": args.baseline,
        "metrics": body["metrics"],
        "n_instances": body["n_instances"],
        "config_hash": cfg.hash(),
        "wall_s": time.perf_counter() - start,  # loading, instance building and scoring
    }
    _write_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# ablate


def cmd_ablate(args) -> int:
    _check_out_file(args.out)
    cfg = _config_from_args(args)
    try:
        ratios = [float(x) for x in args.mer_grid.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--mer-grid must be comma-separated numbers, got {args.mer_grid!r}") from None
    if not ratios:
        raise ConfigError("empty --mer-grid")
    for ratio in ratios:
        dataclasses.replace(cfg, mer_ratio=ratio).validate()  # the config's rule for mer_ratio
    train, valid, index, ecfg = _pretrain_inputs(args.data, cfg)

    rows = []
    for use_visibility in (True, False):
        for ratio in ratios:
            settings = dataclasses.replace(train_settings(cfg), mer_ratio=ratio, use_visibility=use_visibility)
            model, history = fit(train, ecfg, settings, index.cooccur)
            acc = masked_recovery_accuracy(model, valid, index.cooccur, cfg.candidate_cap, cfg.seed, only_objects=True)
            row = {
                "use_visibility": use_visibility,
                "mer_ratio": ratio,
                "oep_acc": acc,
                "final_loss": history.epochs[-1]["loss"] if history.epochs else None,
            }
            rows.append(row)
            _info(f"visibility={'on' if use_visibility else 'off'} mer_ratio={ratio}: recovery={acc:.3f}")

    if args.out:
        write_jsonl(args.out, rows)
        _info(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tabrep", description="structure-aware table representation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int, help="override the run seed")

    p = sub.add_parser("preprocess", parents=[common], help="clean, split, and index a raw corpus")
    p.add_argument("--corpus", required=True, help="raw JSONL table file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dump-visibility", metavar="TABLE_ID", help="also dump one table's visibility matrix")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", parents=[common], help="run masked pre-training")
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--epochs", type=int, help="override pretrain_epochs")
    p.add_argument("--track-recovery", action="store_true", help="score masked recovery on valid each epoch")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", parents=[common], help="fit one task head")
    p.add_argument("--task", required=True, choices=[name for name, task in T.TASKS.items() if task.train])
    p.add_argument("--checkpoint", required=True, help="pre-trained checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--side", help="directory with side files (types, relations, kb, candidates)")
    p.add_argument("--seeds", type=int, help="seed cells / headers given to ranking tasks")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", parents=[common], help="score a task on a held-out split")
    p.add_argument("--task", required=True, choices=list(T.TASKS))
    p.add_argument("--checkpoint", help="task checkpoint (fill accepts the pre-train checkpoint)")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p.add_argument("--side", help="directory with side files")
    p.add_argument("--out", help="write the report JSON here")
    baselines = ", ".join(name for task in T.TASKS.values() for name in task.baselines)
    p.add_argument("--baseline", help=f"score a non-neural baseline instead: {baselines}")
    p.add_argument("--reweight", action="store_true", help="linking: blend model and lookup ranks")
    p.add_argument("--no-description", action="store_true", help="linking: drop descriptions from entries")
    p.add_argument("--seeds", type=int, help="seed cells / headers given to ranking tasks")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", parents=[common], help="grid over visibility and cell-mask ratio")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write one JSON line per grid point here")
    p.add_argument("--epochs", type=int, help="override pretrain_epochs for the short runs")
    p.add_argument("--mer-grid", default="0.2,0.4,0.6,0.8")
    p.set_defaults(func=cmd_ablate)
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main() -> None:
    try:
        raise SystemExit(run())
    except TabrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
