"""Command line front end.

Subcommands:

    preprocess  raw JSONL corpus -> processed splits + vocabularies + skip log
    pretrain    processed splits -> pre-trained checkpoint + metrics log
    finetune    checkpoint + side files -> task checkpoint
    evaluate    task checkpoint (or baseline) -> report JSON
    ablate      grid over visibility and cell-mask ratio -> recovery log

Exit codes: 0 success, 1 runtime failure (bad files, bad config), 2 usage.
A run's config is the checkpoint's (finetune, evaluate) or the defaults, then
--config, the seed (--seed, then TABREP_SEED), --epochs and --seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .baselines import CorpusIndex
from .corpus import (
    ENTITY_RESERVED,
    TOKEN_RESERVED,
    TOKENIZER,
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

TASKS = ("linking", "coltype", "relations", "rowpop", "fill", "schema")


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
    """Schema augmentation trains for sa_epochs, every other task for finetune_epochs."""
    return T.FinetuneSettings(
        lr0=cfg.finetune_lr0,
        epochs=cfg.sa_epochs if task == "schema" else cfg.finetune_epochs,
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
    """Raise ConfigError unless the arrays have every size the checkpoint's
    config and vocabulary sizes claim, before a model of those sizes is
    allocated."""
    d = ecfg.d_model
    want = {
        "word_emb": (ecfg.n_tokens, d),
        "pos_emb": (ecfg.max_len, d),
        "ent_emb": (ecfg.n_entities, d),
        "block0.ffn_W1": (d, ecfg.d_intermediate),
    }
    for name, shape in want.items():
        if name not in arrays:
            raise ConfigError(f"{path}: checkpoint is missing tensor {name!r}")
        if arrays[name].shape != shape:
            raise ConfigError(f"{path}: tensor {name!r} has shape {arrays[name].shape}, its sizes give {shape}")
    n_blocks = len({name.split(".")[0] for name in arrays if name.startswith("block")})
    if n_blocks != ecfg.n_blocks:
        raise ConfigError(f"{path}: the tensors hold {n_blocks} encoder block(s); the config says {ecfg.n_blocks}")


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
        if src and os.path.isdir(src):
            return src
    return data_dir


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

BASELINES = {"linking": ("lookup",), "relations": ("votes",), "fill": ("exact", "pair"), "schema": ("caption",)}
HEADS = {"coltype": T.ColumnTypeHead, "relations": T.RelationHead, "schema": T.SchemaHead}


def _task_data(args, cfg: Config, split: str, need_index: bool):
    """(token vocab, entity vocab, side data, packs of the split, train-split index or None)."""
    token_vocab, entity_vocab = _load_vocabs(args.data)
    side = T.load_side_data(_side_dir(args, args.data))
    packs = T.pack_tables(_load_split(args.data, split), token_vocab, entity_vocab, cfg.max_len)
    index = None
    if need_index:
        index = CorpusIndex.build(_indexed_split(args.data, "train", token_vocab, entity_vocab), token_vocab.strings)
    return token_vocab, entity_vocab, side, packs, index


def _task_instances(task, cfg, packs, token_vocab, entity_vocab, side, index, labels=None, training=False):
    """(instances, labels) of a task over packs. labels=None derives the labels
    from the packs, as fine-tuning does; evaluation passes the checkpoint's.
    Row population and cell filling have no labels. Linking keeps only cells
    whose gold entry is a candidate when training."""
    if task == "coltype":
        return T.build_column_type_data(packs, entity_vocab, side, type_list=labels)
    if task == "relations":
        return T.build_relation_data(packs, entity_vocab, side, relation_list=labels)
    if task == "linking":
        if labels is None:
            labels = sorted({t for e in side.kb.values() for t in e.types})
        return T.build_linking_data(packs, side, require_gold=training), labels
    if task == "rowpop":
        return T.build_row_population_data(packs, index, token_vocab, cfg.seed_cells, cfg.rp_retrieval_k), []
    if task == "fill":
        return T.build_fill_data(packs, index), []
    if labels is None:
        labels = T.header_vocabulary(packs, cfg.sa_min_header_tables)
        if not labels:
            raise ConfigError("no headers clear sa_min_header_tables; lower the threshold")
    return T.build_schema_data(packs, labels, cfg.seed_cells), labels


def _task_head(task: str, model: Model, labels: list[str], seed: int):
    """The task's head over labels, sized from the model; None for a task without one."""
    rng = np.random.default_rng(seed)
    if task == "linking":
        return T.LinkingHead(model.cfg.d_model, labels, rng, dtype=model.dtype)
    if task in HEADS:
        return HEADS[task](model.cfg.d_model, len(labels), rng, dtype=model.dtype)
    return None


def cmd_finetune(args) -> int:
    model, base, _, extra = restore_model(args.checkpoint)
    cfg = _config_from_args(args, base)
    task = args.task
    token_vocab, entity_vocab, side, packs, index = _task_data(args, cfg, "train", task == "rowpop")
    instances, labels = _task_instances(task, cfg, packs, token_vocab, entity_vocab, side, index, training=True)
    _info(f"{len(instances)} {task} instances, {len(labels)} labels")
    head = _task_head(task, model, labels, cfg.seed)
    settings = finetune_settings(cfg, task)
    if task == "coltype":
        losses = T.train_column_types(model, head, packs, instances, settings, len(labels))
    elif task == "relations":
        losses = T.train_relations(model, head, packs, instances, settings, len(labels))
    elif task == "linking":
        losses = T.train_linking(model, head, packs, instances, side, token_vocab, TOKENIZER, settings)
    elif task == "rowpop":
        losses = T.train_row_population(model, packs, instances, settings, cfg.max_len)
    else:
        losses = T.train_schema(model, head, packs, instances, labels, token_vocab, settings, cfg.max_len)

    os.makedirs(args.out, exist_ok=True)
    write_jsonl(os.path.join(args.out, "metrics.jsonl"), ({"epoch": i, "loss": loss} for i, loss in enumerate(losses)))
    arrays = dict(model.named_arrays())
    if head is not None:
        arrays.update({k: p.data for k, p in _head_tensors(head).items()})
    ckpt = os.path.join(args.out, f"{task}_checkpoint.bin")
    save_checkpoint(
        ckpt,
        arrays,
        cfg.as_text(),
        step=len(losses),
        extra={
            "task": task,
            "labels": labels,
            "n_tokens": int(extra["n_tokens"]),
            "n_entities": int(extra["n_entities"]),
        },
    )
    _info(f"wrote {ckpt} (final epoch loss {losses[-1]:.4f})")
    return 0


def _baseline_report(mode, task, cfg, packs, token_vocab, entity_vocab, side, index) -> dict:
    # the caption baseline ranks every header of the split, however rare
    labels = T.header_vocabulary(packs, min_tables=1) if task == "schema" else None
    instances, labels = _task_instances(task, cfg, packs, token_vocab, entity_vocab, side, index, labels)
    if task == "linking":
        return T.eval_linking_lookup(instances)
    if task == "relations":
        return T.eval_relations_votes(instances, entity_vocab, side, labels, cfg.re_vote_threshold)
    if task == "fill":
        return T.eval_cell_filling_baseline(index, packs, instances, mode)
    return T.eval_schema_baseline(index, packs, instances, token_vocab)


def cmd_evaluate(args) -> int:
    start = time.perf_counter()
    task = args.task
    for flag, given in (("--reweight", args.reweight), ("--no-description", args.no_description)):
        if given and (task != "linking" or args.baseline is not None):
            raise ConfigError(f"{flag} applies only when a linking model is evaluated")
    model, base, arrays, extra = None, None, {}, {}
    if args.baseline is None:
        if not args.checkpoint:
            raise ConfigError("evaluate needs --checkpoint unless --baseline is given")
        model, base, arrays, extra = restore_model(args.checkpoint)
        if task != "fill" and extra.get("task") not in (None, task):
            raise ConfigError(f"checkpoint was fine-tuned for {extra.get('task')!r}, not {task!r}")
    elif task not in BASELINES:
        raise ConfigError(f"no baseline defined for task {task!r}")
    elif args.baseline not in BASELINES[task]:
        choices = " or ".join(map(repr, BASELINES[task]))
        raise ConfigError(f"{task} baseline must be {choices}, got {args.baseline!r}")
    cfg = _config_from_args(args, base)
    # rowpop and fill instances read the train-split index, and so do the fill and caption baselines
    need_index = task in ("rowpop", "fill") or args.baseline == "caption"
    token_vocab, entity_vocab, side, packs, index = _task_data(args, cfg, args.split, need_index)

    if args.baseline is not None:
        body = _baseline_report(args.baseline, task, cfg, packs, token_vocab, entity_vocab, side, index)
    else:
        labels = extra.get("labels", [])
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ConfigError(f"{args.checkpoint}: task labels are not a list of strings")
        instances, _ = _task_instances(task, cfg, packs, token_vocab, entity_vocab, side, index, labels)
        head = _task_head(task, model, labels, cfg.seed)
        if head is not None:
            load_tensors(_head_tensors(head), arrays)
        if task == "coltype":
            body = T.eval_column_types(model, head, packs, instances)
        elif task == "relations":
            body = T.eval_relations(model, head, packs, instances)
        elif task == "linking":
            body = T.eval_linking(
                model, head, packs, instances, side, token_vocab, TOKENIZER,
                reweight=args.reweight, alpha=cfg.el_reweight_alpha, use_description=not args.no_description,
            )
        elif task == "rowpop":
            body = T.eval_row_population(model, packs, instances, cfg.max_len)
        elif task == "fill":
            body = T.eval_cell_filling(model, packs, instances)
        else:
            body = T.eval_schema(model, head, packs, instances, labels, token_vocab, cfg.max_len)

    report = {
        "task": task,
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
    p.add_argument("--task", required=True, choices=[t for t in TASKS if t != "fill"])
    p.add_argument("--checkpoint", required=True, help="pre-trained checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--side", help="directory with side files (types, relations, kb, candidates)")
    p.add_argument("--seeds", type=int, help="seed cells / headers given to ranking tasks")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", parents=[common], help="score a task on a held-out split")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--checkpoint", help="task checkpoint (fill accepts the pre-train checkpoint)")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p.add_argument("--side", help="directory with side files")
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--baseline", help="score a non-neural baseline instead: lookup, votes, exact, pair, caption")
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
