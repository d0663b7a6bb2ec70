"""Span tracer that wraps tabrep's public functions from outside the package.

`Tracer.install()` replaces each target function with a wrapper that records a
span (name, start, end, parent span, item id) around the call, and
`Tracer.uninstall()` puts every original back. A name is patched wherever it
is bound: modules that import a function by name (`tasks.encode`,
`pretrain.linearize`, ...) hold their own reference, so every loaded `tabrep`
module is scanned for the original object. Numeric ops get a second span for
their backward closure, so forward and backward time are separate.

Self time is a span's duration minus the duration of its direct children.
Spans are kept in memory and written out by `write_spans`.
"""

from __future__ import annotations

import os
import sys
import time

# (module, qualified name) of every wrapped function. Names missing from the
# program under test are skipped, so the benchmark keeps running while the
# package is refactored; their metrics then read zero.
TARGETS = {
    "corpus": ["process_table", "index_table"],
    "baselines": [
        "CorpusIndex.build",
        "CorpusIndex.retrieve_tables",
        "CorpusIndex.fill_candidates",
        "CorpusIndex.rank_fill",
        "CorpusIndex.suggest_headers",
    ],
    "encoding": ["linearize", "build_visibility", "Sequence.clone", "mask_cell"],
    "encoder": ["encode", "embed_sequence", "transformer_block"],
    "pretrain": [
        "fit",
        "sample_token_mask",
        "sample_cell_mask",
        "apply_masks",
        "build_candidates",
        "token_logits",
        "entity_logits",
        "table_loss",
        "masked_recovery_accuracy",
    ],
    "numeric": ["Tensor.backward", "Adam.step"],
    "kernels": [
        "check_mask",
        "softmax_fwd",
        "masked_softmax_fwd",
        "softmax_bwd",
        "layer_norm_fwd",
        "layer_norm_bwd",
        "gelu_fwd",
        "gelu_bwd",
        "adam_update",
    ],
    "tasks": [
        "column_repr",
        "cell_position",
        "row_population_sequence",
        "schema_sequence",
        "linking_sequence",
        "LinkingHead.entry_matrix",
        "finetune",
    ],
    "store": ["save_checkpoint", "load_checkpoint"],
}

# Autodiff ops: their forward span is `numeric.<op>.fwd` and the backward
# closure of the node they return gets `numeric.<op>.bwd`.
NUMERIC_OPS = [
    "matmul",
    "add",
    "scale",
    "transpose",
    "reshape",
    "concat",
    "gather_rows",
    "put_rows",
    "masked_softmax",
    "layer_norm",
    "gelu",
    "cross_entropy_sum",
    "bce_with_logits_sum",
]

# Task train/eval loops: parent spans whose total time splits the tasks workload.
TASK_LOOPS = [
    "train_column_types",
    "train_relations",
    "train_linking",
    "train_row_population",
    "train_schema",
    "eval_column_types",
    "eval_relations",
    "eval_relations_votes",
    "eval_linking",
    "eval_linking_lookup",
    "eval_row_population",
    "eval_cell_filling",
    "eval_cell_filling_baseline",
    "eval_schema",
    "eval_schema_baseline",
]

# Spans that mark training; spans inside them take the optimizer step as
# their item id, spans outside take the encode count.
_TRAINING = ("pretrain.fit", "tasks.finetune")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._training = 0
        self._steps = 0
        self._encodes = 0

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Drop what was recorded; wrappers stay installed."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self._steps = 0
        self._encodes = 0

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name: str) -> None:
        if name in _TRAINING:
            self._training += 1
        item = f"step{self._steps}" if self._training else f"encode{self._encodes}"
        parent = self._stack[-1][3] if self._stack else -1
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([name, time.perf_counter(), 0.0, span_id, parent, item])

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id, parent, item = self._stack.pop()
        dur = end - start
        self.spans[span_id] = (name, start, end, parent, item)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][2] += dur
        if name in _TRAINING:
            self._training -= 1
        elif name == "numeric.Adam.step":
            self._steps += 1
        elif name == "encoder.encode":
            self._encodes += 1

    def _span_wrapper(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        """Count the length of each result; record no span."""
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.count(name, len(out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_wrapper(self, op: str, fn):
        """Forward span around the op, backward span around its closure."""
        tracer = self
        fwd, bwd = f"numeric.{op}.fwd", f"numeric.{op}.bwd"

        def wrapper(*args, **kwargs):
            tracer._open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            back = out._backward
            if back is not None:

                def traced_backward(dout, _back=back):
                    tracer._open(bwd)
                    try:
                        _back(dout)
                    finally:
                        tracer._close()

                out._backward = traced_backward
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", op)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items()) if name.startswith("tabrep.") and m is not None]

    def _patch_function(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._span_wrapper(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._span_wrapper(name, raw.__func__))
        else:
            replacement = self._span_wrapper(name, raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for short, names in TARGETS.items():
            module = mods.get(short)
            if module is None:
                continue
            for qual in names:
                metric = f"{short}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    cls = getattr(module, owner_name, None)
                    if cls is not None and attr in vars(cls):
                        self._patch_method(cls, attr, metric)
                elif callable(getattr(module, attr, None)):
                    after = None
                    if metric == "encoder.encode":
                        after = lambda args, out: self.count("encoder.elements", len(args[0]))
                    elif metric == "store.save_checkpoint":
                        after = lambda args, out: self.count("store.bytes_written", os.path.getsize(args[0]))
                    self._patch_function(module, attr, self._span_wrapper(metric, getattr(module, attr), after))
        numeric = mods.get("numeric")
        if numeric is not None:
            # Tape size without a span of its own, so the topological sort
            # stays in the self time of Tensor.backward.
            topo = getattr(numeric, "_topo_order", None)
            if callable(topo):
                self._patch_function(numeric, "_topo_order", self._count_wrapper("numeric.ops", topo))
            for op in NUMERIC_OPS:
                if callable(getattr(numeric, op, None)):
                    self._patch_function(numeric, op, self._op_wrapper(op, getattr(numeric, op)))
        tasks = mods.get("tasks")
        if tasks is not None:
            for name in TASK_LOOPS:
                if callable(getattr(tasks, name, None)):
                    self._patch_function(tasks, name, self._span_wrapper(f"tasks.{name}", getattr(tasks, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------

    def write_spans(self, fh, phase: str) -> None:
        """One tab-separated line per span: phase, id, name, start, end,
        parent id (-1 for none) and item. Ids count within `phase`."""
        fh.writelines(
            f"{phase}\t{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{item}\n"
            for i, (name, start, end, parent, item) in enumerate(self.spans)
        )


class Totals:
    """Sums of several tracers' recordings, e.g. one per traced round."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, rec) -> None:
        for mine, theirs in (
            (self.calls, rec.calls),
            (self.self_s, rec.self_s),
            (self.total_s, rec.total_s),
            (self.counts, rec.counts),
        ):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v


def metric_names() -> dict[str, str]:
    """Every per-layer metric with its unit, in a fixed order."""
    out = {}
    for short, names in TARGETS.items():
        for qual in names:
            if short != "kernels":
                out[f"{short}.{qual}.calls"] = "count"
            out[f"{short}.{qual}.self_s"] = "s"
    for op in NUMERIC_OPS:
        out[f"numeric.{op}.fwd_s"] = "s"
        out[f"numeric.{op}.bwd_s"] = "s"
    for name in TASK_LOOPS:
        out[f"tasks.{name}.total_s"] = "s"
    out["numeric.ops"] = "nodes"
    out["encoder.elements"] = "count"
    out["store.bytes_written"] = "B"
    out["pretrain.masked_table_ratio"] = "ratio"
    out["trace.overhead"] = "ratio"
    return out


def layer_metrics(setup, rounds: Totals, n_rounds: int, overhead: float) -> dict:
    """Per-layer values for one set-up plus one round.

    `setup` holds the spans of one traced set-up, `rounds` the sums over
    `n_rounds` traced rounds; round values are averaged per round.
    """

    def get(field: str, key: str) -> float:
        return getattr(setup, field).get(key, 0) + getattr(rounds, field).get(key, 0) / n_rounds

    values = {}
    for name, unit in metric_names().items():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = get("calls", base)
        elif kind == "self_s":
            values[name] = get("self_s", base)
        elif kind in ("fwd_s", "bwd_s"):
            values[name] = get("self_s", f"{base}.{kind[:3]}")
        elif kind == "total_s":
            values[name] = get("total_s", base)
    backwards = rounds.calls.get("numeric.Tensor.backward", 0)
    values["numeric.ops"] = rounds.counts.get("numeric.ops", 0) / backwards if backwards else 0.0
    values["encoder.elements"] = get("counts", "encoder.elements")
    values["store.bytes_written"] = get("counts", "store.bytes_written")
    drawn = rounds.calls.get("pretrain.sample_cell_mask", 0)
    values["pretrain.masked_table_ratio"] = rounds.calls.get("pretrain.apply_masks", 0) / drawn if drawn else 0.0
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_names().items()}
