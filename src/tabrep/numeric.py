"""Reverse-mode autodiff over numpy arrays, plus Adam and a gradient checker.

Small tape-based engine: every op builds an output Tensor holding a closure
that routes gradients to its parents. Inside `no_grad()` no op records
parents or keeps its closure, so no tape is built; the data an op computes
is the same either way. Training runs in float32; the gradient checker runs
the same graph code in float64. Dtype always follows the operand arrays,
never a global switch.

Gradients are handed over, never copied: a backward closure passes on the
arrays it made, or views of its `dout`, and a tensor stores the first
gradient it receives as is. A second one is added out of place, so no
stored gradient is ever written again, and several tensors may safely hold
the same array (`add` hands one `dout` to both operands).

Ops that would otherwise be chains of small nodes are single nodes:
`affine` is x @ W + b; `segment_mean` gathers rows and sums consecutive
segments of them (`np.add.reduceat` forward, `np.repeat` backward), with no
dense averaging matrix; `candidate_cross_entropy_sum` scores each table's
rows of a packed batch against that table's own candidate rows and sums the
cross-entropy, looping over the tables in numpy like `table_attention`;
`candidate_scores` scores each row of a batch against its own candidate
rows, the same way, and returns the scores.

A row gradient (`gather_rows`, `segment_mean`) goes into a zero table of
the gathered array's shape. Strictly increasing indices, as the packed-state
gathers of the encoder's last block and the pre-training heads read, are
distinct, so one `g[idx] += rows` assignment writes them: each row gets the
one add 0 + x, as any scatter gives it. Other indices may repeat, as those
of an embedding table do, and are scattered by one 1-D `np.add.at` over
flat element offsets: row j of the update goes to elements idx[j] *
row_size + 0 .. row_size - 1. A 1-D `ufunc.at` applies its updates in index
order, so every element receives the same float adds in the same order as a
2-D `np.add.at(g, idx, rows)`, and the result is the same bits, without the
2-D call's per-row overhead. Writing 150 rows into a 232 x 64 float32 table
takes 15 us by assignment and 33 us by the scatter (2-vCPU Xeon, one
thread). `np.add.reduceat` over sorted indices would sum each segment
pairwise, in another order, and is not bitwise; `np.add.reduce(rows,
axis=0)` adds one index's rows in order, so 0 plus that sum has the bits of
`np.add.at`, but it needs a call per repeated index.

`Adam` owns its parameters' storage: it copies them into one flat buffer and
rebinds each `.data` to a view of it, so a step updates every run of
consecutive parameters that have a gradient in chunks of `CHUNK` elements,
not tensor by tensor. A parameter with no gradient is skipped.

`train` is the one training loop: pre-training (`pretrain.fit`) and every
fine-tuning task (`tasks.finetune`) run through it with their own batch loss.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math

import numpy as np

from . import kernels
from .errors import ConfigError, NonFiniteLoss, ShapeMismatch, UnknownId

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "matmul",
    "affine",
    "transpose",
    "concat",
    "gather_rows",
    "segment_mean",
    "put_rows",
    "table_attention",
    "layer_norm",
    "gelu",
    "cross_entropy_sum",
    "candidate_cross_entropy_sum",
    "candidate_scores",
    "bce_with_logits_sum",
    "Adam",
    "linear_lr",
    "grad_norm",
    "descend",
    "train",
    "grad_check",
]


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self):
        """Fill .grad of every leaf that needs one. An op output's gradient
        is freed as soon as it has been passed on to the op's inputs."""
        if self.data.size != 1:
            raise ShapeMismatch(f"backward needs a scalar, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, name={self.name!r})"


def _topo_order(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _wants_grad(t):
    return t.requires_grad or bool(t._parents)


def _needs_grad(parents):
    return any(_wants_grad(p) for p in parents)


_GRAD_ENABLED = contextvars.ContextVar("tabrep_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Within the block, op outputs have no parents and no backward closure."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _make(data, parents, backward):
    out = Tensor(data)
    if _GRAD_ENABLED.get() and _needs_grad(parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if _wants_grad(t):
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    # Reduce a broadcast gradient back to the operand's shape.
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _same_dtype(*tensors):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeMismatch(f"mixed dtypes {dt} and {t.data.dtype}")
    return dt


def add(a, b):
    _same_dtype(a, b)
    data = a.data + b.data

    def backward(dout):
        _accum(a, _unbroadcast(dout, a.data.shape))
        _accum(b, _unbroadcast(dout, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b):
    """(m,k) @ (k,n). Backward computes an operand's product only when that
    operand needs a gradient."""
    _same_dtype(a, b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeMismatch(f"bad matmul {ad.shape} @ {bd.shape}")
    data = ad @ bd

    def backward(dout):
        if _wants_grad(a):
            _accum(a, dout @ bd.T)
        if _wants_grad(b):
            _accum(b, ad.T @ dout)

    return _make(data, (a, b), backward)


def affine(x, w, b):
    """(m,k) @ (k,n) + (n,) bias, one tape node. Same arithmetic as
    add(matmul(x, w), b), so the same bits forward and backward."""
    _same_dtype(x, w, b)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or b.data.shape != (wd.shape[1],):
        raise ShapeMismatch(f"bad affine {xd.shape} @ {wd.shape} + {b.data.shape}")
    data = xd @ wd
    data += b.data

    def backward(dout):
        if _wants_grad(x):
            _accum(x, dout @ wd.T)
        if _wants_grad(w):
            _accum(w, xd.T @ dout)
        _accum(b, dout.sum(axis=0))

    return _make(data, (x, w, b), backward)


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))
    data = a.data.transpose(axes)

    def backward(dout):
        _accum(a, dout.transpose(inv))

    return _make(data, (a,), backward)


def concat(tensors, axis=0):
    tensors = list(tensors)
    _same_dtype(*tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(dout):
        for t, piece in zip(tensors, np.split(dout, splits, axis=axis)):
            _accum(t, piece)

    return _make(data, tuple(tensors), backward)


def _scatter_rows(like, idx, rows):
    """Zeros shaped like `like`, with rows[j] added into row idx[j] for each
    j in order, bitwise equal to np.add.at(zeros, idx, rows): by one
    assignment where idx is strictly increasing, else by one 1-D np.add.at
    over flat element offsets (see the module docstring)."""
    g = np.zeros_like(like)
    if (idx[1:] > idx[:-1]).all():
        g[idx] += rows
        return g
    row_size = math.prod(like.shape[1:])
    flat = (idx[:, None] * row_size + np.arange(row_size)).reshape(-1)
    np.add.at(g.reshape(-1), flat, rows.reshape(-1))
    return g


def gather_rows(a, idx):
    """Select rows a[idx]; duplicate indices accumulate gradient."""
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]

    def backward(dout):
        if _wants_grad(a):
            _accum(a, _scatter_rows(a.data, idx, dout))

    return _make(data, (a,), backward)


def segment_mean(a, idx, lens):
    """(len(lens), d) means of the rows a[idx] in consecutive segments of
    lens[i] rows, an empty one giving a zero row. One tape node: forward sums
    each segment of the gathered rows with np.add.reduceat, backward spreads
    each mean's gradient over its segment's rows with np.repeat. A negative
    length raises ShapeMismatch."""
    idx, lens = np.asarray(idx, dtype=np.int64), np.asarray(lens, dtype=np.int64)
    if (lens < 0).any() or lens.sum() != len(idx):
        raise ShapeMismatch(f"segments of lengths {lens.tolist()} over {len(idx)} indices")
    dt = a.data.dtype
    denom = np.maximum(lens, 1).astype(dt)[:, None]
    starts = np.cumsum(lens) - lens
    if lens.all():
        # no empty segment, so no zero rows to fill in
        data = np.add.reduceat(a.data[idx], starts, axis=0) / denom
    else:
        full = lens > 0
        data = np.zeros((len(lens), a.data.shape[1]), dtype=dt)
        if full.any():
            data[full] = np.add.reduceat(a.data[idx], starts[full], axis=0) / denom[full]

    def backward(dout):
        if _wants_grad(a):
            _accum(a, _scatter_rows(a.data, idx, np.repeat(dout / denom, lens, axis=0)))

    return _make(data, (a,), backward)


def put_rows(x, idx, n):
    """Scatter rows of x into a zero (n, d) array at unique positions idx.
    Strictly increasing positions, as embedding passes, are unique without a
    sort."""
    idx = np.asarray(idx, dtype=np.int64)
    if not (idx[1:] > idx[:-1]).all() and len(np.unique(idx)) != len(idx):
        raise ShapeMismatch("put_rows needs unique target rows")
    data = np.zeros((n,) + x.data.shape[1:], dtype=x.data.dtype)
    data[idx] = x.data

    def backward(dout):
        _accum(x, dout[idx])

    return _make(data, (x,), backward)


def table_attention(q, k, v, masks, starts, n_heads, rows=None):
    """Multi-head attention within each table of a packed batch.

    k and v are (N, d) rows of B tables stacked end to end; table i owns
    rows starts[i] up to starts[i + 1] (or N). `starts` must be a 1-D
    integer array that begins at 0, never decreases and stays <= N, with at
    least one table when N > 0; a repeated start is an empty table. A row
    attends only to rows of its own table, scaled by 1/sqrt(d / n_heads).
    `masks` holds one constant (n_i, n_i) array per table, shared across the
    heads: a bool or 0/1 visibility matrix, checked here on every call, or
    the additive bias a sequence keeps (`encoding.Sequence.attention_bias`),
    valid by construction and not checked again; weights where a matrix is
    False, or a bias -inf, are exactly zero. masks=None runs the plain
    softmax.
    q holds the query rows: all N rows, or, when `rows` is given, only the
    packed rows rows[0] < rows[1] < ... of [0, N), one q row each; other
    orders, repeats and rows out of range raise ShapeMismatch. Each table
    then attends at its rows among `rows` only, under those rows of its
    mask, and a table with none gets zero key and value gradients.
    Returns the (len(q), d) context rows. One tape node for the whole batch.
    The per-head views of q, k, v, the context and, in the backward pass,
    of dout, dq, dk and dv are made once per batch; each table's loop step
    takes its row slices of them, so it runs only the two products and the
    softmax (`kernels.attention_heads`) forward, and their gradients
    backward, with no per-table reshapes or copies. No operand and no
    `dout` is written into.
    """
    _same_dtype(q, k, v)
    n_rows, d = k.data.shape
    starts = kernels.check_starts(starts, n_rows)
    rows = None if rows is None else kernels.check_rows(rows, n_rows)
    n_query = n_rows if rows is None else len(rows)
    if q.data.shape != (n_query, d) or v.data.shape != (n_rows, d) or d % n_heads:
        raise ShapeMismatch(f"bad attention operands {q.data.shape}, {k.data.shape}, {v.data.shape}")
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)
    bounds = list(zip(starts.tolist(), starts[1:].tolist() + [n_rows]))
    if masks is not None:
        if len(masks) != len(bounds):
            raise ShapeMismatch(f"{len(masks)} masks for {len(bounds)} tables")
        for mask, (s, e) in zip(masks, bounds):
            if mask.dtype.kind != "f":
                kernels.check_mask(mask)
            if mask.shape != (e - s, e - s):
                raise ShapeMismatch(f"mask {mask.shape} for a table of {e - s} rows")
    # each table's slice of the query rows
    if rows is None:
        q_bounds = bounds
    else:
        ends = [e for _, e in bounds]
        q_bounds = list(zip(np.searchsorted(rows, starts).tolist(), np.searchsorted(rows, ends).tolist()))

    def heads(x):
        # (h, rows, dh) view of a packed (rows, d) array
        return x.reshape(len(x), n_heads, dh).transpose(1, 0, 2)

    # C-ordered, so that each table's row slice is contiguous
    out = np.empty(q.data.shape, q.data.dtype)
    q3, k3, v3, out3 = heads(q.data), heads(k.data), heads(v.data), heads(out)
    k3t, v3t, q3t = k3.transpose(0, 2, 1), v3.transpose(0, 2, 1), q3.transpose(0, 2, 1)
    saved = []
    for i, ((s, e), (qs, qe)) in enumerate(zip(bounds, q_bounds)):
        if qs == qe:
            continue
        mask = None if masks is None else masks[i]
        if mask is not None and rows is not None:
            mask = mask[rows[qs:qe] - s]
        probs = kernels.attention_heads(q3[:, qs:qe], k3t[:, :, s:e], v3[:, s:e], mask, out3[:, qs:qe])
        saved.append((s, e, qs, qe, probs))

    def backward(dout):
        # a table with no query rows gets zero key and value gradients
        fill = np.empty if len(saved) == len(bounds) else np.zeros
        dq = np.empty(q.data.shape, q.data.dtype)
        dk, dv = fill(k.data.shape, k.data.dtype), fill(v.data.shape, v.data.dtype)
        dout3, dq3, dk3, dv3 = heads(dout), heads(dq), heads(dk), heads(dv)
        dk3t = dk3.transpose(0, 2, 1)
        for s, e, qs, qe, probs in saved:
            dctx = dout3[:, qs:qe]
            # masked positions hold prob 0, so softmax_bwd routes zero gradient there
            dscores = kernels.softmax_bwd(probs, dctx @ v3t[:, :, s:e])
            dscores *= c
            np.matmul(dscores, k3[:, s:e], out=dq3[:, qs:qe])
            np.matmul(q3t[:, :, qs:qe], dscores, out=dk3t[:, :, s:e])
            np.matmul(probs.transpose(0, 2, 1), dctx, out=dv3[:, s:e])
        _accum(q, dq)
        _accum(k, dk)
        _accum(v, dv)

    return _make(out, (q, k, v), backward)


def layer_norm(x, gamma, beta, eps=1e-12):
    _same_dtype(x, gamma, beta)
    y, xhat, rstd = kernels.layer_norm_fwd(x.data, gamma.data, beta.data, eps)

    def backward(dout):
        dx, dgamma, dbeta = kernels.layer_norm_bwd(xhat, gamma.data, rstd, dout)
        _accum(x, dx)
        _accum(gamma, dgamma)
        _accum(beta, dbeta)

    return _make(y, (x, gamma, beta), backward)


def gelu(x):
    y, cdf = kernels.gelu_fwd(x.data)

    def backward(dout):
        _accum(x, kernels.gelu_bwd(x.data, cdf, dout))

    return _make(y, (x,), backward)


def _cross_entropy(z, targets):
    """Summed -log softmax(z)[i, targets[i]] over the rows of z, and the
    (exp, row sum) pair the backward pass reuses."""
    m = z.max(axis=1, keepdims=True)
    ez = np.exp(z - m)
    denom = ez.sum(axis=1, keepdims=True)
    logp = (z - m) - np.log(denom)
    return -logp[np.arange(len(z)), targets].sum(dtype=z.dtype), ez, denom


def _cross_entropy_grad(ez, denom, targets, dout):
    g = ez / denom
    g[np.arange(len(g)), targets] -= 1.0
    return g * dout


def cross_entropy_sum(logits, targets):
    """Sum of -log softmax(logits)[i, targets[i]] over rows.

    Returned as a 0-d tensor; the gradient is the classic softmax-minus-onehot.
    """
    targets = np.asarray(targets, dtype=np.int64)
    loss, ez, denom = _cross_entropy(logits.data, targets)

    def backward(dout):
        _accum(logits, _cross_entropy_grad(ez, denom, targets, dout))

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def candidate_cross_entropy_sum(x, cands, candidates, golds):
    """Masked-entity loss of a packed batch: each table's rows of x scored
    against that table's own candidate rows, cross-entropy summed.

    x is (M, d) with len(golds[i]) rows for table i, tables end to end; cands
    is (C, d) with len(candidates[i]) rows for table i. candidates[i] holds
    table i's sorted candidate ids and golds[i] the gold id of each of its
    rows; a gold not among its table's candidates raises UnknownId. Returns
    the 0-d loss, the sum of the tables' sums in table order, and the number
    of rows whose first highest-scoring candidate is the gold. One tape node
    for the whole batch; forward and backward loop over the tables in numpy.
    """
    _same_dtype(x, cands)
    xd, cd = x.data, cands.data
    n_rows, n_cands = [len(g) for g in golds], [len(c) for c in candidates]
    if len(n_rows) != len(n_cands) or xd.ndim != 2 or xd.shape[1:] != cd.shape[1:] \
            or sum(n_rows) != len(xd) or sum(n_cands) != len(cd):
        raise ShapeMismatch(f"bad candidate scoring of {xd.shape} against {cd.shape}")
    loss = np.zeros((), dtype=xd.dtype)
    correct = 0
    saved = []
    for ids, gold, xe, ce in zip(candidates, golds, np.cumsum(n_rows), np.cumsum(n_cands)):
        if not len(gold):
            continue
        xs, cs = slice(xe - len(gold), xe), slice(ce - len(ids), ce)
        target = np.searchsorted(ids, gold)
        if not len(ids) or (ids[np.minimum(target, len(ids) - 1)] != gold).any():
            raise UnknownId(f"gold entity not among its table's {len(ids)} candidates")
        z = xd[xs] @ cd[cs].T
        part, ez, denom = _cross_entropy(z, target)
        loss += part
        correct += int((z.argmax(axis=1) == target).sum())
        saved.append((xs, cs, target, ez, denom))

    def backward(dout):
        dx, dc = np.zeros_like(xd), np.zeros_like(cd)
        for xs, cs, target, ez, denom in saved:
            g = _cross_entropy_grad(ez, denom, target, dout)
            dx[xs] = g @ cd[cs]
            dc[cs] = g.T @ xd[xs]
        _accum(x, dx)
        _accum(cands, dc)

    return _make(loss, (x, cands), backward), correct


def candidate_scores(x, cands, lens):
    """(1, sum(lens)) scores of each row of x against its own candidate rows.

    x is (B, d); cands is (C, d) with lens[i] rows for row i, rows end to end.
    The scores of row i are the bits of x[i:i+1] @ cands[its rows].T, and come
    after those of rows 0..i-1. One tape node for the batch; forward and
    backward loop over the rows in numpy, like `candidate_cross_entropy_sum`.
    """
    _same_dtype(x, cands)
    xd, cd = x.data, cands.data
    lens = np.asarray(lens, dtype=np.int64)
    if xd.ndim != 2 or xd.shape[1:] != cd.shape[1:] or len(lens) != len(xd) or (lens < 0).any() or lens.sum() != len(cd):
        raise ShapeMismatch(f"bad candidate scoring of {xd.shape} against {cd.shape} in segments {lens.tolist()}")
    segs = [slice(end - n, end) for n, end in zip(lens.tolist(), np.cumsum(lens).tolist())]
    data = np.empty((1, len(cd)), dtype=xd.dtype)
    for i, seg in enumerate(segs):
        data[:, seg] = xd[i : i + 1] @ cd[seg].T

    def backward(dout):
        dx, dc = np.empty_like(xd), np.empty_like(cd)
        for i, seg in enumerate(segs):
            dx[i : i + 1] = dout[:, seg] @ cd[seg]
            dc[seg] = dout[:, seg].T @ xd[i : i + 1]
        _accum(x, dx)
        _accum(cands, dc)

    return _make(data, (x, cands), backward)


def bce_with_logits_sum(logits, labels):
    """Sum of binary cross-entropy with a numerically safe formulation."""
    y = np.asarray(labels, dtype=logits.data.dtype)
    x = logits.data
    if x.shape != y.shape:
        raise ShapeMismatch(f"logits {x.shape} vs labels {y.shape}")
    # max(x,0) - x*y + log(1 + exp(-|x|)) is exact and never overflows
    loss = (np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))).sum(dtype=x.dtype)

    def backward(dout):
        # exp(-x) overflows to inf below about -88 in float32, and 1/inf is
        # the exact sigmoid there (0), so only the warning is unwanted
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x))
        _accum(logits, (sig - y) * dout)

    return _make(np.asarray(loss, dtype=x.dtype), (logits,), backward)


# ---------------------------------------------------------------------------
# optimization


def linear_lr(lr0, step, total_steps):
    """Linearly decayed rate: full at step 0, zero from total_steps onward."""
    return lr0 * max(0.0, 1.0 - step / total_steps)


# Elements per `kernels.adam_update` call; `Adam` says why.
CHUNK = 1 << 16


class Adam:
    """Adam with bias correction and a linear decay schedule.

    The epsilon term is added outside the square root. The optimizer owns its
    parameters' storage: it copies them, which must share one dtype, into one
    flat buffer `flat` and rebinds each `.data` to its view there. Flat
    moments back `m` and `v`, kept as views in each parameter's shape.

    A step gathers the gradients of each run of consecutive parameters that
    have one into a flat gradient buffer (one `np.concatenate`), unless
    `grad_norm` has just gathered these very gradients (`descend` calls it
    first, to check the norm on the gathered runs), then updates the run in
    place through `kernels.adam_update`, once per chunk of
    `CHUNK` (64k) elements, so that a chunk's operands and two chunk-sized
    scratch arrays stay in cache. Per step, with 1 BLAS thread:

        workload          tensor by tensor   64k chunks
        tasks             510-719 us         121-141 us
        pretrain_small    706-935 us         348-370 us
        pretrain_long     1721-1847 us       1431-1468 us

    One in-place pass over the whole `pretrain_long` buffer took 1822-1880
    us, no faster than the tensor loop. The update is elementwise, so every
    parameter gets the same bits as a tensor-by-tensor update. A parameter
    without a gradient is skipped, and its moments stay as they are.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr0, total_steps):
        self.params = [p for p in params if p.requires_grad]
        self.lr0 = float(lr0)
        self.total_steps = int(total_steps)
        self.steps_done = 0
        dtypes = sorted({str(p.data.dtype) for p in self.params})
        if len(dtypes) > 1:
            raise ShapeMismatch(f"Adam needs one dtype for all parameters, got {', '.join(dtypes)}")
        seen = set()
        for i, p in enumerate(self.params):
            if id(p) in seen:
                raise ShapeMismatch(f"{_param_name(p, i)} is listed twice")
            seen.add(id(p))
        self._offsets = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        n, dtype = self._offsets[-1], dtypes[0] if dtypes else np.float32
        self.flat = np.empty(n, dtype)
        self._grad = np.empty(n, dtype)
        self._m, self._v = np.zeros(n, dtype), np.zeros(n, dtype)
        self._scratch = np.empty((2, min(n, CHUNK)), dtype)
        self._gathered = None  # (runs, the gradients gathered) of the last grad_norm
        self.m, self.v = [], []
        for p, a, b in zip(self.params, self._offsets, self._offsets[1:]):
            shape = p.data.shape
            self.flat[a:b] = p.data.reshape(-1)
            p.data = self.flat[a:b].reshape(shape)
            self.m.append(self._m[a:b].reshape(shape))
            self.v.append(self._v[a:b].reshape(shape))

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def _gather(self):
        # Copy the gradients of each run of consecutive parameters that have
        # one into the flat gradient buffer; returns the runs' (start, end)
        # offsets there. A gradient of another shape raises first.
        for i, p in enumerate(self.params):
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ShapeMismatch(f"gradient of {_param_name(p, i)} has shape {p.grad.shape}, not {p.data.shape}")
        runs, i = [], 0
        for has_grad, run in itertools.groupby(self.params, key=lambda p: p.grad is not None):
            run = list(run)
            a, b = self._offsets[i], self._offsets[i + len(run)]
            i += len(run)
            if has_grad:
                np.concatenate([p.grad for p in run], axis=None, out=self._grad[a:b])
                runs.append((a, b))
        return runs

    def grad_norm(self):
        """Gather the gradients into the flat buffer, where the next `step`
        reads them, and return their global L2 norm: one np.vdot per run of
        consecutive parameters that have a gradient. Each run's squares are
        summed in its dtype, so a float32 run whose norm passes about 1.8e19
        reads as inf."""
        self._gathered = self._gather(), [p.grad for p in self.params]
        return _l2_norm(self._grad[a:b] for a, b in self._gathered[0])

    def step(self):
        gathered, self._gathered = self._gathered, None
        if gathered is not None and all(p.grad is g for p, g in zip(self.params, gathered[1])):
            runs = gathered[0]
        else:
            runs = self._gather()
        lr = linear_lr(self.lr0, self.steps_done, self.total_steps)
        t = self.steps_done + 1
        for a, b in runs:
            for c in range(a, b, CHUNK):
                e = min(c + CHUNK, b)
                s1, s2 = self._scratch[:, : e - c]
                kernels.adam_update(
                    self.flat[c:e], self._grad[c:e], self._m[c:e], self._v[c:e],
                    t, lr, self.BETA1, self.BETA2, self.EPS, s1, s2,
                )
        self.steps_done = t


def _param_name(p, i):
    return f"parameter {p.name!r}" if p.name else f"parameter {i}"


def _l2_norm(arrays):
    return math.sqrt(sum(float(np.vdot(a, a)) for a in arrays))


def grad_norm(params):
    """Global L2 norm of the parameters' gradients, one np.vdot per gradient.

    Each square is summed in the gradient's dtype, so a float32 gradient
    whose norm passes about 1.8e19 reads as inf. `descend` takes the norm
    from the optimizer instead (`Adam.grad_norm`), over the runs it has
    gathered, where that limit holds per run.
    """
    return _l2_norm(p.grad for p in params if p.grad is not None)


def descend(loss, opt, where):
    """Backpropagate a scalar loss and take one step of `opt`; returns the loss.

    A loss, or a global gradient norm, that is not finite raises
    NonFiniteLoss, with `where` in its message, before any parameter moves.
    The norm is taken on the runs of gradients that `opt` gathers into its
    flat buffer for the step (`Adam.grad_norm`), so a float32 norm reads as
    inf once one run's passes about 1.8e19. The step stays `opt.step()`,
    with no argument, which is what a wrapper of `Adam.step` sees.
    """
    value = float(loss.data)
    if not math.isfinite(value):
        raise NonFiniteLoss(f"loss is {value} {where}")
    loss.backward()
    norm = opt.grad_norm()
    if not math.isfinite(norm):
        raise NonFiniteLoss(f"gradient norm is {norm} {where}")
    opt.step()
    return value


def train(params, settings, n_items, rng, batch_loss, end_epoch=None, max_steps=None):
    """The one training loop of every phase; returns (step_losses, epoch_sums).

    Adam decays linearly from settings.lr0 over settings.epochs epochs, or over
    max_steps steps if given. Each epoch cuts one rng.permutation(n_items) into
    batches of settings.batch_size; each batch zeroes the gradients, then
    batch_loss(indices) gives None (no step) or (loss, table_ids) and `descend`
    steps. An epoch sums its step losses left to right from 0.0. A max_steps
    run takes exactly that many steps, cycling through as many epochs as they
    need, and ends early after an epoch that took no step, which would repeat
    forever. end_epoch(epoch, loss_sum) runs after every epoch, a cut-short
    last one too; True ends the run. A non-finite loss or gradient norm raises
    NonFiniteLoss, naming the step, the epoch and the batch's tables, before
    any parameter moves.
    """
    if settings.batch_size < 1:
        raise ConfigError(f"batch_size must be at least 1, got {settings.batch_size}")
    budget = settings.epochs * max(1, -(-n_items // settings.batch_size)) if max_steps is None else max_steps
    opt = Adam(params, lr0=settings.lr0, total_steps=budget)
    step_losses, epoch_sums = [], []
    while len(epoch_sums) < settings.epochs if max_steps is None else len(step_losses) < max_steps:
        epoch, first, total = len(epoch_sums), len(step_losses), 0.0
        order = rng.permutation(n_items)
        for b in range(0, n_items, settings.batch_size):
            if len(step_losses) == budget:
                break
            opt.zero_grad()
            out = batch_loss(order[b : b + settings.batch_size])
            if out is not None:
                where = f"at step {len(step_losses)} (epoch {epoch}), tables {', '.join(out[1])}"
                step_losses.append(descend(out[0], opt, where))
                total += step_losses[-1]
        epoch_sums.append(total)
        if (end_epoch is not None and end_epoch(epoch, total)) or (max_steps is not None and len(step_losses) == first):
            break
    return step_losses, epoch_sums


# ---------------------------------------------------------------------------
# finite differences


def grad_check(loss_fn, params, eps=1e-5, indices=None):
    """Compare analytic gradients against central differences.

    loss_fn rebuilds the graph from the current parameter values and returns a
    scalar Tensor. Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1). Returns the worst error found. `indices`
    optionally restricts which flat coordinates of each parameter are probed.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        probe = range(flat.size) if indices is None else indices
        for i in probe:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(loss_fn().data)
            flat[i] = orig - eps
            lo = float(loss_fn().data)
            flat[i] = orig
            num = (hi - lo) / (2.0 * eps)
            ana = float(aflat[i])
            err = abs(ana - num) / max(abs(ana), abs(num), 1.0)
            if err > worst:
                worst = err
    return worst
