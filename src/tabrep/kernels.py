"""Numeric hot kernels: plain numpy, one function per kernel.

The autodiff ops in `numeric` call these for the work of attention, layer
norm, GELU and Adam. Each kernel follows plain IEEE evaluation order in numpy,
which the determinism tests rely on.

Masking convention: `mask` is a (n, n) bool array; mask[i, j] False means
position i must ignore position j (a 0/1 integer array reads the same way).
`attention_fwd` also takes a (m, n) mask of m query rows over n key rows.
The mask becomes a 2-D additive bias (`mask_bias`), 0 where visible and -inf
where not, in the scores' dtype, broadcast over the heads. A sequence builds
its bias once (`encoding.Sequence.attention_bias`) and every later
attention adds that one: a float array in place of a mask is taken as the
bias itself, in the scores' dtype, and is not checked, since
`build_visibility` sets the diagonal of every matrix a bias is built from.
`attention_heads` runs one table's attention on per-head views, which
`numeric.table_attention` makes once per batch and `attention_fwd` per
call. Masked attention weights come out
exactly 0.0, not merely small. Adding 0 leaves every visible score as it
was, except that -0.0 becomes +0.0, which no exp can tell apart; so for
finite scores the weights have the bits of the `np.where(mask, scores,
-inf)` form, and an all-ones mask gives the bits of the plain softmax.

Each softmax makes one new array and works in place on it: subtract the row
max, exp, divide by the row sum. In-place ufuncs give the same bits as their
out-of-place forms, the row max is exact in any order (it reduces the
columns of a transposed copy, which is faster on short rows), and the row
sum is `np.add.reduce`, the same pairwise sum as `np.sum`. No kernel writes
into its inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _erf

from .errors import AllMaskedRow, ShapeMismatch

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


def check_mask(mask):
    # Checked once per call; the kernels assume every row has a visible position.
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ShapeMismatch(f"mask must be square, got {mask.shape}")
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise AllMaskedRow(f"visibility row {bad} is entirely zero")


def check_rows(rows, n_rows):
    # Query rows: strictly increasing indices in [0, n_rows). Returns them
    # as int64.
    rows = np.asarray(rows)
    if rows.ndim != 1 or len(rows) and (
        rows.dtype.kind not in "iu" or rows[0] < 0 or rows[-1] >= n_rows or (rows[1:] <= rows[:-1]).any()
    ):
        raise ShapeMismatch(f"query rows must be sorted, distinct and in [0, {n_rows})")
    return rows.astype(np.int64, copy=False)


def check_starts(starts, n_rows):
    # Table starts of a packed batch of n_rows rows: a 1-D integer array
    # that begins at 0, never decreases and stays <= n_rows (a repeated start
    # is an empty table), with at least one table when n_rows > 0. Returns
    # them as int64.
    starts = np.asarray(starts)
    if starts.ndim != 1 or not (
        starts.dtype.kind in "iu" and starts[0] == 0 and starts[-1] <= n_rows and (starts[1:] >= starts[:-1]).all()
        if len(starts)
        else n_rows == 0
    ):
        raise ShapeMismatch(f"table starts must begin at 0, never decrease and stay <= {n_rows}")
    return starts.astype(np.int64, copy=False)


def _row_max(x):
    # The max of each row of x over its last axis, shape x.shape[:-1]. numpy
    # reduces a short contiguous row at a fixed cost per row, so this reduces
    # the columns of a transposed copy instead, elementwise over all rows at
    # once: 4 us against 11 us at (4, 28, 28). A max is exact in any order;
    # only the sign of a max that is a zero of both signs can differ, and no
    # subtraction and exp below can tell it apart.
    return np.maximum.reduce(np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T), axis=0).reshape(x.shape[:-1])


def _softmax(x, out):
    # Softmax of x over its last axis into out, which may be x itself:
    # subtract the row max, exp, divide by the row sum, each in place on out.
    np.subtract(x, _row_max(x)[..., None], out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def softmax_fwd(scores):
    # scores: (k, n, n). Row-wise stable softmax over the last axis.
    return _softmax(scores, np.empty_like(scores))


def mask_bias(mask, dtype):
    # The additive bias of a mask in `dtype`: 0 where visible, -inf where not.
    dtype = np.dtype(dtype)
    return np.where(mask, dtype.type(0), dtype.type(-np.inf))


def masked_softmax_fwd(scores, mask):
    # Additive 2-D bias before the softmax; masked weights are exactly 0. A
    # float `mask` is the bias itself, in the scores' dtype.
    if mask.dtype.kind != "f":
        mask = mask_bias(mask, scores.dtype)
    elif mask.dtype != scores.dtype:
        raise ShapeMismatch(f"a {mask.dtype} attention bias for {scores.dtype} scores")
    out = scores + mask
    return _softmax(out, out)


def attention_heads(q3, k3t, v3, mask, out3):
    # One table's attention on per-head views: q3 (h, m, dh) query rows,
    # k3t (h, dh, n) and v3 (h, n, dh) key and value rows, mask (m, n), a
    # bias or None. Scores scale by 1/sqrt(dh). Writes the context into out3
    # (h, m, dh) and returns the weights (h, m, n).
    scores = q3 @ k3t
    scores *= 1.0 / math.sqrt(q3.shape[-1])
    probs = softmax_fwd(scores) if mask is None else masked_softmax_fwd(scores, mask)
    np.matmul(probs, v3, out=out3)
    return probs


def attention_fwd(q, k, v, mask, n_heads, out=None):
    # q: (m, d) query rows; k, v: (n, d) key rows; mask: (m, n), or None for
    # the plain softmax. Scores scale by 1/sqrt(d / n_heads). Returns the
    # (m, d) context and the per-head views the backward pass reuses:
    # q3 (h, m, dh), k3t (h, dh, n), v3 (h, n, dh) and the weights (h, m, n).
    # With `out`, a C-contiguous (m, d) array such as a row slice of a
    # C-ordered array, the context is written there through a per-head view
    # and `out` is returned; the bits are the same as without it.
    m, d = q.shape
    dh = d // n_heads
    q3 = q.reshape(m, n_heads, dh).transpose(1, 0, 2)
    k3t = k.reshape(len(k), n_heads, dh).transpose(1, 2, 0)
    v3 = v.reshape(len(v), n_heads, dh).transpose(1, 0, 2)
    if out is None:
        out = np.empty((m, d), dtype=np.result_type(q, k, v))
    elif out.shape != (m, d) or not out.flags.c_contiguous:
        raise ShapeMismatch(f"attention output must be a C-contiguous {(m, d)} array, got {out.shape}")
    probs = attention_heads(q3, k3t, v3, mask, out.reshape(m, n_heads, dh).transpose(1, 0, 2))
    return out, (q3, k3t, v3, probs)


def softmax_bwd(probs, dout):
    # probs * (dout - sum(probs * dout)) in one new array; the product is
    # commutative, so the in-place steps give the same bits.
    out = probs * dout
    inner = np.add.reduce(out, axis=-1, keepdims=True)
    np.subtract(dout, inner, out=out)
    out *= probs
    return out


def layer_norm_fwd(x, gamma, beta, eps):
    # x: (m, d); returns (y, xhat, rstd): the output, the normalized rows
    # (x - mean) * rstd that layer_norm_bwd reuses, and the per-row rstd.
    # Each mean is a plain sum over d, the same bits as np.mean; the in-place
    # updates give the same bits as their out-of-place forms.
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    rstd = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= rstd
    y = xhat * gamma
    y += beta
    return y, xhat, rstd[:, 0]


def layer_norm_bwd(xhat, gamma, rstd, dy):
    d = xhat.shape[-1]
    dgamma = np.sum(dy * xhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    dxhat = dy * gamma
    t1 = np.sum(dxhat, axis=-1, keepdims=True) / d
    t2 = np.sum(dxhat * xhat, axis=-1, keepdims=True) / d
    # dx = (dxhat - t1 - xhat * t2) * rstd, in place
    dxhat -= t1
    dxhat -= xhat * t2
    dxhat *= rstd[:, None]
    return dxhat, dgamma, dbeta


def gelu_fwd(x):
    # Exact erf form, not the tanh approximation. Returns x * cdf and the
    # normal cdf at x, which gelu_bwd reuses.
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    return x * cdf, cdf


def gelu_bwd(x, cdf, dy):
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return dy * (cdf + x * pdf)


def adam_update(param, grad, m, v, step, lr, beta1, beta2, eps, s1=None, s2=None):
    # Elementwise, in place on the arrays as stored. eps sits outside the sqrt.
    # s1 and s2 are scratch arrays of param's shape (made here when not
    # given). Each in-place ufunc computes one operation of the out-of-place
    #   m = beta1 * m + (1 - beta1) * grad
    #   v = beta2 * v + (1 - beta2) * grad * grad
    #   param -= lr * (m / (1 - beta1**step)) / (sqrt(v / (1 - beta2**step)) + eps)
    # in the same order, so the bits are the same.
    if s1 is None:
        s1, s2 = np.empty_like(param), np.empty_like(param)
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=s1)
    m += s1
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=s1)
    s1 *= grad
    v += s1
    np.divide(m, 1.0 - beta1**step, out=s1)
    s1 *= lr
    np.divide(v, 1.0 - beta2**step, out=s2)
    np.sqrt(s2, out=s2)
    s2 += eps
    s1 /= s2
    param -= s1
