"""Numeric kernels against slow, obviously-correct references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabrep import kernels
from tabrep.errors import AllMaskedRow, ShapeMismatch


# -- oracles -----------------------------------------------------------------


def softmax_rows_oracle(scores):
    """Per-row softmax computed one scalar at a time."""
    out = np.zeros_like(scores)
    k, n, _ = scores.shape
    for h in range(k):
        for i in range(n):
            row = scores[h, i]
            m = row.max()
            e = [math.exp(float(x) - float(m)) for x in row]
            s = sum(e)
            out[h, i] = [x / s for x in e]
    return out


def masked_softmax_oracle(scores, mask):
    out = np.zeros_like(scores)
    k, n, _ = scores.shape
    for h in range(k):
        for i in range(n):
            vis = [j for j in range(n) if mask[i, j]]
            m = max(float(scores[h, i, j]) for j in vis)
            e = {j: math.exp(float(scores[h, i, j]) - m) for j in vis}
            s = sum(e.values())
            for j in vis:
                out[h, i, j] = e[j] / s
    return out


def softmax_formula_oracle(scores):
    # the out-of-place form the kernels replaced; the kernels must keep its bits
    m = np.max(scores, axis=-1, keepdims=True)
    e = np.exp(scores - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def masked_softmax_where_oracle(scores, mask):
    # -inf substituted by a 3-D np.where, then the out-of-place softmax
    return softmax_formula_oracle(np.where(mask, scores, np.array(-np.inf, dtype=scores.dtype)))


def softmax_bwd_formula_oracle(probs, dout):
    return probs * (dout - np.sum(probs * dout, axis=-1, keepdims=True))


def attention_formula_oracle(q, k, v, mask, n_heads):
    m, d = q.shape
    dh = d // n_heads
    q3 = q.reshape(m, n_heads, dh).transpose(1, 0, 2)
    k3t = k.reshape(len(k), n_heads, dh).transpose(1, 2, 0)
    v3 = v.reshape(len(v), n_heads, dh).transpose(1, 0, 2)
    scores = (q3 @ k3t) * (1.0 / math.sqrt(dh))
    probs = softmax_formula_oracle(scores) if mask is None else masked_softmax_where_oracle(scores, mask)
    return (probs @ v3).transpose(1, 0, 2).reshape(m, d)


def gelu_oracle(x):
    return np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.ravel()]).reshape(x.shape)


# -- forward kernels ----------------------------------------------------------


def test_softmax_matches_oracle():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(3, 7, 7)).astype(np.float64)
    got = kernels.softmax_fwd(scores)
    np.testing.assert_allclose(got, softmax_rows_oracle(scores), atol=1e-12)
    np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)


def test_masked_softmax_matches_oracle_and_zeros():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(2, 9, 9)).astype(np.float64)
    mask = (rng.random((9, 9)) < 0.6).astype(np.uint8)
    np.fill_diagonal(mask, 1)
    got = kernels.masked_softmax_fwd(scores, mask)
    np.testing.assert_allclose(got, masked_softmax_oracle(scores, mask), atol=1e-12)
    # hard zeros, not small numbers
    assert not got[:, mask == 0].any()


def test_masked_softmax_all_visible_is_bitwise_plain():
    # The masked kernel with a full mask must share the arithmetic of the
    # plain kernel exactly; downstream determinism checks lean on this.
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        scores = rng.normal(size=(4, n, n)).astype(np.float32)
        mask = np.ones((n, n), dtype=np.uint8)
        a = kernels.masked_softmax_fwd(scores, mask)
        b = kernels.softmax_fwd(scores)
        assert a.tobytes() == b.tobytes()


def signed_zero_scores(rng, dtype, h=3, m=5, n=8):
    """(h, m, n) scores with +0.0 and -0.0 scattered in, and rows whose
    largest visible score is exactly +0.0 or -0.0; the matching (m, n) mask
    has rows that see only themselves."""
    scores = rng.normal(size=(h, m, n)).astype(dtype)
    scores[rng.random((h, m, n)) < 0.2] = 0.0
    scores[rng.random((h, m, n)) < 0.2] = -0.0
    scores[:, 1] = -np.abs(scores[:, 1])
    scores[:, 1, 2] = -0.0
    scores[:, 3] = -np.abs(scores[:, 3])
    scores[:, 3, 0] = 0.0
    mask = rng.random((m, n)) < 0.5
    mask[:, 0] = mask[np.arange(m), np.arange(m)] = True
    mask[1, 2] = True
    mask[2] = mask[4] = False
    mask[2, 2] = mask[4, 4] = True  # rows that see only themselves
    return scores, mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_softmax_has_the_bits_of_the_where_form(dtype):
    rng = np.random.default_rng(21)
    for _ in range(10):
        scores, mask = signed_zero_scores(rng, dtype)
        assert np.signbit(scores[scores == 0]).any() and not np.signbit(scores[scores == 0]).all()
        for m in (mask, mask.astype(np.uint8)):
            got = kernels.masked_softmax_fwd(scores, m)
            assert got.dtype == dtype
            assert got.tobytes() == masked_softmax_where_oracle(scores, m).tobytes()
        assert (got[:, [2, 4]].sum(axis=-1) == 1.0).all()
    # a non-contiguous view of the scores reads the same
    wide = rng.normal(size=(3, 8, 5)).astype(dtype)
    view = wide.transpose(0, 2, 1)
    assert kernels.masked_softmax_fwd(view, mask).tobytes() == masked_softmax_where_oracle(view, mask).tobytes()
    assert kernels.softmax_fwd(view).tobytes() == softmax_formula_oracle(view).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_and_its_backward_have_the_bits_of_the_formulas(dtype):
    rng = np.random.default_rng(22)
    scores, _ = signed_zero_scores(rng, dtype)
    probs = kernels.softmax_fwd(scores)
    assert probs.tobytes() == softmax_formula_oracle(scores).tobytes()
    dout = rng.normal(size=scores.shape).astype(dtype)
    dout[:, 0] = 0.0
    got = kernels.softmax_bwd(probs, dout)
    assert got.dtype == dtype
    assert got.tobytes() == softmax_bwd_formula_oracle(probs, dout).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_max_has_the_bits_of_the_last_axis_reduce(dtype):
    rng = np.random.default_rng(23)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0], dtype=dtype)
    for n in range(1, 41):  # every tail length of the SIMD loops
        x = np.stack([
            rng.choice(special, size=(6, n)),
            rng.choice(special[[0, 1, 3, 6]], size=(6, n)),  # rows whose max is often a zero
            np.full((6, n), -np.inf, dtype=dtype),  # a single visible entry per row
        ])
        x[2, np.arange(6), rng.integers(0, n, 6)] = rng.choice(special, 6)
        got, want = kernels._row_max(x), np.maximum.reduce(x, axis=-1)
        assert got.shape == want.shape and got.dtype == dtype
        # where the max is a zero of both signs, the reduce's own sign depends
        # on its order (it changes with n at the parent); equal values there
        zeros = x == 0
        both = (want == 0) & (zeros & np.signbit(x)).any(axis=-1) & (zeros & ~np.signbit(x)).any(axis=-1)
        assert got[~both].tobytes() == want[~both].tobytes()
        assert (got[both] == 0).all()
        # and the softmax cannot tell the two signs apart
        with np.errstate(invalid="ignore"):
            assert kernels.softmax_fwd(x).tobytes() == softmax_formula_oracle(x).tobytes()


@pytest.mark.parametrize("masked", [True, False])
def test_attention_writes_into_out_with_the_bits_it_returns(masked):
    rng = np.random.default_rng(23)
    q = rng.normal(size=(6, 16)).astype(np.float32)
    k, v = (rng.normal(size=(9, 16)).astype(np.float32) for _ in range(2))
    q[2] = 0.0
    k[:, :4] = -0.0
    mask = None
    if masked:
        mask = rng.random((6, 9)) < 0.5
        mask[:, 0] = True
    plain, heads = kernels.attention_fwd(q, k, v, mask, 4)
    assert plain.tobytes() == attention_formula_oracle(q, k, v, mask, 4).tobytes()
    packed = np.full((10, 16), np.nan, np.float32)
    got, heads_out = kernels.attention_fwd(q, k, v, mask, 4, out=packed[3:9])
    assert got.base is packed and got.tobytes() == plain.tobytes()
    assert np.isnan(packed[:3]).all() and np.isnan(packed[9:]).all()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(heads, heads_out))
    with pytest.raises(ShapeMismatch):
        kernels.attention_fwd(q, k, v, mask, 4, out=np.empty((16, 6), np.float32).T)
    with pytest.raises(ShapeMismatch):
        kernels.attention_fwd(q, k, v, mask, 4, out=packed[3:8])


def test_kernels_leave_their_inputs_unchanged():
    rng = np.random.default_rng(24)
    scores, mask = signed_zero_scores(rng, np.float32)
    dout = rng.normal(size=scores.shape).astype(np.float32)
    probs = kernels.masked_softmax_fwd(scores, mask)
    q = rng.normal(size=(5, 12)).astype(np.float32)
    k, v = (rng.normal(size=(8, 12)).astype(np.float32) for _ in range(2))
    inputs = (scores, mask, dout, probs, q, k, v)
    before = [a.tobytes() for a in inputs]
    kernels.softmax_fwd(scores)
    kernels.masked_softmax_fwd(scores, mask)
    kernels.masked_softmax_fwd(scores, mask.astype(np.uint8))
    kernels.softmax_bwd(probs, dout)
    kernels.attention_fwd(q, k, v, mask, 3)
    kernels.attention_fwd(q, k, v, None, 3, out=np.empty((5, 12), np.float32))
    assert [a.tobytes() for a in inputs] == before


def test_gelu_matches_erf_form():
    x = np.linspace(-6, 6, 301)
    np.testing.assert_allclose(kernels.gelu_fwd(x)[0], gelu_oracle(x), atol=1e-12)


def test_gelu_forward_is_bitwise_the_erf_form():
    # the forward returns x * cdf and keeps the cdf for the backward pass;
    # its output has the bits of 0.5 * x * (1 + erf(x / sqrt 2))
    from scipy.special import erf

    x = np.random.default_rng(4).normal(scale=3.0, size=100_000).astype(np.float32)
    y, cdf = kernels.gelu_fwd(x)
    assert y.dtype == cdf.dtype == np.float32
    assert y.tobytes() == (0.5 * x * (1.0 + erf(x * np.float32(1 / math.sqrt(2.0))))).tobytes()


def test_gelu_gradient_matches_finite_difference():
    x = np.linspace(-4, 4, 101)
    h = 1e-6
    num = (kernels.gelu_fwd(x + h)[0] - kernels.gelu_fwd(x - h)[0]) / (2 * h)
    got = kernels.gelu_bwd(x, kernels.gelu_fwd(x)[1], np.ones_like(x))
    np.testing.assert_allclose(got, num, atol=1e-8)


def test_layer_norm_statistics():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 16))
    gamma = np.ones(16)
    beta = np.zeros(16)
    y, xhat, rstd = kernels.layer_norm_fwd(x, gamma, beta, 1e-12)
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(xhat, (x - x.mean(axis=1, keepdims=True)) * rstd[:, None], atol=1e-12)
    np.testing.assert_allclose(rstd, 1.0 / np.sqrt(x.var(axis=1) + 1e-12), atol=1e-12)


def test_layer_norm_affine_params():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 8))
    gamma = rng.normal(size=8)
    beta = rng.normal(size=8)
    y, _, rstd = kernels.layer_norm_fwd(x, gamma, beta, 1e-12)
    xhat = (x - x.mean(axis=1, keepdims=True)) * rstd[:, None]
    np.testing.assert_allclose(y, xhat * gamma + beta, atol=1e-12)


def test_softmax_bwd_matches_jacobian():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(1, 4, 4))
    dout = rng.normal(size=(1, 4, 4))
    probs = kernels.softmax_fwd(scores)
    got = kernels.softmax_bwd(probs, dout)
    # full Jacobian per row: J = diag(p) - p p^T
    for i in range(4):
        p = probs[0, i]
        jac = np.diag(p) - np.outer(p, p)
        np.testing.assert_allclose(got[0, i], jac @ dout[0, i], atol=1e-12)


def test_adam_update_single_step():
    # one hand-computed step: m=0.1g, v=0.001g^2, bias-corrected exactly
    param = np.array([1.0, -2.0])
    grad = np.array([0.5, -1.5])
    m = np.zeros(2)
    v = np.zeros(2)
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    kernels.adam_update(param, grad, m, v, 1, lr, b1, b2, eps)
    mhat = (1 - b1) * grad / (1 - b1)
    vhat = (1 - b2) * grad * grad / (1 - b2)
    expect = np.array([1.0, -2.0]) - lr * mhat / (np.sqrt(vhat) + eps)
    np.testing.assert_allclose(param, expect, atol=1e-12)
    np.testing.assert_allclose(m, (1 - b1) * grad, atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_update_with_scratch_equals_the_out_of_place_formula_bitwise(dtype):
    rng = np.random.default_rng(5)
    n, lr, b1, b2, eps, step = 1000, 3e-3, 0.9, 0.999, 1e-8, 4
    param, grad, m = (rng.normal(size=n).astype(dtype) for _ in range(3))
    v = rng.random(n).astype(dtype)
    v[::7] = 0.0
    grad[::14] = 0.0  # v stays 0 there, so the denominator is eps alone
    m_ref = b1 * m + (1.0 - b1) * grad
    v_ref = b2 * v + (1.0 - b2) * grad * grad
    p_ref = param - lr * (m_ref / (1.0 - b1**step)) / (np.sqrt(v_ref / (1.0 - b2**step)) + eps)
    assert not v_ref[::14].any()
    s1, s2 = np.full(n, np.nan, dtype), np.full(n, np.nan, dtype)
    kernels.adam_update(param, grad, m, v, step, lr, b1, b2, eps, s1, s2)
    assert param.tobytes() == p_ref.tobytes()
    assert m.tobytes() == m_ref.tobytes() and v.tobytes() == v_ref.tobytes()


# -- mask validation ----------------------------------------------------------


def test_check_mask_rejects_non_square():
    with pytest.raises(ShapeMismatch):
        kernels.check_mask(np.ones((3, 4), dtype=np.uint8))


def test_check_mask_rejects_fully_masked_row():
    mask = np.ones((4, 4), dtype=np.uint8)
    mask[2, :] = 0
    with pytest.raises(AllMaskedRow):
        kernels.check_mask(mask)


# -- properties ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=16))
def test_softmax_shift_invariance(row):
    x = np.array(row, dtype=np.float64)[None, None, :]
    shifted = x + 123.0
    a = kernels.softmax_fwd(x)
    b = kernels.softmax_fwd(shifted)
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert abs(a.sum() - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_masked_rows_renormalize(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(1, n, n))
    mask = (rng.random((n, n)) < 0.5).astype(np.uint8)
    np.fill_diagonal(mask, 1)
    probs = kernels.masked_softmax_fwd(scores, mask)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    assert (probs >= 0).all()
