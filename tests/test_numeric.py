"""Autodiff engine: gradients against finite differences, exact loss algebra."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from tabrep import kernels
from tabrep import numeric as nm
from tabrep.encoder import load_tensors
from tabrep.errors import AllMaskedRow, ConfigError, NonFiniteLoss, ShapeMismatch, UnknownId


def t(arr, grad=True, name=None):
    return nm.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad, name=name)


# -- op-level gradient checks ---------------------------------------------------


def test_matmul_grads():
    rng = np.random.default_rng(0)
    a = t(rng.normal(size=(3, 4)))
    b = t(rng.normal(size=(4, 5)))

    def loss():
        out = nm.matmul(a, b)
        return nm.cross_entropy_sum(out, np.array([0, 2, 4]))

    assert nm.grad_check(loss, [a, b]) < 1e-7


class _NoTranspose(np.ndarray):
    @property
    def T(self):
        raise AssertionError("transposed for a product nobody needs")


def test_matmul_skips_the_product_of_a_constant_operand():
    rng = np.random.default_rng(1)
    const = nm.Tensor(rng.normal(size=(3, 4)))
    w = t(rng.normal(size=(4, 2)))
    w.data = w.data.view(_NoTranspose)  # the constant's product would need w.T
    nm.cross_entropy_sum(nm.matmul(const, w), np.array([0, 1, 1])).backward()
    assert const.grad is None and w.grad.shape == (4, 2)


def test_affine_grads_and_bits():
    rng = np.random.default_rng(10)
    x, w, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 5))), t(rng.normal(size=5))

    def loss():
        return nm.cross_entropy_sum(nm.affine(x, w, b), np.array([0, 2, 4]))

    assert nm.grad_check(loss, [x, w, b]) < 1e-7
    # the same arithmetic as matmul then add, bit for bit, forward and backward
    grads = []
    for build in (lambda: nm.affine(x, w, b), lambda: nm.add(nm.matmul(x, w), b)):
        for p in (x, w, b):
            p.grad = None
        out = build()
        nm.cross_entropy_sum(out, np.array([1, 1, 3])).backward()
        grads.append([out.data.tobytes()] + [p.grad.tobytes() for p in (x, w, b)])
    assert grads[0] == grads[1]
    with pytest.raises(ShapeMismatch):
        nm.affine(x, w, t(np.zeros(4)))


def _candidate_tables(rng):
    # three tables: 2 cells over 4 candidates, no cell over 3, 3 cells over 6
    candidates = [np.array([3, 5, 8, 9]), np.array([4, 6, 7]), np.array([3, 4, 10, 11, 12, 15])]
    golds = [np.array([8, 3]), np.array([], dtype=np.int64), np.array([15, 4, 15])]
    x = t(rng.normal(size=(5, 6)))
    cands = t(rng.normal(size=(13, 6)))
    return x, cands, candidates, golds


def test_candidate_cross_entropy_grads_and_reference():
    x, cands, candidates, golds = _candidate_tables(np.random.default_rng(11))

    def loss():
        return nm.candidate_cross_entropy_sum(x, cands, candidates, golds)[0]

    assert nm.grad_check(loss, [x, cands]) < 1e-7
    # the reference: one cross_entropy_sum per table over its own candidates
    ref, correct, xs, cs = 0.0, 0, 0, 0
    for ids, gold in zip(candidates, golds):
        z = x.data[xs : xs + len(gold)] @ cands.data[cs : cs + len(ids)].T
        target = np.searchsorted(ids, gold)
        if len(gold):
            ref += float(nm.cross_entropy_sum(nm.Tensor(z), target).data)
            correct += int((z.argmax(axis=1) == target).sum())
        xs, cs = xs + len(gold), cs + len(ids)
    got, got_correct = nm.candidate_cross_entropy_sum(x, cands, candidates, golds)
    assert float(got.data) == pytest.approx(ref, rel=1e-12) and got_correct == correct


def test_candidate_cross_entropy_rejects_a_gold_outside_its_candidates():
    x, cands, candidates, golds = _candidate_tables(np.random.default_rng(12))
    for bad in (np.array([8, 4]), np.array([8, 99]), np.array([8, 0])):  # 4 belongs to another table
        with pytest.raises(UnknownId):
            nm.candidate_cross_entropy_sum(x, cands, candidates, [bad] + golds[1:])
    with pytest.raises(ShapeMismatch):
        nm.candidate_cross_entropy_sum(x, cands, candidates[:2], golds[:2])


def test_candidate_scores_grads_and_bits():
    # three rows: 4 candidates, none, 6; the scores end to end
    rng = np.random.default_rng(13)
    x, cands, lens = t(rng.normal(size=(3, 6))), t(rng.normal(size=(10, 6))), [4, 0, 6]
    out = nm.candidate_scores(x, cands, lens)
    assert out.data.shape == (1, 10) and out._parents == (x, cands)
    want = np.concatenate([x.data[:1] @ cands.data[:4].T, x.data[2:] @ cands.data[4:].T], axis=1)
    assert out.data.tobytes() == want.tobytes()
    labels = rng.random((1, 10)) < 0.5
    assert nm.grad_check(lambda: nm.bce_with_logits_sum(nm.candidate_scores(x, cands, lens), labels), [x, cands]) < 1e-7
    for bad in ([4, 6], [4, 0, 5], [4, -1, 7]):
        with pytest.raises(ShapeMismatch):
            nm.candidate_scores(x, cands, bad)


def test_gather_accumulates_duplicate_rows():
    a = t(np.arange(6, dtype=np.float64).reshape(3, 2))
    idx = np.array([1, 1, 0])
    out = nm.gather_rows(a, idx)
    summed = nm.matmul(nm.Tensor(np.ones((1, 3))), out)
    loss = nm.matmul(summed, nm.Tensor(np.ones((2, 1))))
    loss.backward()
    np.testing.assert_array_equal(a.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_segment_mean_averages_consecutive_segments():
    rng = np.random.default_rng(2)
    a = t(rng.normal(size=(5, 3)))
    idx, lens = np.array([4, 0, 0, 2, 1]), [2, 0, 3]
    out = nm.segment_mean(a, idx, lens)
    np.testing.assert_allclose(out.data, [a.data[[4, 0]].mean(0), np.zeros(3), a.data[[0, 2, 1]].mean(0)])
    assert nm.segment_mean(a, [], [0, 0]).data.tobytes() == np.zeros((2, 3)).tobytes()
    assert out._parents == (a,)  # one node over the rows: no averaging-matrix leaf
    with pytest.raises(ShapeMismatch):
        nm.segment_mean(a, idx, [2, 0, 2])

    def loss():
        return nm.cross_entropy_sum(nm.segment_mean(a, idx, lens), np.array([0, 1, 2]))

    assert nm.grad_check(loss, [a]) < 1e-7


def test_segment_mean_rejects_a_negative_length():
    a = t(np.ones((4, 3)))
    with pytest.raises(ShapeMismatch):
        nm.segment_mean(a, [0, 1], [3, -1])  # the lengths still sum to 2


def test_segment_mean_rows_do_not_depend_on_empty_segments():
    # all segments non-empty, and the same segments with empty ones between
    rng = np.random.default_rng(3)
    a = nm.Tensor(rng.normal(size=(6, 5)).astype(np.float32))
    idx = rng.integers(0, 6, 9)
    full = nm.segment_mean(a, idx, [4, 1, 3, 1]).data
    gaps = nm.segment_mean(a, idx, [0, 4, 1, 0, 3, 1, 0]).data
    assert full.tobytes() == gaps[[1, 2, 4, 5]].tobytes()
    assert not gaps[[0, 3, 6]].any()


def _scatter_cases():
    # (table rows, indices): a 3-row table hit by hundreds of indices, all
    # indices unique, and no index at all
    rng = np.random.default_rng(12)
    return [(3, rng.integers(0, 3, 600)), (40, rng.permutation(40)[:25]), (5, np.array([], np.int64))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_scatter_is_a_2d_add_at_bitwise(dtype):
    # every cell must get the same adds in index order; values spread over
    # many magnitudes, so any other summation order changes the bits
    rng = np.random.default_rng(13)
    for n, idx in _scatter_cases():
        a = nm.Tensor(np.zeros((n, 8), dtype=dtype), requires_grad=True)
        dout = (rng.normal(size=(len(idx), 8)) * 10.0 ** rng.integers(-6, 6, (len(idx), 1))).astype(dtype)
        ref = np.zeros_like(a.data)
        np.add.at(ref, idx, dout)
        nm.gather_rows(a, idx)._backward(dout)
        assert a.grad.dtype == dtype and a.grad.tobytes() == ref.tobytes()

        a.grad = None
        lens = np.diff(np.concatenate([[0], np.sort(rng.integers(0, len(idx) + 1, 6)), [len(idx)]]))
        seg = (rng.normal(size=(len(lens), 8)) * 10.0 ** rng.integers(-6, 6, (len(lens), 1))).astype(dtype)
        ref = np.zeros_like(a.data)
        np.add.at(ref, idx, np.repeat(seg / np.maximum(lens, 1).astype(dtype)[:, None], lens, axis=0))
        nm.segment_mean(a, idx, lens)._backward(seg)
        assert a.grad.dtype == dtype and a.grad.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_row_scatter_at_increasing_rows_has_the_bits_of_add_at(dtype):
    # strictly increasing rows (a packed state's chosen rows) are written by
    # one assignment, which must still turn a -0.0 into 0 + -0.0 = +0.0
    rng = np.random.default_rng(19)
    idx = np.sort(rng.permutation(40)[:25])
    a = nm.Tensor(np.zeros((40, 8), dtype=dtype), requires_grad=True)
    dout = rng.normal(size=(25, 8)).astype(dtype)
    dout[::4] = -0.0
    ref = np.zeros_like(a.data)
    np.add.at(ref, idx, dout)
    nm.gather_rows(a, idx)._backward(dout)
    assert a.grad.tobytes() == ref.tobytes() and not np.signbit(a.grad[idx[::4]]).any()


def test_put_rows_requires_unique_targets():
    a = t(np.ones((2, 3)))
    with pytest.raises(ShapeMismatch):
        nm.put_rows(a, np.array([1, 1]), 4)


def test_layer_norm_and_gelu_grads():
    rng = np.random.default_rng(2)
    x = t(rng.normal(size=(4, 6)))
    g = t(rng.normal(size=6))
    b = t(rng.normal(size=6))

    def loss():
        y = nm.gelu(nm.layer_norm(x, g, b))
        return nm.bce_with_logits_sum(y, np.zeros((4, 6)))

    assert nm.grad_check(loss, [x, g, b]) < 1e-6


def test_table_attention_grads():
    # three packed tables of 4, 1 and 5 rows, two heads; each table has its own
    # visibility mask, and masks=None is the plain softmax path
    rng = np.random.default_rng(3)
    lens = [4, 1, 5]
    starts = np.cumsum([0] + lens[:-1])
    q, k, v = (t(rng.normal(size=(10, 6))) for _ in range(3))
    w = t(rng.normal(size=(6, 3)))
    masks = []
    for n in lens:
        mask = (rng.random((n, n)) < 0.6).astype(np.uint8)
        np.fill_diagonal(mask, 1)
        masks.append(mask)

    def loss_with(ms):
        ctx = nm.table_attention(q, k, v, ms, starts, n_heads=2)
        return nm.cross_entropy_sum(nm.matmul(ctx, w), np.arange(10) % 3)

    assert nm.grad_check(lambda: loss_with(masks), [q, k, v, w]) < 1e-6
    assert nm.grad_check(lambda: loss_with(None), [q, k, v, w]) < 1e-6
    with pytest.raises(ShapeMismatch):
        nm.table_attention(q, k, v, masks[::-1], starts, n_heads=2)


def test_table_attention_at_query_rows():
    # three packed tables of 4, 1 and 5 rows; the queries sit at rows 1 and 3
    # of the first table and 6, 7 and 9 of the last, none in the middle one
    rng = np.random.default_rng(14)
    lens = [4, 1, 5]
    starts = np.cumsum([0] + lens[:-1])
    rows = np.array([1, 3, 6, 7, 9])
    q = t(rng.normal(size=(len(rows), 6)))
    k, v = (t(rng.normal(size=(10, 6))) for _ in range(2))
    w = t(rng.normal(size=(6, 3)))
    masks = []
    for n in lens:
        mask = rng.random((n, n)) < 0.6
        np.fill_diagonal(mask, True)
        masks.append(mask)
    q_all = t(np.zeros((10, 6)))
    q_all.data[rows] = q.data

    def loss_with(ms):
        ctx = nm.table_attention(q, k, v, ms, starts, n_heads=2, rows=rows)
        return nm.cross_entropy_sum(nm.matmul(ctx, w), np.arange(len(rows)) % 3)

    for ms in (masks, None):
        assert nm.grad_check(lambda: loss_with(ms), [q, k, v, w]) < 1e-6
        # each context row is the one a query at every row gives there
        at = nm.table_attention(q, k, v, ms, starts, n_heads=2, rows=rows).data
        np.testing.assert_allclose(at, nm.table_attention(q_all, k, v, ms, starts, n_heads=2).data[rows], atol=1e-12)
        # the middle table is not queried: its keys and values get zero gradient
        for p in (q, k, v):
            p.grad = None
        loss_with(ms).backward()
        assert q.grad.shape == q.data.shape
        assert not k.grad[4].any() and not v.grad[4].any()
        assert k.grad[rows].any() and v.grad[rows].any()


@pytest.mark.parametrize(
    "rows",
    [[3, 1], [1, 1, 2], [-1, 2], [2, 10], [[1, 2]]],
    ids=["unsorted", "repeated", "negative", "past_the_end", "2d"],
)
def test_table_attention_rejects_bad_query_rows(rows):
    rng = np.random.default_rng(15)
    rows = np.array(rows)
    q = t(rng.normal(size=(rows.shape[-1], 4)))
    k, v = (t(rng.normal(size=(10, 4))) for _ in range(2))
    with pytest.raises(ShapeMismatch, match="query rows"):
        nm.table_attention(q, k, v, None, np.array([0, 4]), n_heads=2, rows=rows)


def test_table_attention_reads_a_bool_mask_and_its_uint8_copy_alike():
    rng = np.random.default_rng(13)
    q, k, v = (nm.Tensor(rng.normal(size=(7, 4)).astype(np.float32), requires_grad=True) for _ in range(3))
    masks = [rng.random((n, n)) < 0.5 for n in (3, 4)]
    for mask in masks:
        np.fill_diagonal(mask, True)
    bits = []
    for ms in (masks, [m.astype(np.uint8) for m in masks]):
        for p in (q, k, v):
            p.grad = None
        out = nm.table_attention(q, k, v, ms, np.array([0, 3]), n_heads=2)
        nm.cross_entropy_sum(out, np.arange(7) % 4).backward()
        bits.append([out.data.tobytes()] + [p.grad.tobytes() for p in (q, k, v)])
    assert bits[0] == bits[1]


def test_table_attention_checks_a_mask_but_reads_a_kept_bias_as_it_is():
    # a hand-made mask is checked on every call; the bias a sequence keeps
    # (made by the same kernel) gives the bits of its mask, bool or uint8
    rng = np.random.default_rng(20)
    q, k, v = _float32_qkv(rng, 7, 4)
    masks = [rng.random((n, n)) < 0.5 for n in (3, 4)]
    for mask in masks:
        np.fill_diagonal(mask, True)
    dout = rng.normal(size=(7, 4)).astype(np.float32)
    starts = np.array([0, 3])
    want = _attention_bits(q, k, v, masks, starts, dout)
    biases = [kernels.mask_bias(m, np.float32) for m in masks]
    assert _attention_bits(q, k, v, biases, starts, dout) == want
    assert _attention_bits(q, k, v, [m.astype(np.uint8) for m in masks], starts, dout) == want
    empty = masks[1].copy()
    empty[2] = False
    for bad in (empty, empty.astype(np.uint8)):
        with pytest.raises(AllMaskedRow, match="row 2"):
            nm.table_attention(q, k, v, [masks[0], bad], starts, n_heads=2)
    with pytest.raises(ShapeMismatch, match="float64 attention bias"):
        nm.table_attention(q, k, v, [b.astype(np.float64) for b in biases], starts, n_heads=2)


@pytest.mark.parametrize(
    "starts",
    [[1, 3], [0, 4, 2], [0, 7], [], [[0, 2]], np.array([0.0, 2.0])],
    ids=["not_at_zero", "decreasing", "past_the_end", "no_table", "2d", "float"],
)
def test_table_attention_rejects_bad_table_starts(starts):
    # [1, 3] used to return uninitialized memory at row 0; [0, 4, 2] and
    # [0, 7] failed inside a numpy reduction
    rng = np.random.default_rng(16)
    q, k, v = (t(rng.normal(size=(5, 4))) for _ in range(3))
    with pytest.raises(ShapeMismatch, match="table starts"):
        nm.table_attention(q, k, v, None, np.asarray(starts), n_heads=2)


def _float32_qkv(rng, n, d):
    return [nm.Tensor(rng.normal(size=(n, d)).astype(np.float32), requires_grad=True) for _ in range(3)]


def _attention_bits(q, k, v, masks, starts, dout):
    for p in (q, k, v):
        p.grad = None
    out = nm.table_attention(q, k, v, masks, starts, n_heads=2)
    out._backward(dout)
    return [out.data.tobytes()] + [p.grad.tobytes() for p in (q, k, v)]


def test_table_attention_treats_repeated_starts_as_empty_tables():
    rng = np.random.default_rng(17)
    q, k, v = _float32_qkv(rng, 5, 4)
    dout = rng.normal(size=(5, 4)).astype(np.float32)
    masks = [rng.random((n, n)) < 0.5 for n in (2, 3)]
    for mask in masks:
        np.fill_diagonal(mask, True)
    empty = np.ones((0, 0), bool)
    want = _attention_bits(q, k, v, masks, np.array([0, 2]), dout)
    assert _attention_bits(q, k, v, [masks[0], empty, masks[1], empty], np.array([0, 2, 2, 5]), dout) == want
    plain = _attention_bits(q, k, v, None, np.array([0, 2]), dout)
    assert _attention_bits(q, k, v, None, np.array([0, 0, 2, 5]), dout) == plain
    # a batch of no rows holds no tables
    none = [nm.Tensor(np.zeros((0, 4), np.float32)) for _ in range(3)]
    assert nm.table_attention(*none, [], np.array([], np.int64), n_heads=2).shape == (0, 4)


def test_table_attention_writes_into_none_of_its_inputs():
    rng = np.random.default_rng(18)
    q, k, v = _float32_qkv(rng, 9, 8)
    bias = nm.Tensor(rng.normal(size=(9, 8)).astype(np.float32), requires_grad=True)
    masks = [rng.random((n, n)) < 0.5 for n in (4, 5)]
    for mask in masks:
        np.fill_diagonal(mask, True)
    before = [x.tobytes() for x in [q.data, k.data, v.data] + masks]
    ctx = nm.table_attention(q, k, v, masks, np.array([0, 4]), n_heads=2)
    # `add` hands one dout to both operands: bias.grad is the very array the
    # attention backward reads
    nm.cross_entropy_sum(nm.add(ctx, bias), np.arange(9) % 8).backward()
    assert [x.tobytes() for x in [q.data, k.data, v.data] + masks] == before
    alone = nm.Tensor(bias.data, requires_grad=True)
    nm.cross_entropy_sum(nm.add(nm.Tensor(ctx.data), alone), np.arange(9) % 8).backward()
    assert bias.grad.tobytes() == alone.grad.tobytes()


def test_all_ones_masks_equal_plain_attention_bitwise_at_exact_zeros():
    # zero query rows and zero key columns give scores of +-0.0 and rows
    # whose max is exactly 0; the masked path must keep the plain path's bits
    rng = np.random.default_rng(19)
    q, k, v = _float32_qkv(rng, 10, 8)
    q.data[[0, 6]] = 0.0
    q.data[3] = -0.0
    k.data[:, :4] = -0.0
    k.data[7] = 0.0
    dout = rng.normal(size=(10, 8)).astype(np.float32)
    starts = np.array([0, 3, 4])
    ones = [np.ones((n, n), bool) for n in (3, 1, 6)]
    assert _attention_bits(q, k, v, ones, starts, dout) == _attention_bits(q, k, v, None, starts, dout)


def test_concat_and_transpose_grads():
    rng = np.random.default_rng(4)
    a = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=(2, 3)))

    def loss():
        c = nm.concat([a, b], axis=1)
        return nm.cross_entropy_sum(nm.transpose(c, (1, 0)), np.array([0, 1, 0, 1, 0, 1]))

    assert nm.grad_check(loss, [a, b]) < 1e-7


def test_add_broadcast_grads():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(3, 4)))
    bias = t(rng.normal(size=4))

    def loss():
        return nm.cross_entropy_sum(nm.add(x, bias), np.array([0, 1, 2]))

    assert nm.grad_check(loss, [x, bias]) < 1e-7


# -- loss oracles ----------------------------------------------------------------


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(4, 7))
    targets = np.array([0, 3, 6, 2])
    expect = 0.0
    for i, tgt in enumerate(targets):
        row = z[i]
        expect += -(row[tgt] - np.log(np.exp(row).sum()))
    got = nm.cross_entropy_sum(nm.Tensor(z), targets)
    assert abs(float(got.data) - expect) < 1e-10


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    y = (rng.random((3, 5)) < 0.5).astype(np.float64)
    p = 1.0 / (1.0 + np.exp(-x))
    expect = -(y * np.log(p) + (1 - y) * np.log(1 - p)).sum()
    got = nm.bce_with_logits_sum(nm.Tensor(x), y)
    assert abs(float(got.data) - expect) < 1e-10


def test_bce_is_stable_at_extreme_logits():
    x = nm.Tensor(np.array([[800.0, -800.0]]))
    y = np.array([[1.0, 0.0]])
    assert float(nm.bce_with_logits_sum(x, y).data) == 0.0
    y_wrong = np.array([[0.0, 1.0]])
    val = float(nm.bce_with_logits_sum(x, y_wrong).data)
    assert np.isfinite(val) and val > 100


def test_bce_gradient_at_extreme_float32_logits_is_exact_and_silent():
    # exp(100) overflows float32; the sigmoid there is exactly 0 and must
    # come without a RuntimeWarning
    x = nm.Tensor(np.array([-100.0, 100.0], dtype=np.float32), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nm.bce_with_logits_sum(x, np.array([1.0, 0.0])).backward()
    assert x.grad.dtype == np.float32 and x.grad.tolist() == [-1.0, 1.0]


def test_loss_sums_add_exactly():
    # batch losses are built with nm.add over per-table sums; that composition
    # is the exact float addition of the parts, bit for bit
    rng = np.random.default_rng(8)
    z1, z2 = rng.normal(size=(2, 5)), rng.normal(size=(3, 5))
    t1, t2 = np.array([1, 0]), np.array([2, 3, 4])
    a = nm.cross_entropy_sum(nm.Tensor(z1), t1)
    b = nm.cross_entropy_sum(nm.Tensor(z2), t2)
    batched = nm.add(a, b)
    assert float(batched.data) == float(a.data) + float(b.data)
    # and the one-shot joint loss agrees to rounding
    joint = nm.cross_entropy_sum(nm.Tensor(np.vstack([z1, z2])), np.concatenate([t1, t2]))
    assert abs(float(joint.data) - float(batched.data)) < 1e-12


def test_diamond_graph_accumulates_once_per_path():
    x = t(np.array([[2.0]]))
    y = nm.add(x, x)  # two paths into x
    z = nm.matmul(y, nm.Tensor(np.array([[3.0]])))
    z.backward()
    np.testing.assert_allclose(x.grad, [[6.0]])
    # an op output's gradient is freed once passed on; the leaf keeps its own
    assert y.grad is None and z.grad is None


def _shared_dout_loss(x, w, b):
    # x reaches the loss through add(x, x), which hands one dout to both
    # operands, through a concat split, which hands out views of one array,
    # and through a residual add
    y = nm.concat([nm.add(x, x), x], axis=1)
    return nm.cross_entropy_sum(nm.gelu(nm.add(nm.affine(y, w, b), x)), np.array([0, 3, 1]))


def test_handed_over_gradients_check_and_are_never_written_again():
    rng = np.random.default_rng(11)
    x, w, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(8, 4))), t(rng.normal(size=4))
    assert nm.grad_check(lambda: _shared_dout_loss(x, w, b), [x, w, b]) < 1e-7
    for p in (x, w, b):
        p.grad = None
    _shared_dout_loss(x, w, b).backward()
    first = [p.grad for p in (x, w, b)]
    kept = [g.copy() for g in first]
    # a second backward adds to the stored gradients without writing the first graph's
    _shared_dout_loss(x, w, b).backward()
    assert all(g.tobytes() == k.tobytes() for g, k in zip(first, kept))
    for p, k in zip((x, w, b), kept):
        np.testing.assert_allclose(p.grad, 2 * k, rtol=1e-12)


def test_backward_requires_scalar():
    x = t(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        nm.add(x, x).backward()


def test_mixed_dtype_rejected():
    a = nm.Tensor(np.ones((2, 2), dtype=np.float32))
    b = nm.Tensor(np.ones((2, 2), dtype=np.float64))
    with pytest.raises(ShapeMismatch):
        nm.add(a, b)


# -- no-grad mode -----------------------------------------------------------------

# the names in numeric.__all__ that are not ops
_NOT_OPS = {"Tensor", "no_grad", "Adam", "linear_lr", "grad_norm", "descend", "train", "grad_check"}


def _op_calls():
    rng = np.random.default_rng(9)
    a, b = t(rng.normal(size=(4, 6))), t(rng.normal(size=(4, 6)))
    w, g, beta = t(rng.normal(size=(6, 3))), t(rng.normal(size=6)), t(rng.normal(size=6))
    mask = (rng.random((3, 3)) < 0.5).astype(np.uint8)
    np.fill_diagonal(mask, 1)
    bias = t(rng.normal(size=3))
    return {
        "add": lambda: nm.add(a, b),
        "matmul": lambda: nm.matmul(a, w),
        "affine": lambda: nm.affine(a, w, bias),
        "transpose": lambda: nm.transpose(a, (1, 0)),
        "concat": lambda: nm.concat([a, b], axis=1),
        "gather_rows": lambda: nm.gather_rows(a, [3, 0, 3]),
        "segment_mean": lambda: nm.segment_mean(a, [3, 0, 3], [1, 0, 2]),
        "put_rows": lambda: nm.put_rows(a, [5, 1, 0, 2], 7),
        "table_attention": lambda: nm.table_attention(a, b, a, [mask, np.ones((1, 1), np.uint8)], np.array([0, 3]), 2),
        "layer_norm": lambda: nm.layer_norm(a, g, beta),
        "gelu": lambda: nm.gelu(a),
        "cross_entropy_sum": lambda: nm.cross_entropy_sum(a, [0, 5, 2, 1]),
        "candidate_cross_entropy_sum": lambda: nm.candidate_cross_entropy_sum(
            a, b, [np.array([2, 4, 7]), np.array([], np.int64), np.array([1])], [np.array([4, 2, 7]), np.array([], np.int64), np.array([1])]
        )[0],
        "candidate_scores": lambda: nm.candidate_scores(a, b, [2, 0, 1, 1]),
        "bce_with_logits_sum": lambda: nm.bce_with_logits_sum(a, np.ones((4, 6))),
    }


def test_no_grad_ops_compute_the_same_data_and_record_no_parents():
    ops = _op_calls()
    assert set(ops) == set(nm.__all__) - _NOT_OPS
    for name, op in ops.items():
        taped = op()
        with nm.no_grad():
            free = op()
        assert taped._parents and taped._backward is not None, name
        assert free._parents == () and free._backward is None, name
        assert free.data.dtype == taped.data.dtype and free.data.tobytes() == taped.data.tobytes(), name


def test_no_grad_restores_the_mode_after_an_exception():
    a = t(np.ones((2, 3)))
    with pytest.raises(ShapeMismatch):
        with nm.no_grad():
            with nm.no_grad():
                assert nm.add(a, a)._parents == ()
            assert nm.add(a, a)._parents == ()
            nm.matmul(a, a)
    assert nm.add(a, a)._parents


def test_grad_norm_is_the_global_l2_norm():
    a, b, c = t(np.ones((2, 2))), t(np.zeros(3)), t(np.ones(1))
    a.grad = np.array([[3.0, 0.0], [0.0, 0.0]])
    b.grad = np.array([0.0, 4.0, 0.0])
    assert nm.grad_norm([a, b, c]) == 5.0
    b.grad[0] = np.nan
    assert np.isnan(nm.grad_norm([a, b, c]))


# -- optimizer -------------------------------------------------------------------


def test_linear_lr_schedule():
    assert nm.linear_lr(1.0, 0, 10) == 1.0
    assert nm.linear_lr(1.0, 5, 10) == 0.5
    assert nm.linear_lr(1.0, 10, 10) == 0.0
    assert nm.linear_lr(1.0, 15, 10) == 0.0


def test_adam_converges_on_quadratic():
    wtensor = nm.Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = nm.Adam([wtensor], lr0=0.2, total_steps=400)
    for _ in range(400):
        opt.zero_grad()
        wtensor.grad = 2.0 * wtensor.data  # d/dw of w^2
        opt.step()
    assert np.abs(wtensor.data).max() < 1e-2


def test_adam_equals_a_flat_moment_reference_bitwise():
    # moments of the parameter's shape, updated on the arrays as stored, give
    # the bits of flat moments updated from contiguous copies of the
    # gradients, also for a transposed gradient
    rng = np.random.default_rng(12)
    shapes = [(3, 4), (5,), (4, 3)]
    params = [nm.Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    ref_m = [np.zeros(p.data.size, dtype=np.float32) for p in params]
    ref_v = [np.zeros(p.data.size, dtype=np.float32) for p in params]
    opt = nm.Adam(params, lr0=0.1, total_steps=5)
    for step in range(3):
        grads = [rng.normal(size=s).astype(np.float32) for s in shapes[:2]]
        grads.append(rng.normal(size=shapes[2][::-1]).astype(np.float32).T)
        assert not grads[2].flags.c_contiguous
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        lr = nm.linear_lr(0.1, step, 5)
        for r, g, m, v in zip(ref, grads, ref_m, ref_v):
            kernels.adam_update(r.reshape(-1), np.ascontiguousarray(g.reshape(-1)), m, v, step + 1, lr, opt.BETA1, opt.BETA2, opt.EPS)
        assert all(p.data.tobytes() == r.tobytes() for p, r in zip(params, ref))
    assert [m.shape for m in opt.m] == shapes


def _adam_reference(p, g, m, v, t, lr, opt):
    # the out-of-place per-tensor formula; returns the new (p, m, v)
    m = opt.BETA1 * m + (1.0 - opt.BETA1) * g
    v = opt.BETA2 * v + (1.0 - opt.BETA2) * g * g
    p = p - lr * (m / (1.0 - opt.BETA1**t)) / (np.sqrt(v / (1.0 - opt.BETA2**t)) + opt.EPS)
    return p, m, v


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_flat_update_equals_a_per_tensor_reference_bitwise(monkeypatch, dtype, chunk):
    # runs split in the middle of the buffer where a parameter has no
    # gradient, a transposed gradient, and (chunk 7) chunks that cut through
    # parameters all give the bits of the per-tensor formula
    if chunk is not None:
        monkeypatch.setattr(nm, "CHUNK", chunk)
    rng = np.random.default_rng(21)
    shapes = [(3, 4), (5,), (4, 3), (2, 2, 3), (1,), (6, 5)]
    params = [nm.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True, name=f"p{i}") for i, s in enumerate(shapes)]
    ref = [p.data.copy() for p in params]
    ref_m = [np.zeros(s, dtype) for s in shapes]
    ref_v = [np.zeros(s, dtype) for s in shapes]
    opt = nm.Adam(params, lr0=0.05, total_steps=6)
    for p in params:
        assert p.data.dtype == dtype and np.shares_memory(p.data, opt.flat)
    skipped = [{1}, {0, 4}, set(), {2, 3, 5}, {5}]
    for step, skip in enumerate(skipped):
        opt.zero_grad()
        grads = [rng.normal(size=s).astype(dtype) for s in shapes]
        grads[2] = rng.normal(size=shapes[2][::-1]).astype(dtype).T
        for i, (p, g) in enumerate(zip(params, grads)):
            if i not in skip:
                p.grad = g
        opt.step()
        lr = nm.linear_lr(0.05, step, 6)
        for i, g in enumerate(grads):
            if i not in skip:
                ref[i], ref_m[i], ref_v[i] = _adam_reference(ref[i], g, ref_m[i], ref_v[i], step + 1, lr, opt)
        for p, r, m, v, om, ov in zip(params, ref, ref_m, ref_v, opt.m, opt.v):
            assert p.data.tobytes() == r.tobytes()
            assert om.tobytes() == m.tobytes() and ov.tobytes() == v.tobytes()


def test_adam_owns_its_parameters_storage():
    # each .data is a view of the optimizer's buffer, so a later in-place
    # load (as from a checkpoint) writes into that buffer
    params = {"a": t(np.ones((2, 3))), "b": t(np.zeros(4))}
    opt = nm.Adam(params.values(), lr0=0.1, total_steps=2)
    assert all(np.shares_memory(p.data, opt.flat) for p in params.values())
    load_tensors(params, {"a": np.full((2, 3), 2.0), "b": np.arange(4.0)})
    assert opt.flat.tolist() == [2.0] * 6 + [0.0, 1.0, 2.0, 3.0]


def test_adam_rejects_mixed_dtypes():
    a = nm.Tensor(np.zeros(3, np.float32), requires_grad=True)
    with pytest.raises(ShapeMismatch, match="one dtype"):
        nm.Adam([a, t(np.zeros(3))], lr0=0.1, total_steps=2)


def test_adam_rejects_a_parameter_listed_twice():
    a = t(np.zeros(3), name="w")
    with pytest.raises(ShapeMismatch, match="'w' is listed twice"):
        nm.Adam([a, t(np.zeros(2)), a], lr0=0.1, total_steps=2)


def test_adam_step_rejects_a_gradient_of_another_shape_before_any_update():
    # a same-size gradient with swapped axes would otherwise be flattened
    # into the wrong elements
    a, b = t(np.zeros(4), name="first"), t(np.zeros((2, 3)), name="w")
    opt = nm.Adam([a, b], lr0=0.1, total_steps=2)
    a.grad, b.grad = np.ones(4), np.ones((3, 2))
    with pytest.raises(ShapeMismatch, match=r"'w' has shape \(3, 2\), not \(2, 3\)"):
        opt.step()
    assert not opt.flat.any() and opt.steps_done == 0


def test_adam_without_parameters_or_gradients_moves_nothing():
    opt = nm.Adam([], lr0=0.1, total_steps=2)
    opt.step()
    a = t(np.arange(3.0))
    opt = nm.Adam([a], lr0=0.1, total_steps=2)
    opt.step()
    assert a.data.tolist() == [0.0, 1.0, 2.0] and not opt.m[0].any()


def test_adam_step_hooks_that_the_bench_wraps(monkeypatch):
    # the bench times `Adam.step` by patching the class's own attribute and
    # traces `kernels.adam_update` by patching the module attribute: one
    # call per CHUNK elements of each run of parameters with a gradient
    assert "step" in vars(nm.Adam)
    monkeypatch.setattr(nm, "CHUNK", 5)
    calls = []
    real = kernels.adam_update
    monkeypatch.setattr(kernels, "adam_update", lambda param, *a: calls.append(param.size) or real(param, *a))
    sizes = [7, 3, 4, 12, 2]
    params = [t(np.zeros(n)) for n in sizes]
    opt = nm.Adam(params, lr0=0.1, total_steps=2)
    for i in (0, 1, 3):  # runs of 7 + 3 = 10 and 12 elements
        params[i].grad = np.ones(sizes[i])
    opt.step()
    assert calls == [5, 5, 5, 5, 2]


def test_adam_step_after_grad_norm_reads_the_gradients_it_holds_then():
    # `descend` takes the norm on the gathered runs, then steps on them; a
    # step after the gradients changed gathers again
    params = [t(np.zeros(3)), t(np.zeros(2)), t(np.zeros(4))]
    ref = [t(np.zeros(n)) for n in (3, 2, 4)]
    opt, ref_opt = nm.Adam(params, lr0=0.1, total_steps=4), nm.Adam(ref, lr0=0.1, total_steps=4)
    grads = [np.array([3.0, 0.0, 0.0]), None, np.array([0.0, 4.0, 0.0, 0.0])]
    for p, r, g in zip(params, ref, grads):
        p.grad = r.grad = g
    assert opt.grad_norm() == 5.0
    opt.step()
    ref_opt.step()
    params[1].grad = ref[1].grad = np.ones(2)
    assert opt.grad_norm() == math.sqrt(27.0)
    params[0].grad = ref[0].grad = np.full(3, 2.0)  # after the norm: the step must see it
    opt.step()
    ref_opt.step()
    assert opt.flat.tobytes() == ref_opt.flat.tobytes()
    params[2].grad = np.array([np.nan, 0.0, 0.0, 0.0])
    assert math.isnan(opt.grad_norm())


def test_train_runs_under_a_one_argument_step_wrapper(monkeypatch):
    # bench/workloads.StepClock times steps by replacing `Adam.step` with a
    # function of the optimizer alone; every step of `train` must go through
    # it, with the same result as the plain step
    runs = []
    for wrapped in (False, True):
        calls = []
        if wrapped:
            real = vars(nm.Adam)["step"]

            def step(opt):
                real(opt)
                calls.append(opt.steps_done)

            monkeypatch.setattr(nm.Adam, "step", step)
        w, settings, batch_loss = _toy()
        losses, _ = nm.train([w], settings, 5, np.random.default_rng(1), batch_loss)
        runs.append((losses, w.data.tobytes()))
    assert runs[0] == runs[1] and calls == list(range(1, len(runs[1][0]) + 1))


def test_grad_check_flags_wrong_gradient():
    x = t(np.array([[1.0, 2.0]]))

    def loss():
        out = nm.Tensor(x.data.sum())

        def backward(dout):
            x.grad = np.full_like(x.data, 7.0)  # deliberately wrong

        out._parents = (x,)
        out._backward = backward
        return out

    assert nm.grad_check(loss, [x]) > 0.1


# -- the training loop ------------------------------------------------------------


def _quadratic(w, ys):
    """sum_i ||w - ys[i]||^2 as one node: a toy loss with no encoder."""
    r = w.data - ys
    out = nm.Tensor(np.asarray((r * r).sum()))

    def backward(dout):
        w.grad = 2.0 * dout * r.sum(axis=0)

    out._parents = (w,)
    out._backward = backward
    return out


def _toy(n_items=5, epochs=3, batch_size=2, seed=0):
    """A parameter, the settings train reads, and a batch loss pulling the
    parameter toward each item's target."""
    w = t(np.zeros(3))
    ys = np.random.default_rng(seed).normal(size=(n_items, 3))
    settings = SimpleNamespace(lr0=0.1, epochs=epochs, batch_size=batch_size)

    def batch_loss(idx):
        assert w.grad is None  # the last step's gradient is freed before the next graph
        return _quadratic(w, ys[idx]), [f"i{i}" for i in idx]

    return w, settings, batch_loss


def test_train_sums_each_epoch_left_to_right():
    w, settings, batch_loss = _toy()
    step_losses, epoch_sums = nm.train([w], settings, 5, np.random.default_rng(1), batch_loss)
    assert len(step_losses) == 9 and len(epoch_sums) == 3  # 3 batches of 2, 2 and 1 items
    for e, total in enumerate(epoch_sums):
        expect = 0.0
        for loss in step_losses[3 * e : 3 * e + 3]:
            expect += loss
        assert total.hex() == expect.hex()
    assert epoch_sums[-1] < epoch_sums[0]


def test_train_skips_a_none_batch_without_counting_a_step():
    w, settings, batch_loss = _toy(n_items=4, batch_size=1)
    calls = []

    def every_other(idx):
        calls.append(idx)
        return None if len(calls) % 2 else batch_loss(idx)

    step_losses, epoch_sums = nm.train([w], settings, 4, np.random.default_rng(1), every_other)
    assert len(calls) == 12 and len(step_losses) == 6 and len(epoch_sums) == 3

    def poisoned(idx):
        out = every_other(idx)
        return (_quadratic(w, np.full((1, 3), np.nan)), ["bad"]) if len(calls) == 4 else out

    calls.clear()
    # the fourth batch is the second to take a step
    with pytest.raises(NonFiniteLoss, match=r"loss is nan at step 1 \(epoch 0\), tables bad"):
        nm.train([w], settings, 4, np.random.default_rng(1), poisoned)


def test_train_max_steps_is_an_exact_budget_across_epochs(monkeypatch):
    w, settings, batch_loss = _toy(n_items=4, epochs=2, batch_size=2)
    opts = []
    real_adam = nm.Adam
    monkeypatch.setattr(nm, "Adam", lambda *a, **kw: opts.append(real_adam(*a, **kw)) or opts[-1])
    step_losses, epoch_sums = nm.train([w], settings, 4, np.random.default_rng(1), batch_loss, max_steps=7)
    assert len(step_losses) == 7 and len(epoch_sums) == 4
    assert [(o.total_steps, o.steps_done) for o in opts] == [(7, 7)]


def test_train_ends_a_max_steps_run_after_an_epoch_without_a_step():
    w, settings, batch_loss = _toy(n_items=4, epochs=2, batch_size=2)
    calls = []

    def dries_up(idx):
        calls.append(idx)
        return batch_loss(idx) if len(calls) <= 2 else None

    step_losses, epoch_sums = nm.train([w], settings, 4, np.random.default_rng(1), dries_up, max_steps=10)
    assert len(step_losses) == 2 and len(epoch_sums) == 2 and epoch_sums[1] == 0.0
    # without max_steps an epoch without a step does not end the run
    _, epoch_sums = nm.train([w], settings, 4, np.random.default_rng(1), lambda idx: None)
    assert epoch_sums == [0.0, 0.0]


def test_train_end_epoch_sees_every_epoch_and_may_end_the_run():
    w, settings, batch_loss = _toy(n_items=4, epochs=5, batch_size=2)
    seen = []

    def record(epoch, total, last=None):
        seen.append((epoch, total))
        return epoch == last

    _, epoch_sums = nm.train([w], settings, 4, np.random.default_rng(1), batch_loss, lambda e, s: record(e, s, 1))
    assert seen == list(enumerate(epoch_sums)) and len(seen) == 2
    # a max_steps run cut short inside its last epoch still reports that epoch
    seen.clear()
    step_losses, epoch_sums = nm.train([w], settings, 4, np.random.default_rng(1), batch_loss, record, max_steps=3)
    assert len(step_losses) == 3 and seen == [(0, epoch_sums[0]), (1, epoch_sums[1])]
    assert epoch_sums[1] == step_losses[2]


def test_train_draws_one_permutation_per_epoch():
    w, settings, batch_loss = _toy(n_items=5, epochs=3, batch_size=2)
    seen = []
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    nm.train([w], settings, 5, rng, lambda idx: seen.append(idx) or batch_loss(idx))
    assert np.concatenate(seen).tolist() == np.concatenate([ref.permutation(5) for _ in range(3)]).tolist()
    assert rng.random() == ref.random()  # nothing else was drawn


@pytest.mark.parametrize("batch_size", [0, -2])
def test_train_rejects_a_batch_size_below_one_before_building_adam(monkeypatch, batch_size):
    w, settings, batch_loss = _toy(batch_size=batch_size)
    monkeypatch.setattr(nm, "Adam", lambda *a, **kw: pytest.fail("Adam was built"))
    with pytest.raises(ConfigError, match="batch_size must be at least 1"):
        nm.train([w], settings, 5, np.random.default_rng(1), batch_loss)
