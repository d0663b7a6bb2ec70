"""Encoder forward pass: embeddings, attention masking, structural invariances."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabrep import encoder
from tabrep import numeric as nm
from tabrep.corpus import UNK_ID, IndexedCell, IndexedTable, MASK_ID
from tabrep.encoder import (
    EncoderConfig,
    embed_sequence,
    encode,
    encode_batch,
    encode_substitutions,
    init_entity_embeddings,
    init_model,
)
from tabrep.encoding import CELL, build_visibility, linearize, mask_cell
from tabrep.errors import ConfigError, ShapeMismatch, UnknownId

from conftest import make_indexed_table


def tiny_cfg(**kw):
    base = dict(n_blocks=2, d_model=16, n_heads=4, d_intermediate=32, max_len=64, n_tokens=40, n_entities=30)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture
def model():
    return init_model(tiny_cfg(), np.random.default_rng(0))


def seq_of(rng, model, **kw):
    t = make_indexed_table(rng, kw.pop("n_rows", 3), kw.pop("n_cols", 3), **kw)
    return linearize(t, model.cfg.max_len)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(d_model=15).validate()  # not divisible by heads
    with pytest.raises(ConfigError):
        tiny_cfg(n_tokens=0).validate()


def test_config_validation_checks_heads_before_dividing_by_them():
    with pytest.raises(ConfigError, match="positive"):
        tiny_cfg(n_heads=0).validate()


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("shape", [(0, 8), (1,), (5, 3), (64, 16), (3, 4, 5)])
def test_trunc_normal_equals_redrawing_the_whole_array_each_round(seed, shape):
    def by_full_rescan(rng, shape, std=0.02, dtype=np.float32):
        # the draw as first written: rescan every entry on every round
        x = rng.standard_normal(shape)
        while True:
            bad = np.abs(x) > 2.0
            if not bad.any():
                break
            x[bad] = rng.standard_normal(int(bad.sum()))
        return (x * std).astype(dtype)

    for dtype in (np.float32, np.float64):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = encoder.trunc_normal(a, shape, dtype=dtype), by_full_rescan(b, shape, dtype=dtype)
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert a.random() == b.random()  # the same number of draws


def test_embedding_shape_and_dtype(model):
    rng = np.random.default_rng(1)
    seq = seq_of(rng, model, with_topic=True)
    h = embed_sequence(seq, model)
    assert h.data.shape == (len(seq), 16)
    assert h.data.dtype == np.float32


def test_token_embedding_is_word_plus_type_plus_position(model):
    t = IndexedTable(
        table_id="one",
        caption_ids=np.array([7, 8]),
        header_ids=[],
        headers_norm=[],
        n_rows=0,
        n_cols=0,
        cells=[],
    )
    h = embed_sequence(linearize(t), model).data
    w = model["word_emb"].data
    ty = model["tok_type_emb"].data
    pos = model["pos_emb"].data
    np.testing.assert_allclose(h[0], w[7] + ty[0] + pos[0], atol=1e-6)
    np.testing.assert_allclose(h[1], w[8] + ty[0] + pos[1], atol=1e-6)


def test_entity_embedding_ignores_sequence_position(model):
    # the same cell embedded at different rows of one column gets the same
    # vector: entities carry no position embedding, only a segment id
    def one_cell(row, col):
        t = IndexedTable(
            table_id=f"c{row}{col}",
            caption_ids=np.array([4]),
            header_ids=[np.array([5])] * 3,
            headers_norm=["a", "b", "c"],
            n_rows=3,
            n_cols=3,
            cells=[IndexedCell(row=row, col=col, entity_id=9, mention_ids=np.array([6]))],
            subject_col=0,
        )
        seq = linearize(t)
        return embed_sequence(seq, model).data[-1]

    np.testing.assert_array_equal(one_cell(0, 0), one_cell(2, 0))
    # a different column can differ: subject and object segments are distinct
    assert not np.array_equal(one_cell(0, 0), one_cell(0, 1))


def test_masked_entity_uses_reserved_row(model):
    t = IndexedTable(
        table_id="m",
        caption_ids=np.array([4]),
        header_ids=[np.array([5])],
        headers_norm=["h"],
        n_rows=1,
        n_cols=1,
        cells=[IndexedCell(row=0, col=0, entity_id=MASK_ID, mention_ids=np.array([MASK_ID]))],
        subject_col=0,
    )
    h = embed_sequence(linearize(t), model).data
    # reconstruct the expected fused vector for the mask row
    w = model["word_emb"].data
    fused = np.concatenate([model["ent_emb"].data[MASK_ID], w[MASK_ID]])
    expect = fused @ model["fuse_W"].data + model["fuse_b"].data + model["ent_type_emb"].data[0]
    np.testing.assert_allclose(h[-1], expect, atol=1e-5)


def test_empty_mention_embeds_as_unknown_token(model):
    # an entity whose mention has no tokens averages the unknown token alone
    t = IndexedTable(
        table_id="e",
        caption_ids=np.array([4]),
        header_ids=[np.array([5])],
        headers_norm=["h"],
        n_rows=1,
        n_cols=1,
        cells=[IndexedCell(row=0, col=0, entity_id=9, mention_ids=np.array([], dtype=np.int64))],
        subject_col=0,
    )
    h = embed_sequence(linearize(t), model).data
    w = model["word_emb"].data
    fused = np.concatenate([model["ent_emb"].data[9], w[UNK_ID]])
    expect = fused @ model["fuse_W"].data + model["fuse_b"].data + model["ent_type_emb"].data[0]
    np.testing.assert_allclose(h[-1], expect, atol=1e-5)


def test_out_of_range_ids_rejected(model):
    rng = np.random.default_rng(2)
    seq = seq_of(rng, model)
    seq.ids[0] = model.cfg.n_tokens + 5
    with pytest.raises(UnknownId):
        embed_sequence(seq, model)
    seq2 = seq_of(rng, model)
    seq2.ids[int(seq2.cell_indices()[0])] = model.cfg.n_entities
    with pytest.raises(UnknownId):
        embed_sequence(seq2, model)


def test_init_entity_embeddings_mean_of_mention(model):
    mentions = {5: np.array([7, 9]), 1: np.array([7])}
    init_entity_embeddings(model, mentions)
    w = model["word_emb"].data
    np.testing.assert_allclose(model["ent_emb"].data[5], (w[7] + w[9]) / 2, atol=1e-7)
    # reserved rows are left alone
    assert not np.allclose(model["ent_emb"].data[1], w[7])


def test_encode_shapes_and_finiteness(model):
    rng = np.random.default_rng(3)
    seq = seq_of(rng, model, with_topic=True)
    out = encode(seq, model)
    assert out.h.data.shape == (len(seq), model.cfg.d_model)
    assert np.isfinite(out.h.data).all()
    assert len(seq.token_indices) + len(seq.entity_indices) == len(seq)


def test_visibility_off_equals_reference_bitwise(model):
    # all-ones mask through the masked path reproduces the unmasked path exactly
    rng = np.random.default_rng(4)
    for k in range(5):
        seq = seq_of(rng, model, with_topic=bool(k % 2))
        a = encode(seq, model, use_visibility=False).h.data
        b = encode(seq, model, reference=True).h.data
        assert a.tobytes() == b.tobytes()


def test_encode_batch_rows_equal_per_table_encode_bitwise(model):
    # tables of different lengths packed into one graph: each table's rows
    # equal its own encode bit for bit, so no padding and no other table of
    # the batch can reach them
    rng = np.random.default_rng(8)
    shapes = [(1, 1), (4, 3), (2, 2), (5, 1), (3, 4)]
    seqs = [seq_of(rng, model, n_rows=r, n_cols=c, with_topic=bool(r % 2)) for r, c in shapes]
    assert len({len(s) for s in seqs}) == len(seqs)
    for use_visibility in (True, False):
        model.use_visibility = use_visibility
        h = encode_batch(seqs, model).data
        assert h.shape == (sum(len(s) for s in seqs), model.cfg.d_model)
        start = 0
        for seq in seqs:
            assert h[start : start + len(seq)].tobytes() == encode(seq, model, use_visibility).h.data.tobytes()
            start += len(seq)


def batch_and_rows(model, rng, shapes, n_read):
    """Tables of the given (rows, cols) shapes and sorted packed rows that
    read n_read[i] random rows of table i."""
    seqs = [seq_of(rng, model, n_rows=r, n_cols=c, with_topic=bool(r % 2)) for r, c in shapes]
    starts = np.cumsum([0] + [len(s) for s in seqs[:-1]])
    rows = [s + np.sort(rng.choice(len(seq), k, replace=False)) for s, seq, k in zip(starts, seqs, n_read)]
    return seqs, np.concatenate(rows)


@pytest.mark.parametrize("use_visibility", [True, False], ids=["visibility", "all_ones"])
def test_encode_batch_at_rows_equals_those_rows_of_a_full_encode_bitwise(model, use_visibility):
    # the last block runs only at the rows read; its keys and values, and
    # every earlier block, still cover every row. The third table has no row read
    model.use_visibility = use_visibility
    seqs, rows = batch_and_rows(model, np.random.default_rng(9), [(3, 3), (4, 2), (2, 2), (5, 3)], [5, 3, 0, 7])
    at = encode_batch(seqs, model, rows=rows).data
    assert at.shape == (len(rows), model.cfg.d_model)
    assert at.tobytes() == encode_batch(seqs, model).data[rows].tobytes()


def test_encode_batch_at_rows_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    cfg = tiny_cfg(d_model=8, n_heads=2, d_intermediate=16, max_len=16, n_tokens=12, n_entities=8)
    model = init_model(cfg, rng, dtype=np.float64)
    seqs = [
        linearize(make_indexed_table(rng, r, c, n_tokens=12, n_entities=8, caption_len=2), model.cfg.max_len)
        for r, c in [(2, 2), (1, 2), (2, 1)]
    ]
    starts = np.cumsum([0] + [len(s) for s in seqs[:-1]])
    rows = np.concatenate([starts[0] + np.array([0, 3, 5]), starts[2] + np.array([1, 4])])
    w = nm.Tensor(rng.normal(size=(8, 3)))

    def loss():
        h = encode_batch(seqs, model, rows=rows)
        return nm.cross_entropy_sum(nm.matmul(h, w), np.arange(len(rows)) % 3)

    block = ("Wq", "Wk", "Wv", "Wo", "ln1_g", "ffn_b1", "ln2_b")
    names = ["word_emb", "ent_emb"] + [f"block{i}.{n}" for i in range(2) for n in block]
    assert nm.grad_check(loss, [model[n] for n in names]) < 1e-5


@pytest.mark.parametrize("bad", ["unsorted", "repeated", "negative", "past_the_end"])
def test_encode_batch_rejects_bad_rows(model, bad):
    seqs, _ = batch_and_rows(model, np.random.default_rng(11), [(2, 2), (3, 1)], [0, 0])
    n = sum(len(s) for s in seqs)
    rows = {"unsorted": [3, 1], "repeated": [1, 1, 2], "negative": [-1, 2], "past_the_end": [2, n]}[bad]
    with pytest.raises(ShapeMismatch, match="query rows"):
        encode_batch(seqs, model, rows=np.array(rows))


def test_visibility_changes_the_output(model):
    rng = np.random.default_rng(5)
    seq = seq_of(rng, model)
    on = encode(seq, model, use_visibility=True).h.data
    off = encode(seq, model, use_visibility=False).h.data
    assert not np.allclose(on, off)


def test_hidden_cell_does_not_leak_through_visibility(model):
    # changing an entity invisible to a target cell leaves that cell's state
    # unchanged after one block; the mask is load-bearing, not decorative
    cells = [
        IndexedCell(row=0, col=0, entity_id=5, mention_ids=np.array([10])),
        IndexedCell(row=1, col=1, entity_id=6, mention_ids=np.array([11])),
    ]
    t = IndexedTable(
        table_id="leak",
        caption_ids=np.array([], dtype=np.int64),
        header_ids=[np.array([20]), np.array([21])],
        headers_norm=["a", "b"],
        n_rows=2,
        n_cols=2,
        cells=cells,
        subject_col=0,
    )
    one_block = init_model(tiny_cfg(n_blocks=1), np.random.default_rng(0))
    seq = linearize(t)
    vis = build_visibility(seq)
    i_cell0 = int(seq.cell_indices()[0])
    i_cell1 = int(seq.cell_indices()[1])
    assert vis[i_cell0, i_cell1] == 0  # different row and column

    base = encode(seq, one_block).h.data[i_cell0].copy()
    changed = seq.clone()
    changed.ids[i_cell1] = 9
    changed.mentions[i_cell1] = np.array([12])
    after = encode(changed, one_block).h.data[i_cell0]
    np.testing.assert_array_equal(base, after)

    # sanity: without the mask the change does leak
    base_off = encode(seq, one_block, use_visibility=False).h.data[i_cell0]
    after_off = encode(changed, one_block, use_visibility=False).h.data[i_cell0]
    assert not np.array_equal(base_off, after_off)


def test_row_swap_permutes_cell_states(model):
    # structural, not positional: swapping two full rows permutes the cell
    # representations and leaves the rest untouched
    rng = np.random.default_rng(6)
    t = make_indexed_table(rng, 2, 2, table_id="perm")
    seq = linearize(t)
    swapped_cells = [
        IndexedCell(row=1 - c.row, col=c.col, entity_id=c.entity_id, mention_ids=c.mention_ids)
        for c in t.cells
    ]
    t2 = IndexedTable(
        table_id="perm2",
        caption_ids=t.caption_ids,
        header_ids=t.header_ids,
        headers_norm=t.headers_norm,
        n_rows=2,
        n_cols=2,
        cells=swapped_cells,
        topic=t.topic,
        subject_col=t.subject_col,
    )
    seq2 = linearize(t2)
    h1 = encode(seq, model).h.data
    h2 = encode(seq2, model).h.data
    cells1 = seq.cell_indices()
    cells2 = seq2.cell_indices()
    key1 = {(seq.rows[i], seq.cols[i]): i for i in cells1}
    key2 = {(seq2.rows[i], seq2.cols[i]): i for i in cells2}
    for (r, c), i in key1.items():
        j = key2[(1 - r, c)]
        np.testing.assert_allclose(h1[i], h2[j], atol=1e-5)
    n_meta = int(cells1[0])
    np.testing.assert_allclose(h1[:n_meta], h2[:n_meta], atol=1e-5)


def test_float64_mode_flows_through(model):
    rng = np.random.default_rng(7)
    m64 = init_model(tiny_cfg(), np.random.default_rng(0), dtype=np.float64)
    seq = seq_of(rng, m64)
    out = encode(seq, m64)
    assert out.h.data.dtype == np.float64


# -- recompute of single-cell maskings ------------------------------------------


def masked_cells(seq, positions):
    masked = seq.clone()
    for pos in positions.tolist():
        mask_cell(masked, pos, mask_entity=True, mask_mention=True)
    return masked


def full_encode_of_each_masking(seq, positions, model, use_visibility):
    # reference: mask one cell in a copy of the table and encode the whole copy
    out = []
    for pos in positions.tolist():
        copy = seq.clone()
        mask_cell(copy, pos, mask_entity=True, mask_mention=True)
        out.append(encode(copy, model, use_visibility=use_visibility).h.data[pos])
    return np.array(out)


@pytest.mark.parametrize("use_visibility", [True, False])
@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_substitutions_match_a_full_encode_of_each_masked_copy(n_blocks, use_visibility, monkeypatch):
    model = init_model(tiny_cfg(n_blocks=n_blocks), np.random.default_rng(n_blocks))
    # at std 0.02 a masked cell moves the other rows' states by less than the
    # tolerance; at std 0.2 a block that skips a reached row is caught
    for name, w in model.weights.items():
        if name.startswith("block") and "W" in name:
            w.data *= 10.0
    rng = np.random.default_rng(10 + n_blocks)
    tables = [
        make_indexed_table(rng, 6, 3, with_topic=True),  # more than one pack from 2 blocks on
        make_indexed_table(rng, 3, 2, caption_len=0, cell_density=0.7),
        make_indexed_table(rng, 1, 1, caption_len=0),  # a one-cell table
    ]
    packs = []  # (substitutions, query rows, patched key rows) of each recomputed block

    def spy(x, changed, rows, *rest):
        packs.append((len(rows), int(rows.sum()), int(changed.sum())))
        return substituted_block(x, changed, rows, *rest)

    substituted_block = encoder._substituted_block
    monkeypatch.setattr(encoder, "_substituted_block", spy)
    # the package's score floor, then none, which leaves max_len**2 alone and
    # splits the first table into several packs
    floors = (encoder._SCORE_FLOOR, 0)
    cands = np.arange(3, 30)
    for t in tables:
        seq = linearize(t, model.cfg.max_len)
        cells = seq.cell_indices()
        # every cell, then the object cells alone (the recovery's only_objects)
        for positions in (cells, cells[seq.cols[cells] != 0]):
            if not len(positions):
                continue
            want = full_encode_of_each_masking(seq, positions, model, use_visibility)
            enc = encode(seq, model, use_visibility=use_visibility)
            for floor in floors:
                monkeypatch.setattr(encoder, "_SCORE_FLOOR", floor)
                packs.clear()
                got = encode_substitutions(enc, positions, masked_cells(seq, positions), model)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
                logits = {k: x @ model["mer_W"].data @ model["ent_emb"].data[cands].T for k, x in (("got", got), ("want", want))}
                assert np.abs(logits["got"] - logits["want"]).max() <= 1e-5 * np.abs(logits["want"]).max()
                assert np.array_equal(logits["got"].argmax(axis=1), logits["want"].argmax(axis=1))
                # every block's attention scores per head fit in the budget,
                # unless the pack holds a single substitution
                budget = max(model.cfg.max_len**2, floor)
                assert sum(m for m, _, _ in packs) == n_blocks * len(positions)
                assert all(m == 1 or q * (len(seq) + k) <= budget for m, q, k in packs)
                if floor and n_blocks <= 2:
                    assert len(packs) == n_blocks  # one pack per block at the floor
        if t is tables[0] and n_blocks > 1:
            assert len(packs) > n_blocks  # without the floor the first table took more than one pack


def _pack_size_by_loop(rows, changed, n, budget):
    # the pack size as first written: grow the pack one substitution at a
    # time while every block's scores fit
    q = np.array([r.sum(axis=1).max(initial=0) for r in rows])
    k = np.array([r.sum(axis=1).max(initial=0) for r in changed])
    pack = 1
    while pack < len(rows[0]) and ((pack + 1) * q * (n + (pack + 1) * k)).max() <= budget:
        pack += 1
    return pack


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 24), st.integers(1, 4), st.integers(0, 6000))
@example(seed=0, n=5, n_positions=0, n_blocks=2, budget=100)  # no positions
def test_pack_size_equals_growing_the_pack_one_at_a_time(seed, n, n_positions, n_blocks, budget):
    rng = np.random.default_rng(seed)
    rows, changed = ([rng.random((n_positions, n)) < rng.random() for _ in range(n_blocks)] for _ in range(2))
    assert encoder._pack_size(rows, changed, n, budget) == _pack_size_by_loop(rows, changed, n, budget)


def test_row_packs_fill_each_pack_up_to_the_row_budget(monkeypatch):
    monkeypatch.setattr(encoder, "PACK_ROWS", 10)
    lens = [4, 6, 1, 12, 3, 3, 3, 2, 10]
    packs = encoder.row_packs(lens)
    assert [lens[p] for p in packs] == [[4, 6], [1], [12], [3, 3, 3], [2], [10]]
    assert encoder.row_packs([]) == [] and encoder.row_packs([11]) == [slice(0, 1)]


def test_encode_keeps_each_block_input_and_builds_no_tape_under_no_grad(model):
    seq = seq_of(np.random.default_rng(12), model, with_topic=True)
    taped = encode(seq, model)
    assert len(taped.block_inputs) == model.cfg.n_blocks
    assert taped.block_inputs[0].data.tobytes() == embed_sequence(seq, model).data.tobytes()
    with nm.no_grad():
        free = encode(seq, model)
    assert free.h.data.tobytes() == taped.h.data.tobytes()
    assert free.h._parents == () and all(x._parents == () for x in free.block_inputs)
