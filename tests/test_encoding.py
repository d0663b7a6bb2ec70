"""Linearization order, positions, and the visibility matrix.

The oracle below restates the visibility rules pairwise and is deliberately
slow; the vectorized builder must agree with it everywhere.
"""

import numpy as np
import pytest

from tabrep.corpus import MASK_ID, IndexedCell, IndexedTable
from tabrep.encoding import (
    CAPTION,
    CELL,
    ENT_TYPE_OBJECT,
    ENT_TYPE_SUBJECT,
    ENT_TYPE_TOPIC,
    HEADER,
    TOKEN_TYPE_CAPTION,
    TOKEN_TYPE_HEADER,
    TOPIC,
    Sequence,
    build_visibility,
    linearize,
    mask_cell,
)
from tabrep.errors import TableTooSmall

from conftest import make_indexed_table


def visibility_oracle(seq: Sequence) -> np.ndarray:
    """Pairwise restatement of the attention rules."""

    kinds, rows, cols = seq.kinds, seq.rows, seq.cols

    def pair(a, b) -> bool:
        if kinds[a] in (CAPTION, TOPIC) or kinds[b] in (CAPTION, TOPIC):
            return True
        if kinds[a] == HEADER and kinds[b] == HEADER:
            return True
        if {kinds[a], kinds[b]} == {HEADER, CELL}:
            return cols[a] == cols[b]
        if kinds[a] == CELL and kinds[b] == CELL:
            return rows[a] == rows[b] or cols[a] == cols[b]
        return False

    n = len(seq)
    vis = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            vis[i, j] = 1 if (i == j or pair(i, j)) else 0
    return vis


def small_table(with_topic=True) -> IndexedTable:
    cells = [
        IndexedCell(row=0, col=0, entity_id=5, mention_ids=np.array([10, 11])),
        IndexedCell(row=0, col=1, entity_id=6, mention_ids=np.array([12])),
        IndexedCell(row=1, col=0, entity_id=7, mention_ids=np.array([13])),
        IndexedCell(row=1, col=1, entity_id=8, mention_ids=np.array([14])),
    ]
    return IndexedTable(
        table_id="small",
        caption_ids=np.array([20, 21, 22]),
        header_ids=[np.array([30, 31]), np.array([32])],
        headers_norm=["first header", "second"],
        n_rows=2,
        n_cols=2,
        cells=cells,
        topic=(4, np.array([23])) if with_topic else None,
        subject_col=0,
    )


# -- linearize ------------------------------------------------------------------


def test_element_order_and_positions():
    seq = linearize(small_table())
    kinds = seq.kinds.tolist()
    # caption, topic, headers by column, then cells row-major
    assert kinds == [CAPTION] * 3 + [TOPIC] + [HEADER] * 3 + [CELL] * 4

    caption = slice(0, 3)
    assert seq.positions[caption].tolist() == [0, 1, 2]
    assert all(seq.type_ids[caption] == TOKEN_TYPE_CAPTION)

    headers = slice(4, 7)
    # positions restart at zero for every header
    assert seq.positions[headers].tolist() == [0, 1, 0]
    assert seq.cols[headers].tolist() == [0, 0, 1]
    assert all(seq.type_ids[headers] == TOKEN_TYPE_HEADER)

    cells = slice(7, None)
    assert list(zip(seq.rows[cells].tolist(), seq.cols[cells].tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(seq.positions[cells] == 0)
    assert seq.type_ids[cells].tolist() == [
        ENT_TYPE_SUBJECT,
        ENT_TYPE_OBJECT,
        ENT_TYPE_SUBJECT,
        ENT_TYPE_OBJECT,
    ]
    assert seq.type_ids[3] == ENT_TYPE_TOPIC


def test_truncation_drops_whole_rows():
    seq = linearize(small_table(), max_len=9)  # room for meta + one row only
    cells = seq.kinds == CELL
    assert list(zip(seq.rows[cells].tolist(), seq.cols[cells].tolist())) == [(0, 0), (0, 1)]


def test_empty_table_raises():
    empty = IndexedTable(
        table_id="none",
        caption_ids=np.array([], dtype=np.int64),
        header_ids=[],
        headers_norm=[],
        n_rows=0,
        n_cols=0,
        cells=[],
    )
    with pytest.raises(TableTooSmall):
        linearize(empty)


def test_clone_is_deep_for_mutated_fields():
    seq = linearize(small_table())
    dup = seq.clone()
    pos = int(dup.cell_indices()[0])
    mask_cell(dup, pos, mask_entity=True, mask_mention=True)
    assert seq.ids[pos] != MASK_ID
    assert dup.ids[pos] == MASK_ID
    assert list(dup.mentions[pos]) == [MASK_ID]


@pytest.mark.parametrize("built_first", [True, False])
def test_clone_shares_the_visibility_matrix_and_structure(built_first):
    seq = linearize(small_table())
    if built_first:
        seq.visibility()
    dup = seq.clone()
    mask_cell(dup, int(dup.cell_indices()[0]), mask_entity=True, mask_mention=True)
    assert dup.visibility() is seq.visibility()
    np.testing.assert_array_equal(seq.visibility(), build_visibility(seq))
    for name in ("kinds", "type_ids", "positions", "rows", "cols"):
        assert getattr(dup, name) is getattr(seq, name)
    # the arrays the matrix is built from, and the matrix, cannot go stale
    for arr in (dup.kinds, dup.rows, dup.cols, dup.visibility()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


PLAN_MENTIONS = ("mention_ids", "mention_lens")


def plans_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("built_first", [True, False])
def test_clone_shares_the_attention_bias_and_embed_plan(built_first):
    seq = linearize(small_table())
    if built_first:
        seq.attention_bias(np.float32)
        seq.embed_plan()
    dup = seq.clone()
    for dtype in (np.float32, np.float64):
        bias = dup.attention_bias(dtype)
        assert bias is seq.attention_bias(dtype) and bias.dtype == dtype
        assert bias.tobytes() == np.where(build_visibility(seq), dtype(0), dtype(-np.inf)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            bias[0, 0] = 1
    plan, mine = dup.embed_plan(), seq.embed_plan()
    assert plans_equal(plan, mine)
    # a clone made after the mention arrays were built starts with them
    assert all(getattr(plan, f) is getattr(mine, f) for f in PLAN_MENTIONS) == built_first


def test_masking_a_clone_rebuilds_only_its_mention_arrays():
    seq = linearize(small_table())
    plan = seq.embed_plan()
    pos = int(seq.cell_indices()[0])
    dup = seq.clone()
    mask_cell(dup, pos, mask_entity=True, mask_mention=True)
    masked = dup.embed_plan()
    assert all(getattr(seq.embed_plan(), f) is getattr(plan, f) for f in PLAN_MENTIONS)
    # the clone's plan is that of a copy masked before any plan was built
    fresh = linearize(small_table())
    mask_cell(fresh, pos, mask_entity=True, mask_mention=True)
    assert plans_equal(masked, fresh.embed_plan()) and not plans_equal(masked, plan)
    assert all(getattr(masked, f) is not getattr(plan, f) for f in PLAN_MENTIONS)
    # an entity-only mask keeps the clone's mention arrays
    ent_only = seq.clone()
    mask_cell(ent_only, pos, mask_entity=True, mask_mention=False)
    assert ent_only.embed_plan().mention_ids is plan.mention_ids


def test_mask_cell_actions():
    seq = linearize(small_table())
    pos = int(seq.cell_indices()[1])
    orig_mention = seq.mentions[pos].copy()

    keep_mention = seq.clone()
    mask_cell(keep_mention, pos, mask_entity=True, mask_mention=False)
    assert keep_mention.ids[pos] == MASK_ID
    np.testing.assert_array_equal(keep_mention.mentions[pos], orig_mention)

    swapped = seq.clone()
    mask_cell(swapped, pos, mask_entity=False, mask_mention=False, replace_entity=9)
    assert swapped.ids[pos] == 9
    np.testing.assert_array_equal(swapped.mentions[pos], orig_mention)


# -- visibility -------------------------------------------------------------------


def test_visibility_small_table_by_hand():
    seq = linearize(small_table(with_topic=False))
    vis = build_visibility(seq)
    assert vis.dtype == bool
    # layout: 3 caption, 3 header (cols 0,0,1), 4 cells
    assert vis[0].all()  # caption sees everything
    h0, h1, h2 = 3, 4, 5
    c00, c01, c10, c11 = 6, 7, 8, 9
    assert vis[h0, h2] == 1 and vis[h2, h0] == 1  # headers see headers
    assert vis[h0, c00] == 1 and vis[h0, c01] == 0  # header to same-column cell
    assert vis[h2, c01] == 1 and vis[h2, c10] == 0
    assert vis[c00, c01] == 1  # same row
    assert vis[c00, c10] == 1  # same column
    assert vis[c00, c11] == 0  # different row and column
    assert vis[c01, c10] == 0


def test_visibility_matches_oracle_on_random_tables():
    rng = np.random.default_rng(7)
    for k in range(60):
        t = make_indexed_table(
            rng,
            n_rows=int(rng.integers(1, 5)),
            n_cols=int(rng.integers(1, 5)),
            with_topic=bool(rng.integers(2)),
            cell_density=float(rng.uniform(0.4, 1.0)),
            caption_len=int(rng.integers(0, 4)),
            table_id=f"r{k}",
        )
        try:
            seq = linearize(t)
        except TableTooSmall:
            continue
        np.testing.assert_array_equal(build_visibility(seq), visibility_oracle(seq))


def test_visibility_is_symmetric_with_full_diagonal():
    rng = np.random.default_rng(8)
    for k in range(20):
        t = make_indexed_table(rng, 3, 3, with_topic=True, table_id=f"s{k}")
        vis = build_visibility(linearize(t))
        assert (vis == vis.T).all()
        assert (np.diag(vis) == 1).all()


def test_row_permutation_permutes_visibility():
    # renaming rows permutes cell elements; visibility must follow the permutation
    t = small_table(with_topic=False)
    seq = linearize(t)
    swapped = IndexedTable(
        table_id=t.table_id,
        caption_ids=t.caption_ids,
        header_ids=t.header_ids,
        headers_norm=t.headers_norm,
        n_rows=t.n_rows,
        n_cols=t.n_cols,
        cells=[IndexedCell(row=1 - c.row, col=c.col, entity_id=c.entity_id, mention_ids=c.mention_ids) for c in t.cells],
        topic=t.topic,
        subject_col=t.subject_col,
    )
    seq2 = linearize(swapped)
    vis, vis2 = build_visibility(seq), build_visibility(seq2)
    # row swap maps cell slots (6,7,8,9) -> (8,9,6,7); meta slots fixed
    perm = np.array([0, 1, 2, 3, 4, 5, 8, 9, 6, 7])
    np.testing.assert_array_equal(vis2, vis[np.ix_(perm, perm)])
