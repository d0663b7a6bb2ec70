"""Turn an indexed table into a flat element sequence plus a visibility matrix.

Sequence order: caption tokens, then the topic entity (when present), then
header tokens column by column, then cell entities row by row. Token positions
restart at zero for the caption stream and for each header; entities always
sit at position zero and are distinguished structurally by (row, column).

A Sequence stores the elements as a struct of arrays: one int64 array per
field (kind, id, segment id, position, row, column) with one slot per
element, plus one mention token-id array per element. Tokens and entities
share the `ids` array; `kinds` tells them apart.

Masking writes only `ids` and `mentions`, so `linearize` marks the other
five arrays read-only, and a sequence owns its visibility matrix: built on
first use (`Sequence.visibility`), kept, and shared with every clone, which
shares the five arrays too.

Visibility pins which elements may attend to each other:
  - caption tokens and the topic entity see everything and are seen by all;
  - header tokens all see each other;
  - a header token and a cell entity see each other iff same column;
  - two cell entities see each other iff same row or same column;
  - every element sees itself.
Everything else is invisible. The matrix is symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .corpus import IndexedTable, MASK_ID
from .errors import TableTooSmall

# element kinds
CAPTION = 0
HEADER = 1
TOPIC = 2
CELL = 3

# token segment ids (caption vs header stream)
TOKEN_TYPE_CAPTION = 0
TOKEN_TYPE_HEADER = 1
N_TOKEN_TYPES = 2

# entity segment ids
ENT_TYPE_SUBJECT = 0
ENT_TYPE_OBJECT = 1
ENT_TYPE_TOPIC = 2
N_ENTITY_TYPES = 3


_NO_MENTION = np.zeros(0, dtype=np.int64)
_NO_MENTION.flags.writeable = False


@dataclass
class Sequence:
    """Linearized table as a struct of arrays, one slot per element.

    kinds      CAPTION, HEADER, TOPIC or CELL
    ids        token id of a token, entity id of an entity
    type_ids   TOKEN_TYPE_* of a token, ENT_TYPE_* of an entity
    positions  position of a token within its caption or header; 0 for entities
    rows       row of a cell; -1 elsewhere
    cols       column of a header token or a cell; -1 elsewhere
    mentions   one mention token-id array per element, empty for tokens

    All arrays are int64. Entities are the TOPIC and CELL elements.
    """

    table_id: str
    kinds: np.ndarray
    ids: np.ndarray
    type_ids: np.ndarray
    positions: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mentions: list[np.ndarray]
    _vis: list = field(default_factory=list, repr=False, compare=False)  # [visibility matrix] once built

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def is_entity(self) -> np.ndarray:
        return (self.kinds == TOPIC) | (self.kinds == CELL)

    @property
    def token_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.is_entity)

    def cell_indices(self) -> np.ndarray:
        return np.flatnonzero(self.kinds == CELL)

    def visibility(self) -> np.ndarray:
        """`build_visibility` of this sequence, built on first use, kept and read-only."""
        if not self._vis:
            self._vis.append(build_visibility(self))
            self._vis[0].flags.writeable = False
        return self._vis[0]

    def clone(self) -> "Sequence":
        """Copy `ids` and the mention list, which masking writes (mask_cell
        replaces a mention and never writes into one). Every other array and
        the visibility matrix, built or not, are shared with this sequence."""
        return Sequence(
            self.table_id, self.kinds, self.ids.copy(), self.type_ids, self.positions, self.rows, self.cols,
            list(self.mentions), self._vis,
        )


def linearize(table: IndexedTable, max_len: int = 256) -> Sequence:
    """Flatten a table; trailing whole rows are dropped to honor max_len."""
    # metadata segments: the caption, the topic, then one per header; every
    # field but the id is constant over a segment, and positions restart
    topic = [] if table.topic is None else [table.topic]
    seg_len = [len(table.caption_ids), len(topic)] + [len(h) for h in table.header_ids]
    seg_start = list(accumulate(seg_len, initial=0))
    seg_fields = [(CAPTION, TOKEN_TYPE_CAPTION, -1, 0), (TOPIC, ENT_TYPE_TOPIC, -1, seg_start[1])]
    seg_fields += [(HEADER, TOKEN_TYPE_HEADER, col, seg_start[2 + col]) for col in range(len(table.header_ids))]
    n_meta = min(seg_start[-1], max_len)

    # cells row-major (rce: row, col, entity id); keep the whole rows that fit
    rce = np.array([(c.row, c.col, c.entity_id) for c in table.cells], dtype=np.int64).reshape(-1, 3)
    order = np.lexsort((rce[:, 1], rce[:, 0]))
    if len(order) > max_len - n_meta:
        sorted_rows = rce[order, 0]
        order = order[: np.searchsorted(sorted_rows, sorted_rows[max_len - n_meta])]
    if n_meta + len(order) == 0:
        raise TableTooSmall(f"{table.table_id}: nothing to encode")

    kinds, ids, type_ids, positions, rows, cols = np.empty((6, n_meta + len(order)), dtype=np.int64)
    meta, cell = slice(0, n_meta), slice(n_meta, None)
    kinds[meta], type_ids[meta], cols[meta], starts = np.array(seg_fields).repeat(seg_len, axis=0)[meta].T
    positions[meta] = np.arange(n_meta) - starts
    ids[meta] = np.concatenate([table.caption_ids, [e for e, _ in topic], *table.header_ids])[meta]
    rows[meta] = -1
    kinds[cell], positions[cell], type_ids[cell] = CELL, 0, ENT_TYPE_OBJECT
    rows[cell], cols[cell], ids[cell] = rce[order].T
    type_ids[cell][cols[cell] == table.subject_col] = ENT_TYPE_SUBJECT

    topic_mention = [np.asarray(m, dtype=np.int64) for _, m in topic]
    mentions = ([_NO_MENTION] * seg_len[0] + topic_mention + [_NO_MENTION] * (seg_start[-1] - seg_start[2]))[meta]
    mentions += [np.asarray(table.cells[k].mention_ids, dtype=np.int64) for k in order]
    for structure in (kinds, type_ids, positions, rows, cols):
        structure.flags.writeable = False
    return Sequence(table.table_id, kinds, ids, type_ids, positions, rows, cols, mentions)


def build_visibility(seq: Sequence) -> np.ndarray:
    """(n, n) bool visibility matrix for a linearized table."""
    kinds, rows, cols = seq.kinds, seq.rows, seq.cols
    meta = (kinds == CAPTION) | (kinds == TOPIC)
    header = kinds == HEADER
    cell = kinds == CELL

    vis = meta[:, None] | meta[None, :]
    vis |= header[:, None] & header[None, :]
    same_col = cols[:, None] == cols[None, :]
    same_row = rows[:, None] == rows[None, :]
    hdr_cell = (header[:, None] & cell[None, :]) | (cell[:, None] & header[None, :])
    vis |= hdr_cell & same_col
    vis |= (cell[:, None] & cell[None, :]) & (same_row | same_col)
    np.fill_diagonal(vis, True)
    return vis


def mask_cell(seq: Sequence, index: int, mask_entity: bool, mask_mention: bool, replace_entity: int | None = None) -> None:
    """Apply one masking action in place to element `index` of a cloned sequence."""
    if replace_entity is not None:
        seq.ids[index] = replace_entity
    elif mask_entity:
        seq.ids[index] = MASK_ID
    if mask_mention:
        seq.mentions[index] = np.array([MASK_ID], dtype=np.int64)
