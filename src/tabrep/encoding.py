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
five arrays read-only, and a sequence keeps what it derives from them, each
built on first use and shared with every clone, which shares the five
arrays too:
  - its visibility matrix (`Sequence.visibility`), n x n bools;
  - its additive attention bias in a given dtype (`Sequence.attention_bias`),
    0 where visible and -inf where not: 4 bytes per element pair in
    float32, 0.1 MB for a 159-element table;
  - its entity element indices, which say whose mentions embedding reads.
The sequence's own mention list keeps the mention half of its embed plan
(`Sequence.embed_plan`): the entities' mention token ids end to end, their
lengths and the largest id, checked once. The list drops them whenever one
of its elements is replaced (as `mask_cell` does), so masking a clone
rebuilds only that clone's mention arrays, never its original's. The other
half of the plan, the token and entity index split with the tokens' type
and position ids and the entities' type ids, is derived from the fields at
each embed: for a packed batch (`pack_sequences`) that takes as long as
concatenating kept halves would (16 us against 21-25 us for 8 tables), and
a new sequence does not pay for a half of its own. The caches live on the
sequences and go with them; no module keeps an array cache of its own.

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
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from . import kernels
from .corpus import IndexedTable, MASK_ID, UNK_ID
from .errors import TableTooSmall, UnknownId

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
# an entity with an empty mention averages the unknown token
_UNK_MENTION = np.array([UNK_ID], dtype=np.int64)


class Mentions(list):
    """A sequence's mention token-id arrays, one per element, and `flat`,
    their (ids, lengths, largest id) form for embedding once built.
    Replacing an element drops `flat`, of this list alone."""

    flat = None

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self.flat = None


class EmbedPlan(NamedTuple):
    """What embedding reads of a sequence besides its ids.

    tokens, entities    element indices of the tokens and of the entities
    token_types         TOKEN_TYPE_* of each token, in [0, N_TOKEN_TYPES)
    token_positions     position of each token, >= 0
    entity_types        ENT_TYPE_* of each entity, in [0, N_ENTITY_TYPES)
    max_position        the largest token position (-1 without tokens)
    mention_ids         every entity's mention token ids end to end, >= 0;
                        an empty mention reads as the unknown token
    mention_lens        the number of mention ids of each entity
    max_mention_id      the largest mention token id (-1 without entities)

    The bounds that depend on a model (max_len, the vocabulary size) are
    checked at each embed against the two maxima alone.
    """

    tokens: np.ndarray
    entities: np.ndarray
    token_types: np.ndarray
    token_positions: np.ndarray
    entity_types: np.ndarray
    max_position: int
    mention_ids: np.ndarray
    mention_lens: np.ndarray
    max_mention_id: int


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

    All arrays are int64. Entities are the TOPIC and CELL elements. The
    visibility matrix, attention biases and entity indices are kept in
    `_shared`, one dict for a sequence and all its clones; `mentions` is a
    `Mentions` list, which keeps the embed plan's mention arrays (see the
    module docstring).
    """

    table_id: str
    kinds: np.ndarray
    ids: np.ndarray
    type_ids: np.ndarray
    positions: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mentions: Mentions
    _shared: dict = field(default_factory=dict, repr=False, compare=False)

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
        if "vis" not in self._shared:
            vis = build_visibility(self)
            vis.flags.writeable = False
            self._shared["vis"] = vis
        return self._shared["vis"]

    def attention_bias(self, dtype) -> np.ndarray:
        """The additive attention bias of `visibility()` in `dtype`: 0 where
        visible, -inf where not. Built on first use, kept and read-only."""
        key = np.dtype(dtype)
        if key not in self._shared:
            bias = kernels.mask_bias(self.visibility(), key)
            bias.flags.writeable = False
            self._shared[key] = bias
        return self._shared[key]

    def embed_plan(self) -> EmbedPlan:
        """What embedding reads besides `ids` (see EmbedPlan): the mention
        arrays that `mentions` keeps, built if it holds none, and the index
        split, derived from the fields. A type id out of range, or a
        negative position or mention token id, raises UnknownId."""
        if self.mentions.flat is None:
            _build_mentions(self)
        return EmbedPlan(*_layout(self.kinds, self.type_ids, self.positions), *self.mentions.flat)

    def clone(self) -> "Sequence":
        """Copy `ids` and the mention list, which masking writes (mask_cell
        replaces a mention and never writes into one). Every other array and
        the caches, built or not, are shared with this sequence; the new
        mention list starts with this one's mention arrays."""
        mentions = Mentions(self.mentions)
        mentions.flat = self.mentions.flat
        return Sequence(
            self.table_id, self.kinds, self.ids.copy(), self.type_ids, self.positions, self.rows, self.cols,
            mentions, self._shared,
        )


def _layout(kinds: np.ndarray, type_ids: np.ndarray, positions: np.ndarray) -> tuple:
    """The EmbedPlan fields that do not read the mentions, in field order."""
    is_entity = (kinds == TOPIC) | (kinds == CELL)
    tokens, entities = np.flatnonzero(~is_entity), np.flatnonzero(is_entity)
    token_types, token_positions, entity_types = type_ids[tokens], positions[tokens], type_ids[entities]
    if (
        type_ids.min(initial=0) < 0 or token_positions.min(initial=0) < 0
        or token_types.max(initial=0) >= N_TOKEN_TYPES or entity_types.max(initial=0) >= N_ENTITY_TYPES
    ):
        raise UnknownId("negative id, or type id out of range")
    return tokens, entities, token_types, token_positions, entity_types, int(token_positions.max(initial=-1))


def _entities(seq: Sequence) -> list[int]:
    """The element indices of a sequence's entities, kept for its clones."""
    if "entities" not in seq._shared:
        seq._shared["entities"] = np.flatnonzero(seq.is_entity).tolist()
    return seq._shared["entities"]


def _build_mentions(seq: Sequence) -> None:
    """Build and keep the EmbedPlan mention fields of a sequence: its
    entities' mention ids end to end, their lengths and the largest id."""
    ments = [m if len(m) else _UNK_MENTION for m in map(seq.mentions.__getitem__, _entities(seq))]
    ids = np.concatenate(ments) if ments else np.zeros(0, dtype=np.int64)
    if ids.min(initial=0) < 0:
        raise UnknownId("negative mention token id")
    seq.mentions.flat = ids, np.fromiter(map(len, ments), np.int64, len(ments)), int(ids.max(initial=-1))


def pack_sequences(seqs: list[Sequence]) -> Sequence:
    """Stack sequences end to end into one sequence of all their elements;
    its mention list holds their kept mention arrays end to end, built first
    for those that have none."""
    if len(seqs) == 1:
        return seqs[0]
    for s in seqs:
        if s.mentions.flat is None:
            _build_mentions(s)
    ids, lens, largest = zip(*(s.mentions.flat for s in seqs))
    fields = [np.concatenate([getattr(s, f) for s in seqs]) for f in ("kinds", "ids", "type_ids", "positions", "rows", "cols")]
    mentions = Mentions(chain.from_iterable(s.mentions for s in seqs))
    mentions.flat = np.concatenate(ids), np.concatenate(lens), max(largest)
    return Sequence("+".join(s.table_id for s in seqs), *fields, mentions)


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
    mentions = Mentions(mentions + [np.asarray(table.cells[k].mention_ids, dtype=np.int64) for k in order])
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
