"""Structure-aware transformer encoder over linearized tables.

Token inputs sum word, segment, and position embeddings. Entity inputs fuse
the entity embedding with the mean word embedding of the cell mention through
a learned affine map, then add a segment embedding; entities carry no position
term. Blocks are post-norm residual transformer layers whose attention weights
are hard-masked by the table visibility matrix: invisible pairs get exactly
zero weight.

A batch of tables is encoded as one graph (`encode_batch`). The sequences are
packed end to end into (N, d) rows, with no padding: the embeddings, the
Q/K/V/O projections, the FFN and both layer norms each run once over all
rows. Each projection is one `numeric.affine` node (x @ W + b), and the
mention means of all entities are one `numeric.segment_mean` node, a sum
over consecutive segments of the gathered word rows with no dense averaging
matrix. Attention is one op, `numeric.table_attention`, that loops over the
tables' row slices, so a row attends only within its own table, under that
table's visibility matrix. A table's rows therefore come out as if it were
encoded alone; the tests check that they are bitwise equal. `encode` packs
the same way, one Sequence being a batch of one, and also returns the input
of every block and each table's mask. A pre-training
step's loss on top (`pretrain.table_loss`) adds the masked-entity head as
one `numeric.candidate_cross_entropy_sum` node over all tables, so the
step's tape has the same 49 op nodes (two blocks) for any batch size.

`encode_batch` can return the final states at chosen rows only, the rows
a loss reads, and then runs the last block only there. Row i of a block's
output depends on the block's input at every row only through the keys and
values, so, as in `encode_substitutions` below, the last block is needed
only at the rows read: it gathers its input there, projects queries there,
attends from there to the keys and values of every row of the same table
(under the table's mask cut down to the rows read), and runs its output
projection, FFN and layer norms there. Every earlier block, and the last
block's keys and values, still cover every row. The gather is the one
extra tape node. The rows come out as the same bits as those rows of a full
encode, as long as the BLAS computes a product's rows alike for any number
of rows; the gradients differ from a full encode's by float rounding where
a product sums over rows, or has few of them.

`encode_substitutions` scores single-element substitutions of encoded
tables without encoding each substituted copy. Row i of block l's output
depends only on the rows visible to i in block l's input, so a substitution
at row c changes block l's output only at rows within l visibility hops of
c. The last block is needed only at c, so block l (of L, counted from 1)
recomputes only the rows within min(l, L - l) hops of c; their keys and
values are the intact ones except at the rows within l - 1 hops, which the
previous block recomputed (the substituted embedding for l = 1). With two
blocks, block 1 recomputes the rows that see c (its row, its column, its
column's header, the caption and the topic) with only c's key and value
changed, and block 2 recomputes row c alone. Without the visibility matrix
every row sees every other, so block 1 recomputes all rows. Substitutions
are recomputed together in packs sized so that no block's attention scores
per head exceed 256 x 256, those of one full encode at the default
max_len, or those of one full encode of a max_len table when that is more.
With two blocks at max_len 64, the masked cells of a 30-element table then
fit in one pack per block. The substituted embeddings of all tables are one
`embed_sequence`, and each block's intact keys and values one affine map
each over all tables' rows; only the reach sets, the pack size and the
recomputed blocks run table by table. Evaluation packs its no-grad encodes
(`tasks.forward`, `pretrain.masked_cell_states`) in runs of at most
PACK_ROWS rows (`row_packs`), which bounds the rows a graph holds at once
whatever the number of tables.

Initialization follows BERT: every embedding table and weight matrix draws
from a normal truncated at two standard deviations with std 0.02; biases and
layer-norm shifts start at zero, layer-norm gains at one. The value 0.02 was
set for widths in the hundreds. At small widths a fresh d x d map scales a
unit-variance input by about 0.02 * sqrt(d) (0.11 at d=32), so at first a
cell's state depends only weakly on its row and column context.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from . import numeric as nm
from .corpus import ENTITY_RESERVED, UNK_ID
from .encoding import N_ENTITY_TYPES, N_TOKEN_TYPES, Sequence
from .errors import ConfigError, UnknownId

__all__ = [
    "EncoderConfig",
    "Model",
    "load_tensors",
    "init_model",
    "init_entity_embeddings",
    "trunc_normal",
    "embed_sequence",
    "transformer_block",
    "encode_batch",
    "encode",
    "EncodeResult",
    "encode_substitutions",
    "PACK_ROWS",
    "row_packs",
]

# the per-head attention scores of one full encode at the default max_len;
# encode_substitutions packs up to this many, or max_len**2 when larger
_SCORE_FLOOR = 256**2

# rows per packed no-grad graph: `tasks.forward` and
# `pretrain.masked_cell_states` encode in runs of this many (`row_packs`)
PACK_ROWS = 4096


@dataclass
class EncoderConfig:
    n_blocks: int = 4
    d_model: int = 312
    n_heads: int = 12
    d_intermediate: int = 1200
    max_len: int = 256
    n_tokens: int = 0
    n_entities: int = 0

    def validate(self) -> None:
        if min(self.n_blocks, self.d_model, self.n_heads, self.d_intermediate, self.max_len) <= 0:
            raise ConfigError("encoder dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.n_heads}")
        if self.n_tokens <= 0 or self.n_entities <= 0:
            raise ConfigError("vocabulary sizes must be set before building a model")


@dataclass
class Model:
    """An encoder's config and weights, and its attention mode.

    use_visibility is part of the architecture: True attends through each
    table's visibility matrix, False lets every element see every other
    (the paper's ablation). Every layer above the encoder encodes in the
    model's own mode; `pretrain.fit` sets it from its settings and
    `cli.restore_model` from the checkpoint's config.
    """

    cfg: EncoderConfig
    weights: dict[str, nm.Tensor] = field(default_factory=dict)
    use_visibility: bool = True

    def __getitem__(self, name: str) -> nm.Tensor:
        return self.weights[name]

    def params(self) -> list[nm.Tensor]:
        return [t for t in self.weights.values() if t.requires_grad]

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.weights.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        load_tensors(self.weights, arrays)

    @property
    def dtype(self):
        return self.weights["word_emb"].data.dtype


def load_tensors(tensors: dict[str, nm.Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy arrays[name] into each named tensor. A missing name or a shape
    mismatch raises ConfigError."""
    for name, t in tensors.items():
        if name not in arrays:
            raise ConfigError(f"checkpoint is missing tensor {name!r}")
        if arrays[name].shape != t.data.shape:
            raise ConfigError(f"tensor {name!r} shape {arrays[name].shape} != {t.data.shape}")
        t.data[...] = arrays[name]


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    """Normal draw renormalized to two standard deviations, then scaled.
    Each round redraws, in order, only the entries still beyond two."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0)
    while len(bad):
        flat[bad] = rng.standard_normal(len(bad))
        bad = bad[np.abs(flat[bad]) > 2.0]
    return (x * std).astype(dtype)


def init_model(cfg: EncoderConfig, rng: np.random.Generator, dtype=np.float32) -> Model:
    cfg.validate()
    d, di = cfg.d_model, cfg.d_intermediate
    w: dict[str, nm.Tensor] = {}

    def p(name: str, arr: np.ndarray) -> None:
        w[name] = nm.Tensor(arr, requires_grad=True, name=name)

    p("word_emb", trunc_normal(rng, (cfg.n_tokens, d), dtype=dtype))
    p("pos_emb", trunc_normal(rng, (cfg.max_len, d), dtype=dtype))
    p("tok_type_emb", trunc_normal(rng, (N_TOKEN_TYPES, d), dtype=dtype))
    p("ent_emb", trunc_normal(rng, (cfg.n_entities, d), dtype=dtype))
    p("ent_type_emb", trunc_normal(rng, (N_ENTITY_TYPES, d), dtype=dtype))
    p("fuse_W", trunc_normal(rng, (2 * d, d), dtype=dtype))
    p("fuse_b", np.zeros(d, dtype=dtype))
    for i in range(cfg.n_blocks):
        pre = f"block{i}."
        for side in ("q", "k", "v", "o"):
            p(pre + f"W{side}", trunc_normal(rng, (d, d), dtype=dtype))
            p(pre + f"b{side}", np.zeros(d, dtype=dtype))
        p(pre + "ln1_g", np.ones(d, dtype=dtype))
        p(pre + "ln1_b", np.zeros(d, dtype=dtype))
        p(pre + "ffn_W1", trunc_normal(rng, (d, di), dtype=dtype))
        p(pre + "ffn_b1", np.zeros(di, dtype=dtype))
        p(pre + "ffn_W2", trunc_normal(rng, (di, d), dtype=dtype))
        p(pre + "ffn_b2", np.zeros(d, dtype=dtype))
        p(pre + "ln2_g", np.ones(d, dtype=dtype))
        p(pre + "ln2_b", np.zeros(d, dtype=dtype))
    p("mlm_W", trunc_normal(rng, (d, d), dtype=dtype))
    p("mlm_b", np.zeros(d, dtype=dtype))
    p("mer_W", trunc_normal(rng, (d, d), dtype=dtype))
    p("mer_b", np.zeros(d, dtype=dtype))
    return Model(cfg=replace(cfg), weights=w)


def init_entity_embeddings(model: Model, mentions: dict[int, np.ndarray]) -> None:
    """Seed entity rows with the mean word embedding of a canonical mention.

    Reserved rows (pad/mask/unk) keep their random initialization so the
    masked-entity embedding stays a separate learned vector.
    """
    word = model["word_emb"].data
    ent = model["ent_emb"].data
    for eid, token_ids in mentions.items():
        if eid < len(ENTITY_RESERVED) or len(token_ids) == 0:
            continue
        ent[eid] = word[np.asarray(token_ids)].mean(axis=0)


_UNK_MENTION = np.array([UNK_ID], dtype=np.int64)


def _check_ids(ids: np.ndarray, bound: int, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise UnknownId(f"{what} id out of range [0, {bound})")


def embed_sequence(seq: Sequence, model: Model) -> nm.Tensor:
    """Initial (n, d_model) representation of a linearized table."""
    cfg = model.cfg
    n = len(seq)

    tok_idx, ent_idx = seq.token_indices, seq.entity_indices
    parts = []
    if len(tok_idx):
        ids, types, pos = seq.ids[tok_idx], seq.type_ids[tok_idx], seq.positions[tok_idx]
        _check_ids(ids, cfg.n_tokens, "token")
        _check_ids(pos, cfg.max_len, "position")
        _check_ids(types, N_TOKEN_TYPES, "token type")
        x = nm.add(
            nm.add(nm.gather_rows(model["word_emb"], ids), nm.gather_rows(model["tok_type_emb"], types)),
            nm.gather_rows(model["pos_emb"], pos),
        )
        parts.append(nm.put_rows(x, tok_idx, n))
    if len(ent_idx):
        ids, types = seq.ids[ent_idx], seq.type_ids[ent_idx]
        # an entity with an empty mention averages the unknown token
        ments = [seq.mentions[i] if len(seq.mentions[i]) else _UNK_MENTION for i in ent_idx]
        flat = np.concatenate(ments)
        _check_ids(ids, cfg.n_entities, "entity")
        _check_ids(types, N_ENTITY_TYPES, "entity type")
        _check_ids(flat, cfg.n_tokens, "mention token")
        mention_mean = nm.segment_mean(model["word_emb"], flat, [len(m) for m in ments])
        fused = nm.affine(
            nm.concat([nm.gather_rows(model["ent_emb"], ids), mention_mean], axis=1),
            model["fuse_W"],
            model["fuse_b"],
        )
        x = nm.add(fused, nm.gather_rows(model["ent_type_emb"], types))
        parts.append(nm.put_rows(x, ent_idx, n))
    if not parts:
        raise UnknownId("sequence has no elements to embed")
    return parts[0] if len(parts) == 1 else nm.add(parts[0], parts[1])


def transformer_block(
    h: nm.Tensor,
    masks: list[np.ndarray] | None,
    starts: np.ndarray,
    model: Model,
    block: int,
    rows: np.ndarray | None = None,
) -> nm.Tensor:
    """One post-norm block over packed rows; each table attends only within
    itself. masks=None runs the plain unmasked reference path. With `rows`
    (sorted packed row indices) the block runs only at those rows: queries
    and everything after attention there, keys and values at every row; it
    returns the (len(rows), d) output."""
    k, v = (_projection(h, model, block, side) for side in "kv")
    if rows is not None:
        h = nm.gather_rows(h, rows)
    ctx = nm.table_attention(_projection(h, model, block, "q"), k, v, masks, starts, model.cfg.n_heads, rows)
    return _block_output(h, ctx, model, block)


def _projection(h: nm.Tensor, model: Model, block: int, side: str) -> nm.Tensor:
    """The query, key or value rows (side "q", "k" or "v") of a block."""
    return nm.affine(h, model[f"block{block}.W{side}"], model[f"block{block}.b{side}"])


def _block_output(h: nm.Tensor, ctx: nm.Tensor, model: Model, block: int) -> nm.Tensor:
    """The post-attention half of a block, row by row: output projection of
    the attention context, residual and layer norm, FFN, residual and layer
    norm. h holds the block's input at the same rows as ctx."""
    pre = f"block{block}."
    a = nm.affine(ctx, model[pre + "Wo"], model[pre + "bo"])
    h1 = nm.layer_norm(nm.add(h, a), model[pre + "ln1_g"], model[pre + "ln1_b"])
    f = nm.affine(nm.gelu(nm.affine(h1, model[pre + "ffn_W1"], model[pre + "ffn_b1"])), model[pre + "ffn_W2"], model[pre + "ffn_b2"])
    return nm.layer_norm(nm.add(h1, f), model[pre + "ln2_g"], model[pre + "ln2_b"])


@dataclass
class EncodeResult:
    h: nm.Tensor  # the (N, d) final states of the tables, stacked end to end
    block_inputs: list[nm.Tensor]  # the (N, d) input of each block, in order
    masks: list[np.ndarray] | None  # each table's (n, n) bool visibility every block used; None for the plain reference path
    starts: np.ndarray  # each table's first row


def row_packs(lens: list[int]) -> list[slice]:
    """Consecutive runs of sequences of lengths `lens`, as slices of it, each
    run at most PACK_ROWS rows in all; a longer sequence is a run of its own."""
    packs, start, rows = [], 0, 0
    for i, n in enumerate(lens):
        if i > start and rows + n > PACK_ROWS:
            packs.append(slice(start, i))
            start, rows = i, 0
        rows += n
    if lens:
        packs.append(slice(start, len(lens)))
    return packs


def _batch(seqs: Sequence | list[Sequence]) -> list[Sequence]:
    return [seqs] if isinstance(seqs, Sequence) else list(seqs)


def _pack(seqs: list[Sequence]) -> Sequence:
    """Stack sequences end to end into one sequence of all their elements."""
    if len(seqs) == 1:
        return seqs[0]
    fields = [np.concatenate([getattr(s, f) for s in seqs]) for f in ("kinds", "ids", "type_ids", "positions", "rows", "cols")]
    return Sequence("+".join(s.table_id for s in seqs), *fields, [m for s in seqs for m in s.mentions])


def _encode_states(seqs: list[Sequence], model: Model, use_visibility: bool, reference: bool, rows=None):
    """The packed input of every block, then the output of the last one (at
    `rows` only, when given), each table's mask (None on the reference
    path) and each table's first row."""
    lens = [len(s) for s in seqs]
    starts = np.cumsum([0] + lens[:-1])
    if rows is not None:
        rows = kernels.check_rows(rows, sum(lens))
    states = [embed_sequence(_pack(seqs), model)]
    if reference:
        masks = None
    elif use_visibility:
        masks = [s.visibility() for s in seqs]
    else:
        masks = [np.ones((n, n), dtype=bool) for n in lens]
    last = model.cfg.n_blocks - 1
    for i in range(model.cfg.n_blocks):
        states.append(transformer_block(states[-1], masks, starts, model, i, rows if i == last else None))
    return states, masks, starts


def encode_batch(seqs: list[Sequence], model: Model, rows: np.ndarray | None = None) -> nm.Tensor:
    """Run the full encoder over a batch of tables as one packed graph, in
    the model's attention mode (`Model.use_visibility`).

    Returns the (sum of lengths, d_model) states of all tables stacked end to
    end: table i owns the len(seqs[i]) rows after those of tables 0..i-1.
    `rows`, when given, is a sorted array of distinct packed row indices, and
    only those rows of the states are returned, in order. The last block
    then runs only at those rows, and they are the same bits as the full
    result's (see the module docstring). Rows unsorted, repeated or out of
    range raise ShapeMismatch.
    Under visibility each table attends through its sequence's
    `visibility()`, built once per sequence and shared by its clones; with
    it off, through an all-ones matrix per table (structure ablation) on the
    same masked attention code path.
    """
    return _encode_states(seqs, model, model.use_visibility, False, rows)[0][-1]


def encode(
    seqs: Sequence | list[Sequence], model: Model, use_visibility: bool = True, reference: bool = False
) -> EncodeResult:
    """A batch of tables as one packed graph, as `encode_batch` packs them,
    keeping the input of every block; one Sequence is a batch of one. It
    encodes under use_visibility, not the model's mode; reference=True runs
    the plain softmax path with no mask argument at all, so that tests can
    compare the two implementations."""
    (*inputs, h), masks, starts = _encode_states(_batch(seqs), model, use_visibility, reference)
    return EncodeResult(h=h, block_inputs=inputs, masks=masks, starts=starts)


def encode_substitutions(
    enc: EncodeResult, positions: np.ndarray, subst: Sequence | list[Sequence], model: Model
) -> np.ndarray:
    """Final states under single-element substitutions of encoded tables.

    `subst` holds the tables `enc` encoded (one Sequence for a batch of
    one), with every element at `positions`, packed row indices, replaced by
    its substitute. Row m of the (M, d) result is the final state of element
    positions[m] when it alone is substituted, under the mask `enc` encoded
    its table with. All substituted tables are embedded at once, and each
    block's intact keys and values projected at once over every row; only
    the rows a substitution reaches are recomputed, table by table, by the
    rule in the module docstring, as many substitutions at a time as keep
    every block's attention scores per head within max(max_len**2, 256**2).
    A table's rows are the same bits whether `enc` holds it alone or with
    others (see `encode_batch`). The result equals a full `encode` of each
    substituted table up to float rounding, not bitwise.
    """
    positions = np.asarray(positions, dtype=np.int64)
    bounds = np.append(enc.starts, len(enc.h.data))
    owner = np.searchsorted(enc.starts, positions, side="right") - 1
    out = np.empty((len(positions), model.cfg.d_model), dtype=model.dtype)
    with nm.no_grad():
        x0 = embed_sequence(_pack(_batch(subst)), model).data[positions]
        # each block's intact input, keys and values
        intact = [[x.data] + [_projection(x, model, i, side).data for side in "kv"] for i, x in enumerate(enc.block_inputs)]
        for t in np.unique(owner):
            s, e = bounds[t], bounds[t + 1]
            at = np.flatnonzero(owner == t)
            vis = np.ones((e - s, e - s), dtype=bool) if enc.masks is None else enc.masks[t]
            out[at] = _table_substitutions(x0[at], positions[at] - s, vis, [[a[s:e] for a in b] for b in intact], model)
    return out


def _table_substitutions(x0, positions, vis, intact, model: Model) -> np.ndarray:
    """One table's substitutions: x0 holds the substituted embedding at each
    of `positions`, vis is the table's mask and intact[i] block i's intact
    input, keys and values at the table's rows."""
    n, n_blocks = len(vis), model.cfg.n_blocks
    # reach[k][m, j]: row j is within k visibility hops of positions[m]
    reach = [np.zeros((len(positions), n), dtype=bool)]
    reach[0][np.arange(len(positions)), positions] = True
    for _ in range(n_blocks // 2):
        reach.append(reach[-1] @ vis)
    # block i recomputes the rows `rows[i]`; its input differs from the
    # intact one at `changed[i]`, the rows block i - 1 recomputed
    rows = [reach[min(i + 1, n_blocks - i - 1)] for i in range(n_blocks)]
    changed = [reach[min(i, n_blocks - i)] for i in range(n_blocks)]
    pack = _pack_size(rows, changed, n, max(model.cfg.max_len**2, _SCORE_FLOOR))
    out = np.empty_like(x0)
    for c in range(0, len(positions), pack):
        part = slice(c, c + pack)
        x = x0[part]
        for i in range(n_blocks):
            x = _substituted_block(x, changed[i][part], rows[i][part], vis, intact[i], model, i)
        out[part] = x
    return out


def _pack_size(rows: list[np.ndarray], changed: list[np.ndarray], n: int, budget: int) -> int:
    """The most substitutions to recompute together such that, in every
    block, (query rows) x (n intact + patched key rows) <= budget, at least
    one. Sized from each block's largest row sets. The cost p q (n + p k) of
    p substitutions never falls as p grows, so the answer is the count of
    feasible p."""
    q = np.array([r.sum(axis=1).max(initial=0) for r in rows])
    k = np.array([r.sum(axis=1).max(initial=0) for r in changed])
    p = np.arange(1, len(rows[0]) + 1)[:, None]
    return max(1, int(((p * q * (n + p * k)).max(axis=1) <= budget).sum()))


def _substituted_block(x, changed, rows, vis, intact, model: Model, block: int) -> np.ndarray:
    """Block `block` at the query rows `rows` (M, n) of each substitution,
    given its input x at the rows `changed` (M, n) that differ from the
    intact input; both row sets are flattened in row-major order. Keys and
    values are the intact ones with the changed rows patched in."""
    h_in, k_in, v_in = intact
    qm, qr = np.nonzero(rows)
    km, kr = np.nonzero(changed)
    slot = np.full(changed.shape, -1)
    slot[km, kr] = np.arange(len(km))
    at = slot[qm, qr]
    h = h_in[qr]
    h[at >= 0] = x[at[at >= 0]]
    q = _projection(nm.Tensor(h), model, block, "q").data
    k, v = (_projection(nm.Tensor(x), model, block, side).data for side in "kv")
    # a query row sees the intact keys its substitution left unchanged and
    # the patched keys of its own substitution, both under the visibility
    vis_q = vis[qr]
    mask = np.concatenate([vis_q & ~changed[qm], vis_q[:, kr] & (qm[:, None] == km[None, :])], axis=1)
    ctx, _ = kernels.attention_fwd(q, np.concatenate([k_in, k]), np.concatenate([v_in, v]), mask, model.cfg.n_heads)
    return _block_output(nm.Tensor(h), nm.Tensor(ctx), model, block).data
