"""Structure-aware transformer encoder over linearized tables.

Token inputs sum word, segment, and position embeddings. Entity inputs fuse
the entity embedding with the mean word embedding of the cell mention through
a learned affine map, then add a segment embedding; entities carry no position
term. Blocks are post-norm residual transformer layers whose attention weights
are hard-masked by the table visibility matrix: invisible pairs get exactly
zero weight.

`encode` runs the encoder for pre-training and every task, training and
evaluation alike: a batch of tables is one graph. The sequences are packed
end to end into (N, d) rows, with no padding: the embeddings, the Q/K/V/O
projections, the FFN and both layer norms each run once over all rows.
Each projection is one `numeric.affine` node (x @ W + b), and the mention
means of all entities are one `numeric.segment_mean` node, a sum over
consecutive segments of the gathered word rows with no dense averaging
matrix. Attention is one op, `numeric.table_attention`, that loops over the
tables' row slices, so a row attends only within its own table, under that
table's visibility matrix. A table's rows therefore come out as if it were
encoded alone; the tests check that they are bitwise equal.

What a step would otherwise rebuild from a table's constant structure is
kept on its sequence (see `encoding`) and shared with the sequence's
clones: the attention bias, 0 where visible and -inf where not, which each
table's attention adds unchecked, and the mention arrays of its embed plan,
which `encode` stacks end to end for the batch (`encoding.pack_sequences`),
so that an embed runs no Python loop over the entities. A masked clone
rebuilds only its own mention arrays.

A pre-training step's loss on top (`pretrain.table_loss`) adds the
masked-entity head as one `numeric.candidate_cross_entropy_sum` node over
all tables, so the step's tape has the same 49 op nodes (two blocks) for
any batch size.

`encode` can return the final states at chosen rows only, the rows a loss
or head reads, and then runs the last block only there. Row i of a block's
output depends on the block's input at every row only through the keys and
values, so, as in `masked_cell_states` below, the last block is needed
only at the rows read: it gathers its input there, projects queries there,
attends from there to the keys and values of every row of the same table
(under the table's mask cut down to the rows read), and runs its output
projection, FFN and layer norms there. Every earlier block, and the last
block's keys and values, still cover every row. The gather is the one
extra tape node. The rows come out as the same bits as those rows of a full
encode, as long as the BLAS computes a product's rows alike for any number
of rows; the gradients differ from a full encode's by float rounding where
a product sums over rows, or has few of them.

`masked_cell_states` is the masked-cell scorer of recovery and cell
filling. It masks each chosen cell of one table alone (its entity and
mention, in a clone; the caller's sequence stays as it was) and scores
these single-element substitutions in one pass per block, without encoding
each substituted copy. Row i of block l's output depends only on the rows
visible to i in block l's input, so a substitution at row c changes block
l's output only at rows within l visibility hops of c. The last block is needed only at c, so block l (of L, counted from 1)
recomputes only the rows within min(l, L - l) hops of c; their keys and
values are the intact ones except at the rows within l - 1 hops, which the
previous block recomputed (the substituted embedding for l = 1). With two
blocks, block 1 recomputes the rows that see c (its row, its column, its
column's header, the caption and the topic) with only c's key and value
changed, and block 2 recomputes row c alone. Without the visibility matrix
every row sees every other, so block 1 recomputes all rows. One
`embed_sequence` embeds the table and its substituted copy, through their
embed plans. Each block before the last runs the table's intact rows and
the rows it recomputes together, through one query, key and value
projection and one output half; attention is two calls, the intact rows
under the table's kept bias and the recomputed rows over the intact keys
plus the patched ones, under a mask cut from the visibility matrix. The
last block runs only at the substituted cells; the intact last block, which
nothing reads, does not run. Block 0's patched keys and values and the
last block cover the substituted cells alone and keep products of their
own, as a one-row product rounds otherwise than a row of a larger one.
Substitutions are recomputed in packs sized so that no block's attention
scores per head exceed 256 x 256, those of one full encode at the default
max_len, or those of one full encode of a max_len table when that is more;
later packs reuse the intact inputs, keys and values of the first. With two
blocks at max_len 64, a 30-element table's masked cells fit in one pack.

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
from .corpus import ENTITY_RESERVED
from .encoding import N_ENTITY_TYPES, N_TOKEN_TYPES, Sequence, mask_cell, pack_sequences
from .errors import ConfigError, ShapeMismatch, UnknownId

__all__ = [
    "EncoderConfig",
    "Model",
    "load_tensors",
    "init_model",
    "init_entity_embeddings",
    "trunc_normal",
    "embed_sequence",
    "transformer_block",
    "encode",
    "EncodeResult",
    "masked_cell_states",
]

# the per-head attention scores of one full encode at the default max_len;
# masked_cell_states packs up to this many, or max_len**2 when larger
_SCORE_FLOOR = 256**2


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


def _check_ids(ids: np.ndarray, bound: int, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise UnknownId(f"{what} id out of range [0, {bound})")


def embed_sequence(seq: Sequence, model: Model) -> nm.Tensor:
    """Initial (n, d_model) representation of a linearized table, read
    through its embed plan (`Sequence.embed_plan`): the kept mention arrays
    and the index split of the fields. Per call, the ids are gathered and
    range-checked, and the plan's largest position and mention token id are
    checked against the model."""
    cfg = model.cfg
    n = len(seq)
    plan = seq.embed_plan()
    if plan.max_position >= cfg.max_len:
        raise UnknownId(f"position id out of range [0, {cfg.max_len})")
    if plan.max_mention_id >= cfg.n_tokens:
        raise UnknownId(f"mention token id out of range [0, {cfg.n_tokens})")
    parts = []
    if len(plan.tokens):
        ids = seq.ids[plan.tokens]
        _check_ids(ids, cfg.n_tokens, "token")
        x = nm.add(
            nm.add(nm.gather_rows(model["word_emb"], ids), nm.gather_rows(model["tok_type_emb"], plan.token_types)),
            nm.gather_rows(model["pos_emb"], plan.token_positions),
        )
        parts.append(nm.put_rows(x, plan.tokens, n))
    if len(plan.entities):
        ids = seq.ids[plan.entities]
        _check_ids(ids, cfg.n_entities, "entity")
        mention_mean = nm.segment_mean(model["word_emb"], plan.mention_ids, plan.mention_lens)
        fused = nm.affine(
            nm.concat([nm.gather_rows(model["ent_emb"], ids), mention_mean], axis=1),
            model["fuse_W"],
            model["fuse_b"],
        )
        x = nm.add(fused, nm.gather_rows(model["ent_type_emb"], plan.entity_types))
        parts.append(nm.put_rows(x, plan.entities, n))
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
    h: nm.Tensor  # the (N, d) final states of the tables, stacked end to end; only the chosen rows under `rows`


def _biases(seqs: list[Sequence], dtype, use_visibility: bool) -> list[np.ndarray]:
    """Each table's additive attention bias: its sequence's kept one under
    visibility, else zeros, so that every element sees every other."""
    if use_visibility:
        return [s.attention_bias(dtype) for s in seqs]
    return [np.zeros((len(s), len(s)), dtype) for s in seqs]


def encode(
    seqs: Sequence | list[Sequence],
    model: Model,
    use_visibility: bool | None = None,
    reference: bool = False,
    rows: np.ndarray | None = None,
) -> EncodeResult:
    """Run the full encoder over a batch of tables as one packed graph; one
    Sequence is a batch of one. Pre-training and every task encode this way,
    in the model's attention mode (`Model.use_visibility`).

    The result's h holds the (sum of lengths, d_model) final states of all
    tables stacked end to end: table i owns the len(seqs[i]) rows after those
    of tables 0..i-1. `rows`, when given, is a sorted array of distinct
    packed row indices, and h then holds only those rows, in order: the last
    block runs only there, and they are the same bits as the full result's
    (see the module docstring). Rows unsorted, repeated or out of range
    raise ShapeMismatch. Under visibility each table attends through its
    sequence's kept attention bias (`Sequence.attention_bias`), built once
    per sequence and shared by its clones; with it off, through a zero bias
    per table (structure ablation) on the same masked attention code path.
    use_visibility, when given, overrides the model's mode, and
    reference=True runs the plain softmax path with no mask argument at
    all, so that tests can compare the implementations.
    """
    seqs = [seqs] if isinstance(seqs, Sequence) else list(seqs)
    if use_visibility is None:
        use_visibility = model.use_visibility
    lens = [len(s) for s in seqs]
    starts = np.cumsum([0] + lens[:-1])
    if rows is not None:
        rows = kernels.check_rows(rows, sum(lens))
    h = embed_sequence(pack_sequences(seqs), model)
    masks = None if reference else _biases(seqs, model.dtype, use_visibility)
    last = model.cfg.n_blocks - 1
    for i in range(model.cfg.n_blocks):
        h = transformer_block(h, masks, starts, model, i, rows if i == last else None)
    return EncodeResult(h=h)


def masked_cell_states(seq: Sequence, positions: np.ndarray, model: Model) -> np.ndarray:
    """Final states of one table's cells at `positions`, each masked alone
    (its entity embedding and mention; the rest of the table stays intact),
    in one pass per block, with no tape (see the module docstring).

    Row m of the (len(positions), d) result is the final state of element
    positions[m] when it alone is masked, in the model's attention mode.
    `seq` itself is not written. Masked cells are recomputed as many at a
    time as keep every block's attention scores per head within
    max(max_len**2, 256**2). The result equals a full `encode` of each
    masked copy up to float rounding, not bitwise. A position outside the
    sequence, or at an element that is not an entity, raises ShapeMismatch.
    """
    if ((positions < 0) | (positions >= len(seq))).any() or not seq.is_entity[positions].all():
        raise ShapeMismatch(f"{seq.table_id}: masked positions must be entity elements in [0, {len(seq)})")
    subst = seq.clone()
    for p in positions.tolist():
        mask_cell(subst, p, mask_entity=True, mask_mention=True)
    n, n_blocks = len(seq), model.cfg.n_blocks
    vis = seq.visibility() if model.use_visibility else np.ones((n, n), dtype=bool)
    bias = _biases([seq], model.dtype, model.use_visibility)[0]
    # reach[k][m, j]: row j is within k visibility hops of positions[m]. One
    # hop is the rows of vis at the positions; each further hop is a float32
    # product, which counts the paths exactly (up to 2**24 of them) and runs
    # 2-13x faster than a bool one, which numpy computes without BLAS
    reach = [np.zeros((len(positions), n), dtype=bool), vis[positions]]
    reach[0][np.arange(len(positions)), positions] = True
    for _ in range(n_blocks // 2 - 1):
        reach.append(reach[-1] @ vis.astype(np.float32) > 0)
    # block i recomputes the rows `rows[i]`; its input differs from the
    # intact one at `changed[i]`, the rows block i - 1 recomputed
    rows = [reach[min(i + 1, n_blocks - i - 1)] for i in range(n_blocks)]
    changed = [reach[min(i, n_blocks - i)] for i in range(n_blocks)]
    pack = _pack_size(rows, changed, n, max(model.cfg.max_len**2, _SCORE_FLOOR))
    with nm.no_grad():
        x0 = embed_sequence(pack_sequences([seq, subst]), model).data
        intact = [[x0[:n]]]  # each block's intact input, then its keys and values
        out = np.empty((len(positions), x0.shape[1]), x0.dtype)
        for c in range(0, len(positions), pack):
            part = slice(c, c + pack)
            x = x0[n + positions[part]]
            for i in range(n_blocks):
                x = _substituted_block(x, changed[i][part], rows[i][part], vis, bias, intact, model, i)
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


def _substituted_block(x, changed, rows, vis, bias, intact, model: Model, block: int) -> np.ndarray:
    """Block `block` at the query rows `rows` (P, n) of each substitution,
    given its input x at the rows `changed` (P, n) that differ from the
    intact input; both row sets are flattened in row-major order. Keys and
    values are the intact ones with the changed rows patched in. The intact
    rows attend under `bias`, the table's kept attention bias; the query
    rows under a mask cut from `vis`.

    intact[block] holds the block's intact input, then its intact keys and
    values, which the first pack projects along with its patched ones (block
    0's patched rows keep their own product). Before the last block the
    first pack runs the intact rows too, ahead of its query rows, and
    appends their output, the next block's intact input, to `intact`."""
    h_in, n = intact[block][0], len(intact[block][0])
    qm, qr = np.nonzero(rows)
    km, kr = np.nonzero(changed)
    slot = np.full(changed.shape, -1)
    slot[km, kr] = np.arange(len(km))
    at = slot[qm, qr]
    patched = at >= 0
    h = h_in[qr]
    h[patched] = x[at[patched]]

    def proj(a, side):
        return _projection(nm.Tensor(a), model, block, side).data

    first = len(intact[block]) == 1
    if first:
        kv = [proj(np.concatenate([h_in, x]) if block else h_in, side) for side in "kv"]
        intact[block] += [a[:n] for a in kv]
    # the intact keys and values, then the patched ones
    if first and block:
        k, v = kv
    else:
        k, v = (np.concatenate([a, proj(x, side)]) for a, side in zip(intact[block][1:], "kv"))
    s = n if first and block < model.cfg.n_blocks - 1 else 0  # the query rows' first row
    if s:
        h = np.concatenate([h_in, h])
    q = proj(h, "q")
    ctx = np.empty_like(q)
    if s:
        kernels.attention_fwd(q[:s], k[:n], v[:n], bias, model.cfg.n_heads, ctx[:s])
    # a query row sees the intact keys its substitution left unchanged and
    # the patched keys of its own substitution, both under the visibility
    vis_q = vis[qr]
    mask = np.concatenate([vis_q & ~changed[qm], vis_q[:, kr] & (qm[:, None] == km[None, :])], axis=1)
    kernels.attention_fwd(q[s:], k, v, mask, model.cfg.n_heads, ctx[s:])
    y = _block_output(nm.Tensor(h), nm.Tensor(ctx), model, block).data
    if s:
        intact.append([y[:s]])
    return y[s:]
