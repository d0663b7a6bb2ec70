"""Self-supervised pre-training over table sequences.

Two objectives run together. Masked token recovery selects caption and header
tokens (selection probability `mlm_ratio`); a selected token is replaced by
the mask token 80% of the time, by a random non-reserved token 10%, and kept
10%, and is always predicted over the full token vocabulary. Masked cell
recovery selects entity cells (probability `mer_ratio`); of the selected
cells 10% keep both the entity embedding and mention, 63% mask both, and 27%
keep the mention while the embedding side is masked, with one tenth of that
branch substituting a random entity embedding instead of the mask. Selected
cells are predicted over a per-table candidate set: the table's own entities,
entities co-occurring with them in the training corpus, and random negatives,
capped with golds always retained.

The optimized loss is the plain sum of negative log likelihoods over all
predicted positions, so table and batch losses add exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import numeric as nm
from .corpus import ENTITY_RESERVED, MASK_ID, TOKEN_RESERVED, IndexedTable
from .encoder import EncoderConfig, Model, encode, init_entity_embeddings, init_model, masked_cell_states
from .encoding import Sequence, linearize, mask_cell
from .errors import ConfigError

# cell masking actions
KEEP = 0
MASK_BOTH = 1
MASK_EMB = 2
RANDOM_EMB = 3

N_RESERVED_TOKENS = len(TOKEN_RESERVED)
N_RESERVED_ENTITIES = len(ENTITY_RESERVED)


@dataclass
class TokenMaskPlan:
    indices: np.ndarray      # element positions of selected tokens
    targets: np.ndarray      # original token ids
    replacements: np.ndarray # id to place at the position (may equal target)


@dataclass
class CellMaskPlan:
    indices: np.ndarray      # element positions of selected cells
    targets: np.ndarray      # original entity ids
    actions: np.ndarray


def sample_token_mask(rng: np.random.Generator, seq: Sequence, ratio: float, n_tokens: int) -> TokenMaskPlan:
    indices, repl = [], []
    can_randomize = n_tokens > N_RESERVED_TOKENS
    for i in seq.token_indices.tolist():
        if rng.random() >= ratio:
            continue
        branch = rng.random()
        if branch < 0.8 or not can_randomize and branch < 0.9:
            new_id = MASK_ID
        elif branch < 0.9:
            new_id = int(rng.integers(N_RESERVED_TOKENS, n_tokens))
        else:
            new_id = int(seq.ids[i])
        indices.append(i)
        repl.append(new_id)
    indices = np.array(indices, dtype=np.int64)
    return TokenMaskPlan(indices=indices, targets=seq.ids[indices], replacements=np.array(repl, dtype=np.int64))


def sample_cell_mask(rng: np.random.Generator, seq: Sequence, ratio: float, n_entities: int) -> CellMaskPlan:
    indices, actions = [], []
    can_randomize = n_entities > N_RESERVED_ENTITIES
    for i in seq.cell_indices().tolist():
        if rng.random() >= ratio:
            continue
        branch = rng.random()
        if branch < 0.10:
            action = KEEP
        elif branch < 0.73:
            action = MASK_BOTH
        else:
            sub = rng.random()
            action = RANDOM_EMB if sub < 0.10 and can_randomize else MASK_EMB
        indices.append(i)
        actions.append(action)
    indices = np.array(indices, dtype=np.int64)
    return CellMaskPlan(indices=indices, targets=seq.ids[indices], actions=np.array(actions, dtype=np.int64))


def apply_masks(
    seq: Sequence,
    token_plan: TokenMaskPlan | None,
    cell_plan: CellMaskPlan | None,
    rng: np.random.Generator | None = None,
    n_entities: int = 0,
) -> Sequence:
    """Produce the corrupted clone the encoder actually sees."""
    out = seq.clone()
    if token_plan is not None:
        out.ids[token_plan.indices] = token_plan.replacements
    if cell_plan is not None:
        for i, action in zip(cell_plan.indices.tolist(), cell_plan.actions.tolist()):
            if action == RANDOM_EMB:
                rand_id = int(rng.integers(N_RESERVED_ENTITIES, n_entities))
                mask_cell(out, i, mask_entity=False, mask_mention=False, replace_entity=rand_id)
            elif action != KEEP:
                mask_cell(out, i, mask_entity=True, mask_mention=action == MASK_BOTH)
    return out


# ---------------------------------------------------------------------------
# candidate sets


def candidate_pool(table_entities: np.ndarray, cooccur: dict[int, set[int]]) -> frozenset[int]:
    """The table's entities and the entities co-occurring with them, reserved
    ids left out: the part of a table's candidate set no masking changes."""
    pool: set[int] = set(int(e) for e in table_entities)
    for e in table_entities:
        pool.update(cooccur.get(int(e), ()))
    pool.difference_update(range(N_RESERVED_ENTITIES))
    return frozenset(pool)


def build_candidates(
    table_entities: np.ndarray,
    golds: np.ndarray,
    cooccur: dict[int, set[int]],
    n_entities: int,
    cap: int,
    rng: np.random.Generator,
    pool: frozenset[int] | None = None,
) -> np.ndarray:
    """Sorted candidate ids for one table's masked cells.

    Golds always survive the cap. The rest is the table's entities, their
    co-occurring entities, and random non-reserved negatives drawn to fill up
    to the cap when the corpus statistics come up short. `pool`, when given,
    is `candidate_pool(table_entities, cooccur)` built beforehand; the result
    and the rng draws are the same either way.
    """
    pool = set(candidate_pool(table_entities, cooccur) if pool is None else pool)
    gold_set = set(int(g) for g in golds)
    pool.update(gold_set)
    pool.difference_update(range(N_RESERVED_ENTITIES))

    n_free = max(0, n_entities - N_RESERVED_ENTITIES)
    want = min(cap, n_free)
    if len(pool) < want:
        # top up with random negatives outside the pool
        missing = want - len(pool)
        universe = np.arange(N_RESERVED_ENTITIES, n_entities, dtype=np.int64)
        outside = np.array(sorted(set(universe.tolist()) - pool), dtype=np.int64)
        take = rng.permutation(len(outside))[:missing]
        pool.update(int(outside[t]) for t in take)
    elif len(pool) > cap:
        rest = np.array(sorted(pool - gold_set), dtype=np.int64)
        keep = rng.permutation(len(rest))[: max(0, cap - len(gold_set))]
        pool = gold_set | {int(rest[k]) for k in keep}
    return np.array(sorted(pool), dtype=np.int64)


# ---------------------------------------------------------------------------
# prediction heads


def token_logits(model: Model, h: nm.Tensor, positions: np.ndarray) -> nm.Tensor:
    """Scores over the full token vocabulary for the given sequence slots."""
    proj = nm.affine(nm.gather_rows(h, positions), model["mlm_W"], model["mlm_b"])
    return nm.matmul(proj, nm.transpose(model["word_emb"], (1, 0)))


def entity_head(model: Model, x: nm.Tensor, candidates: np.ndarray) -> tuple[nm.Tensor, nm.Tensor]:
    """The masked-entity head, its one read path: the states x projected into
    entity space, and the candidates' embeddings; a score is their dot product."""
    return nm.affine(x, model["mer_W"], model["mer_b"]), nm.gather_rows(model["ent_emb"], candidates)


def entity_logits(model: Model, h: nm.Tensor, positions: np.ndarray, candidates: np.ndarray) -> nm.Tensor:
    """Scores over a candidate id array for the given sequence slots."""
    proj, cand = entity_head(model, nm.gather_rows(h, positions), candidates)
    return nm.matmul(proj, nm.transpose(cand, (1, 0)))


@dataclass
class TableLossStats:
    n_tokens: int = 0
    n_cells: int = 0
    token_correct: int = 0
    cell_correct: int = 0
    mlm_loss: float = 0.0  # summed over the masked tokens
    mer_loss: float = 0.0  # summed over the masked cells

    def add(self, other: "TableLossStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class MaskedTable:
    """One corrupted table and what its masked positions must recover."""

    seq: Sequence            # the corrupted clone the encoder sees
    tokens: TokenMaskPlan
    cells: CellMaskPlan
    candidates: np.ndarray   # sorted candidate entity ids for the masked cells


def table_loss(model: Model, batch: list[MaskedTable]) -> tuple[nm.Tensor | None, TableLossStats]:
    """Summed recovery loss over a batch of corrupted tables.

    The batch is encoded as one packed graph, whose last block runs only at
    the masked tokens and cells, the only rows the heads read (see the
    `encoder` module docstring); a batch with nothing masked returns None.
    The token head runs once over every masked token. The entity head
    projects every masked cell at once and
    `numeric.candidate_cross_entropy_sum` scores each table's cells against
    its own candidate set, so the graph has the same nodes for any number of
    tables. A gold missing from its table's candidates raises UnknownId.
    """
    stats = TableLossStats()
    starts = np.cumsum([0] + [len(m.seq) for m in batch[:-1]])
    tok_pos = np.concatenate([m.tokens.indices + s for m, s in zip(batch, starts)])
    cell_pos = np.concatenate([m.cells.indices + s for m, s in zip(batch, starts)])
    rows = np.union1d(tok_pos, cell_pos)
    if not len(rows):
        return None, stats
    # the final states at the masked rows only, in packed order
    h = encode([m.seq for m in batch], model, rows=rows).h
    terms = []
    if len(tok_pos):
        targets = np.concatenate([m.tokens.targets for m in batch])
        logits = token_logits(model, h, np.searchsorted(rows, tok_pos))
        terms.append(nm.cross_entropy_sum(logits, targets))
        stats.n_tokens = len(tok_pos)
        stats.token_correct = int((logits.data.argmax(axis=1) == targets).sum())
        stats.mlm_loss = float(terms[-1].data)
    masked = [m for m in batch if len(m.cells.indices)]
    if masked:
        ids = np.concatenate([m.candidates for m in masked])
        proj, cands = entity_head(model, nm.gather_rows(h, np.searchsorted(rows, cell_pos)), ids)
        loss, stats.cell_correct = nm.candidate_cross_entropy_sum(
            proj, cands, [m.candidates for m in masked], [m.cells.targets for m in masked]
        )
        terms.append(loss)
        stats.n_cells = len(cell_pos)
        stats.mer_loss = float(loss.data)
    return terms[0] if len(terms) == 1 else nm.add(*terms), stats


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainSettings:
    mlm_ratio: float = 0.2
    mer_ratio: float = 0.6
    lr0: float = 1e-4
    epochs: int = 80
    batch_size: int = 8
    candidate_cap: int = 256
    use_visibility: bool = True
    seed: int = 13


@dataclass
class History:
    step_losses: list[float] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)


def canonical_mentions(tables: list[IndexedTable]) -> dict[int, np.ndarray]:
    """Most frequent mention token sequence per entity id, ties broken lexically."""
    counts: dict[int, dict[tuple, int]] = {}
    for t in tables:
        seen = [(c.entity_id, tuple(c.mention_ids.tolist())) for c in t.cells]
        if t.topic is not None:
            seen.append((t.topic[0], tuple(t.topic[1].tolist())))
        for eid, ment in seen:
            if ment:
                counts.setdefault(eid, {})
                counts[eid][ment] = counts[eid].get(ment, 0) + 1
    out = {}
    for eid, ments in counts.items():
        best = min(ments.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        out[eid] = np.array(best, dtype=np.int64)
    return out


def fit(
    tables: list[IndexedTable],
    encoder_cfg: EncoderConfig,
    settings: TrainSettings,
    cooccur: dict[int, set[int]],
    valid_tables: list[IndexedTable] | None = None,
    max_steps: int | None = None,
    model: Model | None = None,
    epoch_callback=None,
) -> tuple[Model, History]:
    """Pre-train a model through `numeric.train`, which documents max_steps
    and the NonFiniteLoss stop. Deterministic for a fixed seed and inputs. An
    epoch_callback that returns True ends the run after that epoch.

    Each step draws the masks of its batch table by table, in batch order,
    then takes one `table_loss` over the whole batch: one packed graph. A
    batch in which no table has anything masked takes no step. The model,
    new or given, takes settings.use_visibility as its attention mode; a
    given model whose config is not encoder_cfg raises ConfigError.
    A table's `candidate_pool` is built once per fit, as no step changes it;
    so is its visibility matrix, which every corrupted clone shares with the
    table's sequence (see `encoding`).
    """
    rng = np.random.default_rng(settings.seed)
    if model is None:
        model = init_model(encoder_cfg, rng)
        init_entity_embeddings(model, canonical_mentions(tables))
    elif model.cfg != encoder_cfg:
        differ = [f.name for f in fields(encoder_cfg) if getattr(model.cfg, f.name) != getattr(encoder_cfg, f.name)]
        raise ConfigError(f"the model's config differs from encoder_cfg in {', '.join(differ)}")
    model.use_visibility = settings.use_visibility
    seqs = [linearize(t, encoder_cfg.max_len) for t in tables]
    ent_sets = [t.entity_ids() for t in tables]
    pools = [candidate_pool(e, cooccur) for e in ent_sets]
    history = History()
    ep_stats = TableLossStats()

    def batch_loss(indices):
        batch = []
        for idx in indices:
            seq0 = seqs[idx]
            tok_plan = sample_token_mask(rng, seq0, settings.mlm_ratio, encoder_cfg.n_tokens)
            cell_plan = sample_cell_mask(rng, seq0, settings.mer_ratio, encoder_cfg.n_entities)
            if not len(tok_plan.indices) and not len(cell_plan.indices):
                continue
            corrupted = apply_masks(seq0, tok_plan, cell_plan, rng, encoder_cfg.n_entities)
            cands = build_candidates(
                ent_sets[idx], cell_plan.targets, cooccur, encoder_cfg.n_entities, settings.candidate_cap, rng,
                pool=pools[idx],
            )
            batch.append(MaskedTable(corrupted, tok_plan, cell_plan, cands))
        if not batch:
            return None
        total, stats = table_loss(model, batch)
        ep_stats.add(stats)
        return total, [m.seq.table_id for m in batch]

    def end_epoch(epoch, loss_sum):
        nonlocal ep_stats
        s, ep_stats = ep_stats, TableLossStats()
        record = {
            "epoch": epoch,
            "loss": loss_sum / max(1, s.n_tokens + s.n_cells),
            "mlm_loss": s.mlm_loss / max(1, s.n_tokens),
            "mer_loss": s.mer_loss / max(1, s.n_cells),
            "mlm_acc": s.token_correct / max(1, s.n_tokens),
            "mer_acc": s.cell_correct / max(1, s.n_cells),
        }
        record["oep_acc"] = None if valid_tables is None else masked_recovery_accuracy(
            model, valid_tables, cooccur, settings.candidate_cap, settings.seed, only_objects=True
        )
        history.epochs.append(record)
        return epoch_callback is not None and epoch_callback(record)

    history.step_losses = nm.train(model.params(), settings, len(seqs), rng, batch_loss, end_epoch, max_steps)[0]
    return model, history


# ---------------------------------------------------------------------------
# masked-recovery evaluation


def masked_recovery_accuracy(
    model: Model,
    tables: list[IndexedTable],
    cooccur: dict[int, set[int]],
    cap: int,
    seed: int,
    only_objects: bool = False,
) -> float:
    """Fraction of cells recovered at rank one, masking one cell at a time.

    Table by table, in table order, the candidates are drawn and every
    cell is scored from one `encoder.masked_cell_states` call, which embeds
    the table once. With only_objects=True, subject-column cells are skipped
    and the measure is object-cell recovery.
    """
    rng = np.random.default_rng(seed)
    correct = total = 0
    with nm.no_grad():
        for t in tables:
            seq = linearize(t, model.cfg.max_len)
            cell_positions = seq.cell_indices()
            if only_objects:
                cell_positions = cell_positions[seq.cols[cell_positions] != t.subject_col]
            if not len(cell_positions):
                continue
            golds = seq.ids[cell_positions]
            cands = build_candidates(t.entity_ids(), golds, cooccur, model.cfg.n_entities, cap, rng)
            x = masked_cell_states(seq, cell_positions, model)
            logits = entity_logits(model, nm.Tensor(x), np.arange(len(x)), cands).data
            # ties break toward the smaller entity id; argmax already does
            # that because candidates are sorted ascending
            correct += int((cands[logits.argmax(axis=1)] == golds).sum())
            total += len(golds)
    return correct / max(1, total)
