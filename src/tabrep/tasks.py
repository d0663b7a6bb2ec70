"""Downstream table-understanding tasks on top of the pre-trained encoder.

Six tasks share the encoder:

  linking      attach knowledge-base entries to cell mentions; candidates come
               from a lookup file, scores from matching the cell representation
               against [name; description; types] embeddings
  coltype      multi-label column type prediction from header plus entities
  relations    multi-label relation prediction for subject/object column pairs
  rowpop       rank candidate entities that belong in the subject column
  fill         rank candidate entities for one empty object cell (no
               fine-tuning; reuses the masked-cell scorer)
  schema       rank headers that belong in a partially known schema

Dataset builders derive labels from side files (types.jsonl, relations.jsonl,
kb.jsonl, candidates.jsonl). Each task head is an independent parameter set;
fine-tuning one head never touches another.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import numeric as nm
from .baselines import CorpusIndex
from .corpus import (
    MASK_ID,
    IndexedCell,
    IndexedTable,
    ProcessedTable,
    Vocab,
    index_table,
    read_jsonl,
)
from .encoder import Model, encode, trunc_normal
from .encoding import CELL, HEADER, Sequence, linearize, mask_cell
from .errors import ConfigError, EmptyColumn, NonFiniteLoss, TableTooSmall
from .metrics import (
    candidate_recall,
    linking_prf,
    mean_average_precision,
    micro_prf,
    precision_at_k,
)
from .pretrain import entity_logits

# ---------------------------------------------------------------------------
# side data


@dataclass
class KbEntry:
    name: str = ""
    description: str = ""
    types: list[str] = field(default_factory=list)


@dataclass
class SideData:
    types: dict[str, list[str]] = field(default_factory=dict)
    relations: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    kb: dict[str, KbEntry] = field(default_factory=dict)
    candidates: dict[str, list[str]] = field(default_factory=dict)


# Fields of the records of each side file, required then optional, with their
# JSON types; list fields hold strings.
_SIDE_FIELDS = {
    "types.jsonl": ({"entity": str, "types": list}, {}),
    "relations.jsonl": ({"subject": str, "object": str, "relations": list}, {}),
    "kb.jsonl": ({"entity": str}, {"name": str, "description": str, "types": list}),
    "candidates.jsonl": ({"mention": str, "candidates": list}, {}),
}


def _side_field_ok(value, kind) -> bool:
    return isinstance(value, kind) and (kind is str or all(isinstance(x, str) for x in value))


def load_side_data(directory) -> SideData:
    """Read the optional side files; missing files leave their slot empty.

    A record that is not an object with the fields its file needs, of the
    right JSON types, raises ConfigError naming the file and the record.
    """
    side = SideData()

    def rows(name):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            return []
        required, optional = _SIDE_FIELDS[name]
        records = read_jsonl(path)
        for rec in records:
            if not (
                isinstance(rec, dict)
                and all(f in rec and _side_field_ok(rec[f], kind) for f, kind in required.items())
                and all(_side_field_ok(rec[f], kind) for f, kind in optional.items() if f in rec)
            ):
                need = ", ".join(f"{f} ({'string' if k is str else 'list of strings'})" for f, k in required.items())
                raise ConfigError(f"{path}: bad record {rec!r:.80}; each record is an object with {need}")
        return records

    for rec in rows("types.jsonl"):
        side.types[rec["entity"]] = list(rec["types"])
    for rec in rows("relations.jsonl"):
        key = (rec["subject"], rec["object"])
        side.relations.setdefault(key, set()).update(rec["relations"])
    for rec in rows("kb.jsonl"):
        side.kb[rec["entity"]] = KbEntry(
            name=rec.get("name", ""),
            description=rec.get("description", ""),
            types=list(rec.get("types", [])),
        )
    for rec in rows("candidates.jsonl"):
        side.candidates[rec["mention"]] = list(rec["candidates"])
    return side


# ---------------------------------------------------------------------------
# table packs: processed + indexed + linearized forms kept together


@dataclass
class TablePack:
    processed: ProcessedTable
    indexed: IndexedTable
    seq: Sequence


def pack_tables(
    processed: list[ProcessedTable], token_vocab: Vocab, entity_vocab: Vocab, max_len: int
) -> list[TablePack]:
    packs = []
    for pt in processed:
        it = index_table(pt, token_vocab, entity_vocab)
        try:
            seq = linearize(it, max_len)
        except TableTooSmall:
            continue
        packs.append(TablePack(processed=pt, indexed=it, seq=seq))
    return packs


def cell_position(seq: Sequence, row: int, col: int) -> int | None:
    hits = np.flatnonzero((seq.kinds == CELL) & (seq.rows == row) & (seq.cols == col))
    return int(hits[0]) if len(hits) else None


def _mean_rows(h: nm.Tensor, positions: np.ndarray, dtype) -> nm.Tensor:
    avg = np.full((1, len(positions)), 1.0 / len(positions), dtype=dtype)
    return nm.matmul(nm.Tensor(avg), nm.gather_rows(h, positions))


def column_repr(enc_h: nm.Tensor, seq: Sequence, col: int, dtype) -> nm.Tensor:
    """(1, 2d) column summary: mean header-token state, mean entity state."""
    header_pos = np.flatnonzero((seq.kinds == HEADER) & (seq.cols == col))
    cell_pos = np.flatnonzero((seq.kinds == CELL) & (seq.cols == col))
    if not len(header_pos) or not len(cell_pos):
        raise EmptyColumn(f"column {col} of {seq.table_id} has no usable header or entities")
    return nm.concat([_mean_rows(enc_h, header_pos, dtype), _mean_rows(enc_h, cell_pos, dtype)], axis=1)


# ---------------------------------------------------------------------------
# heads


class ColumnTypeHead:
    def __init__(self, d_model: int, n_types: int, rng, dtype=np.float32):
        self.W = nm.Tensor(trunc_normal(rng, (2 * d_model, n_types), dtype=dtype), requires_grad=True, name="coltype_W")
        self.b = nm.Tensor(np.zeros(n_types, dtype=dtype), requires_grad=True, name="coltype_b")

    def params(self):
        return [self.W, self.b]

    def logits(self, col: nm.Tensor) -> nm.Tensor:
        return nm.add(nm.matmul(col, self.W), self.b)


class RelationHead:
    def __init__(self, d_model: int, n_relations: int, rng, dtype=np.float32):
        self.W = nm.Tensor(
            trunc_normal(rng, (4 * d_model, n_relations), dtype=dtype), requires_grad=True, name="rel_W"
        )
        self.b = nm.Tensor(np.zeros(n_relations, dtype=dtype), requires_grad=True, name="rel_b")

    def params(self):
        return [self.W, self.b]

    def logits(self, subj_col: nm.Tensor, obj_col: nm.Tensor) -> nm.Tensor:
        return nm.add(nm.matmul(nm.concat([subj_col, obj_col], axis=1), self.W), self.b)


class LinkingHead:
    """Scores cells against knowledge-base entries.

    An entry vector is [mean name word embedding; mean description word
    embedding; mean type embedding]; the cell state is mapped into that space
    by one affine layer. Missing names, descriptions, or types contribute a
    zero block.
    """

    def __init__(self, d_model: int, kb_types: list[str], rng, dtype=np.float32):
        self.kb_types = list(kb_types)
        self.type_index = {t: i for i, t in enumerate(self.kb_types)}
        self.W = nm.Tensor(trunc_normal(rng, (d_model, 3 * d_model), dtype=dtype), requires_grad=True, name="link_W")
        self.b = nm.Tensor(np.zeros(3 * d_model, dtype=dtype), requires_grad=True, name="link_b")
        n_types = max(1, len(self.kb_types))
        self.type_emb = nm.Tensor(
            trunc_normal(rng, (n_types, d_model), dtype=dtype), requires_grad=True, name="link_type_emb"
        )

    def params(self):
        return [self.W, self.b, self.type_emb]

    def project(self, cell_state: nm.Tensor) -> nm.Tensor:
        return nm.add(nm.matmul(cell_state, self.W), self.b)

    def entry_matrix(self, model: Model, entries, use_description: bool = True) -> nm.Tensor:
        """(C, 3d) matrix for tokenized entries [(name_ids, desc_ids, type_ids)]."""
        dtype = model.dtype
        d = model.cfg.d_model
        blocks = []
        for take in range(3):
            flat: list[int] = []
            spans = []
            for entry in entries:
                ids = entry[take]
                if take == 1 and not use_description:
                    ids = np.array([], dtype=np.int64)
                start = len(flat)
                flat.extend(int(x) for x in ids)
                spans.append((start, len(flat)))
            avg = np.zeros((len(entries), max(1, len(flat))), dtype=dtype)
            for r, (a, b) in enumerate(spans):
                if b > a:
                    avg[r, a:b] = 1.0 / (b - a)
            table = model["word_emb"] if take < 2 else self.type_emb
            if flat:
                rows = nm.gather_rows(table, np.array(flat, dtype=np.int64))
            else:
                rows = nm.Tensor(np.zeros((1, d), dtype=dtype))
            blocks.append(nm.matmul(nm.Tensor(avg), rows))
        return nm.concat(blocks, axis=1)

    def tokenize_entry(self, entry: KbEntry, token_vocab: Vocab, tokenizer) -> tuple:
        name_ids = np.array([token_vocab.id_or_unk(t) for t in tokenizer.tokenize(entry.name)], dtype=np.int64)
        desc_ids = np.array(
            [token_vocab.id_or_unk(t) for t in tokenizer.tokenize(entry.description)], dtype=np.int64
        )
        type_ids = np.array(
            [self.type_index[t] for t in entry.types if t in self.type_index], dtype=np.int64
        )
        return (name_ids, desc_ids, type_ids)


class SchemaHead:
    def __init__(self, d_model: int, n_headers: int, rng, dtype=np.float32):
        self.W = nm.Tensor(trunc_normal(rng, (d_model, n_headers), dtype=dtype), requires_grad=True, name="schema_W")
        self.b = nm.Tensor(np.zeros(n_headers, dtype=dtype), requires_grad=True, name="schema_b")

    def params(self):
        return [self.W, self.b]

    def logits(self, state: nm.Tensor) -> nm.Tensor:
        return nm.add(nm.matmul(state, self.W), self.b)


# ---------------------------------------------------------------------------
# instances


@dataclass
class ColumnTypeInstance:
    pack: int
    col: int
    golds: set[int]


@dataclass
class RelationInstance:
    pack: int
    subj_col: int
    obj_col: int
    golds: set[int]
    pairs: list[tuple[int, int]]  # linked (subject, object) id pairs, one per row


@dataclass
class LinkInstance:
    pack: int
    row: int
    col: int
    gold_ref: str
    candidate_refs: list[str]  # lookup order, best first


@dataclass
class RowPopInstance:
    pack: int
    seeds: list[tuple[int, np.ndarray]]  # (entity id, mention ids)
    golds: set[int]
    candidates: np.ndarray


@dataclass
class FillInstance:
    pack: int
    row: int
    col: int
    gold: int
    candidates: list[int]


@dataclass
class SchemaInstance:
    pack: int
    seeds: list[str]
    golds: set[str]


def _refs(entity_vocab: Vocab, ids) -> list[str]:
    return [entity_vocab.strings[int(i)] for i in ids]


def build_column_type_data(
    packs: list[TablePack], entity_vocab: Vocab, side: SideData, type_list: list[str] | None = None
) -> tuple[list[ColumnTypeInstance], list[str]]:
    """One instance per column whose linked entities share at least one type."""
    raw: list[tuple[int, int, set[str]]] = []
    for pi, pack in enumerate(packs):
        by_col: dict[int, list[int]] = {}
        for c in pack.indexed.cells:
            by_col.setdefault(c.col, []).append(c.entity_id)
        for col, ids in sorted(by_col.items()):
            golds: set[str] | None = None
            for ref in _refs(entity_vocab, ids):
                t = set(side.types.get(ref, ()))
                golds = t if golds is None else golds & t
            if golds:
                raw.append((pi, col, golds))
    if type_list is None:
        universe = sorted({t for _, _, g in raw for t in g})
        type_list = universe
    index = {t: i for i, t in enumerate(type_list)}
    instances = []
    for pi, col, golds in raw:
        ids = {index[t] for t in golds if t in index}
        if ids:
            instances.append(ColumnTypeInstance(pack=pi, col=col, golds=ids))
    return instances, type_list


def build_relation_data(
    packs: list[TablePack], entity_vocab: Vocab, side: SideData, relation_list: list[str] | None = None
) -> tuple[list[RelationInstance], list[str]]:
    """One instance per (subject column, object column) with shared relations."""
    raw = []
    for pi, pack in enumerate(packs):
        it = pack.indexed
        if it.subject_col is None:
            continue
        subj_by_row = {c.row: c.entity_id for c in it.cells if c.col == it.subject_col}
        obj_cols = sorted({c.col for c in it.cells if c.col != it.subject_col})
        for col in obj_cols:
            pairs = []
            for c in it.cells:
                if c.col == col and c.row in subj_by_row:
                    pairs.append((subj_by_row[c.row], c.entity_id))
            if not pairs:
                continue
            golds: set[str] | None = None
            for s, o in pairs:
                rels = set(side.relations.get((entity_vocab.strings[s], entity_vocab.strings[o]), ()))
                golds = rels if golds is None else golds & rels
            if golds:
                raw.append((pi, it.subject_col, col, golds, pairs))
    if relation_list is None:
        relation_list = sorted({r for _, _, _, g, _ in raw for r in g})
    index = {r: i for i, r in enumerate(relation_list)}
    instances = []
    for pi, scol, ocol, golds, pairs in raw:
        ids = {index[r] for r in golds if r in index}
        if ids:
            instances.append(RelationInstance(pack=pi, subj_col=scol, obj_col=ocol, golds=ids, pairs=pairs))
    return instances, relation_list


def build_linking_data(
    packs: list[TablePack], side: SideData, require_gold: bool
) -> list[LinkInstance]:
    """One instance per linked cell with a candidate lookup entry.

    require_gold=True (training) keeps only cells whose gold survives the
    lookup; evaluation keeps every cell that has any candidates at all.
    """
    instances = []
    for pi, pack in enumerate(packs):
        for cell in pack.processed.linked_cells():
            mention = " ".join(cell.mention_tokens)
            cands = side.candidates.get(mention, [])
            if not cands:
                continue
            if require_gold and cell.entity not in cands:
                continue
            if cell_position(pack.seq, cell.row, cell.col) is None:
                continue
            instances.append(
                LinkInstance(pack=pi, row=cell.row, col=cell.col, gold_ref=cell.entity, candidate_refs=list(cands))
            )
    return instances


def build_row_population_data(
    packs: list[TablePack], index: CorpusIndex, token_vocab: Vocab, n_seeds: int, retrieval_k: int
) -> list[RowPopInstance]:
    """Seed the subject column with its first rows, predict the rest."""
    instances = []
    for pi, pack in enumerate(packs):
        it = pack.indexed
        subj = sorted(it.subject_cells(), key=lambda c: c.row)
        seen: list[tuple[int, np.ndarray]] = []
        for c in subj:
            if all(c.entity_id != e for e, _ in seen):
                seen.append((c.entity_id, c.mention_ids))
        if len(seen) <= n_seeds:
            continue
        seeds = seen[:n_seeds]
        golds = {e for e, _ in seen[n_seeds:]}
        query = [token_vocab.strings[int(i)] for i in it.caption_ids]
        for _, mention in seeds:
            query.extend(token_vocab.strings[int(i)] for i in mention)
        cands: set[int] = set()
        for tidx in index.retrieve_tables(query, retrieval_k):
            cands.update(index.subject_entities[tidx])
        cands.difference_update(e for e, _ in seeds)
        if not cands:
            continue
        instances.append(
            RowPopInstance(pack=pi, seeds=seeds, golds=golds, candidates=np.array(sorted(cands), dtype=np.int64))
        )
    return instances


def build_fill_data(packs: list[TablePack], index: CorpusIndex) -> list[FillInstance]:
    """One instance per object cell whose row subject has usable candidates."""
    instances = []
    for pi, pack in enumerate(packs):
        it = pack.indexed
        if it.subject_col is None:
            continue
        subj_by_row = {c.row: c.entity_id for c in it.cells if c.col == it.subject_col}
        for c in it.cells:
            if c.col == it.subject_col or c.row not in subj_by_row:
                continue
            header = it.headers_norm[c.col]
            cands = index.fill_candidates(subj_by_row[c.row], header)
            if not cands:
                continue
            if cell_position(pack.seq, c.row, c.col) is None:
                continue
            instances.append(
                FillInstance(pack=pi, row=c.row, col=c.col, gold=c.entity_id, candidates=[e for e, _ in cands])
            )
    return instances


def header_vocabulary(packs: list[TablePack], min_tables: int) -> list[str]:
    """Normalized headers appearing in at least min_tables distinct tables."""
    support: dict[str, int] = {}
    for pack in packs:
        for h in set(pack.indexed.headers_norm):
            support[h] = support.get(h, 0) + 1
    return sorted(h for h, n in support.items() if n >= min_tables)


def build_schema_data(packs: list[TablePack], header_list: list[str], n_seeds: int) -> list[SchemaInstance]:
    in_vocab = set(header_list)
    instances = []
    for pi, pack in enumerate(packs):
        headers = []
        for h in pack.indexed.headers_norm:
            if h in in_vocab and h not in headers:
                headers.append(h)
        if len(headers) <= n_seeds:
            continue
        instances.append(SchemaInstance(pack=pi, seeds=headers[:n_seeds], golds=set(headers[n_seeds:])))
    return instances


# ---------------------------------------------------------------------------
# synthetic sequences for the generation-style tasks


def linking_sequence(pack: TablePack) -> Sequence:
    """The table with every cell's entity identity hidden; mentions stay."""
    seq = pack.seq.clone()
    seq.ids[seq.kinds == CELL] = MASK_ID
    return seq


def row_population_sequence(pack: TablePack, seeds: list[tuple[int, np.ndarray]], max_len: int) -> tuple[Sequence, int]:
    """Caption, seed subject cells, and one masked subject slot to fill."""
    cells = [
        IndexedCell(row=i, col=0, entity_id=e, mention_ids=np.asarray(m, dtype=np.int64))
        for i, (e, m) in enumerate(seeds)
    ]
    cells.append(
        IndexedCell(row=len(seeds), col=0, entity_id=MASK_ID, mention_ids=np.array([MASK_ID], dtype=np.int64))
    )
    probe = IndexedTable(
        table_id=pack.indexed.table_id + "#rowpop",
        caption_ids=pack.indexed.caption_ids,
        header_ids=[],
        headers_norm=[],
        n_rows=len(cells),
        n_cols=1,
        cells=cells,
        topic=pack.indexed.topic,
        subject_col=0,
    )
    seq = linearize(probe, max_len)
    mask_pos = int(np.flatnonzero((seq.kinds == CELL) & (seq.ids == MASK_ID))[0])
    return seq, mask_pos


def schema_sequence(pack: TablePack, seeds: list[str], header_list_ids: dict[str, np.ndarray], max_len: int) -> tuple[Sequence, int]:
    """Caption, seed headers, and one masked header slot to fill."""
    header_ids = [header_list_ids[s] for s in seeds]
    header_ids.append(np.array([MASK_ID], dtype=np.int64))
    probe = IndexedTable(
        table_id=pack.indexed.table_id + "#schema",
        caption_ids=pack.indexed.caption_ids,
        header_ids=header_ids,
        headers_norm=seeds + ["<mask>"],
        n_rows=0,
        n_cols=len(header_ids),
        cells=[],
        topic=pack.indexed.topic,
        subject_col=None,
    )
    seq = linearize(probe, max_len)
    mask_pos = int(np.flatnonzero((seq.kinds == HEADER) & (seq.cols == len(header_ids) - 1))[0])
    return seq, mask_pos


# ---------------------------------------------------------------------------
# fine-tuning driver


@dataclass
class FinetuneSettings:
    lr0: float = 1e-4
    epochs: int = 10
    batch_size: int = 8
    seed: int = 13
    use_visibility: bool = True


def finetune(instances, loss_fn, params, settings: FinetuneSettings) -> list[float]:
    """Generic loop: shuffle, batch, sum losses, step. Returns epoch losses.

    A batch whose loss is not finite raises NonFiniteLoss before the step.
    """
    rng = np.random.default_rng(settings.seed)
    n_batches = max(1, (len(instances) + settings.batch_size - 1) // settings.batch_size)
    opt = nm.Adam(params, lr0=settings.lr0, total_steps=settings.epochs * n_batches)
    epoch_losses = []
    for _ in range(settings.epochs):
        order = rng.permutation(len(instances))
        total = 0.0
        count = 0
        for b in range(0, len(order), settings.batch_size):
            opt.zero_grad()
            batch_loss = None
            for idx in order[b : b + settings.batch_size]:
                term = loss_fn(instances[int(idx)])
                if term is None:
                    continue
                batch_loss = term if batch_loss is None else nm.add(batch_loss, term)
                count += 1
            if batch_loss is None:
                continue
            loss = float(batch_loss.data)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss is {loss} at step {opt.steps_done}")
            batch_loss.backward()
            opt.step()
            total += loss
        epoch_losses.append(total / max(1, count))
    return epoch_losses


# -- column types -------------------------------------------------------------


def _multi_hot(golds: set[int], n: int, dtype) -> np.ndarray:
    y = np.zeros((1, n), dtype=dtype)
    for g in golds:
        y[0, g] = 1.0
    return y


def train_column_types(model, head, packs, instances, settings: FinetuneSettings, n_types: int):
    def loss_fn(inst: ColumnTypeInstance):
        enc = encode(packs[inst.pack].seq, model, use_visibility=settings.use_visibility)
        col = column_repr(enc.h, packs[inst.pack].seq, inst.col, model.dtype)
        logits = head.logits(col)
        return nm.bce_with_logits_sum(logits, _multi_hot(inst.golds, n_types, model.dtype))

    return finetune(instances, loss_fn, model.params() + head.params(), settings)


def eval_column_types(model, head, packs, instances, use_visibility=True):
    preds, golds = [], []
    for inst in instances:
        enc = encode(packs[inst.pack].seq, model, use_visibility=use_visibility)
        col = column_repr(enc.h, packs[inst.pack].seq, inst.col, model.dtype)
        scores = head.logits(col).data[0]
        preds.append({int(i) for i in np.flatnonzero(scores > 0.0)})  # sigmoid > 0.5
        golds.append(inst.golds)
    result = micro_prf(preds, golds)
    return {"metrics": result.as_dict(), "n_instances": len(instances)}


# -- relations ---------------------------------------------------------------


def train_relations(model, head, packs, instances, settings: FinetuneSettings, n_relations: int):
    def loss_fn(inst: RelationInstance):
        pack = packs[inst.pack]
        enc = encode(pack.seq, model, use_visibility=settings.use_visibility)
        subj = column_repr(enc.h, pack.seq, inst.subj_col, model.dtype)
        obj = column_repr(enc.h, pack.seq, inst.obj_col, model.dtype)
        logits = head.logits(subj, obj)
        return nm.bce_with_logits_sum(logits, _multi_hot(inst.golds, n_relations, model.dtype))

    return finetune(instances, loss_fn, model.params() + head.params(), settings)


def eval_relations(model, head, packs, instances, use_visibility=True):
    preds, golds = [], []
    for inst in instances:
        pack = packs[inst.pack]
        enc = encode(pack.seq, model, use_visibility=use_visibility)
        subj = column_repr(enc.h, pack.seq, inst.subj_col, model.dtype)
        obj = column_repr(enc.h, pack.seq, inst.obj_col, model.dtype)
        scores = head.logits(subj, obj).data[0]
        preds.append({int(i) for i in np.flatnonzero(scores > 0.0)})
        golds.append(inst.golds)
    result = micro_prf(preds, golds)
    return {"metrics": result.as_dict(), "n_instances": len(instances)}


def eval_relations_votes(instances, entity_vocab, side: SideData, relation_list, threshold: float):
    """Vote baseline over the same instances; shares the metric path."""
    from .baselines import vote_relations

    rel_map: dict[tuple[int, int], set[str]] = {}
    for (s_ref, o_ref), rels in side.relations.items():
        s, o = entity_vocab.get(s_ref), entity_vocab.get(o_ref)
        if s is not None and o is not None:
            rel_map[(s, o)] = set(rels)
    index = {r: i for i, r in enumerate(relation_list)}
    preds, golds = [], []
    for inst in instances:
        rels = vote_relations(inst.pairs, rel_map, threshold)
        preds.append({index[r] for r in rels if r in index})
        golds.append(inst.golds)
    result = micro_prf(preds, golds)
    return {"metrics": result.as_dict(), "n_instances": len(instances)}


# -- linking -------------------------------------------------------------------


def _link_entries(head: LinkingHead, side: SideData, refs, token_vocab, tokenizer):
    return [head.tokenize_entry(side.kb.get(ref, KbEntry()), token_vocab, tokenizer) for ref in refs]


def train_linking(model, head, packs, instances, side, token_vocab, tokenizer, settings: FinetuneSettings):
    link_seqs = {}

    def loss_fn(inst: LinkInstance):
        if inst.pack not in link_seqs:
            link_seqs[inst.pack] = linking_sequence(packs[inst.pack])
        seq = link_seqs[inst.pack]
        pos = cell_position(seq, inst.row, inst.col)
        gold_idx = inst.candidate_refs.index(inst.gold_ref)
        enc = encode(seq, model, use_visibility=settings.use_visibility)
        proj = head.project(nm.gather_rows(enc.h, np.array([pos])))
        entries = _link_entries(head, side, inst.candidate_refs, token_vocab, tokenizer)
        logits = nm.matmul(proj, nm.transpose(head.entry_matrix(model, entries), (1, 0)))
        return nm.cross_entropy_sum(logits, np.array([gold_idx]))

    return finetune(instances, loss_fn, model.params() + head.params(), settings)


def eval_linking(
    model,
    head,
    packs,
    instances,
    side,
    token_vocab,
    tokenizer,
    use_visibility=True,
    reweight=False,
    alpha=0.8,
    use_description=True,
):
    """Pick one candidate per mention; None when the lookup gives nothing.

    With reweight=True the model's top choice must beat the lookup's first
    candidate by the margin alpha: alpha * p_model > p_lookup, else the lookup
    candidate wins.
    """
    link_seqs = {}
    preds, golds = [], []
    for inst in instances:
        golds.append(inst.gold_ref)
        if not inst.candidate_refs:
            preds.append(None)
            continue
        if inst.pack not in link_seqs:
            link_seqs[inst.pack] = linking_sequence(packs[inst.pack])
        seq = link_seqs[inst.pack]
        pos = cell_position(seq, inst.row, inst.col)
        enc = encode(seq, model, use_visibility=use_visibility)
        proj = head.project(nm.gather_rows(enc.h, np.array([pos])))
        entries = _link_entries(head, side, inst.candidate_refs, token_vocab, tokenizer)
        logits = nm.matmul(
            proj, nm.transpose(head.entry_matrix(model, entries, use_description=use_description), (1, 0))
        ).data[0]
        z = logits - logits.max()
        probs = np.exp(z) / np.exp(z).sum()
        model_top = int(np.argmax(probs))
        choice = model_top
        if reweight and len(inst.candidate_refs) > 1:
            if not (alpha * probs[model_top] > probs[0]):
                choice = 0
        preds.append(inst.candidate_refs[choice])
    result = linking_prf(preds, golds)
    return {"metrics": result.as_dict(), "n_instances": len(instances)}


def eval_linking_lookup(instances):
    """Rank-one lookup baseline: always take the first candidate."""
    preds = [inst.candidate_refs[0] if inst.candidate_refs else None for inst in instances]
    golds = [inst.gold_ref for inst in instances]
    result = linking_prf(preds, golds)
    return {"metrics": result.as_dict(), "n_instances": len(instances)}


# -- row population -------------------------------------------------------------


def train_row_population(model, packs, instances, settings: FinetuneSettings, max_len: int):
    """Multi-label BCE over each instance's candidates, scored by the MER head.

    The masked-cell scorer was pre-trained under a softmax, which ignores a
    shift shared by all candidates, so its logits sit at an arbitrary level.
    BCE does not ignore it: left alone, the first steps spend the shared
    weights on moving every logit to the level of the gold rate, and the
    ranking the scorer brought is lost. A learned scalar offset takes that
    shift instead. Before the first step it is set to logit(gold rate) minus
    the mean initial logit, both pooled over every candidate of every
    instance. The offset is the same for every candidate, so it never changes
    a ranking and evaluation does without it.
    """

    def logits(inst: RowPopInstance) -> nm.Tensor:
        seq, pos = row_population_sequence(packs[inst.pack], inst.seeds, max_len)
        enc = encode(seq, model, use_visibility=settings.use_visibility)
        return entity_logits(model, enc.h, np.array([pos]), inst.candidates)

    def labels(inst: RowPopInstance) -> np.ndarray:
        return np.isin(inst.candidates, sorted(inst.golds)).astype(model.dtype)[None, :]

    start = 0.0
    if instances:
        rate = np.clip(np.concatenate([labels(inst).ravel() for inst in instances]).mean(), 1e-6, 1.0 - 1e-6)
        start = np.log(rate / (1.0 - rate)) - np.concatenate([logits(inst).data.ravel() for inst in instances]).mean()
    offset = nm.Tensor(np.array([start], dtype=model.dtype), requires_grad=True, name="rowpop_offset")

    def loss_fn(inst: RowPopInstance):
        return nm.bce_with_logits_sum(nm.add(logits(inst), offset), labels(inst))

    return finetune(instances, loss_fn, model.params() + [offset], settings)


def _ranked(candidates: np.ndarray, scores: np.ndarray) -> list[int]:
    order = np.lexsort((candidates, -scores))
    return [int(candidates[i]) for i in order]


def eval_row_population(model, packs, instances, max_len: int, use_visibility=True):
    rankings, golds, cand_sets = [], [], []
    for inst in instances:
        seq, pos = row_population_sequence(packs[inst.pack], inst.seeds, max_len)
        enc = encode(seq, model, use_visibility=use_visibility)
        scores = entity_logits(model, enc.h, np.array([pos]), inst.candidates).data[0]
        rankings.append(_ranked(inst.candidates, scores))
        golds.append(inst.golds)
        cand_sets.append(set(int(c) for c in inst.candidates))
    return {
        "metrics": {
            "map": mean_average_precision(rankings, golds),
            "candidate_recall": candidate_recall(cand_sets, golds),
        },
        "n_instances": len(instances),
    }


# -- cell filling ----------------------------------------------------------------


def eval_cell_filling(model, packs, instances, use_visibility=True):
    """No fine-tuning: the pre-trained masked-cell scorer ranks candidates."""
    rankings, golds = [], []
    for inst in instances:
        seq = packs[inst.pack].seq.clone()
        pos = cell_position(seq, inst.row, inst.col)
        mask_cell(seq, pos, mask_entity=True, mask_mention=True)
        cands = np.array(sorted(set(inst.candidates)), dtype=np.int64)
        enc = encode(seq, model, use_visibility=use_visibility)
        scores = entity_logits(model, enc.h, np.array([pos]), cands).data[0]
        rankings.append(_ranked(cands, scores))
        golds.append({inst.gold})
    p1 = sum(precision_at_k(r, g, 1) for r, g in zip(rankings, golds)) / max(1, len(rankings))
    return {
        "metrics": {
            "p_at_1": p1,
            "map": mean_average_precision(rankings, golds),
        },
        "n_instances": len(instances),
    }


def eval_cell_filling_baseline(index: CorpusIndex, packs, instances, mode: str):
    rankings, golds = [], []
    for inst in instances:
        pack = packs[inst.pack]
        header = pack.indexed.headers_norm[inst.col]
        subj_by_row = {c.row: c.entity_id for c in pack.indexed.cells if c.col == pack.indexed.subject_col}
        cands = index.fill_candidates(subj_by_row[inst.row], header)
        ranked = index.rank_fill(cands, header, mode)
        rankings.append([e for e, _ in ranked])
        golds.append({inst.gold})
    p1 = sum(precision_at_k(r, g, 1) for r, g in zip(rankings, golds)) / max(1, len(rankings))
    return {
        "metrics": {"p_at_1": p1, "map": mean_average_precision(rankings, golds)},
        "n_instances": len(instances),
    }


# -- schema augmentation ---------------------------------------------------------


def train_schema(model, head, packs, instances, header_list, token_vocab, settings: FinetuneSettings, max_len: int):
    header_ids = {h: _header_token_ids(h, token_vocab) for h in header_list}
    index = {h: i for i, h in enumerate(header_list)}

    def loss_fn(inst: SchemaInstance):
        seq, pos = schema_sequence(packs[inst.pack], inst.seeds, header_ids, max_len)
        enc = encode(seq, model, use_visibility=settings.use_visibility)
        logits = head.logits(nm.gather_rows(enc.h, np.array([pos])))
        return nm.bce_with_logits_sum(logits, _multi_hot({index[g] for g in inst.golds}, len(header_list), model.dtype))

    return finetune(instances, loss_fn, model.params() + head.params(), settings)


def _header_token_ids(header: str, token_vocab: Vocab) -> np.ndarray:
    return np.array([token_vocab.id_or_unk(t) for t in header.split()], dtype=np.int64)


def eval_schema(model, head, packs, instances, header_list, token_vocab, max_len: int, use_visibility=True):
    header_ids = {h: _header_token_ids(h, token_vocab) for h in header_list}
    rankings, golds = [], []
    for inst in instances:
        seq, pos = schema_sequence(packs[inst.pack], inst.seeds, header_ids, max_len)
        enc = encode(seq, model, use_visibility=use_visibility)
        scores = head.logits(nm.gather_rows(enc.h, np.array([pos]))).data[0]
        keep = [i for i, h in enumerate(header_list) if h not in inst.seeds]
        order = sorted(keep, key=lambda i: (-scores[i], header_list[i]))
        rankings.append([header_list[i] for i in order])
        golds.append(inst.golds)
    return {
        "metrics": {"map": mean_average_precision(rankings, golds)},
        "n_instances": len(instances),
    }


def eval_schema_baseline(index: CorpusIndex, packs, instances, token_vocab, k: int = 10):
    rankings, golds = [], []
    for inst in instances:
        pack = packs[inst.pack]
        query = [token_vocab.strings[int(i)] for i in pack.indexed.caption_ids]
        ranked = index.suggest_headers(query, inst.seeds, k=k)
        rankings.append([h for h, _ in ranked])
        golds.append(inst.golds)
    return {
        "metrics": {"map": mean_average_precision(rankings, golds)},
        "n_instances": len(instances),
    }
