"""Downstream table-understanding tasks on top of the pre-trained encoder.

Six tasks share the encoder:

  linking      attach knowledge-base entries to cell mentions; candidates come
               from a lookup file, scores from matching the cell representation
               against [name; description; types] embeddings
  coltype      multi-label column type prediction from header plus entities
  relations    multi-label relation prediction for subject/object column pairs
  rowpop       rank candidate entities that belong in the subject column
  fill         rank candidate entities for one empty object cell (no
               fine-tuning; the pre-trained masked-cell scorer)
  schema       rank headers that belong in a partially known schema

Dataset builders derive labels from side files (types.jsonl, relations.jsonl,
kb.jsonl, candidates.jsonl). Each task head is an independent parameter set;
fine-tuning one head never touches another.

Every fine-tuned task runs through one engine. A `TaskSpec` says which
sequence an instance reads, as a (key, Sequence) pair, which positions of it
the head reads, and how a whole batch is scored and its loss taken. Column
types, relations and linking key on the table pack, so instances of one
table share its encoding; row population and schema key on the instance,
which reads its own probe sequence. `finetune` shuffles and batches the
instances and encodes the distinct keys of each batch as one packed graph
(`encoder.encode`, the encoder's one entry point), whose last block runs
only at the sorted union of the positions the instances read. One head then
serves the whole batch: one mean per summary part over every instance's
positions (a column's header tokens and its cells, a linked cell, a probe's
masked slot), one affine map, one loss. Linking and row population score each instance against its own
candidates in one node (`numeric.candidate_cross_entropy_sum`,
`numeric.candidate_scores`), linking against entry rows that each batch
builds for itself, in training and evaluation alike; row population and cell
filling score through the masked-entity head (`pretrain.entity_head`). A
step's tape therefore has the same nodes for any batch size, and each step
is one backward pass. `forward` encodes each distinct key once, with no
tape, in packed graphs of up to `PACK_ROWS` rows, and returns every
instance's scores; the `eval_*` functions rank and threshold them. The
scores equal those of encoding and scoring each instance alone within float
rounding, not bitwise: a product over the batch's rows may round otherwise
than one over an instance's single row (see `encoder`). Every encoding
attends in the model's own mode (`encoder.Model.use_visibility`), the mode
it was pre-trained in; no task or setting chooses it, and no call passes
`encode` a mode. A sequence builds its visibility matrix once and keeps it
across specs and rounds, and a linking sequence shares its table's
(`encoding.Sequence.visibility`); each spec finds each column's positions
once. Cell filling reads no sequence of its own: it scores its cells the way
masked-cell recovery does, one pass per block over each table and its
masked cells, one table at a time (`encoder.masked_cell_states`).

`TASKS` maps each task's name to its `Task` record: instance builder, head
factory, train step (none for cell filling), evaluate step, baselines by name,
the optional command-line flags it reads and the config key of its epochs.
Each step reads one plain namespace `r` of the run (args, cfg, vocabularies,
packs, training, labels, model, head, settings), whose `side()` and `index()`
load the side files and the train-split corpus index on first call.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numeric as nm
from .baselines import CorpusIndex, vote_relations
from .corpus import (
    MASK_ID,
    TOKENIZER,
    IndexedCell,
    IndexedTable,
    ProcessedTable,
    Vocab,
    index_table,
    read_jsonl,
)
from .encoder import Model, encode, masked_cell_states, trunc_normal
from .encoding import CELL, HEADER, Sequence, linearize
from .errors import ConfigError, EmptyColumn, TableTooSmall
from .metrics import (
    candidate_recall,
    linking_prf,
    mean_average_precision,
    micro_prf,
    precision_at_k,
)
from .pretrain import entity_head, entity_logits

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


def cell_positions(seq: Sequence) -> dict[tuple[int, int], int]:
    """(row, col) -> cell_position(seq, row, col) for every cell of seq, in
    one pass; a cell that linearize dropped has no key."""
    at = np.flatnonzero(seq.kinds == CELL)
    out: dict[tuple[int, int], int] = {}
    for pos, row, col in zip(at.tolist(), seq.rows[at].tolist(), seq.cols[at].tolist()):
        out.setdefault((row, col), pos)
    return out


def column_rows(seq: Sequence, col: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of column col's header tokens and of its cells in seq. Either
    may be empty: linearize drops the trailing rows past max_len."""
    return tuple(np.flatnonzero((seq.kinds == kind) & (seq.cols == col)) for kind in (HEADER, CELL))


def _column_parts(seq: Sequence, col: int) -> list[np.ndarray]:
    """column_rows(seq, col) as the two parts of a column summary; a column
    without a header token or a cell raises EmptyColumn."""
    parts = list(column_rows(seq, col))
    if not all(len(pos) for pos in parts):
        raise EmptyColumn(f"column {col} of {seq.table_id} has no usable header or entities")
    return parts


def _part_means(h: nm.Tensor, located: list[list[np.ndarray]]) -> list[nm.Tensor]:
    """One (B, d) tensor per part: row i is the mean of the rows
    located[i][k] of h, instance i's rows of part k. One segment_mean each."""
    return [nm.segment_mean(h, np.concatenate(part), [len(pos) for pos in part]) for part in zip(*located)]


def column_repr(enc_h: nm.Tensor, seq: Sequence, col: int, at: int = 0) -> nm.Tensor:
    """(1, 2d) column summary: mean header-token state, mean entity state.
    The sequence's states are the rows of enc_h from row `at` on."""
    return nm.concat(_part_means(enc_h, [[at + pos for pos in _column_parts(seq, col)]]), axis=1)


def _encoded(seq: Sequence, *cols: int) -> bool:
    """Whether each column keeps a header token and a cell in seq."""
    return all(len(pos) for col in cols for pos in column_rows(seq, col))


# ---------------------------------------------------------------------------
# heads


class AffineHead:
    """Logits as one affine map of the concatenated input parts; its tensors
    are named `{name}_W` and `{name}_b`."""

    def __init__(self, d_in: int, n_out: int, rng, name: str, dtype=np.float32):
        self.W = nm.Tensor(trunc_normal(rng, (d_in, n_out), dtype=dtype), requires_grad=True, name=f"{name}_W")
        self.b = nm.Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True, name=f"{name}_b")

    def params(self):
        return [self.W, self.b]

    def logits(self, *parts: nm.Tensor) -> nm.Tensor:
        x = parts[0] if len(parts) == 1 else nm.concat(list(parts), axis=1)
        return nm.affine(x, self.W, self.b)


class ColumnTypeHead(AffineHead):
    def __init__(self, d_model: int, n_types: int, rng, dtype=np.float32):
        super().__init__(2 * d_model, n_types, rng, "coltype", dtype)  # reads one column summary


class RelationHead(AffineHead):
    def __init__(self, d_model: int, n_relations: int, rng, dtype=np.float32):
        super().__init__(4 * d_model, n_relations, rng, "rel", dtype)  # reads subject and object summaries


class LinkingHead(AffineHead):
    """Scores cells against knowledge-base entries.

    An entry vector is [mean name word embedding; mean description word
    embedding; mean type embedding]; the cell state is mapped into that space
    by the head's affine layer (`project`). Missing names, descriptions, or
    types contribute a zero block.
    """

    def __init__(self, d_model: int, kb_types: list[str], rng, dtype=np.float32):
        super().__init__(d_model, 3 * d_model, rng, "link", dtype)
        self.kb_types = list(kb_types)
        self.type_index = {t: i for i, t in enumerate(self.kb_types)}
        n_types = max(1, len(self.kb_types))
        self.type_emb = nm.Tensor(
            trunc_normal(rng, (n_types, d_model), dtype=dtype), requires_grad=True, name="link_type_emb"
        )

    def params(self):
        return super().params() + [self.type_emb]

    project = AffineHead.logits

    def entry_matrix(self, model: Model, entries, use_description: bool = True) -> nm.Tensor:
        """(C, 3d) matrix for tokenized entries [(name_ids, desc_ids, type_ids)]."""
        blocks = []
        for take, table in enumerate((model["word_emb"], model["word_emb"], self.type_emb)):
            ids = [e[take] if take != 1 or use_description else e[take][:0] for e in entries]
            blocks.append(nm.segment_mean(table, np.concatenate(ids), [len(x) for x in ids]))
        return nm.concat(blocks, axis=1)

    def tokenize_entry(self, entry: KbEntry, token_vocab: Vocab, tokenizer) -> tuple:
        name, description = (token_vocab.ids(tokenizer.tokenize(text)) for text in (entry.name, entry.description))
        types = np.array([self.type_index[t] for t in entry.types if t in self.type_index], dtype=np.int64)
        return (name, description, types)


class SchemaHead(AffineHead):
    def __init__(self, d_model: int, n_headers: int, rng, dtype=np.float32):
        super().__init__(d_model, n_headers, rng, "schema", dtype)  # reads the masked header slot's state


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


@dataclass(eq=False)  # hashed by identity: the instance keys its own probe
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


@dataclass(eq=False)  # hashed by identity: the instance keys its own probe
class SchemaInstance:
    pack: int
    seeds: list[str]
    golds: set[str]


def _refs(entity_vocab: Vocab, ids) -> list[str]:
    return [entity_vocab.strings[int(i)] for i in ids]


def build_column_type_data(
    packs: list[TablePack], entity_vocab: Vocab, side: SideData, type_list: list[str] | None = None
) -> tuple[list[ColumnTypeInstance], list[str]]:
    """One instance per encoded column whose linked entities share at least
    one type."""
    raw: list[tuple[int, int, set[str]]] = []
    for pi, pack in enumerate(packs):
        by_col: dict[int, list[int]] = {}
        for c in pack.indexed.cells:
            by_col.setdefault(c.col, []).append(c.entity_id)
        for col, ids in sorted(by_col.items()):
            if not _encoded(pack.seq, col):
                continue
            golds: set[str] | None = None
            for ref in _refs(entity_vocab, ids):
                t = set(side.types.get(ref, ()))
                golds = t if golds is None else golds & t
            if golds:
                raw.append((pi, col, golds))
    if type_list is None:
        type_list = sorted({t for _, _, g in raw for t in g})
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
    """One instance per encoded (subject column, object column) with shared
    relations."""
    raw = []
    for pi, pack in enumerate(packs):
        it = pack.indexed
        if it.subject_col is None:
            continue
        subj_by_row = it.subject_by_row()
        obj_cols = sorted({c.col for c in it.cells if c.col != it.subject_col})
        for col in obj_cols:
            pairs = [(subj_by_row[c.row], c.entity_id) for c in it.cells if c.col == col and c.row in subj_by_row]
            if not pairs or not _encoded(pack.seq, it.subject_col, col):
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
        positions = cell_positions(pack.seq)
        for cell in pack.processed.linked_cells():
            cands = side.candidates.get(" ".join(cell.mention_tokens), [])
            if not cands or (require_gold and cell.entity not in cands):
                continue
            if (cell.row, cell.col) not in positions:
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
        subj_by_row = it.subject_by_row()
        positions = cell_positions(pack.seq)
        for c in it.cells:
            if c.col == it.subject_col or c.row not in subj_by_row:
                continue
            header = it.headers_norm[c.col]
            cands = index.fill_candidates(subj_by_row[c.row], header)
            if not cands or (c.row, c.col) not in positions:
                continue
            instances.append(
                FillInstance(pack=pi, row=c.row, col=c.col, gold=c.entity_id, candidates=[e for e, _ in cands])
            )
    return instances


def header_vocabulary(packs: list[TablePack], min_tables: int) -> list[str]:
    """Normalized headers appearing in at least min_tables distinct tables."""
    support = Counter(h for pack in packs for h in set(pack.indexed.headers_norm))
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
        table_id=pack.indexed.table_id + "#rowpop", caption_ids=pack.indexed.caption_ids, header_ids=[],
        headers_norm=[], n_rows=len(cells), n_cols=1, cells=cells, topic=pack.indexed.topic, subject_col=0,
    )
    seq = linearize(probe, max_len)
    mask_pos = int(np.flatnonzero((seq.kinds == CELL) & (seq.ids == MASK_ID))[0])
    return seq, mask_pos


def schema_sequence(pack: TablePack, seeds: list[str], header_list_ids: dict[str, np.ndarray], max_len: int) -> tuple[Sequence, int]:
    """Caption, seed headers, and one masked header slot to fill."""
    header_ids = [header_list_ids[s] for s in seeds]
    header_ids.append(np.array([MASK_ID], dtype=np.int64))
    probe = IndexedTable(
        table_id=pack.indexed.table_id + "#schema", caption_ids=pack.indexed.caption_ids, header_ids=header_ids,
        headers_norm=seeds + ["<mask>"], n_rows=0, n_cols=len(header_ids), cells=[], topic=pack.indexed.topic,
        subject_col=None,
    )
    seq = linearize(probe, max_len)
    mask_pos = int(np.flatnonzero((seq.kinds == HEADER) & (seq.cols == len(header_ids) - 1))[0])
    return seq, mask_pos


# ---------------------------------------------------------------------------
# the task engine

# rows per packed no-grad graph: `forward` encodes in runs of this many
# (`row_packs`), which bounds the rows a graph holds whatever the number of
# tables
PACK_ROWS = 4096


@dataclass
class FinetuneSettings:
    lr0: float = 1e-4
    epochs: int = 10
    batch_size: int = 8
    seed: int = 13


@dataclass
class TaskSpec:
    """How one task reads the encoder, a batch of instances at a time.

    read(inst) -> (key, Sequence): the sequence the instance reads; instances
        with equal keys share one encoding of it.
    rows(inst) -> [positions, ...]: the parts of that sequence the head
        reads, each a non-empty array of positions in it: a column's header
        tokens and its cells, a linked cell, a probe's masked slot.
    scores(batch, parts) -> one score array per instance of the batch.
    loss(batch, parts) -> the batch's scalar loss (training only).

    `parts` holds one (B, d) tensor per part of rows(inst), whose row i is the
    mean final state of instance i's positions in that part.
    """

    model: Model
    read: Callable
    rows: Callable
    scores: Callable
    loss: Callable


def _encode_distinct(spec: TaskSpec, batch: list) -> tuple[list[nm.Tensor], list[str]]:
    """Encode each distinct sequence a batch of instances reads, once, as one
    packed graph whose last block runs only at the rows the head reads (the
    sorted union of every instance's `spec.rows`). Returns the batch's parts
    (see TaskSpec) and the table ids of the sequences encoded."""
    reads = [spec.read(inst) for inst in batch]
    seqs = dict(reads)  # key -> sequence, in first-read order
    starts = dict(zip(seqs, np.cumsum([0] + [len(seq) for seq in seqs.values()]).tolist()))
    located = [[starts[key] + pos for pos in spec.rows(inst)] for inst, (key, _) in zip(batch, reads)]
    rows = np.unique(np.concatenate([pos for parts in located for pos in parts]))
    h = encode(list(seqs.values()), spec.model, rows=rows).h
    parts = _part_means(h, [[np.searchsorted(rows, pos) for pos in parts] for parts in located])
    return parts, [seq.table_id for seq in seqs.values()]


def finetune(instances, spec: TaskSpec, params, settings: FinetuneSettings) -> list[float]:
    """Shuffle, batch, encode each batch as one graph, take the batch's loss,
    step (`numeric.train`). Returns epoch losses: summed loss over the number
    of instances."""

    def batch_loss(indices):
        batch = [instances[int(i)] for i in indices]
        parts, tables = _encode_distinct(spec, batch)
        return spec.loss(batch, parts), tables

    _, sums = nm.train(params, settings, len(instances), np.random.default_rng(settings.seed), batch_loss)
    return [total / max(1, len(instances)) for total in sums]


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


def forward(instances, spec: TaskSpec) -> list[np.ndarray]:
    """Each instance's scores, computed with no tape. Every distinct
    sequence is encoded once, in packed graphs of at most PACK_ROWS rows
    (`row_packs`)."""
    groups: dict = {}  # key -> (its sequence's length, the instances that read it)
    for i, inst in enumerate(instances):
        key, seq = spec.read(inst)
        groups.setdefault(key, (len(seq), []))[1].append(i)
    keys = list(groups)
    out: list = [None] * len(instances)
    with nm.no_grad():
        for part in row_packs([groups[key][0] for key in keys]):
            idx = [i for key in keys[part] for i in groups[key][1]]
            batch = [instances[i] for i in idx]
            for i, scores in zip(idx, spec.scores(batch, _encode_distinct(spec, batch)[0])):
                out[i] = scores
    return out


def _report(metrics: dict, instances) -> dict:
    return {"metrics": metrics, "n_instances": len(instances)}


def _label_spec(model, head: AffineHead, read, rows, golds) -> TaskSpec:
    """A spec whose logits are `head` over the parts, trained by multi-label
    BCE toward the label ids golds(inst)."""

    def loss(batch, parts):
        logits = head.logits(*parts)
        y = np.zeros_like(logits.data)
        for i, inst in enumerate(batch):
            y[i, sorted(golds(inst))] = 1.0
        return nm.bce_with_logits_sum(logits, y)

    return TaskSpec(model, read, rows, lambda batch, parts: list(head.logits(*parts).data), loss)


def _candidate_scores(x: nm.Tensor, cands: nm.Tensor, lens: list[int]) -> list[np.ndarray]:
    """Each row of x scored against its own lens[i] rows of cands."""
    return np.split(nm.candidate_scores(x, cands, lens).data[0], np.cumsum(lens)[:-1])


def _table_read(packs):
    return lambda inst: (inst.pack, packs[inst.pack].seq)


def _probe_read(probes):
    return lambda inst: (inst, probes[inst][0])


def _probe_rows(probes):
    """The one part a probe's head reads: its masked slot."""
    return lambda inst: [np.array([probes[inst][1]])]


def _eval_label_sets(instances, spec: TaskSpec) -> dict:
    """Micro P/R/F1 of the labels whose sigmoid clears 0.5."""
    preds = [{int(i) for i in np.flatnonzero(z > 0.0)} for z in forward(instances, spec)]
    return _report(micro_prf(preds, [inst.golds for inst in instances]).as_dict(), instances)


# -- column types -------------------------------------------------------------


def _column_summaries(packs):
    """(pack, col) -> the parts of that column's summary, found once."""
    return functools.cache(lambda p, col: _column_parts(packs[p].seq, col))


def _column_type_spec(model, head, packs) -> TaskSpec:
    cols = _column_summaries(packs)
    return _label_spec(model, head, _table_read(packs), lambda inst: cols(inst.pack, inst.col), lambda inst: inst.golds)


def train_column_types(model, head, packs, instances, settings: FinetuneSettings, n_types: int):
    """n_types is the head's width, which the labels take from the logits."""
    return finetune(instances, _column_type_spec(model, head, packs), model.params() + head.params(), settings)


def eval_column_types(model, head, packs, instances):
    return _eval_label_sets(instances, _column_type_spec(model, head, packs))


# -- relations ---------------------------------------------------------------


def _relation_spec(model, head, packs) -> TaskSpec:
    cols = _column_summaries(packs)

    def rows(inst):
        return cols(inst.pack, inst.subj_col) + cols(inst.pack, inst.obj_col)

    return _label_spec(model, head, _table_read(packs), rows, lambda inst: inst.golds)


def train_relations(model, head, packs, instances, settings: FinetuneSettings, n_relations: int):
    """n_relations is the head's width, which the labels take from the logits."""
    return finetune(instances, _relation_spec(model, head, packs), model.params() + head.params(), settings)


def eval_relations(model, head, packs, instances):
    return _eval_label_sets(instances, _relation_spec(model, head, packs))


def eval_relations_votes(instances, entity_vocab, side: SideData, relation_list, threshold: float):
    """Vote baseline over the same instances; shares the metric path."""
    rel_map: dict[tuple[int, int], set[str]] = {}
    for (s_ref, o_ref), rels in side.relations.items():
        s, o = entity_vocab.get(s_ref), entity_vocab.get(o_ref)
        if s is not None and o is not None:
            rel_map[(s, o)] = set(rels)
    index = {r: i for i, r in enumerate(relation_list)}
    preds = [{index[r] for r in vote_relations(inst.pairs, rel_map, threshold) if r in index} for inst in instances]
    return _report(micro_prf(preds, [i.golds for i in instances]).as_dict(), instances)


# -- linking -------------------------------------------------------------------


def _linking_spec(model, head, packs, instances, side, token_vocab, tokenizer, use_description=True) -> TaskSpec:
    """Each distinct candidate of the instances is tokenized once; each batch
    builds the entry rows of its instances' candidate lists end to end, in
    training and evaluation alike. Each cell state is projected once and
    scored against its own list's entries."""
    seqs = {p: linking_sequence(packs[p]) for p in {inst.pack for inst in instances}}
    positions = {p: cell_positions(seq) for p, seq in seqs.items()}
    refs = dict.fromkeys(ref for inst in instances for ref in inst.candidate_refs)
    tokenized = {ref: head.tokenize_entry(side.kb.get(ref, KbEntry()), token_vocab, tokenizer) for ref in refs}

    def project(batch, parts):
        entries = [tokenized[ref] for inst in batch for ref in inst.candidate_refs]
        x = head.project(parts[0])
        return x, head.entry_matrix(model, entries, use_description), [len(inst.candidate_refs) for inst in batch]

    def loss(batch, parts):
        x, cands, lens = project(batch, parts)
        golds = [np.array([inst.candidate_refs.index(inst.gold_ref)]) for inst in batch]
        return nm.candidate_cross_entropy_sum(x, cands, [np.arange(n) for n in lens], golds)[0]

    return TaskSpec(
        model, lambda inst: (inst.pack, seqs[inst.pack]), lambda inst: [np.array([positions[inst.pack][inst.row, inst.col]])],
        lambda batch, parts: _candidate_scores(*project(batch, parts)), loss,
    )


def train_linking(model, head, packs, instances, side, token_vocab, tokenizer, settings: FinetuneSettings):
    spec = _linking_spec(model, head, packs, instances, side, token_vocab, tokenizer)
    return finetune(instances, spec, model.params() + head.params(), settings)


def eval_linking(model, head, packs, instances, side, token_vocab, tokenizer, reweight=False, alpha=0.8, use_description=True):
    """Pick one candidate per mention; None when the lookup gives nothing.

    With reweight=True the model's top choice must beat the lookup's first
    candidate by the margin alpha: alpha * p_model > p_lookup, else the lookup
    candidate wins. Each forward batch builds the entry rows of its own
    instances' candidates, as a training batch does.
    """
    scored = [inst for inst in instances if inst.candidate_refs]
    spec = _linking_spec(model, head, packs, scored, side, token_vocab, tokenizer, use_description)
    choices = {}
    for inst, logits in zip(scored, forward(scored, spec)):
        z = logits - logits.max()
        probs = np.exp(z) / np.exp(z).sum()
        choice = int(np.argmax(probs))
        if reweight and len(inst.candidate_refs) > 1 and not (alpha * probs[choice] > probs[0]):
            choice = 0
        choices[id(inst)] = inst.candidate_refs[choice]
    preds = [choices.get(id(inst)) for inst in instances]
    return _report(linking_prf(preds, [i.gold_ref for i in instances]).as_dict(), instances)


def eval_linking_lookup(instances):
    """Rank-one lookup baseline: always take the first candidate."""
    preds = [inst.candidate_refs[0] if inst.candidate_refs else None for inst in instances]
    return _report(linking_prf(preds, [inst.gold_ref for inst in instances]).as_dict(), instances)


# -- row population -------------------------------------------------------------


def _row_population_spec(model, packs, instances, max_len: int, offset: nm.Tensor | None = None) -> TaskSpec:
    """The MER head scores each probe's candidates, all the batch's at once;
    training adds `offset` to every logit (see train_row_population)."""
    probes = {inst: row_population_sequence(packs[inst.pack], inst.seeds, max_len) for inst in instances}

    def project(batch, parts):
        x, cands = entity_head(model, parts[0], np.concatenate([inst.candidates for inst in batch]))
        return x, cands, [len(inst.candidates) for inst in batch]

    def loss(batch, parts):
        logits = nm.add(nm.candidate_scores(*project(batch, parts)), offset)
        return nm.bce_with_logits_sum(logits, _candidate_labels(batch, model.dtype)[None, :])

    return TaskSpec(
        model, _probe_read(probes), _probe_rows(probes), lambda batch, parts: _candidate_scores(*project(batch, parts)), loss
    )


def _candidate_labels(instances, dtype) -> np.ndarray:
    """1 for each gold among the instances' candidates, end to end, else 0."""
    return np.concatenate([np.isin(inst.candidates, sorted(inst.golds)) for inst in instances]).astype(dtype)


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
    offset = nm.Tensor(np.zeros(1, dtype=model.dtype), requires_grad=True, name="rowpop_offset")
    spec = _row_population_spec(model, packs, instances, max_len, offset)
    if instances:
        rate = np.clip(_candidate_labels(instances, model.dtype).mean(), 1e-6, 1.0 - 1e-6)
        offset.data[0] = np.log(rate / (1.0 - rate)) - np.concatenate(forward(instances, spec)).mean()
    return finetune(instances, spec, model.params() + [offset], settings)


def _ranked(candidates: np.ndarray, scores: np.ndarray) -> list[int]:
    order = np.lexsort((candidates, -scores))
    return [int(candidates[i]) for i in order]


def eval_row_population(model, packs, instances, max_len: int):
    scores = forward(instances, _row_population_spec(model, packs, instances, max_len))
    golds = [inst.golds for inst in instances]
    rankings = [_ranked(inst.candidates, s) for inst, s in zip(instances, scores)]
    cand_sets = [set(int(c) for c in inst.candidates) for inst in instances]
    return _report(
        {"map": mean_average_precision(rankings, golds), "candidate_recall": candidate_recall(cand_sets, golds)},
        instances,
    )


# -- cell filling ----------------------------------------------------------------


def _p_at_1_and_map(rankings, golds) -> dict:
    p1 = sum(precision_at_k(r, g, 1) for r, g in zip(rankings, golds)) / max(1, len(rankings))
    return {"p_at_1": p1, "map": mean_average_precision(rankings, golds)}


def eval_cell_filling(model, packs, instances):
    """No fine-tuning: the pre-trained masked-cell scorer ranks candidates.
    One `encoder.masked_cell_states` call per table scores the cells of all
    of its instances, embedding the table once."""
    by_pack: dict[int, list[int]] = {}
    for i, inst in enumerate(instances):
        by_pack.setdefault(inst.pack, []).append(i)
    rankings: list = [None] * len(instances)
    with nm.no_grad():
        for p, idx in by_pack.items():
            at = cell_positions(packs[p].seq)
            pos = np.array([at[instances[i].row, instances[i].col] for i in idx])
            states = nm.Tensor(masked_cell_states(packs[p].seq, pos, model))
            for m, i in enumerate(idx):
                cands = np.array(sorted(set(instances[i].candidates)), dtype=np.int64)
                rankings[i] = _ranked(cands, entity_logits(model, states, np.array([m]), cands).data[0])
    return _report(_p_at_1_and_map(rankings, [{inst.gold} for inst in instances]), instances)


def eval_cell_filling_baseline(index: CorpusIndex, packs, instances, mode: str):
    rankings, golds = [], []
    for inst in instances:
        pack = packs[inst.pack]
        header = pack.indexed.headers_norm[inst.col]
        cands = index.fill_candidates(pack.indexed.subject_by_row()[inst.row], header)
        ranked = index.rank_fill(cands, header, mode)
        rankings.append([e for e, _ in ranked])
        golds.append({inst.gold})
    return _report(_p_at_1_and_map(rankings, golds), instances)


# -- schema augmentation ---------------------------------------------------------


def _schema_spec(model, head, packs, instances, header_list, token_vocab, max_len: int) -> TaskSpec:
    header_ids = {h: token_vocab.ids(h.split()) for h in header_list}
    index = {h: i for i, h in enumerate(header_list)}
    probes = {inst: schema_sequence(packs[inst.pack], inst.seeds, header_ids, max_len) for inst in instances}
    return _label_spec(model, head, _probe_read(probes), _probe_rows(probes), lambda inst: {index[g] for g in inst.golds})


def train_schema(model, head, packs, instances, header_list, token_vocab, settings: FinetuneSettings, max_len: int):
    spec = _schema_spec(model, head, packs, instances, header_list, token_vocab, max_len)
    return finetune(instances, spec, model.params() + head.params(), settings)


def eval_schema(model, head, packs, instances, header_list, token_vocab, max_len: int):
    spec = _schema_spec(model, head, packs, instances, header_list, token_vocab, max_len)
    rankings = []
    for inst, scores in zip(instances, forward(instances, spec)):
        keep = [i for i, h in enumerate(header_list) if h not in inst.seeds]
        order = sorted(keep, key=lambda i: (-scores[i], header_list[i]))
        rankings.append([header_list[i] for i in order])
    return _report({"map": mean_average_precision(rankings, [i.golds for i in instances])}, instances)


def eval_schema_baseline(index: CorpusIndex, packs, instances, token_vocab):
    rankings = []
    for inst in instances:
        query = [token_vocab.strings[int(i)] for i in packs[inst.pack].indexed.caption_ids]
        rankings.append([h for h, _ in index.suggest_headers(query, inst.seeds)])
    return _report({"map": mean_average_precision(rankings, [i.golds for i in instances])}, instances)


# ---------------------------------------------------------------------------
# the task table


@dataclass(frozen=True)
class Task:
    """A task as a run drives it; each step reads the run's namespace `r`.
    `reads` names the optional flags its model's steps read; a baseline is
    (the flags it reads, r -> report body)."""

    build: Callable  # r -> (instances, labels); r.labels None derives the labels
    evaluate: Callable  # (r, instances) -> report body
    head: Callable | None = None  # (d_model, labels, rng, dtype) -> head
    train: Callable | None = None  # (r, instances) -> epoch losses; None scores the pre-trained model
    reads: tuple[str, ...] = ()
    baselines: dict = field(default_factory=dict)
    epochs: str = "finetune_epochs"  # the config key of its fine-tuning epochs


def _schema_data(r):
    labels = header_vocabulary(r.packs, r.cfg.sa_min_header_tables) if r.labels is None else r.labels
    if r.labels is None and not labels:
        raise ConfigError("no headers clear sa_min_header_tables; lower the threshold")
    return build_schema_data(r.packs, labels, r.cfg.seed_cells), labels


def _votes(r):
    instances, relation_list = build_relation_data(r.packs, r.entity_vocab, r.side())
    return eval_relations_votes(instances, r.entity_vocab, r.side(), relation_list, r.cfg.re_vote_threshold)


def _fill_baseline(mode):
    return lambda r: eval_cell_filling_baseline(r.index(), r.packs, build_fill_data(r.packs, r.index()), mode)


def _caption(r):
    instances = build_schema_data(r.packs, header_vocabulary(r.packs, min_tables=1), r.cfg.seed_cells)
    return eval_schema_baseline(r.index(), r.packs, instances, r.token_vocab)


TASKS = {
    "linking": Task(
        build=lambda r: (
            build_linking_data(r.packs, r.side(), require_gold=r.training),
            sorted({t for e in r.side().kb.values() for t in e.types}) if r.labels is None else r.labels,
        ),
        evaluate=lambda r, inst: eval_linking(
            r.model, r.head, r.packs, inst, r.side(), r.token_vocab, TOKENIZER,
            reweight=r.args.reweight, alpha=r.cfg.el_reweight_alpha, use_description=not r.args.no_description,
        ),
        head=LinkingHead,
        train=lambda r, inst: train_linking(r.model, r.head, r.packs, inst, r.side(), r.token_vocab, TOKENIZER, r.settings),
        reads=("--side", "--reweight", "--no-description"),
        baselines={"lookup": (("--side",), lambda r: eval_linking_lookup(build_linking_data(r.packs, r.side(), False)))},
    ),
    "coltype": Task(
        build=lambda r: build_column_type_data(r.packs, r.entity_vocab, r.side(), r.labels),
        evaluate=lambda r, inst: eval_column_types(r.model, r.head, r.packs, inst),
        head=lambda d_model, labels, rng, dtype: ColumnTypeHead(d_model, len(labels), rng, dtype),
        train=lambda r, inst: train_column_types(r.model, r.head, r.packs, inst, r.settings, len(r.labels)),
        reads=("--side",),
    ),
    "relations": Task(
        build=lambda r: build_relation_data(r.packs, r.entity_vocab, r.side(), r.labels),
        evaluate=lambda r, inst: eval_relations(r.model, r.head, r.packs, inst),
        head=lambda d_model, labels, rng, dtype: RelationHead(d_model, len(labels), rng, dtype),
        train=lambda r, inst: train_relations(r.model, r.head, r.packs, inst, r.settings, len(r.labels)),
        reads=("--side",),
        baselines={"votes": (("--side",), _votes)},
    ),
    "rowpop": Task(
        build=lambda r: (
            build_row_population_data(r.packs, r.index(), r.token_vocab, r.cfg.seed_cells, r.cfg.rp_retrieval_k), []
        ),
        evaluate=lambda r, inst: eval_row_population(r.model, r.packs, inst, r.cfg.max_len),
        train=lambda r, inst: train_row_population(r.model, r.packs, inst, r.settings, r.cfg.max_len),
        reads=("--seeds",),
    ),
    "fill": Task(
        build=lambda r: (build_fill_data(r.packs, r.index()), []),
        evaluate=lambda r, inst: eval_cell_filling(r.model, r.packs, inst),
        baselines={"exact": ((), _fill_baseline("exact")), "pair": ((), _fill_baseline("pair"))},
    ),
    "schema": Task(
        build=_schema_data,
        evaluate=lambda r, inst: eval_schema(r.model, r.head, r.packs, inst, r.labels, r.token_vocab, r.cfg.max_len),
        head=lambda d_model, labels, rng, dtype: SchemaHead(d_model, len(labels), rng, dtype),
        train=lambda r, inst: train_schema(r.model, r.head, r.packs, inst, r.labels, r.token_vocab, r.settings, r.cfg.max_len),
        reads=("--seeds",),
        baselines={"caption": (("--seeds",), _caption)},  # ranks every header of the split, however rare
        epochs="sa_epochs",
    ),
}
