"""Table corpus handling: raw JSON tables in, processed splits and vocabs out.

A raw table arrives as one JSON object per line:

    {"table_id": "t1",
     "page_title": "...", "section_title": "...", "caption": "...",
     "headers": ["Year", "Film", ...],
     "rows": [[{"text": "Chiriyakhana", "entity": "Q1"}, "1967"], ...],
     "page_entity": {"entity": "Q7", "text": "..."}}       # optional

Cells are either plain strings or {"text": ..., "entity": ...} objects. The
pipeline lowercases and tokenizes metadata, drops malformed rows and unusable
header columns, finds the subject column, filters and partitions tables, and
builds token/entity vocabularies from the training split.
"""

from __future__ import annotations

import json
import os
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import BadTableError, ConfigError

# Reserved vocabulary rows. Both vocabularies share the low ids so masking
# code never needs to branch on stream type.
PAD_ID = 0
MASK_ID = 1
UNK_ID = 2
SEP_ID = 3
TOKEN_RESERVED = ("<pad>", "<mask>", "<unk>", "<sep>")
ENTITY_RESERVED = ("<pad>", "<mask>", "<unk>")

# Header strings that never carry schema meaning.
ILLEGAL_HEADERS = frozenset({"note", "notes", "comment", "comments", "reference", "references"})


class _PunctToSpace(dict):
    """`str.translate` table: Unicode punctuation (category P*) to a space,
    every other code point to itself, each decided once on first sight."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        out = self[code] = " " if unicodedata.category(ch).startswith("P") else ch
        return out


_PUNCT_TO_SPACE = _PunctToSpace()


class WordTokenizer:
    """Lowercase, split on whitespace and Unicode punctuation. Digits survive.

    Punctuation becomes a space and `str.split()` splits at exactly the
    `str.isspace()` characters, so a token is a maximal run of lowercased
    characters that are neither whitespace nor in a `P*` category.
    """

    def tokenize(self, text: str) -> list[str]:
        return text.lower().translate(_PUNCT_TO_SPACE).split()


TOKENIZER = WordTokenizer()  # every corpus text is tokenized by this one


def normalize_header(text: str) -> str:
    """Canonical header key: lowercased tokens joined by single spaces."""
    return " ".join(TOKENIZER.tokenize(text))


# ---------------------------------------------------------------------------
# record types


@dataclass
class RawCell:
    text: str
    entity: Optional[str] = None


@dataclass
class RawTable:
    table_id: str
    page_title: str
    section_title: str
    caption: str
    headers: list[str]
    rows: list[list[RawCell]]
    page_entity: Optional[tuple[str, str]] = None  # (entity ref, display text)


@dataclass
class ProcCell:
    row: int
    col: int
    text: str
    entity: Optional[str] = None
    mention_tokens: list[str] = field(default_factory=list)


@dataclass
class ProcessedTable:
    """Cleaned table with tokenized metadata and resolved cell links."""

    table_id: str
    caption_tokens: list[str]
    headers: list[str]
    header_tokens: list[list[str]]
    n_rows: int
    cells: list[ProcCell]
    topic: Optional[tuple[str, list[str]]] = None
    subject_col: Optional[int] = None

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    def linked_cells(self) -> list[ProcCell]:
        return [c for c in self.cells if c.entity is not None]


@dataclass
class IndexedCell:
    row: int
    col: int
    entity_id: int
    mention_ids: np.ndarray


@dataclass
class IndexedTable:
    """ProcessedTable with vocabulary ids resolved; what the encoder consumes."""

    table_id: str
    caption_ids: np.ndarray
    header_ids: list[np.ndarray]
    headers_norm: list[str]
    n_rows: int
    n_cols: int
    cells: list[IndexedCell]
    topic: Optional[tuple[int, np.ndarray]] = None
    subject_col: Optional[int] = None

    def entity_ids(self) -> np.ndarray:
        ids = [c.entity_id for c in self.cells]
        if self.topic is not None:
            ids.append(self.topic[0])
        return np.array(sorted(set(ids)), dtype=np.int64)

    def subject_cells(self) -> list[IndexedCell]:
        if self.subject_col is None:
            return []
        return [c for c in self.cells if c.col == self.subject_col]

    def subject_by_row(self) -> dict[int, int]:
        """Entity id of each row's subject cell, for the rows that have one."""
        return {c.row: c.entity_id for c in self.subject_cells()}


# ---------------------------------------------------------------------------
# vocabulary


class Vocab:
    """Append-only string table with counts; ids are dense from zero."""

    def __init__(self, reserved: tuple[str, ...]):
        self.strings: list[str] = list(reserved)
        self.counts: list[int] = [0] * len(reserved)
        # lookups see only the non-reserved strings, so raw text that reads
        # "<mask>" or "<pad>" never reaches a reserved id
        self._index: dict[str, int] = {}
        self.n_reserved = len(reserved)

    def __len__(self) -> int:
        return len(self.strings)

    def add(self, s: str, count: int) -> int:
        if s in self._index or s in self.strings[: self.n_reserved]:
            raise ConfigError(f"duplicate vocab entry {s!r}")
        self.strings.append(s)
        self.counts.append(count)
        self._index[s] = len(self.strings) - 1
        return self._index[s]

    def get(self, s: str) -> Optional[int]:
        """Id of a string; None when it is not in the vocabulary or is a reserved name."""
        return self._index.get(s)

    def ids(self, strings: Iterable[str]) -> np.ndarray:
        """int64 ids of strings; a string not in the vocabulary, or a reserved
        name, maps to UNK_ID."""
        return np.array([self._index.get(s, UNK_ID) for s in strings], dtype=np.int64)

    def save(self, path) -> None:
        write_file(path, (f"{i}\t{s}\t{c}\n" for i, (s, c) in enumerate(zip(self.strings, self.counts))))

    @classmethod
    def load(cls, path, reserved: tuple[str, ...]) -> "Vocab":
        vocab = cls(reserved)
        for line_no, line in enumerate(read_text(path).split("\n"), 1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ConfigError(f"{path}: bad vocab line {line_no}")
            try:
                idx, s, count = int(parts[0]), parts[1], int(parts[2])
            except ValueError:
                raise ConfigError(f"{path}: non-integer id or count at line {line_no}") from None
            if idx < 0:
                raise ConfigError(f"{path}: negative id {idx} at line {line_no}")
            if idx < vocab.n_reserved:
                if s != vocab.strings[idx]:
                    raise ConfigError(f"{path}: reserved row {idx} is {s!r}")
                continue
            got = vocab.add(s, count)
            if got != idx:
                raise ConfigError(f"{path}: non-dense id {idx} at line {line_no}")
        return vocab


def build_vocab(counter: Counter, reserved: tuple[str, ...], min_count: int = 1) -> Vocab:
    """Deterministic vocabulary: sorted by descending count, then string."""
    vocab = Vocab(reserved)
    for s, c in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])):
        if c >= min_count and s not in reserved:
            vocab.add(s, c)
    return vocab


# ---------------------------------------------------------------------------
# parsing and cleaning


def _parse_cell(obj) -> RawCell:
    if isinstance(obj, str):
        return RawCell(text=obj)
    if isinstance(obj, dict):
        text = obj.get("text", "")
        entity = obj.get("entity")
        if not isinstance(text, str) or not (entity is None or isinstance(entity, str)):
            raise BadTableError(f"bad cell object {obj!r}")
        return RawCell(text=text, entity=entity)
    raise BadTableError(f"cell must be string or object, got {type(obj).__name__}")


def _meta_text(obj: dict, key: str, table_id: str) -> str:
    """A metadata string; null or absent reads as "", any other value is a BadTableError."""
    value = obj.get(key)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise BadTableError(f"{table_id}: {key} must be a string")
    return value


def parse_raw(obj: dict) -> RawTable:
    """Validate one JSON record into a RawTable."""
    if not isinstance(obj, dict):
        raise BadTableError("table record must be an object")
    table_id = obj.get("table_id")
    headers = obj.get("headers")
    rows = obj.get("rows")
    if not isinstance(table_id, str) or not table_id:
        raise BadTableError("missing table_id")
    if not isinstance(headers, list) or not headers or not all(isinstance(h, str) for h in headers):
        raise BadTableError(f"{table_id}: headers must be a non-empty string list")
    if not isinstance(rows, list):
        raise BadTableError(f"{table_id}: rows must be a list")
    parsed_rows = []
    for r in rows:
        if not isinstance(r, list):
            raise BadTableError(f"{table_id}: row must be a list")
        parsed_rows.append([_parse_cell(c) for c in r])
    pe = obj.get("page_entity")
    page_entity = None
    if pe is not None:
        if not isinstance(pe, dict) or not isinstance(pe.get("entity"), str):
            raise BadTableError(f"{table_id}: bad page_entity")
        page_entity = (pe["entity"], _meta_text(pe, "text", table_id))
    return RawTable(
        table_id=table_id,
        page_title=_meta_text(obj, "page_title", table_id),
        section_title=_meta_text(obj, "section_title", table_id),
        caption=_meta_text(obj, "caption", table_id),
        headers=headers,
        rows=parsed_rows,
        page_entity=page_entity,
    )


def _header_legal(header: str) -> bool:
    norm = normalize_header(header)
    if not norm:
        return False
    if norm.replace(" ", "").isdigit():
        return False
    return norm not in ILLEGAL_HEADERS


def detect_subject(n_cols: int, cells: list[ProcCell]) -> Optional[int]:
    """Leftmost of the first two columns whose linked entities are all distinct."""
    by_col: dict[int, list[str]] = {}
    for c in cells:
        if c.entity is not None:
            by_col.setdefault(c.col, []).append(c.entity)
    for col in (0, 1):
        if col >= n_cols:
            break
        ents = by_col.get(col, [])
        if ents and len(set(ents)) == len(ents):
            return col
    return None


def process_table(raw: RawTable) -> ProcessedTable:
    """Clean one raw table. Raises BadTableError when nothing usable remains."""
    tokenize = TOKENIZER.tokenize
    keep_cols = [i for i, h in enumerate(raw.headers) if _header_legal(h)]
    if not keep_cols:
        raise BadTableError(f"{raw.table_id}: no usable header columns")

    # Rows must match the original header width; shorter or longer rows are
    # dropped rather than padded.
    width = len(raw.headers)
    rows = [r for r in raw.rows if len(r) == width]

    cells: list[ProcCell] = []
    for ri, row in enumerate(rows):
        for new_ci, old_ci in enumerate(keep_cols):
            rc = row[old_ci]
            entity = rc.entity
            mention: list[str] = []
            if entity is not None:
                mention = tokenize(rc.text)
                if not mention:
                    mention = tokenize(entity)
                if not mention:
                    entity = None  # no surface form at all: treat as unlinked
                    mention = []
            cells.append(ProcCell(row=ri, col=new_ci, text=rc.text, entity=entity, mention_tokens=mention))

    caption_tokens = (
        tokenize(raw.page_title)
        + tokenize(raw.section_title)
        + tokenize(raw.caption)
    )

    topic = None
    if raw.page_entity is not None:
        ref, text = raw.page_entity
        mention = tokenize(text) or tokenize(raw.page_title) or tokenize(ref)
        if mention:
            topic = (ref, mention)

    headers = [raw.headers[i] for i in keep_cols]
    pt = ProcessedTable(
        table_id=raw.table_id,
        caption_tokens=caption_tokens,
        headers=headers,
        header_tokens=[tokenize(h) for h in headers],
        n_rows=len(rows),
        cells=cells,
        topic=topic,
    )
    pt.subject_col = detect_subject(pt.n_cols, pt.cells)
    return pt


# ---------------------------------------------------------------------------
# filters and partition


def pretrain_ok(pt: ProcessedTable, max_cols: int = 20) -> bool:
    """Keep tables that can support masked pre-training."""
    if pt.subject_col is None or pt.n_cols > max_cols:
        return False
    return len(pt.linked_cells()) >= 3


def eval_ok(pt: ProcessedTable) -> bool:
    """Stricter filter for tables usable as held-out task instances."""
    if pt.subject_col is None:
        return False
    linked = pt.linked_cells()
    subject_links = sum(1 for c in linked if c.col == pt.subject_col)
    if subject_links <= 4:
        return False
    linked_by_col: dict[int, int] = {}
    for c in linked:
        linked_by_col[c.col] = linked_by_col.get(c.col, 0) + 1
    entity_cols = sorted(linked_by_col)
    if len(entity_cols) < 3:
        return False
    total_cells = pt.n_rows * len(entity_cols)
    total_linked = sum(linked_by_col[c] for c in entity_cols)
    return total_linked * 2 > total_cells


def partition(tables: list[ProcessedTable], seed: int, max_cols: int = 20) -> dict[str, list[ProcessedTable]]:
    """Split into train/valid/test.

    Evaluation-eligible tables are shuffled (seeded) and divided about 1:1
    into valid and test; they never enter train. Everything else that passes
    the pre-training filter (at most max_cols columns) goes to train.
    """
    eligible = [t for t in tables if eval_ok(t)]
    rest = [t for t in tables if not eval_ok(t) and pretrain_ok(t, max_cols)]
    order = np.random.default_rng(seed).permutation(len(eligible))
    shuffled = [eligible[i] for i in order]
    half = len(shuffled) // 2
    return {"train": rest, "valid": shuffled[:half], "test": shuffled[half:]}


# ---------------------------------------------------------------------------
# vocabulary construction and id resolution


def count_tokens(tables: Iterable[ProcessedTable]) -> Counter:
    counter: Counter = Counter()
    for t in tables:
        counter.update(t.caption_tokens)
        for toks in t.header_tokens:
            counter.update(toks)
        for c in t.cells:
            if c.entity is not None:
                counter.update(c.mention_tokens)
        if t.topic is not None:
            counter.update(t.topic[1])
    return counter


def count_entities(tables: Iterable[ProcessedTable]) -> Counter:
    counter: Counter = Counter()
    for t in tables:
        for c in t.cells:
            if c.entity is not None:
                counter[c.entity] += 1
        if t.topic is not None:
            counter[t.topic[0]] += 1
    return counter


def build_vocabs(
    train_tables: list[ProcessedTable],
    min_token_count: int = 1,
    min_entity_count: int = 2,
) -> tuple[Vocab, Vocab]:
    token_vocab = build_vocab(count_tokens(train_tables), TOKEN_RESERVED, min_token_count)
    entity_vocab = build_vocab(count_entities(train_tables), ENTITY_RESERVED, min_entity_count)
    return token_vocab, entity_vocab


def index_table(pt: ProcessedTable, token_vocab: Vocab, entity_vocab: Vocab) -> IndexedTable:
    """Resolve strings to ids. Cells whose entity fell out of vocabulary, or
    names a reserved row such as "<mask>", are treated as unlinked and
    silently dropped from the entity grid; such a token reads as UNK_ID."""

    cells = []
    for c in pt.cells:
        if c.entity is None:
            continue
        eid = entity_vocab.get(c.entity)
        if eid is None:
            continue
        cells.append(
            IndexedCell(row=c.row, col=c.col, entity_id=eid, mention_ids=token_vocab.ids(c.mention_tokens))
        )
    topic = None
    if pt.topic is not None:
        tid = entity_vocab.get(pt.topic[0])
        if tid is not None:
            topic = (tid, token_vocab.ids(pt.topic[1]))
    return IndexedTable(
        table_id=pt.table_id,
        caption_ids=token_vocab.ids(pt.caption_tokens),
        header_ids=[token_vocab.ids(toks) for toks in pt.header_tokens],
        headers_norm=[" ".join(toks) for toks in pt.header_tokens],
        n_rows=pt.n_rows,
        n_cols=pt.n_cols,
        cells=cells,
        topic=topic,
        subject_col=pt.subject_col,
    )


# ---------------------------------------------------------------------------
# serialization


def processed_to_json(pt: ProcessedTable) -> dict:
    return {
        "table_id": pt.table_id,
        "caption_tokens": pt.caption_tokens,
        "headers": pt.headers,
        "header_tokens": pt.header_tokens,
        "n_rows": pt.n_rows,
        "cells": [
            {
                "row": c.row,
                "col": c.col,
                "text": c.text,
                "entity": c.entity,
                "mention_tokens": c.mention_tokens,
            }
            for c in pt.cells
        ],
        "topic": None if pt.topic is None else {"entity": pt.topic[0], "mention_tokens": pt.topic[1]},
        "subject_col": pt.subject_col,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_strs(x) -> bool:
    return isinstance(x, list) and all(isinstance(t, str) for t in x)


def _is_str(x) -> bool:
    return isinstance(x, str)


def processed_from_json(obj) -> ProcessedTable:
    """Inverse of processed_to_json. A record of the wrong shape (a missing
    field, a wrong JSON type, a cell outside the grid) raises BadTableError
    naming the field."""

    def get(rec, name, ok, *default):
        if name not in rec and default:
            return default[0]
        if name not in rec or not ok(rec[name]):
            raise BadTableError(f"field {name!r} is missing, of the wrong type or out of range")
        return rec[name]

    if not isinstance(obj, dict):
        raise BadTableError(f"record is not a JSON object: {obj!r:.40}")
    headers = get(obj, "headers", _is_strs)

    def in_cols(x) -> bool:
        return _is_int(x) and 0 <= x < len(headers)

    header_tokens = get(
        obj, "header_tokens", lambda x: isinstance(x, list) and len(x) == len(headers) and all(map(_is_strs, x))
    )
    n_rows = get(obj, "n_rows", lambda x: _is_int(x) and x >= 0)
    cells = [
        ProcCell(
            row=get(c, "row", lambda x: _is_int(x) and 0 <= x < n_rows),
            col=get(c, "col", in_cols),
            text=get(c, "text", _is_str, ""),
            entity=get(c, "entity", lambda x: x is None or _is_str(x), None),
            mention_tokens=list(get(c, "mention_tokens", _is_strs, [])),
        )
        for c in get(obj, "cells", lambda x: isinstance(x, list) and all(isinstance(c, dict) for c in x))
    ]
    topic = get(obj, "topic", lambda x: x is None or isinstance(x, dict), None)
    if topic is not None:
        topic = (get(topic, "entity", _is_str), list(get(topic, "mention_tokens", _is_strs)))
    return ProcessedTable(
        table_id=get(obj, "table_id", _is_str),
        caption_tokens=list(get(obj, "caption_tokens", _is_strs)),
        headers=list(headers),
        header_tokens=[list(t) for t in header_tokens],
        n_rows=n_rows,
        cells=cells,
        topic=topic,
        subject_col=get(obj, "subject_col", lambda x: x is None or in_cols(x), None),
    )


def write_jsonl(path, records: Iterable[dict]) -> None:
    write_file(path, (json.dumps(rec, ensure_ascii=False) + "\n" for rec in records))


def write_file(path, chunks: Iterable[str | bytes]) -> None:
    """Write chunks, text as UTF-8, to a temp file beside path, then rename it
    over path, so a write that fails midway leaves the previous file whole.
    Every file the package writes goes through here."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_text(path) -> str:
    """A file's contents as UTF-8 text; bytes that do not decode raise ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _jsonl_lines(path):
    """(line number, JSON value) of each non-blank line; a line that is not
    JSON, or whose escapes decode to a lone surrogate (text no UTF-8 file
    can hold), raises ConfigError."""
    for line_no, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: line {line_no} is not JSON: {exc}") from None
        if "\\u" in line:
            try:
                json.dumps(value, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise ConfigError(f"{path}: line {line_no} escapes a lone surrogate, which UTF-8 cannot hold") from None
        yield line_no, value


def read_jsonl(path) -> list:
    """One JSON value per non-blank line; a line that is not JSON, or that
    escapes a lone surrogate, raises ConfigError."""
    return [value for _, value in _jsonl_lines(path)]


def load_raw_tables(path):
    """Parse and process a raw JSONL corpus.

    Returns (processed tables, skip log). Tables that fail validation or
    cleaning are skipped and recorded, not fatal. A skip names the table by
    its table_id, or by its file line ("line7") when it has no string id.
    """
    tables: list[ProcessedTable] = []
    skipped: list[tuple[str, str]] = []
    for line_no, obj in _jsonl_lines(path):
        try:
            raw = parse_raw(obj)
            tables.append(process_table(raw))
        except BadTableError as exc:
            table_id = obj.get("table_id") if isinstance(obj, dict) else None
            skipped.append((table_id if isinstance(table_id, str) and table_id else f"line{line_no}", str(exc)))
    return tables, skipped


def load_processed(path) -> list[ProcessedTable]:
    """Read a split file; a malformed record raises ConfigError naming the file and line."""
    out = []
    for line_no, obj in _jsonl_lines(path):
        try:
            out.append(processed_from_json(obj))
        except BadTableError as exc:
            raise ConfigError(f"{path}: line {line_no}: {exc}") from None
    return out


def save_processed(path, tables: Iterable[ProcessedTable]) -> None:
    write_jsonl(path, (processed_to_json(t) for t in tables))
