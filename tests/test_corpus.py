"""Corpus pipeline: tokenization, cleaning, filters, splits, vocabularies."""

import json
import os
import tempfile
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabrep import corpus as C
from tabrep.errors import BadTableError, ConfigError, TabrepError
from tabrep.store import load_config
from tabrep.synth import make_corpus

from conftest import mutated_jsonl


def raw(table_id="t1", headers=("Name", "Year"), rows=(), **kw):
    obj = {
        "table_id": table_id,
        "page_title": kw.get("page_title", "Some Page"),
        "section_title": kw.get("section_title", ""),
        "caption": kw.get("caption", "a caption"),
        "headers": list(headers),
        "rows": [list(r) for r in rows],
    }
    if "page_entity" in kw:
        obj["page_entity"] = kw["page_entity"]
    return C.parse_raw(obj)


def linked(text, entity):
    return {"text": text, "entity": entity}


# -- tokenizer -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expect",
    [
        ("Hello, World!", ["hello", "world"]),
        ("  spaced\tout\n", ["spaced", "out"]),
        ("his 2nd film (1967)", ["his", "2nd", "film", "1967"]),
        ("l'ecole", ["l", "ecole"]),
        ("", []),
        ("...", []),
        ("EMI/Virgin", ["emi", "virgin"]),
    ],
)
def test_word_tokenizer(text, expect):
    assert C.WordTokenizer().tokenize(text) == expect


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=40))
def test_tokenizer_output_is_clean(text):
    for tok in C.WordTokenizer().tokenize(text):
        assert tok == tok.lower()
        assert " " not in tok and tok != ""


def per_character_tokens(text):
    """The tokenizer's rule, one character at a time: whitespace and Unicode
    punctuation (category P*) split, every other character joins."""
    out, cur = [], []
    for ch in text.lower():
        if ch.isspace() or unicodedata.category(ch).startswith("P"):
            if cur:
                out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def test_tokenizer_matches_the_per_character_rule_on_every_bmp_code_point():
    text = "a".join(chr(c) for c in range(0x10000) if not 0xD800 <= c <= 0xDFFF)
    assert C.WordTokenizer().tokenize(text) == per_character_tokens(text)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_tokenizer_matches_the_per_character_rule(text):
    assert C.WordTokenizer().tokenize(text) == per_character_tokens(text)


def test_normalize_header():
    assert C.normalize_header("Home  Town!") == "home town"


# -- cleaning ---------------------------------------------------------------------


def test_illegal_headers_dropped():
    rt = raw(
        headers=("Player", "Notes", "", "2019"),
        rows=[[linked("ann", "e1"), "x", "y", "z"]],
    )
    pt = C.process_table(rt)
    assert pt.headers == ["Player"]
    assert all(c.col == 0 for c in pt.cells)


def test_note_comment_reference_are_illegal():
    for h in ("note", "Comment", "REFERENCE"):
        rt = raw(headers=(h,), rows=[["x"]])
        with pytest.raises(BadTableError):
            C.process_table(rt)


def test_ragged_rows_dropped():
    rt = raw(headers=("A", "B"), rows=[["x"], ["x", "y"], ["x", "y", "z"]])
    pt = C.process_table(rt)
    assert pt.n_rows == 1


def test_mention_falls_back_to_entity_ref():
    rt = raw(rows=[[linked("", "some_ref"), "1990"]])
    pt = C.process_table(rt)
    cell = pt.linked_cells()[0]
    assert cell.mention_tokens == ["some", "ref"]


def test_caption_concatenates_page_section_caption():
    rt = raw(page_title="List of Films", section_title="Early work", caption="as director")
    pt = C.process_table(rt)
    assert pt.caption_tokens == ["list", "of", "films", "early", "work", "as", "director"]


def test_topic_entity_mention_fallback_chain():
    rt = raw(page_entity={"entity": "ref_1", "text": ""}, page_title="The Page", rows=[])
    pt = C.process_table(rt)
    assert pt.topic == ("ref_1", ["the", "page"])


def test_parse_rejects_malformed_records():
    with pytest.raises(BadTableError):
        C.parse_raw({"headers": ["A"], "rows": []})
    with pytest.raises(BadTableError):
        C.parse_raw({"table_id": "x", "headers": [], "rows": []})
    with pytest.raises(BadTableError):
        C.parse_raw({"table_id": "x", "headers": ["A"], "rows": [[3]]})
    for meta in ({"caption": ["a"]}, {"page_title": 3}, {"page_entity": {"entity": "q", "text": 5}}):
        with pytest.raises(BadTableError):
            C.parse_raw({"table_id": "x", "headers": ["A"], "rows": [], **meta})


def test_null_metadata_reads_as_empty():
    rt = C.parse_raw({"table_id": "x", "headers": ["A"], "rows": [], "caption": None, "page_title": None})
    assert (rt.page_title, rt.section_title, rt.caption) == ("", "", "")


# -- subject detection ---------------------------------------------------------------


def test_subject_prefers_leftmost_distinct_column():
    cells = [
        C.ProcCell(0, 0, "a", "e1"),
        C.ProcCell(1, 0, "b", "e2"),
        C.ProcCell(0, 1, "c", "e3"),
        C.ProcCell(1, 1, "d", "e4"),
    ]
    assert C.detect_subject(2, cells) == 0


def test_subject_skips_column_with_repeats():
    cells = [
        C.ProcCell(0, 0, "a", "e1"),
        C.ProcCell(1, 0, "b", "e1"),  # repeated entity
        C.ProcCell(0, 1, "c", "e3"),
        C.ProcCell(1, 1, "d", "e4"),
    ]
    assert C.detect_subject(2, cells) == 1


def test_subject_never_past_second_column():
    cells = [C.ProcCell(0, 2, "a", "e1"), C.ProcCell(1, 2, "b", "e2")]
    assert C.detect_subject(3, cells) is None


# -- filters and partition -------------------------------------------------------------


def _table_with_links(n_rows, n_entity_cols, extra_cols=0, distinct_subject=True):
    headers = [f"col {i}" for i in range(n_entity_cols + extra_cols)]
    rows = []
    for r in range(n_rows):
        row = []
        for c in range(n_entity_cols):
            ref = f"e{r}_{c}" if distinct_subject or c > 0 else "same"
            row.append(linked(f"m{r}{c}", ref))
        row.extend("plain" for _ in range(extra_cols))
        rows.append(row)
    return C.process_table(raw(table_id=f"gen{n_rows}x{n_entity_cols}", headers=headers, rows=rows))


def test_pretrain_filter():
    assert C.pretrain_ok(_table_with_links(3, 1))
    assert not C.pretrain_ok(_table_with_links(2, 1))  # two links only
    wide = _table_with_links(3, 2, extra_cols=25)
    assert not C.pretrain_ok(wide)


def test_eval_filter_needs_rows_columns_and_coverage():
    assert C.eval_ok(_table_with_links(5, 3))
    assert not C.eval_ok(_table_with_links(4, 3))  # 4 subject links is not enough
    assert not C.eval_ok(_table_with_links(5, 2))  # needs 3 entity columns


def test_partition_is_deterministic_and_disjoint():
    tables = [_table_with_links(5, 3) for _ in range(6)] + [_table_with_links(3, 1) for _ in range(4)]
    for i, t in enumerate(tables):
        t.table_id = f"t{i}"
    s1 = C.partition(tables, seed=9)
    s2 = C.partition(tables, seed=9)
    assert [t.table_id for t in s1["valid"]] == [t.table_id for t in s2["valid"]]
    ids = [t.table_id for split in s1.values() for t in split]
    assert len(ids) == len(set(ids)) == 10
    assert len(s1["valid"]) == 3 and len(s1["test"]) == 3
    assert all(not C.eval_ok(t) for t in s1["train"])


# -- vocabulary ------------------------------------------------------------------------


def test_vocab_build_order_and_min_count():
    from collections import Counter

    counter = Counter({"b": 5, "a": 5, "c": 1, "d": 2})
    v = C.build_vocab(counter, C.TOKEN_RESERVED, min_count=2)
    assert v.strings[v.n_reserved :] == ["a", "b", "d"]  # count desc, then string
    assert v.get("c") is None
    assert v.ids(["c", "a"]).tolist() == [C.UNK_ID, v.get("a")]


def test_vocab_tsv_round_trip(tmp_path):
    from collections import Counter

    v = C.build_vocab(Counter({"alpha": 3, "beta": 1}), C.TOKEN_RESERVED)
    path = tmp_path / "vocab.tsv"
    v.save(path)
    v2 = C.Vocab.load(path, C.TOKEN_RESERVED)
    assert v2.strings == v.strings and v2.counts == v.counts


def test_vocab_load_rejects_bad_lines(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("0\t<pad>\t0\nnot a vocab line\n")
    with pytest.raises(ConfigError, match="bad vocab line 2$"):
        C.Vocab.load(path, C.TOKEN_RESERVED)


def test_non_utf8_input_names_the_file(tmp_path):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe{}\n")
    for load in (lambda: C.Vocab.load(path, C.TOKEN_RESERVED), lambda: C.read_jsonl(path), lambda: load_config(path)):
        with pytest.raises(ConfigError, match="input: not UTF-8"):
            load()


def test_a_lone_surrogate_escape_names_the_file_and_line(tmp_path):
    # "\ud800" is valid JSON syntax but decodes to a str that no UTF-8 file,
    # such as preprocess's split files, can hold; a surrogate pair is text
    path = tmp_path / "raw.jsonl"
    good = json.dumps({"table_id": "ok", "headers": ["Name"], "rows": [[{"text": "ann \U0001f600", "entity": "e1"}]]})
    path.write_text(good + "\n" + good.replace("ann", "ann \\ud800") + "\n")
    assert "\\ud83d\\ude00" in good
    with pytest.raises(ConfigError, match="raw.jsonl: line 2 escapes a lone surrogate"):
        C.load_raw_tables(path)
    path.write_text(good + "\n")
    assert [t.table_id for t in C.load_raw_tables(path)[0]] == ["ok"]


@settings(max_examples=150, deadline=None)
@given(
    st.binary(max_size=80)
    | st.text(max_size=80).map(str.encode)
    | st.text(alphabet="0123456789-x<>\t\n {}[]\":,", max_size=80).map(str.encode)
)
def test_text_loaders_give_a_value_or_a_typed_error(data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        loaders = (lambda: C.Vocab.load(path, C.TOKEN_RESERVED), lambda: C.read_jsonl(path), lambda: load_config(path))
        for load in loaders:
            try:
                load()
            except TabrepError:
                pass


_VOCAB_STRINGS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"), max_size=4)


@st.composite
def _vocab_texts(draw):
    """Vocab TSV text: the rows of a well-formed vocabulary, with up to three rows replaced by a row of any
    id, string and count, or by a junk line, dropped or repeated."""
    strings = draw(st.lists(_VOCAB_STRINGS.filter(lambda x: x not in C.TOKEN_RESERVED), unique=True, max_size=5))
    lines = [f"{i}\t{x}\t{i % 3}" for i, x in enumerate([*C.TOKEN_RESERVED, *strings])]
    number = st.integers(-2, 12).map(str) | st.sampled_from(["", "x", "1.5", "٣", " 4", "9" * 30])
    row = st.tuples(number, st.sampled_from(C.TOKEN_RESERVED) | _VOCAB_STRINGS, number).map("\t".join)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if kind == "replace" or not lines:
            lines[at:at + 1] = [draw(row | _VOCAB_STRINGS)]
        elif kind == "drop":
            del lines[at:at + 1]
        else:
            lines.insert(at, lines[at % len(lines)])
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=300, deadline=None)
@given(_vocab_texts())
def test_vocab_file_gives_a_dense_vocabulary_or_a_typed_error(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "vocab.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            vocab = C.Vocab.load(path, C.TOKEN_RESERVED)
        except TabrepError:
            return
    assert vocab.strings[: vocab.n_reserved] == list(C.TOKEN_RESERVED) and len(vocab.counts) == len(vocab)
    assert all(vocab.get(x) == i for i, x in enumerate(vocab.strings) if i >= vocab.n_reserved)
    assert all(type(c) is int for c in vocab.counts)


def test_entity_vocab_min_count_two():
    t1 = _table_with_links(3, 1)
    tables = [t1, t1]  # every entity appears twice
    _, ev = C.build_vocabs(tables)
    assert len(ev) > len(C.ENTITY_RESERVED)
    _, ev_single = C.build_vocabs([t1])
    assert len(ev_single) == len(C.ENTITY_RESERVED)


def test_index_table_drops_oov_entities():
    pt = _table_with_links(3, 2)
    tv, ev = C.build_vocabs([pt, pt])
    it = C.index_table(pt, tv, ev)
    assert len(it.cells) == len(pt.linked_cells())

    lonely = _table_with_links(3, 1)
    lonely.cells[0].entity = "never_seen"
    it2 = C.index_table(lonely, tv, ev)
    refs = {c.entity_id for c in it2.cells}
    assert C.UNK_ID not in refs  # dropped, not mapped to unk


def test_reserved_names_in_raw_text_never_reach_a_reserved_id():
    # a 3-row table whose cell entity is "<mask>": the cell is unlinked, never
    # the reserved mask row (which build_candidates drops from every pool)
    rt = raw(
        headers=("Player", "Team"),
        caption="<sep> roster",
        rows=[
            [linked("ann", "e1"), linked("<mask>", "<mask>")],
            [linked("bob", "e2"), linked("reds <pad>", "t2")],
            [linked("cy", "e3"), linked("blues", "<unk>")],
        ],
    )
    pt = C.process_table(rt)
    assert any(c.entity == "<mask>" for c in pt.cells)
    tv, ev = C.build_vocabs([pt, pt])
    for name in C.ENTITY_RESERVED:
        assert ev.get(name) is None
    assert tv.ids(["<pad>", "<mask>", "<unk>", "<sep>", "reds"]).tolist() == [C.UNK_ID] * 4 + [tv.get("reds")]
    it = C.index_table(pt, tv, ev)
    assert sorted(c.entity_id for c in it.cells) == sorted(ev.get(e) for e in ("e1", "e2", "e3", "t2"))
    ids = np.concatenate([it.caption_ids, *it.header_ids, *(c.mention_ids for c in it.cells)])
    # "<sep>" in the caption and "<pad>" in a kept mention
    assert not np.isin(ids, [C.PAD_ID, C.MASK_ID, C.SEP_ID]).any() and (ids == C.UNK_ID).sum() == 2


def test_processed_json_round_trip():
    pt = _table_with_links(3, 2)
    pt.topic = ("topic_ref", ["the", "topic"])
    back = C.processed_from_json(C.processed_to_json(pt))
    assert back.table_id == pt.table_id
    assert back.caption_tokens == pt.caption_tokens
    assert back.subject_col == pt.subject_col
    assert back.topic == pt.topic
    assert len(back.cells) == len(pt.cells)
    assert back.cells[0].mention_tokens == pt.cells[0].mention_tokens


_KEYS = st.sampled_from(["cells", "row", "col", "entity", "topic", "headers"]) | st.text(max_size=2)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=True) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=12,
)


def _with_one_field_replaced(data, value):
    """A valid processed record with one field, of the table, a cell or the
    topic, replaced by an arbitrary JSON value."""
    rec = C.processed_to_json(_table_with_links(3, 2))
    rec["topic"] = {"entity": "t", "mention_tokens": ["t"]}
    owner = data.draw(st.sampled_from([rec, rec["cells"][0], rec["topic"]]))
    owner[data.draw(st.sampled_from(sorted(owner)))] = value
    return rec


@settings(max_examples=300, deadline=None)
@given(st.data(), _JSON, st.booleans())
def test_processed_from_json_gives_a_table_or_a_typed_error(data, value, inside_a_record):
    obj = _with_one_field_replaced(data, value) if inside_a_record else value
    try:
        pt = C.processed_from_json(obj)
    except TabrepError:
        return
    assert isinstance(pt, C.ProcessedTable)
    assert all(0 <= c.row < pt.n_rows and 0 <= c.col < pt.n_cols for c in pt.cells)


@settings(max_examples=300, deadline=None)
@given(st.data(), _JSON, st.booleans())
def test_raw_record_gives_a_table_or_a_typed_error(data, value, inside_a_record):
    obj = value
    if inside_a_record:
        obj = {
            "table_id": "t",
            "page_title": "p",
            "section_title": "s",
            "caption": "c",
            "headers": ["Name", "Team"],
            "rows": [[linked("ann", "e1"), "x"]],
            "page_entity": {"entity": "q", "text": "t"},
        }
        owner = data.draw(st.sampled_from([obj, obj["page_entity"], obj["rows"][0][0]]))
        owner[data.draw(st.sampled_from(sorted(owner)))] = value
    try:
        pt = C.process_table(C.parse_raw(obj))
    except BadTableError:
        return
    assert isinstance(pt, C.ProcessedTable)


def test_load_processed_names_the_file_and_line(tmp_path):
    path = tmp_path / "train.jsonl"
    good = json.dumps(C.processed_to_json(_table_with_links(3, 1)))
    for bad in ("{}", "[]", "3"):
        path.write_text(good + "\n\n" + bad + "\n")
        with pytest.raises(ConfigError, match="train.jsonl: line 3"):
            C.load_processed(path)
    path.write_text(good + "\n")
    assert [t.table_id for t in C.load_processed(path)] == ["gen3x1"]


def test_load_raw_tables_skips_bad_records(tmp_path):
    path = tmp_path / "raw.jsonl"
    good = {
        "table_id": "ok",
        "headers": ["Name"],
        "rows": [[{"text": "ann", "entity": "e1"}]],
        "caption": "c",
    }
    bad = {"table_id": "bad", "headers": [], "rows": []}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    tables, skipped = C.load_raw_tables(path)
    assert [t.table_id for t in tables] == ["ok"]
    assert skipped and skipped[0][0] == "bad"


@settings(max_examples=300, deadline=None)
@given(mutated_jsonl(make_corpus(3, 3, "tasks")[0]))
def test_raw_corpus_file_gives_a_table_or_a_skip_per_record_or_a_typed_error(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "raw.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            tables, skipped = C.load_raw_tables(path)
        except (TabrepError, OSError):
            return
        with open(path, encoding="utf-8") as fh:
            n_records = sum(1 for line in fh.read().split("\n") if line.strip())
    assert len(tables) + len(skipped) == n_records
    assert all(isinstance(table_id, str) and isinstance(why, str) for table_id, why in skipped)
    for pt in tables:
        assert isinstance(pt, C.ProcessedTable)
        assert all(0 <= c.row < pt.n_rows and 0 <= c.col < pt.n_cols for c in pt.cells)
        json.dumps(C.processed_to_json(pt), ensure_ascii=False).encode("utf-8")  # preprocess can write it
