import json

import numpy as np
from hypothesis import strategies as st

from tabrep.corpus import IndexedCell, IndexedTable


def make_indexed_table(
    rng: np.random.Generator,
    n_rows: int,
    n_cols: int,
    n_tokens: int = 40,
    n_entities: int = 30,
    caption_len: int = 3,
    with_topic: bool = False,
    cell_density: float = 1.0,
    subject_col: int | None = 0,
    table_id: str = "t",
) -> IndexedTable:
    """Random but well-formed table for encoder and masking tests."""
    def ids(k):
        return rng.integers(4, n_tokens, size=k).astype(np.int64)

    cells = []
    for r in range(n_rows):
        for c in range(n_cols):
            if rng.random() > cell_density:
                continue
            cells.append(
                IndexedCell(
                    row=r,
                    col=c,
                    entity_id=int(rng.integers(3, n_entities)),
                    mention_ids=ids(int(rng.integers(1, 4))),
                )
            )
    topic = (int(rng.integers(3, n_entities)), ids(2)) if with_topic else None
    return IndexedTable(
        table_id=table_id,
        caption_ids=ids(caption_len),
        header_ids=[ids(int(rng.integers(1, 3))) for _ in range(n_cols)],
        headers_norm=[f"h{c}" for c in range(n_cols)],
        n_rows=n_rows,
        n_cols=n_cols,
        cells=cells,
        topic=topic,
        subject_col=subject_col,
    )


# -- mutated JSONL files for the loader fuzz tests ---------------------------

# text of any code point, lone surrogates too: json.dumps writes those as
# \ud800-style escapes, which decode into a str no UTF-8 file can hold
_TEXT = st.text(st.characters(blacklist_categories=()) | st.just("\udc80"), max_size=3)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=True) | _TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_TEXT, kids, max_size=3),
    max_leaves=8,
)
# raw fragments spliced into the text: escapes of a lone surrogate and a
# NUL, numbers JSON decodes into inf or nan, unclosed brackets and bare
# separators
_FRAGMENTS = st.sampled_from(['"\\ud800"', '"\\u0000"', "1e400", "NaN", "-Infinity", "[[[", '{"', "}", ",", '"', "\n"])


@st.composite
def mutated_jsonl(draw, records):
    """JSONL text of `records` with up to four mutations: a value anywhere in
    a record replaced by any JSON value, a key or element dropped, a record
    repeated, a fragment spliced into the text or a span of it cut out."""
    records = list(records)
    edits = draw(st.lists(st.sampled_from(["replace", "drop", "repeat", "splice", "cut"]), max_size=4))
    for kind in (k for k in edits if k in ("replace", "drop", "repeat") and records):
        at = draw(st.integers(0, len(records) - 1))
        if kind == "repeat":
            records.insert(at, records[at])
        else:
            records[at] = _edit_node(draw, records[at], kind, draw(_JSON_VALUES))
    text = "".join(json.dumps(r) + "\n" for r in records)
    for kind in (k for k in edits if k in ("splice", "cut")):
        at = draw(st.integers(0, len(text)))
        piece = draw(_FRAGMENTS | st.text(max_size=3)) if kind == "splice" else ""
        text = text[:at] + piece + text[at + (draw(st.integers(1, 8)) if kind == "cut" else 0):]
    return text


def _edit_node(draw, node, kind, value):
    # walk down a random path; replace the node reached, or drop one of its parts
    keys = list(node) if isinstance(node, dict) else list(range(len(node))) if isinstance(node, list) else []
    if keys and draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        node = dict(node) if isinstance(node, dict) else list(node)
        if kind == "drop" and draw(st.booleans()):
            del node[key]
        else:
            node[key] = _edit_node(draw, node[key], kind, value)
        return node
    return value
