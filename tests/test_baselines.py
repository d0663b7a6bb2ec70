"""Lexical retrieval, corpus statistics, and vote baselines against brute
force oracles on hand-built toy tables."""

import math
from collections import Counter

import numpy as np
import pytest

from tabrep.baselines import Bm25Index, CorpusIndex, vote_relations
from tabrep.corpus import IndexedCell, IndexedTable
from tabrep.errors import ConfigError

# -- oracles, written before the assertions that use them -------------------------


def bm25_scores_oracle(docs, query, k1=1.2, b=0.75):
    """Per-document score, summing query terms in sorted order."""
    n = len(docs)
    avg = sum(len(d) for d in docs) / n if n else 0.0
    out = {}
    for doc_idx, doc in enumerate(docs):
        tfs = Counter(doc)
        score = 0.0
        for term in sorted(set(query)):
            tf = tfs.get(term, 0)
            if tf == 0:
                continue
            df = sum(1 for d in docs if term in d)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avg))
        if score:
            out[doc_idx] = score
    return out


def rank_oracle(scores, k):
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


WORDS = ["<pad>", "<mask>", "<unk>", "<sep>", "roster", "alpha", "beta", "arena",
         "town", "player", "residence", "m10", "m11", "m20", "m21", "m22"]


def wid(word):
    return WORDS.index(word)


def toks(*words):
    return np.array([wid(w) for w in words], dtype=np.int64)


def cell(row, col, ent, mention):
    return IndexedCell(row=row, col=col, entity_id=ent, mention_ids=toks(mention))


def toy_table(table_id, caption, headers, rows):
    cells = []
    for r, row in enumerate(rows):
        for c, (ent, mention) in enumerate(row):
            cells.append(cell(r, c, ent, mention))
    return IndexedTable(
        table_id=table_id,
        caption_ids=toks(*caption),
        header_ids=[toks(h) for h in headers],
        headers_norm=list(headers),
        n_rows=len(rows),
        n_cols=len(headers),
        cells=cells,
        subject_col=0,
    )


@pytest.fixture(scope="module")
def toy_index():
    tables = [
        toy_table("t0", ["roster", "alpha"], ["player", "town"],
                  [[(10, "m10"), (20, "m20")], [(11, "m11"), (21, "m21")]]),
        toy_table("t1", ["roster", "beta"], ["player", "residence"],
                  [[(10, "m10"), (20, "m20")], [(11, "m11"), (22, "m22")]]),
        toy_table("t2", ["arena", "alpha"], ["player", "town"],
                  [[(10, "m10"), (20, "m20")]]),
    ]
    return CorpusIndex.build(tables, WORDS), tables


# -- bm25 ---------------------------------------------------------------------


def random_docs(rng, n_docs=12, pool=8):
    vocab = [f"w{i}" for i in range(pool)]
    return [[vocab[rng.integers(pool)] for _ in range(rng.integers(1, 15))] for _ in range(n_docs)]


def test_bm25_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(0)
    for _ in range(25):
        docs = random_docs(rng)
        index = Bm25Index.build(docs)
        query = [f"w{rng.integers(10)}" for _ in range(rng.integers(1, 5))]
        expect = bm25_scores_oracle(docs, query)
        got = dict(index.search(query, k=len(docs)))
        assert set(got) == set(expect)
        for d, s in expect.items():
            assert got[d] == pytest.approx(s, abs=1e-12)
        assert index.search(query, 3) == rank_oracle(expect, 3)


def test_bm25_idf_positive_even_for_ubiquitous_terms():
    docs = [["x"], ["x"], ["x", "y"]]
    index = Bm25Index.build(docs)
    assert index.idf("x") > 0.0
    assert index.idf("x") < index.idf("y") < index.idf("never-seen")


def test_bm25_tie_breaks_to_lower_doc():
    docs = [["a", "b"], ["a", "b"], ["c"]]
    index = Bm25Index.build(docs)
    assert index.search(["a"], 2) == [(0, index.search(["a"], 2)[0][1]), (1, index.search(["a"], 2)[1][1])]
    assert index.search(["a"], 2)[0][1] == index.search(["a"], 2)[1][1]


def test_bm25_unknown_query_empty():
    index = Bm25Index.build([["a"]])
    assert index.search(["zz"], 5) == []


# -- corpus statistics -----------------------------------------------------------


def test_pair_counts_hand_oracle(toy_index):
    idx, _ = toy_index
    # (10, 20) is witnessed in all three tables: t0/t1 and t1/t2 give
    # (residence, town), t0/t2 gives (town, town). No other subject/object
    # pair repeats across tables.
    assert idx.pair_counts == {("residence", "town"): 2, ("town", "town"): 1}
    assert idx.header_totals == {"residence": 2, "town": 3}
    assert idx.pair_count("town", "residence") == idx.pair_count("residence", "town") == 2


def test_p_header_values(toy_index):
    idx, _ = toy_index
    assert idx.p_header("residence", "town") == pytest.approx(2 / 3)
    assert idx.p_header("town", "town") == pytest.approx(1 / 3)
    assert idx.p_header("town", "residence") == pytest.approx(1.0)
    assert idx.p_header("player", "town") == 0.0
    assert idx.p_header("town", "never-seen") == 0.0


def test_p_header_sums_to_one_over_observed(toy_index):
    idx, _ = toy_index
    for h in idx.header_totals:
        mass = sum(idx.p_header(other, h) for other in {a for ab in idx.pair_counts for a in ab})
        assert mass == pytest.approx(1.0)


def test_cooccur_and_subjects(toy_index):
    idx, _ = toy_index
    assert idx.cooccur[10] == {20, 11, 21, 22}
    assert idx.cooccur[21] == {10, 11, 20}
    assert idx.subject_entities[0] == [10, 11]
    assert idx.subject_entities[2] == [10]


def test_fill_candidates_and_modes(toy_index):
    idx, _ = toy_index
    # subject 11 sat next to 21 under "town" and 22 under "residence"
    cands = idx.fill_candidates(11, "town")
    assert cands == [(21, ("town",)), (22, ("residence",))]
    exact = idx.rank_fill(cands, "town", mode="exact")
    assert [e for e, _ in exact] == [21, 22]
    assert exact[0][1] == 1.0 and exact[1][1] == 0.0
    # the pair statistics prefer the residence source: P(residence|town) = 2/3
    # beats P(town|town) = 1/3
    pair = idx.rank_fill(cands, "town", mode="pair")
    assert [e for e, _ in pair] == [22, 21]
    with pytest.raises(ConfigError):
        idx.rank_fill(cands, "town", mode="nope")


def test_fill_candidates_unknown_subject(toy_index):
    idx, _ = toy_index
    assert idx.fill_candidates(999, "town") == []


def test_retrieval_against_oracle(toy_index):
    idx, tables = toy_index
    docs = [["roster", "alpha", "m10", "m11"], ["roster", "beta", "m10", "m11"], ["arena", "alpha", "m10"]]
    expect = rank_oracle(bm25_scores_oracle(docs, ["alpha"]), 3)
    assert idx.retrieve_tables(["alpha"], 3) == [d for d, _ in expect]
    # the shorter caption doc wins on "alpha"
    assert idx.retrieve_tables(["alpha"], 1) == [2]


def test_suggest_headers_excludes_seeds(toy_index):
    idx, _ = toy_index
    out = idx.suggest_headers(["roster", "alpha"], seeds=["player"], k=3)
    names = [h for h, _ in out]
    assert "player" not in names
    assert names[0] == "town"  # supported by two neighbors, one a perfect caption match
    assert "residence" in names
    scores = dict(out)
    assert scores["town"] > scores["residence"]


def test_suggest_headers_zero_seed_overlap(toy_index):
    idx, _ = toy_index
    assert idx.suggest_headers(["roster"], seeds=["no-such-header"], k=3) == []


def test_suggest_headers_empty_query(toy_index):
    idx, _ = toy_index
    assert idx.suggest_headers([], seeds=[], k=3) == []


# -- relation votes -----------------------------------------------------------------


def test_vote_relations_threshold_edges():
    pairs = [(1, 2), (1, 3), (2, 3), (2, 4)]
    rel_map = {
        (1, 2): {"r1", "r3"},
        (1, 3): {"r1", "r3"},
        (2, 3): {"r3"},
        (2, 4): {"r2", "r3"},
    }
    assert vote_relations(pairs, rel_map, 0.5) == {"r1", "r3"}
    assert vote_relations(pairs, rel_map, 0.25) == {"r1", "r2", "r3"}
    assert vote_relations(pairs, rel_map, 0.51) == {"r3"}
    assert vote_relations(pairs, rel_map, 1.0) == {"r3"}


def test_vote_relations_needs_evidence():
    assert vote_relations([], {}, 0.0) == set()
    # threshold zero still requires one observed vote
    assert vote_relations([(1, 2)], {(3, 4): {"r"}}, 0.0) == set()


def test_vote_relations_monotone_in_threshold():
    rng = np.random.default_rng(1)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 5, size=(8, 2))]
    rel_map = {}
    for p in pairs:
        rel_map.setdefault(p, set()).update(f"r{int(r)}" for r in rng.integers(0, 4, size=2))
    prev = None
    for th in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        cur = vote_relations(pairs, rel_map, th)
        if prev is not None:
            assert cur <= prev
        prev = cur
