"""Non-neural baselines and the corpus statistics they share.

Everything here is computed from the training split alone, in memory, by
each command that needs it:

  - table-level entity co-occurrence (also feeds candidate sets upstream);
  - row adjacency: which entities sit in the same row as a given entity, and
    under which normalized header they were observed;
  - header pair statistics n(h', h): the number of unordered table pairs that
    exhibit the same subject/object entity pair under headers h' and h, which
    normalizes to P(h'|h);
  - a BM25 index (k1=1.2, b=0.75) over caption plus subject mention tokens,
    with the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5));
  - tf-idf caption vectors for nearest-neighbor schema suggestions.

All rankings break score ties toward the smaller entity id or the
lexicographically smaller header, so results are reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import IndexedTable
from .errors import ConfigError


@dataclass
class Bm25Index:
    n_docs: int
    avg_len: float
    doc_lens: list[int]
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc, tf)]

    K1, B = 1.2, 0.75

    @classmethod
    def build(cls, docs: list[list[str]]) -> "Bm25Index":
        postings: dict[str, list[tuple[int, int]]] = {}
        doc_lens = [len(d) for d in docs]
        for i, doc in enumerate(docs):
            for term, tf in sorted(Counter(doc).items()):
                postings.setdefault(term, []).append((i, tf))
        avg = sum(doc_lens) / len(doc_lens) if docs else 0.0
        return cls(n_docs=len(docs), avg_len=avg, doc_lens=doc_lens, postings=postings)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def search(self, query: list[str], k: int) -> list[tuple[int, float]]:
        """Top-k (doc index, score), score descending then doc index ascending."""
        scores: dict[int, float] = {}
        for term, qtf in sorted(Counter(query).items()):
            posting = self.postings.get(term)
            if not posting:
                continue
            idf = self.idf(term)
            for doc, tf in posting:
                dl = self.doc_lens[doc]
                denom = tf + self.K1 * (1.0 - self.B + self.B * dl / self.avg_len)
                scores[doc] = scores.get(doc, 0.0) + idf * tf * (self.K1 + 1.0) / denom
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


class CorpusIndex:
    """Training-corpus statistics backing the baselines and candidate sets."""

    def __init__(self) -> None:
        self.schemas: list[list[str]] = []
        self.subject_entities: list[list[int]] = []
        self.cooccur: dict[int, set[int]] = {}
        self.row_mates: dict[int, dict[int, set[str]]] = {}
        self.pair_counts: dict[tuple[str, str], int] = {}
        self.header_totals: dict[str, int] = {}
        self.bm25: Bm25Index | None = None
        self.caption_vectors: list[dict[str, float]] = []
        self.caption_norms: list[float] = []
        self.idf: dict[str, float] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, tables: list[IndexedTable], token_strings: list[str]) -> "CorpusIndex":
        """token_strings maps token ids back to text for the lexical indexes."""
        idx = cls()
        idx.schemas = [list(t.headers_norm) for t in tables]

        def words(ids: np.ndarray) -> list[str]:
            return [token_strings[int(i)] for i in ids]

        docs: list[list[str]] = []
        pair_events: dict[tuple[int, int], set[tuple[int, str]]] = {}
        for tidx, t in enumerate(tables):
            ents = t.entity_ids()
            for e in ents:
                idx.cooccur.setdefault(int(e), set()).update(int(x) for x in ents if x != e)

            by_row: dict[int, list] = {}
            for c in t.cells:
                by_row.setdefault(c.row, []).append(c)
            for row_cells in by_row.values():
                for a in row_cells:
                    for b in row_cells:
                        if a is b:
                            continue
                        idx.row_mates.setdefault(a.entity_id, {}).setdefault(b.entity_id, set()).add(
                            t.headers_norm[b.col]
                        )
                if t.subject_col is not None:
                    subj = [c for c in row_cells if c.col == t.subject_col]
                    if subj:
                        s = subj[0].entity_id
                        for c in row_cells:
                            if c.col == t.subject_col:
                                continue
                            pair_events.setdefault((s, c.entity_id), set()).add((tidx, t.headers_norm[c.col]))

            subj_ents = sorted({c.entity_id for c in t.subject_cells()})
            idx.subject_entities.append(subj_ents)

            doc = words(t.caption_ids)
            for c in t.subject_cells():
                doc.extend(words(c.mention_ids))
            docs.append(doc)

        # unordered table pairs witnessing the same (subject, object) under a
        # pair of headers; each (table pair, header pair) counts once
        seen: set[tuple[int, int, str, str]] = set()
        for events in pair_events.values():
            ev = sorted(events)
            for i in range(len(ev)):
                t1, h1 = ev[i]
                for j in range(i + 1, len(ev)):
                    t2, h2 = ev[j]
                    if t1 == t2:
                        continue
                    a, b = sorted((h1, h2))
                    key = (t1, t2, a, b)
                    if key not in seen:
                        seen.add(key)
                        idx.pair_counts[(a, b)] = idx.pair_counts.get((a, b), 0) + 1
        for (a, b), n in idx.pair_counts.items():
            idx.header_totals[a] = idx.header_totals.get(a, 0) + n
            if b != a:
                idx.header_totals[b] = idx.header_totals.get(b, 0) + n

        idx.bm25 = Bm25Index.build(docs)

        # tf-idf caption vectors: raw tf times ln(N/df)
        captions = [words(t.caption_ids) for t in tables]
        df: Counter = Counter()
        for cap in captions:
            df.update(set(cap))
        n = len(captions)
        idx.idf = {term: math.log(n / d) for term, d in df.items()} if n else {}
        for cap in captions:
            vec = {term: tf * idx.idf[term] for term, tf in Counter(cap).items()}
            idx.caption_vectors.append(vec)
            idx.caption_norms.append(math.sqrt(sum(v * v for v in vec.values())))
        return idx

    # -- header pair statistics ---------------------------------------------

    def pair_count(self, h_prime: str, h: str) -> int:
        a, b = sorted((h_prime, h))
        return self.pair_counts.get((a, b), 0)

    def p_header(self, h_prime: str, h: str) -> float:
        """P(h'|h): co-evidence of h' against everything co-observed with h."""
        total = self.header_totals.get(h, 0)
        if total == 0:
            return 0.0
        return self.pair_count(h_prime, h) / total

    # -- cell filling ----------------------------------------------------------

    def fill_candidates(self, subject: int, header: str) -> list[tuple[int, tuple[str, ...]]]:
        """Entities row-adjacent to `subject` whose source headers relate to
        `header` (P(h'|h) > 0), with those source headers attached."""
        mates = self.row_mates.get(subject, {})
        out = []
        for ent, sources in sorted(mates.items()):
            kept = tuple(sorted(h for h in sources if self.p_header(h, header) > 0.0))
            if kept:
                out.append((ent, kept))
        return out

    def rank_fill(self, candidates: list[tuple[int, tuple[str, ...]]], header: str, mode: str) -> list[tuple[int, float]]:
        """Score each candidate by its best source header.

        mode 'exact': source matches the target header exactly or scores zero.
        mode 'pair': the source header's P(h'|h) against the target.
        """
        if mode not in ("exact", "pair"):
            raise ConfigError(f"unknown fill ranking mode {mode!r}")
        scored = []
        for ent, sources in candidates:
            if mode == "exact":
                s = max(1.0 if h == header else 0.0 for h in sources)
            else:
                s = max(self.p_header(h, header) for h in sources)
            scored.append((ent, s))
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return scored

    # -- schema augmentation -----------------------------------------------

    def _caption_cosines(self, query_tokens: list[str]) -> list[tuple[int, float]]:
        qvec = {term: tf * self.idf.get(term, 0.0) for term, tf in Counter(query_tokens).items()}
        qnorm = math.sqrt(sum(v * v for v in qvec.values()))
        if qnorm == 0.0:
            return []
        sims = []
        for i, (vec, norm) in enumerate(zip(self.caption_vectors, self.caption_norms)):
            if norm == 0.0:
                continue
            dot = sum(w * vec.get(term, 0.0) for term, w in qvec.items())
            if dot > 0.0:
                sims.append((i, dot / (qnorm * norm)))
        sims.sort(key=lambda kv: (-kv[1], kv[0]))
        return sims

    def suggest_headers(self, query_tokens: list[str], seeds: list[str], k: int = 10) -> list[tuple[str, float]]:
        """Rank headers from the k caption-nearest tables.

        Each neighbor contributes its cosine similarity to every header in its
        schema; with seed headers given, the contribution is multiplied by the
        neighbor's seed overlap |schema cap seeds| / |seeds|. Seeds themselves
        are excluded from the output.
        """
        neighbors = self._caption_cosines(query_tokens)[:k]
        seed_set = set(seeds)
        scores: dict[str, float] = {}
        for tidx, cos in neighbors:
            schema = self.schemas[tidx]
            weight = cos
            if seed_set:
                weight *= len(seed_set & set(schema)) / len(seed_set)
            if weight == 0.0:
                continue
            for h in set(schema) - seed_set:
                scores[h] = scores.get(h, 0.0) + weight
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))

    # -- retrieval -----------------------------------------------------------

    def retrieve_tables(self, query_tokens: list[str], k: int) -> list[int]:
        if self.bm25 is None:
            return []
        return [doc for doc, _ in self.bm25.search(query_tokens, k)]


# ---------------------------------------------------------------------------
# vote-based relation prediction


def vote_relations(
    pairs: list[tuple[int, int]],
    relation_map: dict[tuple[int, int], set[str]],
    threshold: float,
) -> set[str]:
    """Predict relations supported by at least `threshold` of the linked pairs.

    A relation needs at least one voting pair regardless of the threshold, so
    an instance with no evidence predicts nothing.
    """
    if not pairs:
        return set()
    votes: Counter = Counter()
    for pair in pairs:
        for rel in relation_map.get(pair, ()):
            votes[rel] += 1
    n = len(pairs)
    return {rel for rel, v in votes.items() if v > 0 and v / n >= threshold}
