"""Metric fixtures with hand-computed expected values."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabrep.metrics import (
    average_precision,
    candidate_recall,
    linking_prf,
    mean_average_precision,
    micro_prf,
    precision_at_k,
)

TOL = 1e-9


def test_micro_prf_hand_case():
    # tp = |{a}| + |{c,d}| = 3, fp = |{b}| = 1, fn = |{e}| + |{}| = 1
    preds = [{"a", "b"}, {"c", "d"}]
    golds = [{"a", "e"}, {"c", "d"}]
    r = micro_prf(preds, golds)
    assert r.tp == 3 and r.fp == 1 and r.fn == 1
    assert abs(r.precision - 3 / 4) < TOL
    assert abs(r.recall - 3 / 4) < TOL
    assert abs(r.f1 - 3 / 4) < TOL
    assert not r.undefined_precision


def test_micro_prf_empty_predictions_flag():
    r = micro_prf([set(), set()], [{"a"}, {"b"}])
    assert r.undefined_precision
    assert r.precision == 0.0
    assert r.recall == 0.0


def test_micro_prf_length_mismatch():
    with pytest.raises(ValueError):
        micro_prf([set()], [])


def test_linking_fixture():
    # two correct, one wrong, one abstention:
    # precision counts only the 3 emitted predictions, recall all 4 instances
    preds = ["a", "b", None, "c"]
    golds = ["a", "x", "y", "c"]
    r = linking_prf(preds, golds)
    assert (r.tp, r.fp, r.fn) == (2, 1, 2)
    assert abs(r.precision - 2 / 3) < TOL
    assert abs(r.recall - 2 / 4) < TOL
    expect_f1 = 2 * (2 / 3) * (1 / 2) / (2 / 3 + 1 / 2)
    assert abs(r.f1 - expect_f1) < TOL


def test_linking_all_abstain():
    r = linking_prf([None, None], ["a", "b"])
    assert r.undefined_precision and r.recall == 0.0


def test_average_precision_fixture():
    # hits at ranks 1 and 3: (1/1 + 2/3) / 2
    assert abs(average_precision(["g1", "x", "g2"], {"g1", "g2"}) - 5 / 6) < TOL


def test_average_precision_counts_missing_golds():
    # second gold never retrieved, still in the denominator
    assert abs(average_precision(["g1", "x"], {"g1", "g2"}) - 1 / 2) < TOL


def test_average_precision_empty_golds_rejected():
    with pytest.raises(ValueError):
        average_precision(["a"], set())


def test_map_averages():
    rankings = [["g", "x"], ["x", "g"]]
    golds = [{"g"}, {"g"}]
    assert abs(mean_average_precision(rankings, golds) - (1.0 + 0.5) / 2) < TOL
    assert mean_average_precision([], []) == 0.0


def test_precision_at_k_edges():
    assert abs(precision_at_k(["g", "x", "g"], {"g"}, 1) - 1.0) < TOL
    assert abs(precision_at_k(["x", "g"], {"g"}, 2) - 0.5) < TOL
    # k beyond the ranking divides by k, not by what was returned
    assert abs(precision_at_k(["g"], {"g"}, 4) - 0.25) < TOL
    with pytest.raises(ValueError):
        precision_at_k(["g"], {"g"}, 0)


def test_candidate_recall_micro():
    sets = [{"a", "b"}, {"c"}]
    golds = [{"a"}, {"d", "c"}]
    # covers 2 of 3 golds
    assert abs(candidate_recall(sets, golds) - 2 / 3) < TOL
    assert candidate_recall([], []) == 0.0


@given(st.lists(st.tuples(st.sets(st.integers(0, 9)), st.sets(st.integers(0, 9))), max_size=20))
def test_micro_prf_bounds(pairs):
    preds = [p for p, _ in pairs]
    golds = [g for _, g in pairs]
    r = micro_prf(preds, golds)
    for v in (r.precision, r.recall, r.f1):
        assert 0.0 <= v <= 1.0
    assert r.tp + r.fn == sum(len(g) for g in golds)
    assert r.tp + r.fp == sum(len(p) for p in preds)


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=25, unique=True),
    st.sets(st.integers(0, 30), min_size=1, max_size=10),
)
def test_average_precision_bounds_and_perfection(ranking, golds):
    ap = average_precision(ranking, golds)
    assert 0.0 <= ap <= 1.0
    in_rank = [x for x in ranking if x in golds]
    rest = [x for x in ranking if x not in golds]
    front = average_precision(in_rank + rest, golds)
    # moving every hit to the front can only help
    assert front >= ap - 1e-12
    if set(ranking) >= golds:
        assert abs(front - 1.0) < TOL
