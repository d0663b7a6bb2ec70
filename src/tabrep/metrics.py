"""Evaluation metrics: micro precision/recall/F1, ranking measures and recall
of candidate generation. All functions are pure and operate on python
containers so they double as test oracles for the task heads."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence


@dataclass
class PrfResult:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    undefined_precision: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def _prf_from_counts(tp: int, fp: int, fn: int) -> PrfResult:
    undefined = (tp + fp) == 0
    precision = 0.0 if undefined else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return PrfResult(precision, recall, f1, tp, fp, fn, undefined)


def micro_prf(predictions: Sequence[set], golds: Sequence[set]) -> PrfResult:
    """Micro-averaged set precision/recall/F1 for multi-label instances."""
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds differ in length")
    tp = fp = fn = 0
    for pred, gold in zip(predictions, golds):
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    return _prf_from_counts(tp, fp, fn)


def linking_prf(predictions: Sequence[Optional[object]], golds: Sequence[object]) -> PrfResult:
    """Single-label micro P/R/F1 where a None prediction is an abstention.

    Abstaining costs recall but not precision: precision divides by the number
    of predictions actually made, recall by the number of instances.
    """
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds differ in length")
    tp = fp = fn = 0
    for pred, gold in zip(predictions, golds):
        if pred is None:
            fn += 1
        elif pred == gold:
            tp += 1
        else:
            fp += 1
            fn += 1
    return _prf_from_counts(tp, fp, fn)


def average_precision(ranking: Sequence[object], golds: set) -> float:
    """AP with every gold in the denominator, found or not."""
    if not golds:
        raise ValueError("average_precision needs a non-empty gold set")
    hits = 0
    total = 0.0
    for rank, item in enumerate(ranking, start=1):
        if item in golds:
            hits += 1
            total += hits / rank
    return total / len(golds)


def mean_average_precision(rankings: Iterable[Sequence[object]], golds: Iterable[set]) -> float:
    aps = [average_precision(r, g) for r, g in zip(rankings, golds)]
    if not aps:
        return 0.0
    return sum(aps) / len(aps)


def precision_at_k(ranking: Sequence[object], golds: set, k: int) -> float:
    if k <= 0:
        raise ValueError("k must be positive")
    hits = sum(1 for item in ranking[:k] if item in golds)
    return hits / k


def candidate_recall(candidate_sets: Sequence[set], golds: Sequence[set]) -> float:
    """Micro recall of candidate generation: covered golds over all golds."""
    covered = 0
    total = 0
    for cands, gold in zip(candidate_sets, golds):
        covered += len(gold & cands)
        total += len(gold)
    return covered / total if total else 0.0
