"""NDCG evaluation and the statistical comparison helpers.

``mean_ndcg`` evaluates a whole dataset in one batched pass: the scores of
all item rows come from ``scoring.score_block`` (``EVAL_CHUNK_ROWS`` rows at
a time) or from a callable ranker, and ``segment_ndcg`` takes every query's
NDCG from its segment of the stacked rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .data import Dataset
from .errors import DomainError, ValidationError
from .scoring import DatasetBlock, Ranking, prepare_dataset, rank, score_block


def ndcg(ranking: Ranking, labels) -> float:
    """Normalized discounted cumulative gain over the full list.

    Gain is 2^y - 1 and the discount at position p is 1/log2(1+p); the sum is
    divided by the same sum under the best possible ordering, so a perfect
    ranking scores exactly 1. With binary labels and a single booked item this
    collapses to 1/log2(1 + position of the booked item).
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size != ranking.order.size:
        raise DomainError(f"{labels.size} labels for {ranking.order.size} ranked items")
    if not np.any(labels > 0):
        raise ValidationError("ndcg needs at least one positively labeled item")
    gains = 2.0 ** labels - 1.0
    discounts = 1.0 / np.log2(1.0 + ranking.positions())
    dcg = float(np.sum(gains * discounts))
    ideal_discounts = 1.0 / np.log2(2.0 + np.arange(labels.size))
    idcg = float(np.sum(np.sort(gains)[::-1] * ideal_discounts))
    return dcg / idcg


def segment_ndcg(scores: np.ndarray, labels: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``ndcg(rank(scores[a:b]), labels[a:b])`` for every query segment
    ``a, b = offsets[i], offsets[i + 1]``: the same values, and the same
    errors for a NaN score or a query without a positive label.

    With binary labels and one booked item per query, NDCG is
    1/log2(1 + position), and the position is 1 plus the items that outrank
    the booked one under ``rank``'s tie rule: a higher score, or an equal
    score at a lower index. Any other labelling is ranked query by query.
    """
    if np.any(np.isnan(scores)):
        raise DomainError("cannot rank NaN scores")
    row_query = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    positives = np.bincount(row_query, weights=labels > 0, minlength=len(offsets) - 1)
    if np.any(positives == 0):
        raise ValidationError("ndcg needs at least one positively labeled item")
    if np.any(positives != 1) or np.any((labels != 0.0) & (labels != 1.0)):
        return np.array([ndcg(rank(scores[a:b]), labels[a:b])
                         for a, b in zip(offsets[:-1], offsets[1:])])
    booked = np.flatnonzero(labels)[row_query]
    booked_score = scores[booked]
    outranks = (scores > booked_score) | ((scores == booked_score)
                                          & (np.arange(scores.size) < booked))
    position = 1.0 + np.bincount(row_query, weights=outranks, minlength=len(offsets) - 1)
    return 1.0 / np.log2(1.0 + position)


@dataclass(frozen=True)
class EvalResult:
    per_query: np.ndarray
    mean: float
    count: int

    @classmethod
    def of(cls, per_query: np.ndarray) -> EvalResult:
        return cls(per_query=per_query, mean=float(per_query.mean()), count=per_query.size)

    def to_json(self) -> dict:
        return {"mean": float(self.mean), "count": int(self.count),
                "per_query": [float(v) for v in self.per_query]}


def evaluate_block(model, block: DatasetBlock) -> EvalResult:
    """Per-query and mean NDCG of ``model`` on a dataset prepared by
    ``scoring.prepare_dataset``; the block can be scored again after the
    parameters change."""
    return EvalResult.of(segment_ndcg(score_block(model, block), block.labels, block.offsets))


def mean_ndcg(model, dataset: Dataset) -> EvalResult:
    """Score, rank, and average NDCG over every query in the dataset, as
    one batched pass over its stacked item rows.

    model is either a SirModel or any callable mapping a query to a score
    vector; the latter keeps oracle rankers easy to express.
    """
    if not callable(model):
        return evaluate_block(model, prepare_dataset(model, dataset))
    if not dataset.queries:
        raise ValidationError("cannot evaluate a dataset without queries")
    parts = []
    for q in dataset.queries:
        scores = np.asarray(model(q), dtype=np.float64)
        if scores.shape != (q.n_items,):
            ndcg(rank(scores), q.labels)  # raises the error for a misshapen score vector
        parts.append(scores)
    offsets = np.concatenate([[0], np.cumsum([q.n_items for q in dataset.queries])])
    labels = np.concatenate([q.labels for q in dataset.queries])
    return EvalResult.of(segment_ndcg(np.concatenate(parts), labels, offsets))


def random_ranker_mean_ndcg(dataset: Dataset) -> float:
    """Expected NDCG of a uniformly random permutation, in closed form.

    For a query with d items and one booked, every position is equally
    likely, so the expectation is the average of 1/log2(1+p) over p=1..d.
    """
    per_size: dict[int, float] = {}
    vals = np.empty(len(dataset))
    for i, q in enumerate(dataset.queries):
        d = q.n_items
        if d not in per_size:
            per_size[d] = float(np.mean(1.0 / np.log2(2.0 + np.arange(d))))
        vals[i] = per_size[d]
    return float(vals.mean())


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class TTestResult:
    t: float
    p_value: float
    df: float
    degenerate: bool = False

    def to_json(self) -> dict:
        return {"t": float(self.t), "p_value": float(self.p_value),
                "df": float(self.df), "degenerate": bool(self.degenerate)}


def two_sample_t_test(a, b) -> TTestResult:
    """Welch's unequal-variance t-test, one-sided.

    The reported p is P(T <= t) under the null, the probability of seeing a
    difference at least as far in the "a smaller than b" direction. Small p
    means a is significantly smaller; identical samples land on 0.5.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise DomainError(f"need at least 2 observations per sample, got {a.size} and {b.size}")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    sa, sb = va / a.size, vb / b.size
    denom = np.sqrt(sa + sb)
    diff = a.mean() - b.mean()
    if denom == 0.0:
        if diff == 0.0:
            return TTestResult(t=0.0, p_value=0.5, df=float(a.size + b.size - 2),
                               degenerate=True)
        t = -np.inf if diff < 0 else np.inf
        return TTestResult(t=float(t), p_value=0.0 if diff < 0 else 1.0,
                           df=float(a.size + b.size - 2), degenerate=True)
    t = diff / denom
    df = (sa + sb) ** 2 / (sa ** 2 / (a.size - 1) + sb ** 2 / (b.size - 1))
    return TTestResult(t=float(t), p_value=float(stdtr(df, t)), df=float(df))


def bonferroni(alpha: float, n: int) -> float:
    """Family-wise threshold for n simultaneous comparisons."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1:
        raise DomainError(f"number of comparisons must be >= 1, got {n}")
    return alpha / n
