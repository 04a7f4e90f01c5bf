"""NDCG evaluation and the statistical comparison helpers.

``mean_ndcg`` evaluates a whole dataset in one batched pass: the scores of
all item rows come from ``scoring.score_block`` (``EVAL_CHUNK_ROWS`` rows at
a time) or from a callable ranker, and ``segment_ndcg`` takes every query's
NDCG from its segment of the item rows at once. It reads only the row of
each query's booked item: a ``Dataset`` holds exactly one per query, checked
when the dataset was made.
``evaluate_scenarios`` is the paper's measurement of one model: its NDCG
on the clean test split and under each rescaling case, and its invariance
gap; ``sirank evaluate`` and every experiment cell call it. A sir model
runs its deep tower once per call: a rescale changes only its wide term.
``ndcg`` keeps the general graded-gain formula and serves as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .data import Dataset
from .errors import DomainError, ValidationError
from .perturb import DEFAULT_RATE, PerturbationCase, apply_case, target_columns
from .scoring import (DatasetBlock, Ranking, block_scorer, prepare_dataset, prepare_rescale,
                      scale_dataset, score_block)


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


def segment_ndcg(scores: np.ndarray, booked: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """NDCG of every query segment ``offsets[i]:offsets[i + 1]`` of
    ``scores`` whose one booked item is row ``booked[i]``: the value of
    ``ndcg(rank(segment), one-hot labels)``, and a NaN score raises the
    same error.

    With one booked item, NDCG is 1/log2(1 + position), and the position is
    1 plus the items that outrank the booked one under ``rank``'s tie rule:
    a higher score, or an equal score at a lower index.
    """
    if np.any(np.isnan(scores)):
        raise DomainError("cannot rank NaN scores")
    row_query = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    row_booked = booked[row_query]
    booked_score = scores[row_booked]
    outranks = (scores > booked_score) | ((scores == booked_score)
                                          & (np.arange(scores.size) < row_booked))
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


def evaluate_block(block: DatasetBlock, scores: np.ndarray) -> EvalResult:
    """Per-query and mean NDCG of ``scores`` of the item rows of a block
    prepared by ``scoring.prepare_dataset``."""
    return EvalResult.of(segment_ndcg(scores, block.booked, block.offsets))


def mean_ndcg(model, dataset: Dataset) -> EvalResult:
    """Score, rank, and average NDCG over every query in the dataset, as
    one batched pass over its item rows.

    model is either a SirModel or any callable mapping a query to a score
    vector; the latter keeps oracle rankers easy to express, and a vector
    that is not one score per item raises ValidationError naming the query.
    """
    if not callable(model):
        block = prepare_dataset(model, dataset)
        return evaluate_block(block, score_block(model, block))
    if not len(dataset):
        raise ValidationError("cannot evaluate a dataset without queries")
    parts = []
    for q in dataset.queries:
        scores = np.asarray(model(q), dtype=np.float64)
        if scores.shape != (q.n_items,):
            raise ValidationError(f"query {q.query_id}: the ranker returned scores of shape "
                                  f"{scores.shape}, expected ({q.n_items},)")
        parts.append(scores)
    return EvalResult.of(segment_ndcg(np.concatenate(parts), np.flatnonzero(dataset.labels),
                                      dataset.offsets))


def evaluate_scenarios(model, test: Dataset, case_ids, gap: bool
                       ) -> tuple[EvalResult, dict[int, EvalResult], float | None]:
    """NDCG of ``model`` on the clean ``test`` split and under each case of
    ``case_ids``, and, if ``gap``, its invariance gap at ``DEFAULT_RATE``
    (else None). The cases are made in order and the gap's rescale last, so
    the first rescale that fails raises; each one's block is made from the
    clean one (``prepare_rescale``), and one ``block_scorer`` scores all."""
    block = prepare_dataset(model, test)
    score = block_scorer(model, block)
    clean_scores = score(block)
    clean = evaluate_block(block, clean_scores)
    cases = {cid: evaluate_block(block, score(prepare_rescale(
        model, block, apply_case(test, PerturbationCase(cid)), target_columns(test.schema))))
        for cid in case_ids}
    if not gap:
        return clean, cases, None
    delta = score(prepare_rescale(model, block, scale_dataset(test, DEFAULT_RATE))) - clean_scores
    starts = block.offsets[:-1]  # the gap: the largest spread of a query's changes
    return clean, cases, float(np.max(np.maximum.reduceat(delta, starts)
                                      - np.minimum.reduceat(delta, starts)))


def random_ranker_mean_ndcg(dataset: Dataset) -> float:
    """Expected NDCG of a uniformly random permutation, in closed form.

    For a query with d items and one booked, every position is equally
    likely, so the expectation is the average of 1/log2(1+p) over p=1..d.
    """
    sizes = np.diff(dataset.offsets).tolist()
    per_size = {d: np.mean(1.0 / np.log2(2.0 + np.arange(d))) for d in set(sizes)}
    return float(np.mean([per_size[d] for d in sizes]))


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class TTestResult:
    t: float
    p_value: float
    df: float
    degenerate: bool = False


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
