"""Training objectives over per-item scores.

Each loss takes a query's scores and the index of its booked item among
them, and returns its value together with analytic gradients w.r.t. the
score vector; the trainer feeds those to the scorer's backward pass, so the
losses stay plain numpy and are easy to check against finite differences.
Labels are not read here: a ``Dataset`` holds one item labelled 1 (booked)
per query and the rest 0, and ``scoring.prepare_dataset`` keeps its index.

Pairs are only formed between the booked item and each non-booked item: the
non-booked items are tied and contribute no pairwise loss. One booked item
also collapses the listwise likelihood to its top-1 form, and makes every
gain difference and every ideal DCG exactly 1.

listnet and listmle take log-sum-exps through ``_logsumexp``, a numpy port
of ``scipy.special.logsumexp``'s algorithm that gives the same bits on a
vector without scipy's per-call dispatch (about 10x cheaper on a list of 15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, expit

from .errors import DomainError, TrainingError
from .scoring import rank

DEFAULT_SOFTRANK_SIGMA = 0.15
SOFTRANK_LIST_SIZE = 9
LOSS_NAMES = ("ranknet", "lambdarank", "listnet", "listmle", "softrank")

SQRT2 = math.sqrt(2.0)
INV_2_SQRT_PI = 0.5 / math.sqrt(math.pi)


@dataclass(frozen=True)
class LossOutput:
    value: float
    score_gradients: np.ndarray

    def __post_init__(self):
        # a finite sum means every gradient is finite; only a sum that is not
        # is looked at entry by entry
        if not (math.isfinite(self.value)
                and (math.isfinite(np.add.reduce(self.score_gradients))
                     or np.isfinite(self.score_gradients).all())):
            raise TrainingError("loss produced a non-finite value or gradient")


def _as_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise DomainError(f"scores must be a nonempty vector, got shape {list(s.shape)}")
    return s


def _scores_and_booked(scores, booked) -> tuple[np.ndarray, int]:
    s = _as_scores(scores)
    if not 0 <= booked < s.size:
        raise DomainError(f"booked index {booked} out of range for {s.size} scores")
    return s, int(booked)


def _logsumexp(a: np.ndarray) -> np.float64:
    """``scipy.special.logsumexp(a)`` of a float64 vector, step for step, so
    the bits match: the maxima are taken out of the shifted sum and added
    back as log(count), and a non-finite result falls back to
    log(sum(exp(a))). Finite scores raise no numpy warning here; ``train``
    checks its scores before any loss runs."""
    a_max = a.max()
    is_max = a == a_max
    count = float(np.count_nonzero(is_max))
    total = np.exp(np.where(is_max, -np.inf, a) - a_max).sum()
    if total != 0:
        total = total / count
    out = np.log1p(total) + np.log(count) + a_max
    if not math.isfinite(out):
        out = np.log(np.exp(a).sum())
    return out


# ---------------------------------------------------------------------------
# pairwise


def _weighted_pairwise_loss(scores, booked, pair_weights=None) -> LossOutput:
    """Sum over (booked, non-booked) pairs of w * log(1 + e^-(f_booked - f_other)),
    with w = pair_weights(scores, booked, others) held constant in the
    gradient, or w = 1 without ``pair_weights``."""
    s, b = _scores_and_booked(scores, booked)
    if s.size == 1:
        return LossOutput(value=0.0, score_gradients=np.zeros(1))
    others = np.arange(s.size - 1)
    others[b:] += 1
    # f_other - f_booked: rounding is symmetric, so this is -(f_booked - f_other) exactly
    d = s[others] - s[b]
    softplus, slope = np.logaddexp(0.0, d), expit(d)  # slope: 1 - P(booked beats other)
    if pair_weights is not None:
        w = pair_weights(s, b, others)
        softplus, slope = w * softplus, w * slope
    grad = np.empty(s.size)
    grad[others] = slope
    grad[b] = -float(slope.sum())
    return LossOutput(value=float(softplus.sum()), score_gradients=grad)


def ranknet_loss(scores, booked) -> LossOutput:
    """Cross-entropy over (booked, non-booked) pairs with target probability 1.

    Each pair contributes log(1 + e^-(f_booked - f_other)).
    """
    return _weighted_pairwise_loss(scores, booked)


def delta_ndcg_weights(scores: np.ndarray, b: int, others: np.ndarray) -> np.ndarray:
    """|ΔNDCG| of swapping the booked item b with each partner, at the
    current ranking's positions. With one booked item the gain difference
    and the ideal DCG are both 1, so the delta is the discount difference."""
    inv_disc = 1.0 / np.log2(1.0 + rank(scores).positions())
    return np.abs(inv_disc[b] - inv_disc[others])


def lambdarank_loss(scores, booked) -> LossOutput:
    """RankNet pairs reweighted by the NDCG swap each pair could cause.

    Positions are recomputed from the current scores on every call; the
    weights are treated as constants when differentiating.
    """
    return _weighted_pairwise_loss(scores, booked, delta_ndcg_weights)


# ---------------------------------------------------------------------------
# listwise


def listnet_loss(scores, booked) -> LossOutput:
    """Cross-entropy between the softmax of the one-hot label vector and the
    score softmax."""
    s, b = _scores_and_booked(scores, booked)
    y = np.zeros(s.size)
    y[b] = 1.0
    log_p = s - _logsumexp(s)
    target = np.exp(y - _logsumexp(y))
    value = float(-np.sum(target * log_p))
    grad = np.exp(log_p) - target
    return LossOutput(value=value, score_gradients=grad)


def listmle_loss(scores, booked) -> LossOutput:
    """Negative log-likelihood of the booked item heading the list.

    With ties skipped, only the booked item's position is supervised and the
    stagewise likelihood reduces to exp(f_booked) / sum_k exp(f_k).
    """
    s, b = _scores_and_booked(scores, booked)
    lse = _logsumexp(s)
    value = float(lse - s[b])
    grad = np.exp(s - lse)
    grad[b] -= 1.0
    return LossOutput(value=value, score_gradients=grad)


# ---------------------------------------------------------------------------
# softrank


def pairwise_win_prob(z_j: float, z_k: float, sigma: float) -> float:
    """P(noisy score of j exceeds noisy score of k) when both carry N(0, sigma^2)
    noise: the difference is N(z_j - z_k, 2 sigma^2)."""
    return float(_win_prob_matrix(np.array([z_j, z_k], dtype=np.float64), sigma)[0, 1])


@dataclass(frozen=True)
class RankDistribution:
    """probs[j][r-1] = P(item j lands at rank r) under independent pairwise contests."""

    probs: np.ndarray

    def __post_init__(self):
        n = self.probs.shape[0]
        if self.probs.shape != (n, n):
            raise DomainError(f"rank distribution must be square, got {list(self.probs.shape)}")
        if np.any(self.probs < -1e-12) or np.any(self.probs > 1.0 + 1e-12):
            raise DomainError("rank probabilities outside [0, 1]")
        rows = self.probs.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise DomainError("rank distribution rows must each sum to 1")


def _win_prob_matrix(s: np.ndarray, sigma: float) -> np.ndarray:
    # p[k, j] = P(k beats j)
    if not sigma > 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    diff = (s[:, None] - s[None, :]) / (sigma * SQRT2)
    return 0.5 * erfc(-diff / SQRT2)


def _opponent_fold(p_beats_j: np.ndarray, j: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rank distribution of item j, from column j of the win-probability matrix.

    Starting from a point mass at rank 1, every opponent k != j, in index
    order, shifts item j down one rank with probability P(k beats j),
    independently. Also returns the distribution before each opponent's
    fold, which the backward pass reads.
    """
    n = p_beats_j.size
    row = np.zeros(n)
    row[0] = 1.0
    history = []
    for k in range(n):
        if k == j:
            continue
        history.append(row)
        p = p_beats_j[k]
        nxt = row * (1.0 - p)
        nxt[1:] += row[:-1] * p
        row = nxt
    return row, history


def rank_distribution(scores, sigma: float) -> RankDistribution:
    """Every item's rank distribution under independent pairwise contests."""
    s = _as_scores(scores)
    p_beats = _win_prob_matrix(s, sigma)
    return RankDistribution(probs=np.array([_opponent_fold(p_beats[:, j], j)[0]
                                            for j in range(s.size)]))


def softrank_objective(scores, booked, sigma: float = DEFAULT_SOFTRANK_SIGMA) -> LossOutput:
    """Negative smoothed NDCG: the discount is averaged over the booked
    item's rank distribution, which makes the metric differentiable in the
    scores. Only the booked item has a gain, and it and the ideal DCG are 1."""
    s, b = _scores_and_booked(scores, booked)
    p_beats = _win_prob_matrix(s, sigma)
    n = s.size
    discounts = 1.0 / np.log2(2.0 + np.arange(n))
    # d p_beats[k, b] / d s[k]; the derivative w.r.t. s[b] is its negation
    pdf_scaled = (INV_2_SQRT_PI / sigma) * np.exp(-((s - s[b]) ** 2) / (4.0 * sigma * sigma))

    row, history = _opponent_fold(p_beats[:, b], b)
    grad = np.zeros(n)
    g_row = discounts
    opponents = [k for k in range(n) if k != b]
    for k, old in zip(reversed(opponents), reversed(history)):
        p = p_beats[k, b]
        g_p = float(np.dot(g_row[1:], old[:-1]) - np.dot(g_row, old))
        g_old = g_row * (1.0 - p)
        g_old[:-1] += g_row[1:] * p
        grad[k] += g_p * pdf_scaled[k]
        grad[b] -= g_p * pdf_scaled[k]
        g_row = g_old

    return LossOutput(value=-float(np.dot(row, discounts)), score_gradients=-grad)


# ---------------------------------------------------------------------------
# registry


def loss_by_name(name: str, sigma: float = DEFAULT_SOFTRANK_SIGMA):
    """Resolve a loss callable (scores, booked) -> LossOutput by its name."""
    table = {
        "ranknet": ranknet_loss,
        "lambdarank": lambdarank_loss,
        "listnet": listnet_loss,
        "listmle": listmle_loss,
        "softrank": lambda s, b: softrank_objective(s, b, sigma=sigma),
    }
    if name not in table:
        raise DomainError(f"unknown loss {name!r}, expected one of {LOSS_NAMES}")
    return table[name]
