"""Training objectives over per-item scores.

Each loss returns its value together with analytic gradients w.r.t. the score
vector; the trainer feeds those to the scorer's backward pass, so the losses
stay plain numpy and are easy to check against finite differences.

Pairs are only formed between the booked item and each non-booked item: items
sharing a label are tied and contribute no pairwise loss. With binary labels
and a single booked item that also collapses the listwise likelihood to its
top-1 form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, expit, logsumexp

from .errors import DomainError, TrainingError, ValidationError
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
        if not np.isfinite(self.value) or not np.all(np.isfinite(self.score_gradients)):
            raise TrainingError("loss produced a non-finite value or gradient")


def _as_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise DomainError(f"scores must be a nonempty vector, got shape {list(s.shape)}")
    return s


def _booked_index(labels) -> tuple[np.ndarray, int]:
    y = np.asarray(labels, dtype=np.float64)
    booked = np.nonzero(y == 1.0)[0]
    if booked.size == 0:
        raise ValidationError("no booked item in labels")
    if booked.size > 1 or np.any((y != 0.0) & (y != 1.0)):
        raise ValidationError("labels must mark exactly one booked item")
    return y, int(booked[0])


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow
    return np.logaddexp(0.0, x)


# ---------------------------------------------------------------------------
# pairwise


def _weighted_pairwise_loss(scores, labels, pair_weights) -> LossOutput:
    """Sum over (booked, non-booked) pairs of w * log(1 + e^-(f_booked - f_other)),
    with w = pair_weights(scores, y, booked, others) held constant in the
    gradient."""
    s = _as_scores(scores)
    y, b = _booked_index(labels)
    if s.size != y.size:
        raise DomainError("scores and labels differ in length")
    others = np.array([k for k in range(s.size) if k != b], dtype=np.int64)
    if others.size == 0:
        return LossOutput(value=0.0, score_gradients=np.zeros(1))
    w = pair_weights(s, y, b, others)
    d = s[b] - s[others]
    value = float(np.sum(w * _softplus(-d)))
    slope = w * expit(-d)  # w * (1 - P(booked beats other))
    grad = np.zeros(s.size)
    grad[others] = slope
    grad[b] = -float(np.sum(slope))
    return LossOutput(value=value, score_gradients=grad)


def _unit_weights(scores, y, b, others) -> np.ndarray:
    return np.ones(others.size)


def ranknet_loss(scores, labels) -> LossOutput:
    """Cross-entropy over (booked, non-booked) pairs with target probability 1.

    Each pair contributes log(1 + e^-(f_booked - f_other)).
    """
    return _weighted_pairwise_loss(scores, labels, _unit_weights)


def _ideal_dcg(y: np.ndarray) -> float:
    gains = np.sort(2.0 ** y - 1.0)[::-1]
    return float(np.sum(gains / np.log2(2.0 + np.arange(y.size))))


def delta_ndcg_weights(scores: np.ndarray, y: np.ndarray, b: int,
                       others: np.ndarray) -> np.ndarray:
    """|ΔNDCG| of swapping the booked item with each partner, at the current
    ranking's positions. Gains are 2^y - 1 and the normalizer is the ideal
    DCG, so the weights are true NDCG deltas."""
    positions = rank(scores).positions()
    inv_disc = 1.0 / np.log2(1.0 + positions)
    gains = 2.0 ** y - 1.0
    ideal = _ideal_dcg(y)
    return np.abs(gains[b] - gains[others]) * np.abs(inv_disc[b] - inv_disc[others]) / ideal


def lambdarank_loss(scores, labels) -> LossOutput:
    """RankNet pairs reweighted by the NDCG swap each pair could cause.

    Positions are recomputed from the current scores on every call; the
    weights are treated as constants when differentiating.
    """
    return _weighted_pairwise_loss(scores, labels, delta_ndcg_weights)


# ---------------------------------------------------------------------------
# listwise


def listnet_loss(scores, labels) -> LossOutput:
    """Cross-entropy between the label softmax and the score softmax."""
    s = _as_scores(scores)
    y = np.asarray(labels, dtype=np.float64)
    if s.size != y.size:
        raise DomainError("scores and labels differ in length")
    log_p = s - logsumexp(s)
    target = np.exp(y - logsumexp(y))
    value = float(-np.sum(target * log_p))
    grad = np.exp(log_p) - target
    return LossOutput(value=value, score_gradients=grad)


def listmle_loss(scores, labels) -> LossOutput:
    """Negative log-likelihood of the booked item heading the list.

    With ties skipped, only the booked item's position is supervised and the
    stagewise likelihood reduces to exp(f_booked) / sum_k exp(f_k).
    """
    s = _as_scores(scores)
    _, b = _booked_index(labels)
    if s.size != np.asarray(labels).size:
        raise DomainError("scores and labels differ in length")
    lse = logsumexp(s)
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


def softrank_objective(scores, labels, sigma: float = DEFAULT_SOFTRANK_SIGMA) -> LossOutput:
    """Negative smoothed NDCG: the discount is averaged over each item's rank
    distribution, which makes the metric differentiable in the scores."""
    s = _as_scores(scores)
    p_beats = _win_prob_matrix(s, sigma)
    y = np.asarray(labels, dtype=np.float64)
    if s.size != y.size:
        raise DomainError("scores and labels differ in length")
    if not np.any(y > 0):
        raise ValidationError("smoothed NDCG needs at least one positively labeled item")

    n = s.size
    gains = 2.0 ** y - 1.0
    g_max = _ideal_dcg(y)
    discounts = 1.0 / np.log2(2.0 + np.arange(n))
    # d p_beats[k, j] / d s[k]; the derivative w.r.t. s[j] is its negation
    pdf_scaled = (INV_2_SQRT_PI / sigma) * np.exp(
        -((s[:, None] - s[None, :]) ** 2) / (4.0 * sigma * sigma))

    ndcg_val = 0.0
    grad = np.zeros(n)
    for j in range(n):
        if gains[j] == 0.0:
            continue
        row, history = _opponent_fold(p_beats[:, j], j)
        ndcg_val += gains[j] / g_max * float(np.dot(row, discounts))

        g_row = gains[j] / g_max * discounts
        opponents = [k for k in range(n) if k != j]
        for k, old in zip(reversed(opponents), reversed(history)):
            p = p_beats[k, j]
            g_p = float(np.dot(g_row[1:], old[:-1]) - np.dot(g_row, old))
            g_old = g_row * (1.0 - p)
            g_old[:-1] += g_row[1:] * p
            grad[k] += g_p * pdf_scaled[k, j]
            grad[j] -= g_p * pdf_scaled[k, j]
            g_row = g_old

    return LossOutput(value=-ndcg_val, score_gradients=-grad)


# ---------------------------------------------------------------------------
# registry


def loss_by_name(name: str, sigma: float = DEFAULT_SOFTRANK_SIGMA):
    """Resolve a loss callable (scores, labels) -> LossOutput by its name."""
    table = {
        "ranknet": ranknet_loss,
        "lambdarank": lambdarank_loss,
        "listnet": listnet_loss,
        "listmle": listmle_loss,
        "softrank": lambda s, y: softrank_objective(s, y, sigma=sigma),
    }
    if name not in table:
        raise DomainError(f"unknown loss {name!r}, expected one of {LOSS_NAMES}")
    return table[name]
