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

What depends only on a list's size and booked index (the pairwise losses'
index of the other items, listnet's target, the DCG discounts) is computed
once, as a read-only array, for lists of up to ``MAX_ITEMS_PER_QUERY`` items.
softrank needs only the booked item's rank distribution: it takes one
column of win probabilities and folds it on Python floats, over the ranks
each step can reach, with the same roundings as a fold of numpy rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, expit

from .data import MAX_ITEMS_PER_QUERY
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
# per-list constants


def _per_list(build):
    """``build(n, *rest)`` as a read-only array, built once per argument
    tuple for lists of at most ``MAX_ITEMS_PER_QUERY`` items, so the cache
    stays small; a longer list, which a caller of the public losses may
    pass, gets a new one on every call."""
    cache: dict[tuple[int, ...], np.ndarray] = {}

    def get(*key: int) -> np.ndarray:
        out = cache.get(key)
        if out is None:
            out = build(*key)
            out.flags.writeable = False
            if key[0] <= MAX_ITEMS_PER_QUERY:
                cache[key] = out
        return out

    get.cache = cache
    return get


@_per_list
def _others(n: int, b: int) -> np.ndarray:
    """The index of every item but b, in order."""
    others = np.arange(n - 1)
    others[b:] += 1
    return others


@_per_list
def _listnet_target(n: int, b: int) -> np.ndarray:
    """The softmax of the one-hot label vector of b."""
    y = np.zeros(n)
    y[b] = 1.0
    return np.exp(y - _logsumexp(y))


# _DISCOUNTS[r - 1] = 1 / log2(1 + r), the DCG discount of rank r
_DISCOUNTS = 1.0 / np.log2(2.0 + np.arange(MAX_ITEMS_PER_QUERY))
_DISCOUNTS.flags.writeable = False


# ---------------------------------------------------------------------------
# pairwise


def _weighted_pairwise_loss(scores, booked, pair_weights=None) -> LossOutput:
    """Sum over (booked, non-booked) pairs of w * log(1 + e^-(f_booked - f_other)),
    with w = pair_weights(scores, booked, others) held constant in the
    gradient, or w = 1 without ``pair_weights``."""
    s, b = _scores_and_booked(scores, booked)
    if s.size == 1:
        return LossOutput(value=0.0, score_gradients=np.zeros(1))
    others = _others(s.size, b)
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
    positions = rank(scores).positions()
    inv_disc = (_DISCOUNTS[positions - 1] if positions.size <= MAX_ITEMS_PER_QUERY
                else 1.0 / np.log2(1.0 + positions))
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
    log_p = s - _logsumexp(s)
    target = _listnet_target(s.size, b)
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


def _win_prob(diff, sigma: float):
    """P(k beats j), elementwise, from diff = s_k - s_j: when both scores
    carry N(0, sigma^2) noise, the noisy difference is N(diff, 2 sigma^2)."""
    if not 0 < sigma < math.inf:
        raise DomainError(f"sigma must be finite and > 0, got {sigma}")
    return 0.5 * erfc(-(diff / (sigma * SQRT2)) / SQRT2)


def pairwise_win_prob(z_j: float, z_k: float, sigma: float) -> float:
    """P(noisy score of j exceeds noisy score of k) when both carry N(0, sigma^2)
    noise: the difference is N(z_j - z_k, 2 sigma^2)."""
    s = np.array([z_j, z_k], dtype=np.float64)
    return float(_win_prob(s[0] - s[1], sigma))


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


def _opponent_fold(p_wins: list[float]) -> tuple[list[float], list[float]]:
    """Rank distribution of an item, from P(k beats it) of each opponent k in
    index order. Starting from a point mass at rank 1, every opponent shifts
    the item down one rank with its probability, independently. After t
    opponents only ranks 1..t+1 can be held, so each distribution is kept to
    those. Also returns, one after another, the distributions before each
    opponent's fold, which the backward pass reads."""
    row, history = [1.0], []
    for p in p_wins:
        history += row
        q = 1.0 - p
        row = [row[0] * q, *[r * q + r_up * p for r_up, r in zip(row, row[1:])], row[-1] * p]
    return row, history


@_per_list
def _fold_layout(n: int) -> np.ndarray:
    """Where softrank's backward pass puts its two stacks of n - 1 rows of n
    ranks in one flat array: ranks 0..t of row t of the distributions, rows
    first to last, then ranks 0..t+1 of row t of their gradients, rows last
    to first; every other rank is 0."""
    m = n - 1
    before = [t * n + r for t in range(m) for r in range(t + 1)]
    after = [(m + t) * n + r for t in reversed(range(m)) for r in range(t + 2)]
    return np.array(before + after, dtype=np.intp)


def rank_distribution(scores, sigma: float) -> RankDistribution:
    """Every item's rank distribution under independent pairwise contests."""
    s = _as_scores(scores)
    columns = _win_prob(s[:, None] - s[None, :], sigma).T.tolist()  # columns[j][k] = P(k beats j)
    return RankDistribution(probs=np.array([_opponent_fold(p[:j] + p[j + 1:])[0]
                                            for j, p in enumerate(columns)]))


def softrank_objective(scores, booked, sigma: float = DEFAULT_SOFTRANK_SIGMA) -> LossOutput:
    """Negative smoothed NDCG: the discount is averaged over the booked
    item's rank distribution, which makes the metric differentiable in the
    scores. Only the booked item has a gain, and it and the ideal DCG are 1."""
    s, b = _scores_and_booked(scores, booked)
    n = s.size
    diff = s - s[b]
    p = _win_prob(diff, sigma).tolist()  # p[k] = P(k beats b)
    p_wins = p[:b] + p[b + 1:]
    discounts = _DISCOUNTS[:n] if n <= MAX_ITEMS_PER_QUERY else 1.0 / np.log2(2.0 + np.arange(n))
    # d p[k] / d s[k]; the derivative w.r.t. s[b] is its negation
    pdf_scaled = (INV_2_SQRT_PI / sigma) * np.exp(-(diff ** 2) / (4.0 * sigma * sigma))
    row, history = _opponent_fold(p_wins)

    # g: the gradient of the value w.r.t. the distribution after opponent
    # t's fold, on the ranks 1..t+2 that this distribution can hold
    g, g_history = discounts.tolist(), []
    for p_t in reversed(p_wins):
        g_history += g
        q = 1.0 - p_t
        g = [g_r * q + g_down * p_t for g_r, g_down in zip(g, g[1:])]
    stacks = np.zeros(2 * (n - 1) * n)
    stacks[_fold_layout(n)] = history + g_history
    before, g_after = stacks.reshape(2, n - 1, n)
    # each row's two dot products are the BLAS calls of np.dot on that row
    g_p = np.vecdot(g_after[:, 1:], before[:, :-1]) - np.vecdot(g_after, before)
    others = _others(n, b)
    terms = g_p * pdf_scaled[others]
    grad = np.zeros(n)
    grad[others] += terms  # 0.0 + term: a -0.0 term gives 0.0
    grad_b = 0.0
    for term in reversed(terms.tolist()):
        grad_b -= term
    grad[b] = grad_b
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
