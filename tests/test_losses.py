import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, expit, logsumexp

from sirank.data import MAX_ITEMS_PER_QUERY
from sirank.errors import DomainError, TrainingError
from sirank.losses import (
    LOSS_NAMES,
    LossOutput,
    _DISCOUNTS,
    _expit,
    _fold_layout,
    _listnet_target,
    _logsumexp,
    _others,
    lambdarank_loss,
    listmle_loss,
    listnet_loss,
    loss_by_name,
    pairwise_win_prob,
    rank_distribution,
    ranknet_loss,
    softrank_objective,
)
from sirank.scoring import rank


def fd_grad(loss_fn, scores, booked, h=1e-5):
    g = np.zeros_like(scores)
    for i in range(scores.size):
        up = scores.copy()
        up[i] += h
        dn = scores.copy()
        dn[i] -= h
        g[i] = (loss_fn(up, booked).value - loss_fn(dn, booked).value) / (2 * h)
    return g


def assert_grad_close(loss_fn, scores, booked, tol=1e-4):
    analytic = loss_fn(scores, booked).score_gradients
    numeric = fd_grad(loss_fn, scores, booked)
    err = np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic)))
    assert err < tol, f"gradient mismatch {err}"


# ---------------------------------------------------------------------------
# ranknet


def test_ranknet_even_pair_is_log2():
    out = ranknet_loss(np.array([0.3, 0.3]), 0)
    assert out.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_ranknet_saturated_pair_vanishes():
    out = ranknet_loss(np.array([60.0, 0.0]), 0)
    assert out.value < 1e-20
    assert np.max(np.abs(out.score_gradients)) < 1e-20


def test_ranknet_three_items_matches_scalar_expansion():
    scores = np.array([1.0, 0.0, -1.0])
    out = ranknet_loss(scores, 0)
    # oracle: expand the two (booked, other) logistic terms by hand
    expected = math.log(1.0 + math.exp(-1.0)) + math.log(1.0 + math.exp(-2.0))
    assert out.value == pytest.approx(expected, abs=1e-12)
    g1 = -1.0 / (1.0 + math.exp(1.0)) - 1.0 / (1.0 + math.exp(2.0))
    assert out.score_gradients[0] == pytest.approx(g1, abs=1e-12)


# ---------------------------------------------------------------------------
# lambdarank


def test_lambdarank_adjacent_swap_weight():
    scores = np.array([2.0, 1.0])
    out = lambdarank_loss(scores, 0)
    w = abs(1.0 / math.log2(2.0) - 1.0 / math.log2(3.0))
    assert w == pytest.approx(0.3690702464, abs=1e-9)
    assert out.value == pytest.approx(w * math.log(1.0 + math.exp(-1.0)), abs=1e-12)


def test_lambdarank_three_items_matches_pairwise_oracle():
    scores = np.array([0.2, 1.4, -0.5])
    out = lambdarank_loss(scores, 0)
    # positions under descending sort: item1 first, item0 second, item2 third
    pos = {1: 1, 0: 2, 2: 3}
    expected = 0.0
    for k in (1, 2):
        w = abs(1.0 / math.log2(1.0 + pos[0]) - 1.0 / math.log2(1.0 + pos[k]))
        expected += w * math.log(1.0 + math.exp(-(scores[0] - scores[k])))
    assert out.value == pytest.approx(expected, abs=1e-12)


def test_lambdarank_weights_shrink_with_distance_alignment():
    # booked already on top: swapping with the far item moves NDCG more
    scores = np.array([3.0, 2.0, 1.0])
    out_near = lambdarank_loss(scores, 0)
    assert out_near.value > 0


def test_lambdarank_gradient_matches_fd():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        scores = rng.normal(size=n) * 2.0
        booked = int(rng.integers(n))
        if np.min(np.abs(np.subtract.outer(scores, scores) + np.eye(n))) < 1e-3:
            continue  # keep the current ranking stable under the probe step
        assert_grad_close(lambdarank_loss, scores, booked)


# ---------------------------------------------------------------------------
# listnet


def test_listnet_booked_target_on_25():
    labels = np.zeros(25)
    labels[7] = 1.0
    scores = labels.copy()  # prediction equals target distribution
    out = listnet_loss(scores, 7)
    t = math.e / (math.e + 24.0)
    u = 1.0 / (math.e + 24.0)
    assert t == pytest.approx(0.10175, abs=5e-5)
    entropy = -(t * math.log(t) + 24.0 * u * math.log(u))
    assert out.value == pytest.approx(entropy, abs=1e-12)


def test_listnet_cross_entropy_is_minimized_at_target():
    labels = np.zeros(6)
    labels[2] = 1.0
    at_target = listnet_loss(labels.copy(), 2).value
    rng = np.random.default_rng(32)
    for _ in range(20):
        assert listnet_loss(labels + rng.normal(size=6) * 0.5, 2).value >= at_target - 1e-12


def test_listnet_uniform_two_items():
    out = listnet_loss(np.array([0.4, 0.4]), 0)
    assert out.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_listnet_empty_rejected():
    with pytest.raises(DomainError):
        listnet_loss(np.array([]), 0)


# ---------------------------------------------------------------------------
# listmle


def test_listmle_even_pair():
    out = listmle_loss(np.array([1.1, 1.1]), 0)
    assert out.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_listmle_saturated():
    out = listmle_loss(np.array([80.0, 0.0, 0.0]), 0)
    assert out.value < 1e-20


def test_listmle_matches_logsumexp_oracle():
    rng = np.random.default_rng(33)
    scores = rng.normal(size=4)
    out = listmle_loss(scores, 2)
    lse = math.log(sum(math.exp(v) for v in scores))
    assert out.value == pytest.approx(lse - scores[2], abs=1e-12)


def test_logsumexp_port_is_bitwise_scipy():
    # listnet and listmle train bitwise as they did with scipy's logsumexp
    rng = np.random.default_rng(34)
    for trial in range(4000):
        n = int(rng.integers(1, 31))
        a = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 2)
        if trial % 4 == 1:  # integer-valued, many ties
            a = rng.integers(-3, 4, size=n).astype(np.float64)
        elif trial % 4 == 2:  # several items share the maximum
            a[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = a.max()
        elif trial % 4 == 3:  # a one-hot label vector, as listnet's target reads it
            a = (np.arange(n) == rng.integers(n)).astype(np.float64)
        want, got = logsumexp(a), _logsumexp(a)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), a


def test_expit_port_is_bitwise_scipy():
    # ranknet and lambdarank train bitwise as they did with scipy's expit
    rng = np.random.default_rng(34)
    for _ in range(4000):
        x = rng.normal(size=int(rng.integers(1, 31))) * 10.0 ** rng.uniform(-3, 3)
        assert _expit(x).tobytes() == expit(x).tobytes(), x
    overflow = math.log(np.finfo(np.float64).max)  # 709.78...: exp overflows past it
    edges = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, -2.2250738585072009e-308, 745.2, -745.2, 746.0, -746.0,
             1e4, -1e4, 1e308, -1e308]
    around = overflow + np.arange(-3, 4) * np.spacing(overflow)
    edges = np.concatenate([edges, around, -around])
    assert _expit(edges).tobytes() == expit(edges).tobytes()
    for v in edges:  # each alone, so an overflow falls back for one value
        assert _expit(np.array([v])).tobytes() == expit(np.array([v])).tobytes(), v
    assert _expit(np.array([-746.0, 0.0, -1e308])).tolist() == [0.0, 0.5, 0.0]


# ---------------------------------------------------------------------------
# pairwise win probability


def test_win_prob_symmetry():
    assert pairwise_win_prob(1.3, 1.3, 0.2) == pytest.approx(0.5, abs=1e-15)


def test_win_prob_one_sigma_root_two():
    sigma = 0.4
    got = pairwise_win_prob(sigma * math.sqrt(2.0), 0.0, sigma)
    phi1, err = quad(lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi), -np.inf, 1.0)
    assert err < 1e-7
    assert got == pytest.approx(phi1, abs=1e-7)
    assert got == pytest.approx(0.8413447460685429, abs=1e-12)


def test_win_prob_complement():
    rng = np.random.default_rng(34)
    for _ in range(30):
        a, b, sigma = rng.normal(), rng.normal(), float(rng.uniform(0.05, 2.0))
        assert pairwise_win_prob(a, b, sigma) + pairwise_win_prob(b, a, sigma) == pytest.approx(
            1.0, abs=1e-12)


def test_win_prob_rejects_bad_sigma():
    with pytest.raises(DomainError):
        pairwise_win_prob(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# rank distribution


def test_rank_distribution_single_item():
    rd = rank_distribution(np.array([2.0]), 0.15)
    np.testing.assert_array_equal(rd.probs, [[1.0]])


def test_rank_distribution_two_equal():
    rd = rank_distribution(np.array([0.7, 0.7]), 0.15)
    np.testing.assert_allclose(rd.probs, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_rank_distribution_rows_are_distributions():
    rng = np.random.default_rng(35)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        rd = rank_distribution(rng.normal(size=n), float(rng.uniform(0.05, 1.0)))
        np.testing.assert_allclose(rd.probs.sum(axis=1), np.ones(n), atol=1e-9)
        assert np.all(rd.probs >= -1e-12) and np.all(rd.probs <= 1.0 + 1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="independent pairwise contests do not make the rank matrix doubly "
    "stochastic; with 3 equal scores every row is [1/4, 1/2, 1/4] so the "
    "middle column sums to 3/2. Rows are distributions, columns are not.",
)
def test_rank_distribution_columns_sum_to_one():
    rd = rank_distribution(np.zeros(3), 0.15)
    np.testing.assert_allclose(rd.probs.sum(axis=0), np.ones(3), atol=1e-9)


def test_rank_distribution_matches_monte_carlo():
    rng = np.random.default_rng(42)
    scores = np.array([0.35, 0.1, -0.2])
    sigma = 0.3
    rd = rank_distribution(scores, sigma)
    # oracle: simulate the same independent Bernoulli contest model
    n_draws = 200_000
    counts = np.zeros((3, 3))
    p = np.zeros((3, 3))
    for k in range(3):
        for j in range(3):
            if k != j:
                p[k, j] = pairwise_win_prob(scores[k], scores[j], sigma)
    for j in range(3):
        beats = [k for k in range(3) if k != j]
        losses_to = (rng.random((n_draws, 2)) < p[beats, j]).sum(axis=1)
        for r in range(3):
            counts[j, r] = np.mean(losses_to == r)
    se = np.sqrt(np.maximum(rd.probs * (1 - rd.probs), 1e-12) / n_draws)
    assert np.all(np.abs(counts - rd.probs) <= 3.0 * se + 1e-12)


# ---------------------------------------------------------------------------
# softrank objective


def test_softrank_point_mass_limit():
    scores = np.array([30.0, 0.0, -5.0, 2.0])
    out = softrank_objective(scores, 0, sigma=0.15)
    assert out.value == pytest.approx(-1.0, abs=1e-9)


def test_softrank_two_equal_scores():
    out = softrank_objective(np.array([0.0, 0.0]), 0, sigma=0.15)
    expected = -0.5 * (1.0 + 1.0 / math.log2(3.0))
    assert out.value == pytest.approx(expected, abs=1e-9)
    assert out.value == pytest.approx(-0.81546, abs=5e-6)


def test_softrank_gradient_matches_fd_four_items():
    scores = np.array([0.4, 0.1, -0.3, 0.2])
    assert_grad_close(lambda s, b: softrank_objective(s, b, sigma=0.15), scores, 1)


def test_softrank_rejects_bad_sigma():
    with pytest.raises(DomainError):
        softrank_objective(np.zeros(2), 0, sigma=-1.0)


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
def test_win_probabilities_refuse_a_non_finite_sigma(sigma):
    # at sigma = inf every win probability is 1/2 and softrank's gradient is zero
    for call in (lambda: softrank_objective(np.array([1.0, 2.0, 0.5]), 1, sigma=sigma),
                 lambda: rank_distribution(np.array([1.0, 2.0]), sigma),
                 lambda: pairwise_win_prob(0.0, 1.0, sigma)):
        with pytest.raises(DomainError, match=r"^sigma must be finite and > 0, got "):
            call()


def test_softrank_bounded_below_by_minus_one():
    rng = np.random.default_rng(38)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        booked = int(rng.integers(n))
        out = softrank_objective(rng.normal(size=n), booked, sigma=0.15)
        assert out.value >= -1.0 - 1e-12


# ---------------------------------------------------------------------------
# cross-loss properties


def random_case(rng):
    n = int(rng.integers(2, 7))
    scores = rng.normal(size=n) * 1.5
    return scores, int(rng.integers(n))


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_every_loss_gradient_matches_fd(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    fn = loss_by_name(name)
    checked = 0
    while checked < 8:
        scores, booked = random_case(rng)
        gaps = np.abs(np.subtract.outer(scores, scores)) + np.eye(scores.size)
        if name == "lambdarank" and gaps.min() < 1e-3:
            continue
        assert_grad_close(fn, scores, booked)
        checked += 1


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_every_loss_is_translation_invariant(name):
    rng = np.random.default_rng(hash(name) % 2**31)
    fn = loss_by_name(name)
    for shift in (-7.0, 0.3, 42.0):
        scores, booked = random_case(rng)
        base = fn(scores, booked)
        moved = fn(scores + shift, booked)
        assert moved.value == pytest.approx(base.value, abs=1e-9)
        np.testing.assert_allclose(moved.score_gradients, base.score_gradients, atol=1e-9)


@pytest.mark.parametrize("name", ["ranknet", "lambdarank", "listmle"])
def test_pairwise_losses_positive_unless_saturated(name):
    fn = loss_by_name(name)
    rng = np.random.default_rng(39)
    for _ in range(15):
        scores, booked = random_case(rng)
        scores[booked] = np.min(scores) - 0.5  # booked not dominant
        assert fn(scores, booked).value > 0


def test_loss_output_rejects_non_finite():
    with pytest.raises(Exception):
        LossOutput(value=float("nan"), score_gradients=np.zeros(2))


def test_loss_output_takes_finite_gradients_whose_sum_overflows():
    with np.errstate(over="ignore"):  # as in train
        out = LossOutput(value=1.0, score_gradients=np.array([1e308, 1e308]))
    assert out.score_gradients.tolist() == [1e308, 1e308]


@pytest.mark.parametrize("value,gradients", [
    (1.0, [np.inf, -np.inf]), (1.0, [np.nan, 0.0]), (1.0, [0.0, np.inf]),
    (np.nan, [0.0, 0.0]), (np.inf, [1e308, 1e308])])
def test_loss_output_refuses_a_non_finite_value_or_gradient(value, gradients):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError) as err:
        LossOutput(value=value, score_gradients=np.array(gradients))
    assert str(err.value) == "loss produced a non-finite value or gradient"


def test_ranknet_is_bitwise_the_masked_pair_formula():
    rng = np.random.default_rng(41)
    for trial in range(2000):
        n = int(rng.integers(1, 26))
        s = rng.normal(size=n) * 10.0 ** rng.uniform(-2, math.log10(30.0))
        if trial % 3 == 1:  # ties, some with the booked item
            s = np.round(s, 0)
        b = int(rng.integers(n))
        value, grad = reference_ranknet(s, b)
        got = ranknet_loss(s, b)
        assert got.value == value, s
        assert got.score_gradients.tobytes() == grad.tobytes(), s


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_every_loss_rejects_booked_index_out_of_range(name):
    fn = loss_by_name(name)
    scores = np.array([0.3, -0.2, 1.1])
    for booked in (-1, scores.size):
        with pytest.raises(DomainError, match=f"booked index {booked} out of range"):
            fn(scores, booked)


# ---------------------------------------------------------------------------
# a frozen reference of the losses as first written: the full win matrix,
# a fold of numpy rows and two np.dot calls per opponent, and the per-call
# listwise formulas. It is kept plain on purpose and never optimized, so a
# rewrite of a loss that moves a bit of a value or a gradient fails
# against it.

SQRT2 = math.sqrt(2.0)
INV_2_SQRT_PI = 0.5 / math.sqrt(math.pi)


def reference_win_prob_matrix(s, sigma):
    # p[k, j] = P(k beats j)
    diff = (s[:, None] - s[None, :]) / (sigma * SQRT2)
    return 0.5 * erfc(-diff / SQRT2)


def reference_fold(p_beats_j, j):
    """Item j's rank distribution and the distribution before each opponent."""
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


def reference_rank_distribution(s, sigma):
    p_beats = reference_win_prob_matrix(s, sigma)
    return np.array([reference_fold(p_beats[:, j], j)[0] for j in range(s.size)])


def reference_softrank(s, b, sigma):
    p_beats = reference_win_prob_matrix(s, sigma)
    n = s.size
    discounts = 1.0 / np.log2(2.0 + np.arange(n))
    pdf_scaled = (INV_2_SQRT_PI / sigma) * np.exp(-((s - s[b]) ** 2) / (4.0 * sigma * sigma))
    row, history = reference_fold(p_beats[:, b], b)
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
    return -float(np.dot(row, discounts)), -grad


def reference_ranknet(s, b):
    # the pairs written plainly: a boolean mask for the other items, the
    # differences f_booked - f_other and unit weights multiplied in
    index = np.arange(s.size)
    others = index[index != b]
    w = np.ones(others.size)
    d = s[b] - s[others]
    slope = w * expit(-d)
    grad = np.zeros(s.size)
    grad[others] = slope
    grad[b] = -float(np.sum(slope)) if others.size else 0.0
    return float(np.sum(w * np.logaddexp(0.0, -d))), grad


def reference_listnet(s, b):
    y = np.zeros(s.size)
    y[b] = 1.0
    log_p = s - logsumexp(s)
    target = np.exp(y - logsumexp(y))
    return float(-np.sum(target * log_p)), np.exp(log_p) - target


def reference_listmle(s, b):
    lse = logsumexp(s)
    grad = np.exp(s - lse)
    grad[b] -= 1.0
    return float(lse - s[b]), grad


def assert_bitwise(got: LossOutput, value, grad, case):
    assert np.float64(got.value).tobytes() == np.float64(value).tobytes(), case
    assert got.score_gradients.tobytes() == grad.tobytes(), case


def reference_cases(sizes):
    """(scores, scale) for every size in ``sizes`` at scales 1e-2..1e3,
    each as normal draws and as draws with ties."""
    rng = np.random.default_rng(43)
    for n in sizes:
        for scale in 10.0 ** np.arange(-2, 4):
            yield rng.normal(size=n) * scale, scale
            yield rng.integers(-2, 3, size=n) * scale, scale


def test_softrank_and_rank_distribution_are_bitwise_the_frozen_reference():
    for scores, scale in reference_cases(range(1, MAX_ITEMS_PER_QUERY + 1)):
        for sigma in (0.15, 0.15 * scale):
            assert (rank_distribution(scores, sigma).probs.tobytes()
                    == reference_rank_distribution(scores, sigma).tobytes()), scores
            for b in range(scores.size):
                assert_bitwise(softrank_objective(scores, b, sigma=sigma),
                               *reference_softrank(scores, b, sigma), (scores, b, sigma))


def test_listwise_losses_are_bitwise_the_frozen_reference():
    for scores, _ in reference_cases(range(1, MAX_ITEMS_PER_QUERY + 1)):
        for b in range(scores.size):
            assert_bitwise(listnet_loss(scores, b), *reference_listnet(scores, b), (scores, b))
            assert_bitwise(listmle_loss(scores, b), *reference_listmle(scores, b), (scores, b))


def test_cached_tables_are_read_only():
    for n in range(1, MAX_ITEMS_PER_QUERY + 1):
        for name in LOSS_NAMES:
            loss_by_name(name)(np.linspace(1.0, 0.0, n), n - 1)
    tables = [_DISCOUNTS, *(table for cached in (_others, _listnet_target, _fold_layout)
                            for table in cached.cache.values())]
    assert len(tables) > 3 * MAX_ITEMS_PER_QUERY
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


def test_a_list_longer_than_any_query_scores_without_being_cached():
    n = MAX_ITEMS_PER_QUERY + 5
    scores = np.random.default_rng(44).normal(size=n)
    labels = (np.arange(n) == 3).astype(np.float64)
    for cached in (_others, _listnet_target, _fold_layout):
        cached.cache.clear()
    assert_bitwise(softrank_objective(scores, 3), *reference_softrank(scores, 3, 0.15), n)
    assert_bitwise(listnet_loss(scores, 3), *reference_listnet(scores, 3), n)
    assert_bitwise(lambdarank_loss(scores, 3), *graded_lambdarank(scores, labels), n)
    assert_bitwise(ranknet_loss(scores, 3), *reference_ranknet(scores, 3), n)
    assert (rank_distribution(scores, 0.15).probs.tobytes()
            == reference_rank_distribution(scores, 0.15).tobytes())
    for cached in (_others, _listnet_target, _fold_layout):
        assert not cached.cache


# graded-gain reference: lambdarank and softrank as they were written for any
# labelling, with gains 2^y - 1 and the ideal DCG as normalizer


def graded_ideal_dcg(y):
    gains = np.sort(2.0 ** y - 1.0)[::-1]
    return float(np.sum(gains / np.log2(2.0 + np.arange(y.size))))


def graded_lambdarank(s, y):
    b = int(np.flatnonzero(y == 1.0)[0])
    index = np.arange(s.size)
    others = index[index != b]
    if others.size == 0:
        return 0.0, np.zeros(1)
    inv_disc = 1.0 / np.log2(1.0 + rank(s).positions())
    gains = 2.0 ** y - 1.0
    w = (np.abs(gains[b] - gains[others]) * np.abs(inv_disc[b] - inv_disc[others])
         / graded_ideal_dcg(y))
    d = s[b] - s[others]
    slope = w * expit(-d)
    grad = np.zeros(s.size)
    grad[others] = slope
    grad[b] = -float(np.sum(slope))
    return float(np.sum(w * np.logaddexp(0.0, -d))), grad


def graded_softrank(s, y, sigma):
    n = s.size
    p_beats = reference_win_prob_matrix(s, sigma)
    gains = 2.0 ** y - 1.0
    g_max = graded_ideal_dcg(y)
    discounts = 1.0 / np.log2(2.0 + np.arange(n))
    pdf_scaled = (INV_2_SQRT_PI / sigma) * np.exp(
        -((s[:, None] - s[None, :]) ** 2) / (4.0 * sigma * sigma))
    ndcg_val = 0.0
    grad = np.zeros(n)
    for j in range(n):
        if gains[j] == 0.0:
            continue
        row, history = reference_fold(p_beats[:, j], j)
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
    return -ndcg_val, -grad


def test_one_booked_losses_are_bitwise_the_graded_formulas():
    rng = np.random.default_rng(40)
    for trial in range(2000):
        n = int(rng.integers(1, 26))
        scores = rng.normal(size=n) * 10.0 ** rng.uniform(-2, math.log10(30.0))
        if trial % 3 == 1:  # ties, some with the booked item
            scores = np.round(scores, 0)
        booked = int(rng.integers(n))
        labels = (np.arange(n) == booked).astype(np.float64)
        for got, (value, grad) in ((lambdarank_loss(scores, booked),
                                    graded_lambdarank(scores, labels)),
                                   (softrank_objective(scores, booked, sigma=0.15),
                                    graded_softrank(scores, labels, 0.15))):
            assert np.float64(got.value).tobytes() == np.float64(value).tobytes(), scores
            assert got.score_gradients.tobytes() == grad.tobytes(), scores


# ---------------------------------------------------------------------------
# what loads scipy.special

_SCIPY_SPECIAL_SCRIPT = """if True:
    import sys, tempfile
    from pathlib import Path

    def unloaded(after):
        assert "scipy.special" not in sys.modules, after

    import sirank as sr
    unloaded("import sirank")
    import sirank.cli
    unloaded("import sirank.cli")
    from sirank.metrics import evaluate_scenarios
    ds = sr.generate(sr.GeneratorConfig(num_queries=30, seed=3))
    train_ds, val_ds, test_ds = sr.split_holdout(ds, seed=3)
    for loss in ("ranknet", "lambdarank", "listnet", "listmle"):
        config = sr.TrainConfig(loss=loss, max_epochs=2, patience=1, seed=3)
        model, _ = sr.train(train_ds, val_ds, config)
        unloaded(f"{loss} train")
    evaluate_scenarios(model, test_ds, sr.CASE_IDS, gap=True)
    unloaded("evaluate_scenarios")
    perturbed = sr.apply_case(test_ds, sr.PerturbationCase(3))
    unloaded("apply_case")
    with tempfile.TemporaryDirectory() as tmp:
        sr.save_dataset(perturbed, Path(tmp) / "p.jsonl")
        unloaded("save_dataset")
        sr.load_dataset(Path(tmp) / "p.jsonl", ds.schema)
        unloaded("load_dataset")
    if sys.argv[1] == "softrank":
        sr.softrank_objective([0.3, -0.2, 1.1], 0)
    else:
        sr.two_sample_t_test([0.1, 0.4, 0.2], [0.3, 0.5, 0.6])
    assert "scipy.special" in sys.modules, sys.argv[1]
"""


@pytest.mark.parametrize("loader", ["softrank", "t-test"])
def test_only_softrank_and_the_t_test_load_scipy_special(loader):
    # the CLI's non-training commands and the other four losses start and
    # run without that library's import time and memory
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _SCIPY_SPECIAL_SCRIPT, loader],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
