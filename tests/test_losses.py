import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from sirank.errors import DomainError, ValidationError
from sirank.losses import (
    DEFAULT_SOFTRANK_SIGMA,
    LOSS_NAMES,
    LossOutput,
    _logsumexp,
    lambdarank_loss,
    listmle_loss,
    listnet_loss,
    loss_by_name,
    pairwise_win_prob,
    rank_distribution,
    ranknet_loss,
    softrank_objective,
)


def fd_grad(loss_fn, scores, labels, h=1e-5):
    g = np.zeros_like(scores)
    for i in range(scores.size):
        up = scores.copy()
        up[i] += h
        dn = scores.copy()
        dn[i] -= h
        g[i] = (loss_fn(up, labels).value - loss_fn(dn, labels).value) / (2 * h)
    return g


def assert_grad_close(loss_fn, scores, labels, tol=1e-4):
    analytic = loss_fn(scores, labels).score_gradients
    numeric = fd_grad(loss_fn, scores, labels)
    err = np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic)))
    assert err < tol, f"gradient mismatch {err}"


BOOKED3 = np.array([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# ranknet


def test_ranknet_even_pair_is_log2():
    out = ranknet_loss(np.array([0.3, 0.3]), np.array([1.0, 0.0]))
    assert out.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_ranknet_saturated_pair_vanishes():
    out = ranknet_loss(np.array([60.0, 0.0]), np.array([1.0, 0.0]))
    assert out.value < 1e-20
    assert np.max(np.abs(out.score_gradients)) < 1e-20


def test_ranknet_three_items_matches_scalar_expansion():
    scores = np.array([1.0, 0.0, -1.0])
    out = ranknet_loss(scores, BOOKED3)
    # oracle: expand the two (booked, other) logistic terms by hand
    expected = math.log(1.0 + math.exp(-1.0)) + math.log(1.0 + math.exp(-2.0))
    assert out.value == pytest.approx(expected, abs=1e-12)
    g1 = -1.0 / (1.0 + math.exp(1.0)) - 1.0 / (1.0 + math.exp(2.0))
    assert out.score_gradients[0] == pytest.approx(g1, abs=1e-12)


def test_ranknet_requires_single_booked():
    with pytest.raises(ValidationError):
        ranknet_loss(np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError):
        ranknet_loss(np.zeros(3), np.array([1.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# lambdarank


def test_lambdarank_adjacent_swap_weight():
    scores = np.array([2.0, 1.0])
    out = lambdarank_loss(scores, np.array([1.0, 0.0]))
    w = abs(1.0 / math.log2(2.0) - 1.0 / math.log2(3.0))
    assert w == pytest.approx(0.3690702464, abs=1e-9)
    assert out.value == pytest.approx(w * math.log(1.0 + math.exp(-1.0)), abs=1e-12)


def test_lambdarank_three_items_matches_pairwise_oracle():
    scores = np.array([0.2, 1.4, -0.5])
    labels = np.array([1.0, 0.0, 0.0])
    out = lambdarank_loss(scores, labels)
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
    out_near = lambdarank_loss(scores, np.array([1.0, 0.0, 0.0]))
    assert out_near.value > 0


def test_lambdarank_gradient_matches_fd():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        scores = rng.normal(size=n) * 2.0
        labels = np.zeros(n)
        labels[rng.integers(n)] = 1.0
        if np.min(np.abs(np.subtract.outer(scores, scores) + np.eye(n))) < 1e-3:
            continue  # keep the current ranking stable under the probe step
        assert_grad_close(lambdarank_loss, scores, labels)


# ---------------------------------------------------------------------------
# listnet


def test_listnet_booked_target_on_25():
    labels = np.zeros(25)
    labels[7] = 1.0
    scores = labels.copy()  # prediction equals target distribution
    out = listnet_loss(scores, labels)
    t = math.e / (math.e + 24.0)
    u = 1.0 / (math.e + 24.0)
    assert t == pytest.approx(0.10175, abs=5e-5)
    entropy = -(t * math.log(t) + 24.0 * u * math.log(u))
    assert out.value == pytest.approx(entropy, abs=1e-12)


def test_listnet_cross_entropy_is_minimized_at_target():
    labels = np.zeros(6)
    labels[2] = 1.0
    at_target = listnet_loss(labels.copy(), labels).value
    rng = np.random.default_rng(32)
    for _ in range(20):
        assert listnet_loss(labels + rng.normal(size=6) * 0.5, labels).value >= at_target - 1e-12


def test_listnet_uniform_two_items():
    out = listnet_loss(np.array([0.4, 0.4]), np.array([1.0, 0.0]))
    assert out.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_listnet_empty_rejected():
    with pytest.raises(DomainError):
        listnet_loss(np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# listmle


def test_listmle_even_pair():
    out = listmle_loss(np.array([1.1, 1.1]), np.array([1.0, 0.0]))
    assert out.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_listmle_saturated():
    out = listmle_loss(np.array([80.0, 0.0, 0.0]), BOOKED3)
    assert out.value < 1e-20


def test_listmle_matches_logsumexp_oracle():
    rng = np.random.default_rng(33)
    scores = rng.normal(size=4)
    labels = np.array([0.0, 0.0, 1.0, 0.0])
    out = listmle_loss(scores, labels)
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
    out = softrank_objective(scores, np.array([1.0, 0.0, 0.0, 0.0]), sigma=0.15)
    assert out.value == pytest.approx(-1.0, abs=1e-9)


def test_softrank_two_equal_scores():
    out = softrank_objective(np.array([0.0, 0.0]), np.array([1.0, 0.0]), sigma=0.15)
    expected = -0.5 * (1.0 + 1.0 / math.log2(3.0))
    assert out.value == pytest.approx(expected, abs=1e-9)
    assert out.value == pytest.approx(-0.81546, abs=5e-6)


def test_softrank_gradient_matches_fd_four_items():
    scores = np.array([0.4, 0.1, -0.3, 0.2])
    labels = np.array([0.0, 1.0, 0.0, 0.0])
    assert_grad_close(lambda s, y: softrank_objective(s, y, sigma=0.15), scores, labels)


def test_softrank_graded_labels_gradient():
    rng = np.random.default_rng(37)
    scores = rng.normal(size=5) * 0.4
    labels = np.array([2.0, 1.0, 0.0, 1.0, 0.0])
    assert_grad_close(lambda s, y: softrank_objective(s, y, sigma=0.2), scores, labels)


def test_softrank_needs_positive_label():
    with pytest.raises(ValidationError):
        softrank_objective(np.zeros(3), np.zeros(3))


def test_softrank_rejects_bad_sigma():
    with pytest.raises(DomainError):
        softrank_objective(np.zeros(2), np.array([1.0, 0.0]), sigma=-1.0)


def test_softrank_bounded_below_by_minus_one():
    rng = np.random.default_rng(38)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        labels = np.zeros(n)
        labels[rng.integers(n)] = 1.0
        out = softrank_objective(rng.normal(size=n), labels, sigma=0.15)
        assert out.value >= -1.0 - 1e-12


# ---------------------------------------------------------------------------
# cross-loss properties


def random_case(rng):
    n = int(rng.integers(2, 7))
    scores = rng.normal(size=n) * 1.5
    labels = np.zeros(n)
    labels[rng.integers(n)] = 1.0
    return scores, labels


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_every_loss_gradient_matches_fd(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    fn = loss_by_name(name)
    checked = 0
    while checked < 8:
        scores, labels = random_case(rng)
        gaps = np.abs(np.subtract.outer(scores, scores)) + np.eye(scores.size)
        if name == "lambdarank" and gaps.min() < 1e-3:
            continue
        assert_grad_close(fn, scores, labels)
        checked += 1


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_every_loss_is_translation_invariant(name):
    rng = np.random.default_rng(hash(name) % 2**31)
    fn = loss_by_name(name)
    for shift in (-7.0, 0.3, 42.0):
        scores, labels = random_case(rng)
        base = fn(scores, labels)
        moved = fn(scores + shift, labels)
        assert moved.value == pytest.approx(base.value, abs=1e-9)
        np.testing.assert_allclose(moved.score_gradients, base.score_gradients, atol=1e-9)


@pytest.mark.parametrize("name", ["ranknet", "lambdarank", "listmle"])
def test_pairwise_losses_positive_unless_saturated(name):
    fn = loss_by_name(name)
    rng = np.random.default_rng(39)
    for _ in range(15):
        scores, labels = random_case(rng)
        scores[np.argmax(labels)] = np.min(scores) - 0.5  # booked not dominant
        assert fn(scores, labels).value > 0


def test_loss_output_rejects_non_finite():
    with pytest.raises(Exception):
        LossOutput(value=float("nan"), score_gradients=np.zeros(2))
