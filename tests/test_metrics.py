import math

import numpy as np
import pytest
from scipy.integrate import quad

from sirank.data import apply_standardization, fit_standardization
from sirank.errors import DomainError, ValidationError
from sirank.metrics import (
    EvalResult,
    bonferroni,
    mean_ndcg,
    ndcg,
    random_ranker_mean_ndcg,
    two_sample_t_test,
)
from sirank.scoring import EVAL_CHUNK_ROWS, Ranking, build_model, rank, score_query

from conftest import hand_dataset


def ranking_with_booked_at(pos: int, d: int) -> tuple[Ranking, np.ndarray]:
    labels = np.zeros(d)
    labels[0] = 1.0
    others = [j for j in range(d) if j != 0]
    order = others[: pos - 1] + [0] + others[pos - 1:]
    return Ranking(order=np.array(order)), labels


# ---------------------------------------------------------------------------
# ndcg


def test_booked_first_is_one():
    r, labels = ranking_with_booked_at(1, 6)
    assert ndcg(r, labels) == 1.0


def test_booked_third_is_half():
    r, labels = ranking_with_booked_at(3, 6)
    assert ndcg(r, labels) == pytest.approx(0.5, abs=1e-12)


def brute_force_ndcg(order, labels):
    # term-by-term evaluation with explicit ideal-ranking normalization
    positions = {item: p + 1 for p, item in enumerate(order)}
    dcg = 0.0
    for j, y in enumerate(labels):
        dcg += (2.0 ** y - 1.0) / math.log2(1.0 + positions[j])
    ideal = sorted(labels, reverse=True)
    idcg = 0.0
    for p, y in enumerate(ideal, start=1):
        idcg += (2.0 ** y - 1.0) / math.log2(1.0 + p)
    return dcg / idcg


def test_random_lists_match_term_by_term_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = 6
        labels = np.zeros(d)
        labels[rng.integers(d)] = 1.0
        order = rng.permutation(d)
        got = ndcg(Ranking(order=order), labels)
        assert got == pytest.approx(brute_force_ndcg(list(order), labels), abs=1e-12)


def test_graded_labels_match_oracle():
    rng = np.random.default_rng(24)
    for _ in range(50):
        d = 5
        labels = rng.integers(0, 3, size=d).astype(float)
        if not np.any(labels > 0):
            labels[0] = 2.0
        order = rng.permutation(d)
        got = ndcg(Ranking(order=order), labels)
        assert got == pytest.approx(brute_force_ndcg(list(order), labels), abs=1e-12)


def test_ndcg_needs_a_positive_label():
    with pytest.raises(ValidationError):
        ndcg(Ranking(order=np.arange(3)), np.zeros(3))


def test_ndcg_range_and_nonbooked_shuffle_invariance():
    rng = np.random.default_rng(25)
    for _ in range(30):
        d = int(rng.integers(3, 10))
        labels = np.zeros(d)
        booked = int(rng.integers(d))
        labels[booked] = 1.0
        order = list(rng.permutation(d))
        base = ndcg(Ranking(order=np.array(order)), labels)
        assert 0.0 < base <= 1.0
        # shuffle the non-booked items among themselves, keep booked fixed
        pos_b = order.index(booked)
        rest = [j for j in order if j != booked]
        rng.shuffle(rest)
        rest.insert(pos_b, booked)
        assert ndcg(Ranking(order=np.array(rest)), labels) == base


# ---------------------------------------------------------------------------
# mean_ndcg


def prepared_dataset(n=10, seed=0):
    ds = hand_dataset(n_queries=n, seed=seed)
    return apply_standardization(ds, fit_standardization(ds, ds.schema))


def test_oracle_ranker_scores_one():
    ds = prepared_dataset()
    res = mean_ndcg(lambda q: q.labels, ds)
    assert res.mean == 1.0
    assert res.count == len(ds)


def test_antioracle_on_25_item_lists():
    ds = hand_dataset(n_queries=6, seed=1, items=(25, 25))
    res = mean_ndcg(lambda q: -q.labels, ds)
    assert res.mean == pytest.approx(1.0 / math.log2(26.0), abs=1e-12)


def test_mean_matches_streaming_oracle():
    ds = prepared_dataset(n=14, seed=2)
    score = lambda q: np.log(q.scalevariant[:, 0])
    res = mean_ndcg(score, ds)
    total, count = 0.0, 0
    for q in ds.queries:
        total += ndcg(rank(score(q)), q.labels)
        count += 1
    assert res.mean == pytest.approx(total / count, abs=1e-12)
    assert len(res.per_query) == count


@pytest.mark.parametrize("mode", ["sir", "deep_only"])
def test_batched_ndcg_equals_per_query_bitwise(mode):
    raw = hand_dataset(n_queries=64, seed=30, items=(18, 25))
    bounds = np.cumsum([0] + [q.n_items for q in raw.queries])
    assert bounds[-1] > EVAL_CHUNK_ROWS and not np.any(bounds == EVAL_CHUNK_ROWS)
    stats = fit_standardization(raw, raw.schema, include_scalevariant=(mode == "deep_only"))
    ds = apply_standardization(raw, stats)
    model = build_model(ds.schema, mode=mode, widths=(8, 4), compressor_dim=2, seed=3,
                        stats=stats)
    res = mean_ndcg(model, ds)
    want = [ndcg(rank(score_query(model, q)), q.labels) for q in ds.queries]
    assert res.per_query.tolist() == want
    assert res.count == len(ds)


@pytest.mark.parametrize("mode", ["sir", "deep_only"])
def test_raw_and_standardized_views_evaluate_bitwise_equal(mode):
    raw = hand_dataset(n_queries=20, seed=33)
    stats = fit_standardization(raw, raw.schema, include_scalevariant=(mode == "deep_only"))
    model = build_model(raw.schema, mode=mode, widths=(8, 4), compressor_dim=2, seed=2,
                        stats=stats)
    want = mean_ndcg(model, apply_standardization(raw, stats))
    got = mean_ndcg(model, raw)
    assert got.per_query.tolist() == want.per_query.tolist()
    assert got.mean == want.mean


def test_batched_ndcg_tie_rule_on_identical_items():
    ds = prepared_dataset(n=6, seed=31)
    for q in ds.queries:
        for name in ("fixed", "scalevariant"):
            rows = getattr(q, name)
            setattr(q, name, np.repeat(rows[:1], q.n_items, axis=0))
    model = build_model(ds.schema, widths=(8, 4), compressor_dim=2, seed=1, stats=ds.stats)
    # equal scores rank by item index, so the booked item sits at its index + 1
    want = [1.0 / math.log2(2.0 + q.booked_index) for q in ds.queries]
    assert mean_ndcg(model, ds).per_query.tolist() == want
    assert mean_ndcg(lambda q: np.zeros(q.n_items), ds).per_query.tolist() == want
    # partial ties: only the items tied with the booked one at lower index outrank it
    rng = np.random.default_rng(32)
    tied = {q.query_id: rng.integers(0, 3, size=q.n_items).astype(float) for q in ds.queries}
    res = mean_ndcg(lambda q: tied[q.query_id], ds)
    assert res.per_query.tolist() == [ndcg(rank(tied[q.query_id]), q.labels) for q in ds.queries]


def test_batched_ndcg_keeps_per_query_errors():
    ds = prepared_dataset(n=5, seed=33)
    nan_in_last = lambda q: np.full(q.n_items, np.nan if q is ds.queries[-1] else 1.0)
    with pytest.raises(DomainError, match="NaN"):
        mean_ndcg(nan_in_last, ds)
    with pytest.raises(DomainError):
        mean_ndcg(lambda q: np.zeros(q.n_items + 1), ds)
    ds.queries[2].labels = np.zeros(ds.queries[2].n_items)
    with pytest.raises(ValidationError, match="positively labeled"):
        mean_ndcg(lambda q: q.labels, ds)


def test_batched_ndcg_graded_labels_match_per_query():
    ds = prepared_dataset(n=8, seed=34)
    rng = np.random.default_rng(35)
    for q in ds.queries:
        q.labels = rng.integers(0, 3, size=q.n_items).astype(float)
        q.labels[0] = 2.0
    score = lambda q: np.log(q.scalevariant[:, 1])
    res = mean_ndcg(score, ds)
    assert res.per_query.tolist() == [ndcg(rank(score(q)), q.labels) for q in ds.queries]


def test_eval_result_json():
    res = EvalResult(per_query=np.array([0.5, 1.0]), mean=0.75, count=2)
    obj = res.to_json()
    assert obj == {"mean": 0.75, "count": 2, "per_query": [0.5, 1.0]}


# ---------------------------------------------------------------------------
# random ranker baseline


def test_random_ranker_closed_form_25():
    ds = hand_dataset(n_queries=4, seed=3, items=(25, 25))
    expected = sum(1.0 / math.log2(1.0 + r) for r in range(1, 26)) / 25.0
    assert random_ranker_mean_ndcg(ds) == pytest.approx(expected, abs=1e-12)


def test_random_ranker_matches_monte_carlo():
    ds = hand_dataset(n_queries=5, seed=4)
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(20000):
        q = ds.queries[rng.integers(len(ds))]
        pos = rng.integers(q.n_items) + 1
        draws.append(1.0 / math.log2(1.0 + pos))
    assert abs(np.mean(draws) - random_ranker_mean_ndcg(ds)) < 0.01


# ---------------------------------------------------------------------------
# t-test


def test_identical_samples_give_half():
    a = np.array([0.4, 0.5, 0.6, 0.7])
    res = two_sample_t_test(a, a.copy())
    assert res.t == 0.0
    assert res.p_value == pytest.approx(0.5, abs=1e-9)


def test_direction_large_shift():
    rng = np.random.default_rng(26)
    b = rng.normal(size=40) * 0.01
    res_hi = two_sample_t_test(b + 5.0, b)
    assert res_hi.p_value > 0.99
    res_lo = two_sample_t_test(b - 5.0, b)
    assert res_lo.p_value < 1e-6


def t_density(x, df):
    c = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)


def test_textbook_case_against_quadrature_oracle():
    a = np.array([2.1, 2.5, 2.3, 2.9, 2.0, 2.7])
    b = np.array([2.8, 3.1, 3.0, 2.6, 3.3])
    res = two_sample_t_test(a, b)
    # oracle: recompute Welch pieces by hand, then integrate the t density
    va, vb = a.var(ddof=1), b.var(ddof=1)
    sa, sb = va / len(a), vb / len(b)
    t = (a.mean() - b.mean()) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa ** 2 / (len(a) - 1) + sb ** 2 / (len(b) - 1))
    assert res.t == pytest.approx(t, abs=1e-12)
    assert res.df == pytest.approx(df, abs=1e-12)
    p_oracle, err = quad(t_density, -np.inf, t, args=(df,))
    assert err < 1e-9
    assert res.p_value == pytest.approx(p_oracle, abs=1e-8)
    assert res.p_value < 0.05  # a is visibly smaller here


def test_degenerate_zero_variance():
    a = np.full(5, 0.7)
    res = two_sample_t_test(a, a.copy())
    assert res.degenerate
    assert res.p_value == 0.5
    shifted = two_sample_t_test(a, a + 1.0)
    assert shifted.degenerate
    assert shifted.p_value == 0.0


def test_small_samples_rejected():
    with pytest.raises(DomainError):
        two_sample_t_test(np.array([1.0]), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# bonferroni


def test_bonferroni_known_thresholds():
    assert bonferroni(0.05, 25) == 0.002
    assert bonferroni(0.05, 1) == 0.05


def test_bonferroni_is_division():
    rng = np.random.default_rng(27)
    for _ in range(20):
        alpha = float(rng.uniform(0.001, 0.5))
        n = int(rng.integers(1, 100))
        assert bonferroni(alpha, n) == alpha / n


def test_bonferroni_rejects_bad_inputs():
    with pytest.raises(DomainError):
        bonferroni(0.05, 0)
    with pytest.raises(DomainError):
        bonferroni(1.5, 10)
