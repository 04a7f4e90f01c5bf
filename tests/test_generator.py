import numpy as np
import pytest

from sirank.errors import ConfigError, ValidationError
from sirank.generator import (
    CURRENCY_TABLE,
    MAX_QUERIES,
    GeneratorConfig,
    default_utility_weights,
    fixed_marginal_params,
    generate,
)
from sirank.metrics import mean_ndcg, random_ranker_mean_ndcg


def small_config(**overrides):
    defaults = dict(num_queries=60, items_min=4, items_max=10, seed=5)
    defaults.update(overrides)
    return GeneratorConfig(**defaults)


def recompute_utility(query, k1: int, weights: np.ndarray) -> np.ndarray:
    """Rebuild each item's latent utility from its stored feature values.

    Inverts the fixed-feature marginals to recover the standardized draws,
    then applies the hidden weights; the per-query additive effect is dropped
    since it cannot change the within-query ordering.
    """
    f_shift, f_mu, f_sigma = fixed_marginal_params(k1)
    if np.any(query.fixed <= f_shift):
        raise ValidationError(f"query {query.query_id}: fixed values below the "
                              "generator's marginal support")
    zf = (np.log(query.fixed - f_shift) - f_mu) / f_sigma
    return zf @ weights[:k1] + np.log(query.scalevariant) @ weights[k1:]


def ideal_ndcg_bound(ds, weights: np.ndarray | None) -> float:
    """Mean NDCG of ranking by the true latent utility; an upper reference."""
    if weights is None:
        raise ValidationError("hidden utility weights are required for the ideal bound")
    k1 = ds.schema.k1
    if np.asarray(weights).shape != (k1 + ds.schema.k2,):
        raise ValidationError("weights length does not match the schema")
    return mean_ndcg(lambda q: recompute_utility(q, k1, np.asarray(weights)), ds).mean


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(num_queries=0)
    assert MAX_QUERIES == 100_000
    GeneratorConfig(num_queries=MAX_QUERIES)
    with pytest.raises(ConfigError, match=r"num_queries must be in \[1, 100000\], got 100001"):
        GeneratorConfig(num_queries=MAX_QUERIES + 1)
    with pytest.raises(ConfigError):
        GeneratorConfig(num_queries=5, items_min=1)
    with pytest.raises(ConfigError):
        GeneratorConfig(num_queries=5, items_max=26)
    with pytest.raises(ConfigError):
        GeneratorConfig(num_queries=5, noise_temperature=0.0)
    with pytest.raises(ConfigError):
        GeneratorConfig(num_queries=5, k2=1)
    with pytest.raises(ConfigError):
        GeneratorConfig(num_queries=5, utility_weights=np.ones(3))


def test_config_json_round_trip():
    cfg = small_config(noise_temperature=0.7)
    back = GeneratorConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="typo"):
        GeneratorConfig.from_json({"num_queries": 5, "typo": 1})


def test_schema_leads_with_designated_features():
    schema = small_config().schema()
    assert schema.numeric_query_names[:2] == ("num_nights", "exchange_rate")
    assert schema.item_features_scalevariant[:2] == ("price", "discount")
    assert schema.k1 == 9 and schema.k2 == 5


# ---------------------------------------------------------------------------
# generation


def test_same_seed_bitwise_identical():
    a = generate(small_config())
    b = generate(small_config())
    for qa, qb in zip(a.queries, b.queries):
        np.testing.assert_array_equal(qa.numeric, qb.numeric)
        np.testing.assert_array_equal(qa.category_ids, qb.category_ids)
        assert qa.num_nights == qb.num_nights and qa.exchange_rate == qb.exchange_rate
        assert qa.item_ids == qb.item_ids
        np.testing.assert_array_equal(qa.fixed, qb.fixed)
        np.testing.assert_array_equal(qa.scalevariant, qb.scalevariant)
        np.testing.assert_array_equal(qa.labels, qb.labels)


def test_seed_changes_data():
    a = generate(small_config(seed=1))
    b = generate(small_config(seed=2))
    assert any(
        not np.array_equal(qa.numeric, qb.numeric) for qa, qb in zip(a.queries, b.queries)
    )


def test_exactly_one_booked_everywhere():
    ds = generate(small_config(num_queries=100))
    for q in ds.queries:
        assert sum(q.labels) == 1


def test_positivity_of_wide_path_values():
    ds = generate(small_config(num_queries=100))
    for q in ds.queries:
        assert np.all(q.fixed > 0)
        assert np.all(q.scalevariant > 0)


def test_aux_fields_mirror_leading_numerics():
    ds = generate(small_config(num_queries=80))
    for q in ds.queries:
        assert 1 <= q.num_nights <= 14
        assert q.numeric[0] == float(q.num_nights)
        assert q.exchange_rate in CURRENCY_TABLE
        assert q.numeric[1] == q.exchange_rate
        assert 4 <= q.n_items <= 10


def test_currency_table_gets_exercised():
    ds = generate(small_config(num_queries=300))
    seen = {q.exchange_rate for q in ds.queries}
    assert 1200.0 in seen
    assert len(seen) >= 8


# ---------------------------------------------------------------------------
# latent utility


def test_near_zero_temperature_books_argmax():
    cfg = small_config(num_queries=200, noise_temperature=1e-9)
    ds = generate(cfg)
    w = cfg.resolved_weights()
    agree = 0
    for q in ds.queries:
        u = recompute_utility(q, cfg.k1, w)
        agree += int(np.argmax(u) == q.booked_index)
    assert agree / len(ds) >= 0.99


def test_ideal_bound_near_one_without_noise():
    cfg = small_config(num_queries=150, noise_temperature=1e-9)
    ds = generate(cfg)
    assert ideal_ndcg_bound(ds, cfg.resolved_weights()) > 0.99


def test_ideal_bound_beats_random_at_default_noise():
    cfg = small_config(num_queries=200, noise_temperature=1.0)
    ds = generate(cfg)
    bound = ideal_ndcg_bound(ds, cfg.resolved_weights())
    assert bound > random_ranker_mean_ndcg(ds) + 0.15


def test_ideal_bound_requires_weights():
    ds = generate(small_config())
    with pytest.raises(ValidationError):
        ideal_ndcg_bound(ds, None)
    with pytest.raises(ValidationError):
        ideal_ndcg_bound(ds, np.ones(3))


def test_linear_fit_learns_generated_data():
    # guard against degenerate configs: a plain least-squares scorer on the
    # standardized item features must clearly beat a random ranker
    cfg = GeneratorConfig(num_queries=400, seed=9)
    ds = generate(cfg)
    cut = 280
    shift, mu, sigma = fixed_marginal_params(cfg.k1)

    def features(q):
        zf = (np.log(q.fixed - shift) - mu) / sigma
        return np.concatenate([zf, np.log(q.scalevariant)], axis=1)

    rows = np.concatenate([features(q) for q in ds.queries[:cut]])
    rows = np.concatenate([rows, np.ones((len(rows), 1))], axis=1)
    y = np.concatenate([q.labels for q in ds.queries[:cut]])
    w, *_ = np.linalg.lstsq(rows, y, rcond=None)

    test = ds.queries[cut:]
    from sirank.data import Dataset

    test_ds = Dataset(schema=ds.schema, queries=list(test))
    fitted = mean_ndcg(lambda q: features(q) @ w[:-1] + w[-1], test_ds).mean
    assert fitted >= random_ranker_mean_ndcg(test_ds) + 0.1


def test_default_weights_shape():
    w = default_utility_weights(9, 5)
    assert w.shape == (14,)
    assert w[9] < 0  # price pushes utility down
