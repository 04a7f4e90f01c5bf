import dataclasses
import hashlib

import numpy as np
import pytest

from sirank.data import save_dataset
from sirank.errors import ConfigError, ValidationError
from sirank.generator import (
    CURRENCY_TABLE,
    FIXED_LOG_MU,
    FIXED_LOG_SIGMA,
    FIXED_SHIFT,
    MAX_QUERIES,
    SCHEMA,
    UTILITY_WEIGHTS,
    GeneratorConfig,
    generate,
)
from sirank.metrics import mean_ndcg, random_ranker_mean_ndcg


def small_config(**overrides):
    defaults = dict(num_queries=60, items_min=4, items_max=10, seed=5)
    defaults.update(overrides)
    return GeneratorConfig(**defaults)


def recompute_utility(query, weights: np.ndarray) -> np.ndarray:
    """Rebuild each item's latent utility from its stored feature values.

    Inverts the fixed-feature marginals to recover the standardized draws,
    then applies the hidden weights; the per-query additive effect is dropped
    since it cannot change the within-query ordering.
    """
    if np.any(query.fixed <= FIXED_SHIFT):
        raise ValidationError(f"query {query.query_id}: fixed values below the "
                              "generator's marginal support")
    zf = (np.log(query.fixed - FIXED_SHIFT) - FIXED_LOG_MU) / FIXED_LOG_SIGMA
    k1 = SCHEMA.k1
    return zf @ weights[:k1] + np.log(query.scalevariant) @ weights[k1:]


def ideal_ndcg_bound(ds, weights: np.ndarray | None) -> float:
    """Mean NDCG of ranking by the true latent utility; an upper reference."""
    if weights is None:
        raise ValidationError("hidden utility weights are required for the ideal bound")
    if np.asarray(weights).shape != (ds.schema.k1 + ds.schema.k2,):
        raise ValidationError("weights length does not match the schema")
    return mean_ndcg(lambda q: recompute_utility(q, np.asarray(weights)), ds).mean


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


@pytest.mark.parametrize("temperature", [float("inf"), float("nan"), -1.0])
def test_generator_config_refuses_a_noise_temperature_that_is_not_finite_and_positive(
        temperature):
    with pytest.raises(ConfigError, match=r"^noise temperature must be finite and > 0, got "):
        GeneratorConfig(num_queries=5, noise_temperature=temperature)
    with pytest.raises(dataclasses.FrozenInstanceError):  # nor can a checked config be edited
        GeneratorConfig(num_queries=5).noise_temperature = temperature


@pytest.mark.parametrize("temperature", [1e-308, 1e-320])
def test_generate_refuses_a_noise_temperature_whose_quotient_overflows(temperature):
    config = GeneratorConfig(num_queries=5, noise_temperature=temperature)
    with pytest.raises(ConfigError) as info:
        generate(config)
    assert str(info.value) == (f"noise temperature {temperature} is too small: "
                               "utility / temperature overflows float64 in query q0")
    assert "\n" not in str(info.value)


def test_a_tiny_noise_temperature_that_does_not_overflow_still_generates():
    ds = generate(GeneratorConfig(num_queries=5, noise_temperature=1e-300))
    assert len(ds) == 5 and ds.labels.sum() == 5


def test_config_json_keeps_the_corpus_shape():
    # the dict `sirank generate` writes to its .meta.json: the fixed shape
    # keeps its keys so that file stays byte-identical
    assert GeneratorConfig(num_queries=5).to_json() == {
        "num_queries": 5, "items_min": 5, "items_max": 25, "n_numeric": 12,
        "categorical_cardinalities": [24, 10, 3, 6], "embedding_dims": [6, 4, 2, 3],
        "k1": 9, "k2": 5, "noise_temperature": 1.0, "seed": 0,
    }


def test_schema_leads_with_designated_features():
    schema = generate(small_config(num_queries=1)).schema
    assert schema == SCHEMA
    assert schema.numeric_query_names[:2] == ("num_nights", "exchange_rate")
    assert schema.item_features_scalevariant[:2] == ("price", "discount")
    assert schema.k1 == 9 and schema.k2 == 5
    assert len(schema.numeric_query_names) == 12
    assert [(f.cardinality, f.embedding_dim) for f in schema.categorical_query_features] == [
        (24, 6), (10, 4), (3, 2), (6, 3)]


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


def test_generated_corpus_is_pinned(tmp_path):
    # sha256 of a saved corpus under numpy 2.4.6: any change to the draws, their
    # order or the written values moves it
    path = tmp_path / "d.jsonl"
    save_dataset(generate(GeneratorConfig(num_queries=50, seed=7)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "72974a51b58c1dae0145ed5219c903b0a9c335b8bf15cab4d9ba978bae60dafb")


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
    ds = generate(small_config(num_queries=200, noise_temperature=1e-9))
    agree = 0
    for q in ds.queries:
        u = recompute_utility(q, UTILITY_WEIGHTS)
        agree += int(np.argmax(u) == q.booked_index)
    assert agree / len(ds) >= 0.99


def test_ideal_bound_near_one_without_noise():
    ds = generate(small_config(num_queries=150, noise_temperature=1e-9))
    assert ideal_ndcg_bound(ds, UTILITY_WEIGHTS) > 0.99


def test_ideal_bound_beats_random_at_default_noise():
    ds = generate(small_config(num_queries=200, noise_temperature=1.0))
    bound = ideal_ndcg_bound(ds, UTILITY_WEIGHTS)
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
    ds = generate(GeneratorConfig(num_queries=400, seed=9))
    cut = 280

    def features(q):
        zf = (np.log(q.fixed - FIXED_SHIFT) - FIXED_LOG_MU) / FIXED_LOG_SIGMA
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
    assert UTILITY_WEIGHTS.shape == (SCHEMA.k1 + SCHEMA.k2,) == (14,)
    assert UTILITY_WEIGHTS[9] < 0  # price pushes utility down
    with pytest.raises(ValueError):
        UTILITY_WEIGHTS[0] = 1.0  # shared by every generate call
