"""Hand-built fixtures, deliberately independent of the package's generator."""

import numpy as np
import pytest

from sirank.data import Dataset, FeatureSchema, QueryFeature, QueryRecord

CURRENCIES = [1.0, 0.85, 7.1, 110.0, 1200.0]


def tiny_schema() -> FeatureSchema:
    return FeatureSchema(
        query_features=(
            QueryFeature("num_nights", "numeric"),
            QueryFeature("exchange_rate", "numeric"),
            QueryFeature("lead_days", "numeric"),
            QueryFeature("device_type", "categorical", cardinality=3, embedding_dim=2),
        ),
        item_features_fixed=("star_rating", "review_score"),
        item_features_scalevariant=("price", "discount"),
    )


def hand_dataset(n_queries=12, seed=0, items=(3, 6)) -> Dataset:
    rng = np.random.default_rng(seed)
    schema = tiny_schema()
    queries = []
    for qi in range(n_queries):
        d = int(rng.integers(items[0], items[1] + 1))
        booked = int(rng.integers(d))
        # one item at a time, fixed then scale-variant, so the draws keep their order
        rows = [(rng.uniform(0.5, 5.0, size=schema.k1), rng.uniform(20.0, 400.0, size=schema.k2))
                for _ in range(d)]
        nights = int(rng.integers(1, 15))
        rate = float(rng.choice(CURRENCIES))
        queries.append(QueryRecord(
            query_id=f"q{qi}",
            numeric=np.array([float(nights), rate, float(rng.normal())]),
            category_ids=np.array([int(rng.integers(3))], dtype=np.int64),
            num_nights=nights,
            exchange_rate=rate,
            item_ids=tuple(f"q{qi}-i{j}" for j in range(d)),
            fixed=np.array([fx for fx, _ in rows]),
            scalevariant=np.array([sv for _, sv in rows]),
            labels=(np.arange(d) == booked).astype(np.float64),
        ))
    return Dataset(schema=schema, queries=queries)


def standardized(q: QueryRecord, stats):
    """Query q's standardized numerics and fixed item features, by the
    per-query formulas: (x - mean) / std with the train-split stats."""
    return ((q.numeric - stats.numeric_mean) / stats.numeric_std,
            (q.fixed - stats.fixed_mean) / stats.fixed_std)


@pytest.fixture
def schema():
    return tiny_schema()


@pytest.fixture
def dataset():
    return hand_dataset()
