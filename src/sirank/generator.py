"""Synthetic booked-search corpus with a known latent utility.

The corpus has one shape, ``SCHEMA``: 12 numeric and 4 categorical query
features, 9 fixed and 5 scale-variant item features. Every query draws its
own RNG stream from (seed, query index), so corpora are reproducible and
shardable. Item features are log-normal (shifted for the
fixed group) which keeps every wide-path value strictly positive and makes
the log transform well conditioned; prices span roughly two orders of
magnitude. The booked item is sampled from a softmax over a hidden linear
utility, so the task carries irreducible noise like real booking data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSchema, QueryFeature, _check_columns
from .errors import ConfigError, DomainError

CURRENCY_TABLE = (1.0, 0.85, 0.75, 1.3, 7.1, 18.0, 83.0, 110.0, 1200.0, 0.9)
MAX_NIGHTS = 14
# Queries one generate call may make: a larger corpus is refused up front
# rather than generated for a very long time.
MAX_QUERIES = 100_000

NUMERIC_NAMES = (
    "num_nights", "exchange_rate", "lead_days", "party_size", "stay_weekend_frac",
    "search_hour", "user_tenure", "prior_bookings", "filters_applied", "page_depth",
    "session_length", "click_propensity",
)
CATEGORICAL_NAMES = ("destination_region", "point_of_sale", "device_type", "traveler_segment")
FIXED_NAMES = (
    "star_rating", "review_score", "review_count", "dest_distance_km", "amenity_score",
    "photo_count", "brand_strength", "refundable_frac", "availability_ratio",
)
SCALEVARIANT_NAMES = ("price", "discount", "taxes", "fees", "loyalty_credit")
CARDINALITIES = (24, 10, 3, 6)
EMBEDDING_DIMS = (6, 4, 2, 3)
SCHEMA = FeatureSchema(
    query_features=tuple(QueryFeature(n, "numeric") for n in NUMERIC_NAMES) + tuple(
        QueryFeature(n, "categorical", cardinality=c, embedding_dim=e)
        for n, c, e in zip(CATEGORICAL_NAMES, CARDINALITIES, EMBEDDING_DIMS)),
    item_features_fixed=FIXED_NAMES,
    item_features_scalevariant=SCALEVARIANT_NAMES,
)

# Marginals: fixed = FIXED_SHIFT + exp(mu + sigma z), scale-variant = exp(mu + sigma g)
# with z, g standard normal. The hidden utility is UTILITY_WEIGHTS (fixed first)
# applied to (z, log scale-variant).
_idx = np.arange(len(FIXED_NAMES))
FIXED_SHIFT = 0.5
FIXED_LOG_MU = 0.9 - 0.05 * _idx
FIXED_LOG_SIGMA = 0.35 + 0.02 * (_idx % 3)
SCALEVARIANT_LOG_MU = np.log(np.array([120.0, 10.0, 15.0, 8.0, 5.0]))
SCALEVARIANT_LOG_SIGMA = np.array([1.0, 0.7, 0.5, 0.6, 0.8])
UTILITY_WEIGHTS = np.array([0.8, 0.5, 0.25, -0.4, 0.45, 0.2, 0.35, 0.3, 0.25,
                            -1.6, 0.7, -0.3, -0.25, 0.4])
for _a in (FIXED_LOG_MU, FIXED_LOG_SIGMA, SCALEVARIANT_LOG_MU, SCALEVARIANT_LOG_SIGMA,
           UTILITY_WEIGHTS):
    _a.flags.writeable = False


@dataclass(frozen=True)
class GeneratorConfig:
    num_queries: int
    items_min: int = 5
    items_max: int = 25
    noise_temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.num_queries <= MAX_QUERIES:
            raise ConfigError(f"num_queries must be in [1, {MAX_QUERIES}], got {self.num_queries}")
        if not (2 <= self.items_min <= self.items_max <= 25):
            raise ConfigError(f"items per query must satisfy 2 <= min <= max <= 25, "
                              f"got [{self.items_min}, {self.items_max}]")
        if not 0 < self.noise_temperature < np.inf:
            raise ConfigError(f"noise temperature must be finite and > 0, got {self.noise_temperature}")

    def to_json(self) -> dict:
        return {
            "num_queries": self.num_queries,
            "items_min": self.items_min,
            "items_max": self.items_max,
            "n_numeric": len(NUMERIC_NAMES),
            "categorical_cardinalities": list(CARDINALITIES),
            "embedding_dims": list(EMBEDDING_DIMS),
            "k1": SCHEMA.k1,
            "k2": SCHEMA.k2,
            "noise_temperature": self.noise_temperature,
            "seed": self.seed,
        }


def stable_softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a 1-d array (max-subtraction)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise DomainError("softmax of an empty vector")
    shifted = scores - scores.max()
    e = np.exp(shifted)
    return e / e.sum()


def _query_rng(seed: int, qi: int) -> np.random.Generator:
    return np.random.default_rng([seed, qi])


@np.errstate(over="ignore")  # a temperature whose quotient overflows is refused below
def generate(config: GeneratorConfig) -> Dataset:
    k1, k2 = SCHEMA.k1, SCHEMA.k2
    w_fixed, w_sv = UTILITY_WEIGHTS[:k1], UTILITY_WEIGHTS[k1:]

    numeric, category_ids, nights, rates, item_ids, fixed, sv, labels, sizes = (
        [] for _ in range(9))
    for qi in range(config.num_queries):
        rng = _query_rng(config.seed, qi)
        night = int(rng.integers(1, MAX_NIGHTS + 1))
        rate = float(CURRENCY_TABLE[rng.integers(len(CURRENCY_TABLE))])
        nights.append(night)
        rates.append(rate)
        numeric.append([float(night), rate, *rng.standard_normal(len(NUMERIC_NAMES) - 2)])
        category_ids.append([rng.integers(c) for c in CARDINALITIES])

        d = int(rng.integers(config.items_min, config.items_max + 1))
        zf = rng.standard_normal((d, k1))
        fixed.append(FIXED_SHIFT + np.exp(FIXED_LOG_MU + FIXED_LOG_SIGMA * zf))
        g = rng.standard_normal((d, k2))
        log_sv = SCALEVARIANT_LOG_MU + SCALEVARIANT_LOG_SIGMA * g
        sv.append(np.exp(log_sv))

        utility = zf @ w_fixed + log_sv @ w_sv + float(rng.normal(scale=0.5))
        scores = utility / config.noise_temperature
        if not np.isfinite(scores).all():
            raise ConfigError(f"noise temperature {config.noise_temperature} is too small: "
                              f"utility / temperature overflows float64 in query q{qi}")
        probs = stable_softmax(scores)
        booked = int(rng.choice(d, p=probs))

        item_ids += [f"q{qi}-i{j}" for j in range(d)]
        labels.append(np.arange(d) == booked)
        sizes.append(d)
    columns = dict(
        query_ids=[f"q{qi}" for qi in range(config.num_queries)], numeric=np.array(numeric),
        category_ids=np.array(category_ids, dtype=np.int64), num_nights=nights,
        exchange_rates=rates, item_ids=item_ids, fixed=np.concatenate(fixed),
        scalevariant=np.concatenate(sv), labels=np.concatenate(labels).astype(np.float64),
        offsets=np.cumsum([0, *sizes]))
    _check_columns(SCHEMA, range(config.num_queries), "positions", **columns)
    return Dataset._of_columns(SCHEMA, **columns)
