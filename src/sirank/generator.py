"""Synthetic booked-search corpus with a known latent utility.

Every query draws its own RNG stream from (seed, query index), so corpora are
reproducible and shardable. Item features are log-normal (shifted for the
fixed group) which keeps every wide-path value strictly positive and makes
the log transform well conditioned; prices span roughly two orders of
magnitude. The booked item is sampled from a softmax over a hidden linear
utility, so the task carries irreducible noise like real booking data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSchema, QueryFeature, QueryRecord
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


def _named(base: tuple[str, ...], n: int, prefix: str) -> list[str]:
    if n <= len(base):
        return list(base[:n])
    return list(base) + [f"{prefix}_{i}" for i in range(len(base), n)]


def fixed_marginal_params(k1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(shift, log-mean, log-std) per fixed feature; fixed = shift + exp(mu + sigma z)."""
    idx = np.arange(k1)
    shift = np.full(k1, 0.5)
    log_mu = 0.9 - 0.05 * idx
    log_sigma = 0.35 + 0.02 * (idx % 3)
    return shift, log_mu, log_sigma


def scalevariant_marginal_params(k2: int) -> tuple[np.ndarray, np.ndarray]:
    """(log-mean, log-std) per scale-variant feature; value = exp(mu + sigma g)."""
    base_mu = np.log(np.array([120.0, 10.0, 15.0, 8.0, 5.0]))
    base_sigma = np.array([1.0, 0.7, 0.5, 0.6, 0.8])
    mu = np.array([base_mu[i % 5] for i in range(k2)])
    sigma = np.array([base_sigma[i % 5] for i in range(k2)])
    return mu, sigma


def default_utility_weights(k1: int, k2: int) -> np.ndarray:
    base_fixed = [0.8, 0.5, 0.25, -0.4, 0.45, 0.2, 0.35, 0.3, 0.25]
    base_sv = [-1.6, 0.7, -0.3, -0.25, 0.4]
    w_fixed = [base_fixed[i % 9] for i in range(k1)]
    w_sv = [base_sv[i % 5] for i in range(k2)]
    return np.array(w_fixed + w_sv, dtype=np.float64)


@dataclass
class GeneratorConfig:
    num_queries: int
    items_min: int = 5
    items_max: int = 25
    n_numeric: int = 12
    categorical_cardinalities: tuple[int, ...] = (24, 10, 3, 6)
    embedding_dims: tuple[int, ...] = (6, 4, 2, 3)
    k1: int = 9
    k2: int = 5
    noise_temperature: float = 1.0
    seed: int = 0
    utility_weights: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.num_queries <= MAX_QUERIES:
            raise ConfigError(f"num_queries must be in [1, {MAX_QUERIES}], got {self.num_queries}")
        if not (2 <= self.items_min <= self.items_max <= 25):
            raise ConfigError(f"items per query must satisfy 2 <= min <= max <= 25, "
                              f"got [{self.items_min}, {self.items_max}]")
        if self.n_numeric < 2:
            raise ConfigError("need at least num_nights and exchange_rate as query numerics")
        if len(self.categorical_cardinalities) != len(self.embedding_dims):
            raise ConfigError("one embedding width per categorical feature")
        if any(c < 2 for c in self.categorical_cardinalities):
            raise ConfigError("categorical cardinalities must be >= 2")
        if self.k1 < 1 or self.k2 < 2:
            raise ConfigError("need k1 >= 1 fixed and k2 >= 2 scale-variant features")
        if not (self.noise_temperature > 0):
            raise ConfigError(f"noise temperature must be > 0, got {self.noise_temperature}")
        if self.utility_weights is not None:
            w = np.asarray(self.utility_weights, dtype=np.float64)
            if w.shape != (self.k1 + self.k2,):
                raise ConfigError(f"utility weights must have length k1+k2={self.k1 + self.k2}")
            self.utility_weights = w

    def schema(self) -> FeatureSchema:
        numerics = _named(NUMERIC_NAMES, self.n_numeric, "qnum")
        cats = _named(CATEGORICAL_NAMES, len(self.categorical_cardinalities), "qcat")
        features = tuple(QueryFeature(n, "numeric") for n in numerics) + tuple(
            QueryFeature(n, "categorical", cardinality=c, embedding_dim=e)
            for n, c, e in zip(cats, self.categorical_cardinalities, self.embedding_dims)
        )
        return FeatureSchema(
            query_features=features,
            item_features_fixed=tuple(_named(FIXED_NAMES, self.k1, "fixed")),
            item_features_scalevariant=tuple(_named(SCALEVARIANT_NAMES, self.k2, "scalevariant")),
        )

    def resolved_weights(self) -> np.ndarray:
        if self.utility_weights is not None:
            return self.utility_weights
        return default_utility_weights(self.k1, self.k2)

    def to_json(self) -> dict:
        obj = {
            "num_queries": self.num_queries,
            "items_min": self.items_min,
            "items_max": self.items_max,
            "n_numeric": self.n_numeric,
            "categorical_cardinalities": list(self.categorical_cardinalities),
            "embedding_dims": list(self.embedding_dims),
            "k1": self.k1,
            "k2": self.k2,
            "noise_temperature": self.noise_temperature,
            "seed": self.seed,
        }
        if self.utility_weights is not None:
            obj["utility_weights"] = [float(v) for v in self.utility_weights]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigError(f"unknown generator config keys {unknown}")
        kwargs = dict(obj)
        for key in ("categorical_cardinalities", "embedding_dims"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("utility_weights") is not None:
            kwargs["utility_weights"] = np.array(kwargs["utility_weights"], dtype=np.float64)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad generator config: {exc}") from exc


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


def generate(config: GeneratorConfig) -> Dataset:
    schema = config.schema()
    weights = config.resolved_weights()
    w_fixed, w_sv = weights[:config.k1], weights[config.k1:]
    f_shift, f_mu, f_sigma = fixed_marginal_params(config.k1)
    s_mu, s_sigma = scalevariant_marginal_params(config.k2)

    queries = []
    for qi in range(config.num_queries):
        rng = _query_rng(config.seed, qi)
        nights = int(rng.integers(1, MAX_NIGHTS + 1))
        rate = float(CURRENCY_TABLE[rng.integers(len(CURRENCY_TABLE))])
        numeric = np.empty(config.n_numeric)
        numeric[0] = float(nights)
        numeric[1] = rate
        numeric[2:] = rng.standard_normal(config.n_numeric - 2)
        category_ids = np.array(
            [rng.integers(c) for c in config.categorical_cardinalities], dtype=np.int64)

        d = int(rng.integers(config.items_min, config.items_max + 1))
        zf = rng.standard_normal((d, config.k1))
        fixed = f_shift + np.exp(f_mu + f_sigma * zf)
        g = rng.standard_normal((d, config.k2))
        log_sv = s_mu + s_sigma * g
        sv = np.exp(log_sv)

        utility = zf @ w_fixed + log_sv @ w_sv + float(rng.normal(scale=0.5))
        probs = stable_softmax(utility / config.noise_temperature)
        booked = int(rng.choice(d, p=probs))

        queries.append(QueryRecord(
            query_id=f"q{qi}",
            numeric=numeric,
            category_ids=category_ids,
            num_nights=nights,
            exchange_rate=rate,
            item_ids=tuple(f"q{qi}-i{j}" for j in range(d)),
            fixed=fixed,
            scalevariant=sv,
            labels=(np.arange(d) == booked).astype(np.float64),
        ))
    return Dataset(schema=schema, queries=queries)

