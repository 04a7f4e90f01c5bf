"""Test-time rescaling of designated price-like features.

Each case multiplies the ``DEFAULT_TARGETS`` columns by a per-query scalar:
the number of nights (1), the query's exchange rate (2), both in sequence
(3), or one fixed conversion rate, ``DEFAULT_RATE``, applied to every query
(4). Multipliers come from stored per-query auxiliaries, never fresh
randomness, so runs are reproducible.
Cases rescale raw values; a model standardizes its deep-path inputs from its
own stats when it scores, so a perturbed split needs no re-standardizing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import SMALLEST_NORMAL, Dataset, QueryRecord
from .errors import ConfigError, ValidationError

DEFAULT_TARGETS = ("price", "discount")
DEFAULT_RATE = 1200.0
CASE_IDS = (1, 2, 3, 4)


@dataclass(frozen=True)
class PerturbationCase:
    case_id: int

    def __post_init__(self):
        if self.case_id not in CASE_IDS:
            raise ConfigError(f"case must be one of {CASE_IDS}, got {self.case_id}")

    def factors(self, query: QueryRecord) -> tuple[float, ...]:
        """Per-query multipliers, applied left to right."""
        if self.case_id == 1:
            return (float(query.num_nights),)
        if self.case_id == 2:
            return (float(query.exchange_rate),)
        if self.case_id == 3:
            return (float(query.num_nights), float(query.exchange_rate))
        return (DEFAULT_RATE,)


def apply_case(ds: Dataset, case: PerturbationCase) -> Dataset:
    """Return a copy of ds with the case's rescaling applied per query.

    Labels, fixed features, and query features are untouched, and every
    array but the rescaled scale-variant one is shared with ``ds``.
    A rescaled value beyond the float64 range or below its smallest normal
    value raises ValidationError naming the first such query.
    """
    sv_names = ds.schema.item_features_scalevariant
    missing = sorted(set(DEFAULT_TARGETS) - set(sv_names))
    if missing:
        raise ConfigError(f"target features {missing} are not scale-variant "
                          f"features of the schema (has {list(sv_names)})")
    cols = np.array([sv_names.index(t) for t in DEFAULT_TARGETS], dtype=np.int64)

    queries = []
    with np.errstate(over="ignore"):  # an overflow is reported as a data error below
        for q in ds.queries:
            rescaled = q.scalevariant[:, cols]
            for f in case.factors(q):
                rescaled = rescaled * f
            if not rescaled.max() < np.inf:
                raise ValidationError(f"query {q.query_id}: case {case.case_id} rescales a "
                                      "scale-variant value beyond the float64 range")
            if rescaled.min() < SMALLEST_NORMAL:
                raise ValidationError(f"query {q.query_id}: case {case.case_id} rescales a "
                                      "scale-variant value below the smallest normal float64")
            sv = q.scalevariant.copy()
            sv[:, cols] = rescaled
            queries.append(replace(q, scalevariant=sv))
    return Dataset(schema=ds.schema, queries=queries)
