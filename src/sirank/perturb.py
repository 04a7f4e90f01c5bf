"""Test-time rescaling of designated price-like features.

Each case multiplies the ``DEFAULT_TARGETS`` columns by a per-query scalar:
the number of nights (1), the query's exchange rate (2), both in sequence
(3), or one fixed conversion rate, ``DEFAULT_RATE``, applied to every query
(4). Multipliers come from stored per-query auxiliaries, never fresh
randomness, so runs are reproducible. A case multiplies a copy of the
dataset's scale-variant column and checks it through ``data.rescaled``, as
``scoring.scale_dataset`` does.
Cases rescale raw values; a model standardizes its deep-path inputs from its
own stats when it scores, so a perturbed split needs no re-standardizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, rescaled
from .errors import ConfigError

DEFAULT_TARGETS = ("price", "discount")
DEFAULT_RATE = 1200.0
CASE_IDS = (1, 2, 3, 4)


@dataclass(frozen=True)
class PerturbationCase:
    case_id: int

    def __post_init__(self):
        if self.case_id not in CASE_IDS:
            raise ConfigError(f"case must be one of {CASE_IDS}, got {self.case_id}")

    def factors(self, ds: Dataset) -> list[np.ndarray]:
        """Per-query multipliers, one array per factor, applied left to right."""
        nights = np.array(ds.num_nights, dtype=np.float64)
        return {1: [nights], 2: [ds.exchange_rates], 3: [nights, ds.exchange_rates],
                4: [np.full(len(ds), DEFAULT_RATE)]}[self.case_id]


def target_columns(schema) -> list[int]:
    """The scale-variant columns a case rescales, ``DEFAULT_TARGETS``'
    positions in ``schema``; ConfigError if one is not a scale-variant
    feature of it."""
    sv_names = schema.item_features_scalevariant
    missing = sorted(set(DEFAULT_TARGETS) - set(sv_names))
    if missing:
        raise ConfigError(f"target features {missing} are not scale-variant "
                          f"features of the schema (has {list(sv_names)})")
    return [sv_names.index(name) for name in DEFAULT_TARGETS]


def apply_case(ds: Dataset, case: PerturbationCase) -> Dataset:
    """Return a copy of ds with the case's rescaling applied per query.

    Labels, fixed features, and query features are untouched, and every
    column but the rescaled scale-variant one is shared with ``ds``.
    A rescaled value beyond the float64 range or below its smallest normal
    value raises ValidationError naming the first such query.
    """
    return rescaled(ds, target_columns(ds.schema), case.factors(ds),
                    f"case {case.case_id} rescales")
