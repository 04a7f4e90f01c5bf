"""Property test of the package's claim: for a scale-invariant model of any
layer widths and compressor width, multiplying a query's scale-variant
features by any positive c leaves every pairwise score difference within
1e-9 and the ranking unchanged. Criterion 1 in ``test_acceptance.py`` checks
a fixed grid of models and scales; this draws them."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sirank.generator import SCHEMA, GeneratorConfig, generate
from sirank.scoring import build_model, fit_stats, rank, scale_query, score_query

CORPUS = GeneratorConfig(num_queries=40, seed=13)
REPR_DIM = SCHEMA.query_repr_dim  # the compressor stays narrower than this


@pytest.fixture(scope="module")
def corpus():
    ds = generate(CORPUS)
    return ds, fit_stats(ds, "sir")


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log10_c=st.floats(-300.0, 300.0),
       widths=st.lists(st.integers(1, 48), min_size=1, max_size=3),
       compressor_dim=st.integers(1, REPR_DIM - 1),
       model_seed=st.integers(0, 2 ** 32 - 1),
       query_indices=st.lists(st.integers(0, CORPUS.num_queries - 1), min_size=1, max_size=4,
                              unique=True))
def test_any_positive_rescale_keeps_differences_and_rankings(corpus, log10_c, widths,
                                                             compressor_dim, model_seed,
                                                             query_indices):
    ds, stats = corpus
    c = 10.0 ** log10_c
    model = build_model(ds.schema, mode="sir", widths=tuple(widths),
                        compressor_dim=compressor_dim, seed=model_seed, stats=stats)
    for qi in query_indices:
        q = ds.queries[qi]
        base = score_query(model, q)
        scaled = score_query(model, scale_query(q, c))
        delta = scaled - base
        assert float(np.max(delta) - np.min(delta)) < 1e-9, (q.query_id, c)
        np.testing.assert_array_equal(rank(scaled).order, rank(base).order)
