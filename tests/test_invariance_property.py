"""Property tests of the package's claim: for a scale-invariant model of any
layer widths and compressor width, multiplying a query's scale-variant
features by positive factors, one per query or one per (query, feature),
leaves every pairwise score difference within 1e-9 and the ranking
unchanged, while a deep_only model built from the same draws moves some
difference. Criterion 1 in ``test_acceptance.py`` checks a fixed grid of
models and scales; these draw them."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sirank.generator import SCHEMA, GeneratorConfig, generate
from sirank.scoring import build_model, fit_stats, forward, rank, scale_query, score_query

CORPUS = GeneratorConfig(num_queries=40, seed=13)
REPR_DIM = SCHEMA.query_repr_dim  # the compressor stays narrower than this
MAX_QUERIES = 4
DRAWS = 100
DEEP_RESCALE = 1e3
MODELS = dict(widths=st.lists(st.integers(1, 48), min_size=1, max_size=3),
              compressor_dim=st.integers(1, REPR_DIM - 1),
              model_seed=st.integers(0, 2 ** 32 - 1),
              query_indices=st.lists(st.integers(0, CORPUS.num_queries - 1), min_size=1,
                                     max_size=MAX_QUERIES, unique=True))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=DRAWS,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def corpus():
    ds = generate(CORPUS)
    return ds, fit_stats(ds, "sir"), fit_stats(ds, "deep_only")


def assert_invariant(model, q, scaled_q, c):
    base = score_query(model, q)
    scaled = score_query(model, scaled_q)
    delta = scaled - base
    assert float(np.max(delta) - np.min(delta)) < 1e-9, (q.query_id, c)
    np.testing.assert_array_equal(rank(scaled).order, rank(base).order)


@PROPERTY
@given(log10_c=st.floats(-300.0, 300.0), **MODELS)
def test_any_positive_rescale_keeps_differences_and_rankings(corpus, log10_c, widths,
                                                             compressor_dim, model_seed,
                                                             query_indices):
    ds, stats, _ = corpus
    c = 10.0 ** log10_c
    model = build_model(ds.schema, mode="sir", widths=tuple(widths),
                        compressor_dim=compressor_dim, seed=model_seed, stats=stats)
    for qi in query_indices:
        q = ds.queries[qi]
        assert_invariant(model, q, scale_query(q, c), c)


def tied_pass(cache) -> bool:
    """Whether some dense layer's ReLUs are all dead on every item of a
    forward pass: the layers after it then see one input for every item,
    so every item scores alike."""
    return any((z <= 0.0).all() for z in cache.pre_activations)


@PROPERTY
@given(log10_factors=st.lists(
           st.lists(st.one_of(st.just(0.0), st.floats(-300.0, 300.0)),
                    min_size=SCHEMA.k2, max_size=SCHEMA.k2),
           min_size=MAX_QUERIES, max_size=MAX_QUERIES),
       deep_feature=st.integers(0, SCHEMA.k2 - 1), **MODELS)
def per_feature_rescale(corpus, drawn, log10_factors, deep_feature, widths, compressor_dim,
                        model_seed, query_indices):
    """Appends one entry per draw to ``drawn``: the deep_only layout if that
    model scores every item of every drawn query alike, before and after the
    rescale, else None."""
    ds, sir_stats, deep_stats = corpus
    layout = dict(widths=tuple(widths), compressor_dim=compressor_dim, seed=model_seed)
    sir = build_model(ds.schema, mode="sir", stats=sir_stats, **layout)
    deep = build_model(ds.schema, mode="deep_only", stats=deep_stats, **layout)
    deep_factors = np.ones(SCHEMA.k2)
    deep_factors[deep_feature] = DEEP_RESCALE
    deep_gap, all_tied = 0.0, True
    for qi, log10_f in zip(query_indices, log10_factors):
        q = ds.queries[qi]
        factors = 10.0 ** np.array(log10_f)  # 10 ** 0.0 is exactly 1
        assert_invariant(sir, q, replace(q, scalevariant=q.scalevariant * factors), factors)
        base, base_cache = forward(deep, q)
        scaled, scaled_cache = forward(deep,
                                       replace(q, scalevariant=q.scalevariant * deep_factors))
        delta = scaled - base
        deep_gap = max(deep_gap, float(np.max(delta) - np.min(delta)))
        all_tied = all_tied and tied_pass(base_cache) and tied_pass(scaled_cache)
    draw = (widths, compressor_dim, model_seed, deep_feature)
    drawn.append(draw if all_tied else None)
    if all_tied:  # no rescale can move a difference that is 0 before and after
        assert deep_gap < 1e-6, draw
    else:
        assert deep_gap > 1e-6, draw


def test_per_feature_rescale_keeps_sir_and_moves_deep_only(corpus):
    """Draws a factor per (query, feature), some exactly 1: the sir model
    keeps its differences and rankings, and a deep_only model of the same
    layout moves some difference when one feature is rescaled by 1e3. A
    draw whose deep_only ReLUs are all dead in some layer, in both passes
    of every drawn query, ties every item and so cannot show the
    counter-property; such draws are counted, checked to be tied, and may
    be at most a tenth of the draws."""
    drawn = []
    per_feature_rescale(corpus, drawn)
    tied = [draw for draw in drawn if draw is not None]
    print(f"deep_only draws with every item tied by dead ReLUs: {len(tied)} of {len(drawn)}")
    assert len(tied) <= len(drawn) // 10, tied
