from dataclasses import replace

import numpy as np
import pytest

from sirank.data import Dataset, fit_standardization
from sirank.errors import ConfigError, ValidationError
from sirank.generator import GeneratorConfig, generate
from sirank.metrics import mean_ndcg
from sirank.perturb import DEFAULT_RATE, DEFAULT_TARGETS, PerturbationCase, apply_case
from sirank.scoring import build_model, rank, score_query

from conftest import edited, hand_dataset, record_bytes, standardized, with_queries


def test_case_validation():
    with pytest.raises(ConfigError):
        PerturbationCase(case_id=5)


def test_unknown_target_rejected():
    ds = hand_dataset(n_queries=4)
    ds = Dataset(schema=replace(ds.schema, item_features_scalevariant=("price", "taxes")),
                 queries=ds.queries)
    with pytest.raises(ConfigError, match="discount"):
        apply_case(ds, PerturbationCase(case_id=1))


def test_rescaling_beyond_float_range_rejected():
    ds = hand_dataset(n_queries=4, seed=3)
    q = ds.queries[2]
    ds = with_queries(ds, {2: replace(q, scalevariant=edited(q.scalevariant, (0, 0), 1e306))})
    with pytest.raises(ValidationError, match=rf"^query {q.query_id}: case 4 rescales"):
        apply_case(ds, PerturbationCase(case_id=4))


def test_rescaling_below_smallest_normal_float_rejected():
    ds = hand_dataset(n_queries=4, seed=3)
    q = ds.queries[2]
    out = apply_case(with_queries(ds, {2: replace(q, exchange_rate=1e-300)}),
                     PerturbationCase(case_id=2))
    assert out.queries[2].scalevariant.min() >= np.finfo(np.float64).tiny
    with pytest.raises(ValidationError, match=rf"^query {q.query_id}: case 2 rescales a "
                                              "scale-variant value below the smallest normal"):
        apply_case(with_queries(ds, {2: replace(q, exchange_rate=1e-320)}),
                   PerturbationCase(case_id=2))


def test_case1_with_single_night_is_identity():
    ds = hand_dataset(n_queries=6, seed=1)
    ds = Dataset(schema=ds.schema, queries=[
        replace(q, num_nights=1, numeric=edited(q.numeric, 0, 1.0)) for q in ds.queries])
    out = apply_case(ds, PerturbationCase(case_id=1))
    for q0, q1 in zip(ds.queries, out.queries):
        np.testing.assert_array_equal(q0.scalevariant, q1.scalevariant)


def test_case4_multiplies_targets_exactly():
    ds = hand_dataset(n_queries=6, seed=2)
    out = apply_case(ds, PerturbationCase(case_id=4))
    for q0, q1 in zip(ds.queries, out.queries):
        np.testing.assert_array_equal(q1.scalevariant, q0.scalevariant * 1200.0)


def test_case2_uses_per_query_rate():
    ds = hand_dataset(n_queries=8, seed=3)
    out = apply_case(ds, PerturbationCase(case_id=2))
    for q0, q1 in zip(ds.queries, out.queries):
        np.testing.assert_array_equal(q1.scalevariant, q0.scalevariant * q0.exchange_rate)


def test_case3_equals_sequential_composition():
    ds = hand_dataset(n_queries=10, seed=4)
    via_case3 = apply_case(ds, PerturbationCase(case_id=3))
    stepwise = apply_case(apply_case(ds, PerturbationCase(case_id=1)),
                          PerturbationCase(case_id=2))
    for q0, q1 in zip(via_case3.queries, stepwise.queries):
        np.testing.assert_array_equal(q0.scalevariant, q1.scalevariant)


RECORD_ARRAYS = ("numeric", "fixed", "scalevariant", "labels")


def _snapshot(q):
    return {name: getattr(q, name).copy() for name in RECORD_ARRAYS}


def _assert_arrays(q, snap, names=RECORD_ARRAYS):
    for name in names:
        np.testing.assert_array_equal(getattr(q, name), snap[name], err_msg=name)


def test_everything_else_untouched_and_input_unmodified():
    raw = hand_dataset(n_queries=6, seed=6)
    stats = fit_standardization(raw, raw.schema)
    snapshot = [_snapshot(q) for q in raw.queries]
    deep_before = [standardized(q, stats) for q in raw.queries]
    out = apply_case(raw, PerturbationCase(case_id=3))
    for q, snap in zip(raw.queries, snapshot):
        _assert_arrays(q, snap)  # input intact, every array
    for q, q_out, snap, deep in zip(raw.queries, out.queries, snapshot, deep_before):
        _assert_arrays(q_out, snap, ("numeric", "fixed", "labels"))
        for got, want in zip(standardized(q_out, stats), deep):
            np.testing.assert_array_equal(got, want)
        assert q_out.num_nights == q.num_nights


def _case_reference(q, case_id: int, targets: list[int]):
    """q after case ``case_id``, one record at a time: the target columns
    multiplied by each of the case's factors in turn."""
    factors = {1: [float(q.num_nights)], 2: [float(q.exchange_rate)],
               3: [float(q.num_nights), float(q.exchange_rate)], 4: [DEFAULT_RATE]}[case_id]
    scalevariant = np.array(q.scalevariant, dtype=np.float64)
    for f in factors:
        scalevariant[:, targets] = scalevariant[:, targets] * f
    return replace(q, scalevariant=scalevariant)


def test_multiplier_constant_within_query():
    for ds in (hand_dataset(n_queries=8, seed=7), generate(GeneratorConfig(num_queries=30,
                                                                           seed=7))):
        targets = [ds.schema.item_features_scalevariant.index(name) for name in DEFAULT_TARGETS]
        for case_id in (1, 2, 3, 4):
            out = apply_case(ds, PerturbationCase(case_id=case_id))
            for q0, q1 in zip(ds.queries, out.queries):
                ratios = (q1.scalevariant[:, targets] / q0.scalevariant[:, targets]).reshape(-1)
                assert np.max(ratios) - np.min(ratios) < 1e-9 * np.max(ratios)
            # bitwise the per-record reference, every other field as it was
            assert [record_bytes(q) for q in out.queries] == [
                record_bytes(_case_reference(q, case_id, targets)) for q in ds.queries]


def test_sir_rankings_survive_every_case():
    ds = hand_dataset(n_queries=10, seed=8)
    model = build_model(ds.schema, widths=(8, 4), compressor_dim=2, seed=1,
                        stats=fit_standardization(ds, ds.schema))
    base = mean_ndcg(model, ds)
    for case_id in (1, 2, 3, 4):
        perturbed = apply_case(ds, PerturbationCase(case_id=case_id))
        for q0, q1 in zip(ds.queries, perturbed.queries):
            np.testing.assert_array_equal(
                rank(score_query(model, q1)).order, rank(score_query(model, q0)).order)
        after = mean_ndcg(model, perturbed)
        assert abs(after.mean - base.mean) < 1e-9
