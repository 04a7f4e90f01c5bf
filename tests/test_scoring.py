import math

import numpy as np
import pytest

from sirank.data import apply_standardization, fit_standardization
from sirank.data import Dataset
from sirank.errors import ConfigError, ContractError, DomainError, SchemaError, ValidationError
from sirank.scoring import (
    EVAL_CHUNK_ROWS,
    Ranking,
    build_model,
    dataset_invariance_gap,
    forward,
    invariance_gap,
    load_checkpoint,
    prepare_dataset,
    rank,
    save_checkpoint,
    scale_query,
    score_block,
    score_query,
)

from conftest import hand_dataset, standardized, without_wide

SCALES = (1e-2, 0.5, 7.0, 1200.0)


def prepared(seed=0, n_queries=12, include_scalevariant=False, items=(3, 6)):
    ds = hand_dataset(n_queries=n_queries, seed=seed, items=items)
    stats = fit_standardization(ds, ds.schema, include_scalevariant=include_scalevariant)
    return apply_standardization(ds, stats)


def small_model(ds, mode="sir", seed=0):
    return build_model(ds.schema, mode=mode, widths=(8, 4), compressor_dim=2,
                       seed=seed, stats=ds.stats)


# ---------------------------------------------------------------------------
# construction


def test_build_rejects_wide_compressor():
    ds = prepared()
    # query repr is 5 wide here, compressor must stay below that
    with pytest.raises(ConfigError):
        build_model(ds.schema, compressor_dim=5)


def test_build_rejects_empty_compressor():
    ds = prepared()
    with pytest.raises(ConfigError, match="at least 1"):
        build_model(ds.schema, compressor_dim=0)


def test_build_rejects_dense_weight_beyond_cap():
    ds = prepared()
    with pytest.raises(ConfigError, match="dense weight"):
        build_model(ds.schema, widths=(10 ** 10,))


def test_build_rejects_unknown_mode():
    ds = prepared()
    with pytest.raises(ConfigError):
        build_model(ds.schema, mode="wide_only")


def test_wide_weight_length():
    ds = prepared()
    model = small_model(ds)
    assert model.params["wide_w"].shape == (2 * (ds.schema.k1 + ds.schema.k2),)


def test_unstandardized_query_rejected():
    raw = hand_dataset(n_queries=3, seed=1)
    model = build_model(raw.schema, widths=(4,), compressor_dim=2)
    with pytest.raises(ContractError, match="standardized"):
        score_query(model, raw.queries[0])
    # refused before any data check
    raw.queries[1].category_ids = np.array([7])
    with pytest.raises(ContractError, match="standardized"):
        prepare_dataset(model, raw)


@pytest.mark.parametrize("mode", ["sir", "deep_only"])
def test_prepared_block_holds_the_per_query_standardized_values(mode):
    raw = hand_dataset(n_queries=12, seed=24)
    stats = fit_standardization(raw, raw.schema, include_scalevariant=(mode == "deep_only"))
    model = build_model(raw.schema, mode=mode, widths=(8, 4), compressor_dim=2, stats=stats)
    block = prepare_dataset(model, raw)
    deep = [standardized(q, stats) for q in raw.queries]
    want_numeric = np.stack([numeric for numeric, _ in deep])
    want_fixed = np.concatenate([fixed for _, fixed in deep])
    assert block.deep_numeric.shape == want_numeric.shape
    assert block.deep_numeric.tobytes() == want_numeric.tobytes()
    got_fixed = np.ascontiguousarray(block.deep_items[:, :raw.schema.k1])
    assert got_fixed.shape == want_fixed.shape
    assert got_fixed.tobytes() == want_fixed.tobytes()


# ---------------------------------------------------------------------------
# deep part


def test_zeroed_parameters_score_zero():
    ds = prepared()
    model = small_model(ds)
    for value in model.params.values():
        value[...] = 0.0
    q = ds.queries[0]
    np.testing.assert_array_equal(score_query(model, q), np.zeros(q.n_items))


def test_identical_fixed_features_tie_deep_scores():
    ds = prepared(seed=3)
    model = small_model(ds)
    q = ds.queries[0]
    # the raw and standardized views share arrays: copy before editing a row
    q.fixed = q.fixed.copy()
    q.fixed[1] = q.fixed[0]
    deep_fixed = standardized(q, ds.stats)[1]
    np.testing.assert_array_equal(deep_fixed[1], deep_fixed[0])
    q.scalevariant = q.scalevariant.copy()
    q.scalevariant[1] = q.scalevariant[0] * 17.3
    deep = score_query(without_wide(model), q)
    assert deep[0] == deep[1]


def test_deep_score_ignores_scalevariant_bitwise():
    ds = prepared(seed=4)
    model = small_model(ds)
    q = ds.queries[2]
    deep_model = without_wide(model)
    before = score_query(deep_model, q).tolist()
    q.scalevariant = q.scalevariant * 1000.0
    after = score_query(deep_model, q).tolist()
    assert before == after


# ---------------------------------------------------------------------------
# wide part


def test_unit_features_zero_wide_score():
    ds = prepared(seed=5)
    model = small_model(ds)
    q = ds.queries[0]
    q.fixed = np.ones_like(q.fixed)
    q.scalevariant = np.ones_like(q.scalevariant)
    # log(1) = 0, so the wide term adds exactly nothing to the deep tower
    assert score_query(model, q).tolist() == score_query(without_wide(model), q).tolist()


def test_zero_wide_weights_degenerate_to_deep():
    ds = prepared(seed=6)
    model = small_model(ds)
    model.params["wide_w"][...] = 0.0
    q = ds.queries[1]
    # the deep tower written out from the parameters, with no wide term at all
    p = model.params
    numeric, fixed = standardized(q, ds.stats)
    q_repr = np.concatenate([numeric, p["emb_device_type"][int(q.category_ids[0])]])
    h = np.hstack([np.tile(q_repr, (q.n_items, 1)), fixed])
    for i in range(len(model.widths)):
        h = np.maximum(h @ p[f"deep_w{i}"] + p[f"deep_b{i}"], 0.0)
    deep = (h @ p["head_w"] + p["head_b"]).reshape(-1)
    np.testing.assert_array_equal(score_query(model, q), deep)


def test_wide_score_matches_triple_loop_oracle():
    ds = prepared(seed=7)
    model = small_model(ds, seed=11)
    schema = ds.schema
    q = ds.queries[3]
    # oracle: recompute <w, s (x) v> with explicit loops and hand-built s
    q_repr = list(standardized(q, ds.stats)[0])
    for f, cid in zip(schema.categorical_query_features, q.category_ids):
        q_repr.extend(model.params[f"emb_{f.name}"][int(cid)])
    q_repr = np.array(q_repr)
    fs_w, fs_b = model.params["fs_w"], model.params["fs_b"]
    s = np.array([sum(q_repr[m] * fs_w[m, l] for m in range(len(q_repr))) + fs_b[l]
                  for l in range(model.compressor_dim)])
    w = model.params["wide_w"]
    k_total = schema.k1 + schema.k2
    wide = score_query(model, q) - score_query(without_wide(model), q)
    for j in range(q.n_items):
        v = np.log(np.concatenate([q.fixed[j], q.scalevariant[j]]))
        acc = 0.0
        for l in range(model.compressor_dim):
            for kk in range(k_total):
                acc += w[l * k_total + kk] * s[l] * v[kk]
        assert abs(wide[j] - acc) < 1e-12


def test_nonpositive_wide_value_names_feature_and_item():
    ds = prepared(seed=8)
    model = small_model(ds)
    q = ds.queries[0]
    q.scalevariant = q.scalevariant.copy()
    q.scalevariant[1, 0] = -3.0
    with pytest.raises(DomainError, match=r"price"):
        score_query(model, q)


# ---------------------------------------------------------------------------
# score_query


def test_single_item_query_scores():
    ds = prepared(seed=9)
    model = small_model(ds)
    q = ds.queries[0]
    scores, _ = forward(model, q, item_indices=[0])
    assert scores.shape == (1,)
    assert np.isfinite(scores[0])


def test_deep_only_needs_scalevariant_stats():
    ds = prepared(seed=10)  # stats without scale-variant coverage
    model = build_model(ds.schema, mode="deep_only", widths=(8, 4),
                        compressor_dim=2, stats=ds.stats)
    with pytest.raises(ContractError):
        score_query(model, ds.queries[0])


def test_deep_only_scores_finite():
    ds = prepared(seed=12, include_scalevariant=True)
    model = build_model(ds.schema, mode="deep_only", widths=(8, 4),
                        compressor_dim=2, seed=1, stats=ds.stats)
    scores = score_query(model, ds.queries[0])
    assert np.all(np.isfinite(scores))
    assert "wide_w" not in model.params


# ---------------------------------------------------------------------------
# rank


def test_rank_basic():
    r = rank(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(r.order, [0, 2, 1])
    np.testing.assert_array_equal(r.positions(), [1, 3, 2])


def test_rank_all_equal_is_identity():
    r = rank(np.zeros(5))
    np.testing.assert_array_equal(r.order, np.arange(5))


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        scores = np.round(rng.normal(size=rng.integers(2, 12)), 1)  # force some ties
        got = rank(scores).order
        expected = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
        np.testing.assert_array_equal(got, expected)


def test_rank_rejects_nan():
    with pytest.raises(DomainError):
        rank(np.array([1.0, np.nan]))


def test_rank_prefix_preserved_by_lower_tail():
    rng = np.random.default_rng(14)
    scores = rng.normal(size=6)
    extended = np.append(scores, scores.min() - 1.0)
    np.testing.assert_array_equal(rank(extended).order[:6], rank(scores).order)


def test_ranking_is_bijective():
    rng = np.random.default_rng(15)
    for _ in range(20):
        r = rank(rng.normal(size=9))
        assert sorted(r.order) == list(range(9))


# ---------------------------------------------------------------------------
# invariance


def test_scale_identity_gap_exactly_zero():
    ds = prepared(seed=16)
    model = small_model(ds, seed=3)
    assert invariance_gap(model, ds.queries[0], 1.0) == 0.0


def test_invalid_scale_rejected():
    ds = prepared(seed=16)
    model = small_model(ds)
    for c in (0.0, -2.0, float("nan")):
        with pytest.raises(DomainError):
            invariance_gap(model, ds.queries[0], c)


def test_pairwise_differences_survive_scaling():
    ds = prepared(seed=17, n_queries=10)
    for model_seed in range(4):
        model = small_model(ds, seed=model_seed)
        for q in ds.queries[:5]:
            base = score_query(model, q)
            magnitude = 1.0 + float(np.max(np.abs(base)))
            for c in SCALES:
                assert invariance_gap(model, q, c) < 1e-9 * magnitude
                scaled = score_query(model, scale_query(q, c))
                np.testing.assert_array_equal(rank(scaled).order, rank(base).order)


def test_scale_query_leaves_input_intact():
    ds = prepared(seed=17)
    q = ds.queries[0]
    names = ("numeric", "fixed", "scalevariant", "labels")
    before = {name: getattr(q, name).copy() for name in names}
    deep_before = standardized(q, ds.stats)
    scaled = scale_query(q, 7.0)
    for name in names:
        np.testing.assert_array_equal(getattr(q, name), before[name], err_msg=name)
    np.testing.assert_array_equal(scaled.scalevariant, before["scalevariant"] * 7.0)
    for name in ("numeric", "fixed", "labels"):
        np.testing.assert_array_equal(getattr(scaled, name), before[name], err_msg=name)
    for got, want in zip(standardized(scaled, ds.stats), deep_before):
        np.testing.assert_array_equal(got, want)
    assert scaled.item_ids == q.item_ids


def test_scores_do_shift_by_common_term():
    # individual scores move, only their differences are pinned
    ds = prepared(seed=18)
    model = small_model(ds, seed=5)
    q = ds.queries[0]
    delta = score_query(model, scale_query(q, 7.0)) - score_query(model, q)
    assert np.max(np.abs(delta)) > 1e-6
    assert np.max(delta) - np.min(delta) < 1e-9


def test_deep_only_gap_is_macroscopic():
    ds = prepared(seed=19, include_scalevariant=True)
    model = build_model(ds.schema, mode="deep_only", widths=(8, 4),
                        compressor_dim=2, seed=4, stats=ds.stats)
    gap = invariance_gap(model, ds.queries[0], 1200.0)
    assert np.isfinite(gap)
    assert gap > 1e-6


# ---------------------------------------------------------------------------
# batched scoring


def chunk_straddling(n_queries=64, seed=20, include_scalevariant=False):
    """More item rows than one evaluation chunk, with a query that owns rows
    on both sides of the first chunk boundary."""
    ds = prepared(seed=seed, n_queries=n_queries, include_scalevariant=include_scalevariant,
                  items=(18, 25))
    bounds = np.cumsum([0] + [q.n_items for q in ds.queries])
    assert bounds[-1] > EVAL_CHUNK_ROWS
    assert not np.any(bounds == EVAL_CHUNK_ROWS)
    return ds


def models_of_both_modes():
    sir_ds = chunk_straddling()
    deep_ds = chunk_straddling(include_scalevariant=True)
    return [(small_model(sir_ds, seed=6), sir_ds),
            (build_model(deep_ds.schema, mode="deep_only", widths=(8, 4), compressor_dim=2,
                         seed=6, stats=deep_ds.stats), deep_ds)]


def test_batched_scores_match_per_query_across_chunks():
    for model, ds in models_of_both_modes():
        block = prepare_dataset(model, ds)
        got = score_block(model, block)
        want = np.concatenate([score_query(model, q) for q in ds.queries])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13, err_msg=model.mode)
        np.testing.assert_array_equal(block.offsets, np.cumsum([0] + [q.n_items for q in ds]))


def test_batched_gap_matches_per_query_max():
    for model, ds in models_of_both_modes():
        for c in (0.5, 1200.0):
            want = max(invariance_gap(model, q, c) for q in ds.queries)
            assert abs(dataset_invariance_gap(model, ds, c) - want) < 1e-12, (model.mode, c)


def test_batched_identity_gap_exactly_zero():
    model, ds = models_of_both_modes()[0]
    assert dataset_invariance_gap(model, ds, 1.0) == 0.0


def _break_query(q, case):
    """Damage one record the way a caller could, copying shared arrays first."""
    if case == "category_out_of_range":
        q.category_ids = np.array([7])
    elif case == "nonpositive_wide_value":
        q.scalevariant = q.scalevariant.copy()
        q.scalevariant[2, 1] = 0.0
    elif case == "non_finite_deep_input":
        q.fixed = q.fixed.copy()
        q.fixed[1, 0] = np.inf


@pytest.mark.parametrize("case", ["category_out_of_range", "nonpositive_wide_value",
                                  "non_finite_deep_input"])
def test_batched_checks_raise_what_prepare_query_raises(case):
    ds = prepared(seed=21, n_queries=8)
    model = small_model(ds)
    # a later query broken in another way must not be the one reported
    _break_query(ds.queries[3], case)
    _break_query(ds.queries[6], "nonpositive_wide_value" if case != "nonpositive_wide_value"
                 else "category_out_of_range")
    with pytest.raises(Exception) as per_query:
        prepare_dataset(model, Dataset(schema=ds.schema, queries=[ds.queries[3]], stats=ds.stats))
    with pytest.raises(type(per_query.value)) as batched:
        prepare_dataset(model, ds)
    assert str(batched.value) == str(per_query.value)
    if case == "non_finite_deep_input":
        assert str(batched.value) == f"query {ds.queries[3].query_id}: non-finite deep-path input"
    if case == "nonpositive_wide_value":
        assert str(batched.value).startswith(
            f"query {ds.queries[3].query_id}, item {ds.queries[3].item_ids[2]}: "
            f"wide-path feature 'discount'")


def test_batched_path_needs_scalevariant_stats_and_queries():
    ds = prepared(seed=10)
    model = build_model(ds.schema, mode="deep_only", widths=(8, 4), compressor_dim=2,
                        stats=ds.stats)
    with pytest.raises(ContractError, match="scale-variant"):
        prepare_dataset(model, ds)
    with pytest.raises(ValidationError):
        prepare_dataset(small_model(ds), Dataset(schema=ds.schema, queries=[], stats=ds.stats))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_scores_bitwise(tmp_path):
    ds = prepared(seed=20)
    model = small_model(ds, seed=6)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    back = load_checkpoint(path, ds.schema)
    for q in ds.queries[:4]:
        np.testing.assert_array_equal(score_query(back, q), score_query(model, q))


def test_checkpoint_rejects_other_schema(tmp_path):
    ds = prepared(seed=21)
    model = small_model(ds)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    other = hand_dataset(n_queries=3)
    from sirank.data import FeatureSchema

    mutated = FeatureSchema(
        query_features=other.schema.query_features,
        item_features_fixed=("star_rating",),
        item_features_scalevariant=("price", "discount"),
    )
    with pytest.raises(SchemaError, match="fingerprint"):
        load_checkpoint(path, mutated)


def test_checkpoint_deep_only_needs_scalevariant_stats(tmp_path):
    ds = prepared(seed=23)  # stats without scale-variant coverage
    model = build_model(ds.schema, mode="deep_only", widths=(4,), compressor_dim=2,
                        stats=ds.stats)
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    with pytest.raises(SchemaError, match="scale-variant"):
        load_checkpoint(path, ds.schema)


def test_checkpoint_requires_stats(tmp_path):
    ds = prepared(seed=22)
    model = build_model(ds.schema, widths=(4,), compressor_dim=2)
    with pytest.raises(ContractError):
        save_checkpoint(model, tmp_path / "m.json")
