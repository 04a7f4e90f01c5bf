import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from sirank.data import Dataset, fit_standardization
from sirank.errors import ConfigError, ContractError, DomainError, SchemaError, ValidationError
from sirank.generator import GeneratorConfig, generate
from sirank.perturb import (CASE_IDS, DEFAULT_RATE, PerturbationCase, apply_case,
                            target_columns)
from sirank.scoring import (
    EVAL_CHUNK_ROWS,
    MODES,
    DatasetBlock,
    Ranking,
    block_scorer,
    build_model,
    fit_stats,
    forward,
    invariance_gap,
    load_checkpoint,
    prepare_dataset,
    prepare_rescale,
    rank,
    save_checkpoint,
    scale_dataset,
    scale_query,
    score_block,
    score_query,
)

from conftest import (LABEL_BREAKS, break_labels, edited, hand_dataset, record_bytes,
                      standardized, with_queries, without_wide)

SCALES = (1e-2, 0.5, 7.0, 1200.0)


def prepared(seed=0, n_queries=12, items=(3, 6)):
    return hand_dataset(n_queries=n_queries, seed=seed, items=items)


def small_model(ds, mode="sir", seed=0):
    """A model whose stats are fitted on ``ds`` for its mode."""
    return build_model(ds.schema, mode=mode, widths=(8, 4), compressor_dim=2,
                       seed=seed, stats=fit_stats(ds, mode))


# ---------------------------------------------------------------------------
# construction


def test_build_rejects_wide_compressor():
    ds = prepared()
    # query repr is 5 wide here, compressor must stay below that
    with pytest.raises(ConfigError):
        build_model(ds.schema, compressor_dim=5, stats=fit_stats(ds, "sir"))


def test_build_rejects_empty_compressor():
    ds = prepared()
    with pytest.raises(ConfigError, match="at least 1"):
        build_model(ds.schema, compressor_dim=0, stats=fit_stats(ds, "sir"))


def test_build_rejects_dense_weight_beyond_cap():
    ds = prepared()
    with pytest.raises(ConfigError, match="dense weight"):
        build_model(ds.schema, widths=(10 ** 10,), stats=fit_stats(ds, "sir"))


def test_build_rejects_unknown_mode():
    ds = prepared()
    with pytest.raises(ConfigError):
        build_model(ds.schema, mode="wide_only", stats=fit_stats(ds, "sir"))


def test_wide_weight_length():
    ds = prepared()
    model = small_model(ds)
    assert model.params["wide_w"].shape == (2 * (ds.schema.k1 + ds.schema.k2),)


def test_unstandardized_query_rejected():
    # every model standardizes: one cannot be built without stats
    raw = hand_dataset(n_queries=3, seed=1)
    with pytest.raises(TypeError, match="stats"):
        build_model(raw.schema, widths=(4,), compressor_dim=2)


@pytest.mark.parametrize("mode", ["sir", "deep_only"])
def test_prepared_block_holds_the_per_query_standardized_values(mode):
    raw = hand_dataset(n_queries=12, seed=24)
    stats = fit_standardization(raw, raw.schema, include_scalevariant=(mode == "deep_only"))
    assert fit_stats(raw, mode).to_json() == stats.to_json()
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
    q = replace(q, fixed=edited(q.fixed, 1, q.fixed[0]))
    deep_fixed = standardized(q, model.stats)[1]
    np.testing.assert_array_equal(deep_fixed[1], deep_fixed[0])
    q = replace(q, scalevariant=edited(q.scalevariant, 1, q.scalevariant[0] * 17.3))
    deep = score_query(without_wide(model), q)
    assert deep[0] == deep[1]


def test_deep_score_ignores_scalevariant_bitwise():
    ds = prepared(seed=4)
    model = small_model(ds)
    q = ds.queries[2]
    deep_model = without_wide(model)
    before = score_query(deep_model, q).tolist()
    after = score_query(deep_model, replace(q, scalevariant=q.scalevariant * 1000.0)).tolist()
    assert before == after


# ---------------------------------------------------------------------------
# wide part


def test_unit_features_zero_wide_score():
    ds = prepared(seed=5)
    model = small_model(ds)
    q = ds.queries[0]
    q = replace(q, fixed=np.ones_like(q.fixed), scalevariant=np.ones_like(q.scalevariant))
    # log(1) = 0, so the wide term adds exactly nothing to the deep tower
    assert score_query(model, q).tolist() == score_query(without_wide(model), q).tolist()


def test_zero_wide_weights_degenerate_to_deep():
    ds = prepared(seed=6)
    model = small_model(ds)
    model.params["wide_w"][...] = 0.0
    q = ds.queries[1]
    # the deep tower written out from the parameters, with no wide term at all
    p = model.params
    numeric, fixed = standardized(q, model.stats)
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
    q_repr = list(standardized(q, model.stats)[0])
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
    q = replace(q, scalevariant=edited(q.scalevariant, (1, 0), -3.0))
    with pytest.raises(ValidationError, match=r"price"):
        score_query(model, q)


@pytest.mark.parametrize("mode", ["sir", "deep_only"])
@pytest.mark.parametrize("group, value, rule", [
    ("fixed", 0.0, "fixed feature 'star_rating' must be finite and > 0, got 0.0"),
    ("scalevariant", np.inf, "scale-variant feature 'price' must be finite and at least the "
                             "smallest normal float64, got inf"),
    ("scalevariant", 1e-310, "scale-variant feature 'price' must be finite and at least the "
                             "smallest normal float64, got 1e-310"),
])
def test_values_no_mode_can_score_are_refused_in_both(mode, group, value, rule):
    ds = prepared(seed=8)
    model = small_model(ds, mode=mode)
    q = ds.queries[0]
    with pytest.raises(ValidationError, match=re.escape(
            f"query {q.query_id}: item {q.item_ids[1]}: {rule}")):
        score_query(model, replace(q, **{group: edited(getattr(q, group), (1, 0), value)}))


def test_prepare_refuses_a_dataset_of_another_schema():
    ds = prepared(seed=8)
    model = small_model(ds)
    other = replace(ds.schema, item_features_fixed=("star_rating", "review_count"))
    with pytest.raises(ContractError, match="schema .* is not the model's"):
        prepare_dataset(model, Dataset(schema=other, queries=ds.queries))


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
    ds = prepared(seed=10)
    with pytest.raises(SchemaError, match="scale-variant"):
        build_model(ds.schema, mode="deep_only", widths=(8, 4), compressor_dim=2,
                    stats=fit_stats(ds, "sir"))


def test_deep_only_scores_finite():
    ds = prepared(seed=12)
    model = small_model(ds, mode="deep_only", seed=1)
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


def test_scale_query_refuses_products_below_the_smallest_normal_float():
    q = prepared(seed=17).queries[0]
    assert scale_query(q, 1e-300).scalevariant.min() >= np.finfo(np.float64).tiny
    with pytest.raises(ValidationError, match=rf"^query {q.query_id}: scaling by {1e-320:g} takes "
                                              "a scale-variant value below the smallest normal"):
        scale_query(q, 1e-320)


def test_scale_query_leaves_input_intact():
    ds = prepared(seed=17)
    q = ds.queries[0]
    names = ("numeric", "fixed", "scalevariant", "labels")
    before = {name: getattr(q, name).copy() for name in names}
    stats = fit_stats(ds, "sir")
    deep_before = standardized(q, stats)
    scaled = scale_query(q, 7.0)
    for name in names:
        np.testing.assert_array_equal(getattr(q, name), before[name], err_msg=name)
    np.testing.assert_array_equal(scaled.scalevariant, before["scalevariant"] * 7.0)
    for name in ("numeric", "fixed", "labels"):
        np.testing.assert_array_equal(getattr(scaled, name), before[name], err_msg=name)
    for got, want in zip(standardized(scaled, stats), deep_before):
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
    ds = prepared(seed=19)
    model = small_model(ds, mode="deep_only", seed=4)
    gap = invariance_gap(model, ds.queries[0], 1200.0)
    assert np.isfinite(gap)
    assert gap > 1e-6


# ---------------------------------------------------------------------------
# batched scoring


def chunk_straddling(n_queries=64, seed=20):
    """More item rows than one evaluation chunk, with a query that owns rows
    on both sides of the first chunk boundary."""
    ds = prepared(seed=seed, n_queries=n_queries, items=(18, 25))
    bounds = np.cumsum([0] + [q.n_items for q in ds.queries])
    assert bounds[-1] > EVAL_CHUNK_ROWS
    assert not np.any(bounds == EVAL_CHUNK_ROWS)
    return ds


def models_of_both_modes():
    ds = chunk_straddling()
    return [(small_model(ds, mode=mode, seed=6), ds) for mode in ("sir", "deep_only")]


def test_batched_scores_match_per_query_across_chunks():
    for model, ds in models_of_both_modes():
        block = prepare_dataset(model, ds)
        got = score_block(model, block)
        want = np.concatenate([score_query(model, q) for q in ds.queries])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13, err_msg=model.mode)
        np.testing.assert_array_equal(block.offsets, np.cumsum([0] + [q.n_items for q in ds]))


def batched_gap(model, ds, c):
    """The largest invariance gap over ``ds``, as ``evaluate_scenarios`` takes
    it: one scorer of the clean block scores it and its rescaled block, and
    each query's spread of the change is reduced over its segment."""
    block = prepare_dataset(model, ds)
    score = block_scorer(model, block)
    delta = score(prepare_rescale(model, block, scale_dataset(ds, c))) - score(block)
    starts = block.offsets[:-1]
    return float(np.max(np.maximum.reduceat(delta, starts) - np.minimum.reduceat(delta, starts)))


def test_batched_gap_matches_per_query_max():
    for model, ds in models_of_both_modes():
        for c in (0.5, 1200.0):
            want = max(invariance_gap(model, q, c) for q in ds.queries)
            assert abs(batched_gap(model, ds, c) - want) < 1e-12, (model.mode, c)


def test_rescale_blocks_are_bitwise_prepare_dataset_of_the_rescale():
    # the generator's schema: the cases rescale 2 of its 5 scale-variant
    # columns, the gap all of them
    ds = generate(GeneratorConfig(num_queries=40, seed=31))
    assert len(target_columns(ds.schema)) < ds.schema.k2
    for mode in MODES:
        model = small_model(ds, mode=mode, seed=31)
        block = prepare_dataset(model, ds)
        rescales = [(apply_case(ds, PerturbationCase(c)), target_columns(ds.schema))
                    for c in CASE_IDS] + [(scale_dataset(ds, DEFAULT_RATE), slice(None))]
        for rescale, columns in rescales:
            got = prepare_rescale(model, block, rescale, columns)
            want = prepare_dataset(model, rescale)
            for field in fields(DatasetBlock):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert (a is None and b is None) or (
                    a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()), (
                    mode, field.name)


def test_batched_identity_gap_exactly_zero():
    model, ds = models_of_both_modes()[0]
    assert batched_gap(model, ds, 1.0) == 0.0


def _break_query(q, case):
    """A copy of one record, damaged the way a caller could."""
    if case == "category_out_of_range":
        return replace(q, category_ids=np.array([7]))
    if case == "nonpositive_wide_value":
        return replace(q, scalevariant=edited(q.scalevariant, (2, 1), 0.0))
    if case == "non_finite_deep_input":
        return replace(q, fixed=edited(q.fixed, (1, 0), np.inf))
    return break_labels(q, case)


@pytest.mark.parametrize("case", ["category_out_of_range", "nonpositive_wide_value",
                                  "non_finite_deep_input", *LABEL_BREAKS])
def test_batched_checks_raise_what_prepare_query_raises(case):
    ds = prepared(seed=21, n_queries=8)
    model = small_model(ds)
    # a later query broken in another way must not be the one reported
    bad = _break_query(ds.queries[3], case)
    later = _break_query(ds.queries[6], "nonpositive_wide_value"
                         if case != "nonpositive_wide_value" else "category_out_of_range")
    # a Dataset checks its records when it is made: the error is raised there
    with pytest.raises(Exception) as per_query:
        prepare_dataset(model, Dataset(schema=ds.schema, queries=[bad]))
    with pytest.raises(type(per_query.value)) as batched:
        prepare_dataset(model, with_queries(ds, {3: bad, 6: later}))
    assert str(batched.value) == str(per_query.value)
    q = ds.queries[3]
    assert batched.type is ValidationError
    assert str(batched.value) == f"query {q.query_id}: " + {
        "category_out_of_range": "query feature 'device_type' must be an id in [0, 3), got 7",
        "nonpositive_wide_value": f"item {q.item_ids[2]}: scale-variant feature 'discount' "
                                  "must be finite and at least the smallest normal float64, "
                                  "got 0.0",
        "non_finite_deep_input": f"item {q.item_ids[1]}: fixed feature 'star_rating' must be "
                                 "finite and > 0, got inf",
        "two_booked": "multiple booked items", "none_booked": "no booked item",
        "label_of_two": f"item {q.item_ids[(q.booked_index + 1) % q.n_items]}: label must be "
                        "0 or 1"}[case]


@pytest.mark.parametrize("bad_category_at", [None, 1, 5], ids=["alone", "before", "after"])
def test_empty_query_is_reported_in_dataset_order(bad_category_at):
    ds = prepared(seed=21, n_queries=8)
    model = small_model(ds)
    q = ds.queries[3]
    empty = replace(q, item_ids=(), fixed=q.fixed[:0], scalevariant=q.scalevariant[:0],
                    labels=q.labels[:0])
    with pytest.raises(Exception) as err:  # raised where the Dataset is made
        if bad_category_at is None:
            broken = Dataset(schema=ds.schema, queries=[empty])
        else:
            broken = with_queries(ds, {3: empty, bad_category_at: _break_query(
                ds.queries[bad_category_at], "category_out_of_range")})
        prepare_dataset(model, broken)
    assert err.type is ValidationError
    if bad_category_at == 1:
        assert str(err.value) == (f"query {ds.queries[1].query_id}: query feature "
                                  "'device_type' must be an id in [0, 3), got 7")
    else:
        assert str(err.value) == f"query {q.query_id}: items count 0 outside [2, 25]"


@pytest.mark.parametrize("group", ["fixed", "scalevariant"])
@pytest.mark.parametrize("how", ["one_1d", "all_1d", "one_too_wide"])
def test_item_arrays_of_the_wrong_shape_are_a_contract_error(group, how):
    ds = prepared(seed=22, n_queries=8)
    model = small_model(ds)
    k = ds.schema.k1 if group == "fixed" else ds.schema.k2
    changed = {}
    for i in range(2, len(ds) if how == "all_1d" else 3):
        a = getattr(ds.queries[i], group)
        changed[i] = replace(ds.queries[i], **{group: a[:, 0].copy() if how.endswith("1d")
                                               else np.hstack([a, a[:, :1]])})
    q = ds.queries[2]
    shape = [q.n_items] if how.endswith("1d") else [q.n_items, k + 1]
    want = (f"query {q.query_id}: {group} array has shape {shape}, "
            f"expected (D, K) = ({q.n_items}, {k})")
    # every call gets a dataset made from the records, which raises there
    calls = [lambda: prepare_dataset(model, with_queries(ds, changed))]
    if group == "scalevariant":
        calls += [lambda: apply_case(with_queries(ds, changed), PerturbationCase(3)),
                  lambda: scale_dataset(with_queries(ds, changed), 7.0),
                  lambda: batched_gap(model, with_queries(ds, changed), 7.0)]
    for call in calls:
        with pytest.raises(ContractError) as err:
            call()
        assert str(err.value) == want


@pytest.mark.parametrize("how", ["1d", "short"])
def test_scale_query_names_a_record_whose_scalevariant_is_not_d_rows(how):
    q = hand_dataset().queries[0]
    sv = q.scalevariant[:, 0].copy() if how == "1d" else q.scalevariant[1:].copy()
    with pytest.raises(ContractError) as err:
        scale_query(replace(q, scalevariant=sv), 2.0)
    assert str(err.value) == (f"query {q.query_id}: scalevariant array has shape "
                              f"{list(sv.shape)}, expected (D, K) with D = {q.n_items}")


def test_scale_dataset_is_scale_query_of_every_query():
    ds = prepared(seed=23)
    for c in SCALES:
        scaled = scale_dataset(ds, c)
        assert scaled.schema == ds.schema
        assert [record_bytes(got) for got in scaled.queries] == [
            record_bytes(scale_query(q, c)) for q in ds.queries]
        # every column but the scale-variant one is shared
        assert all(getattr(scaled, name) is getattr(ds, name) for name in (
            "query_ids", "numeric", "category_ids", "num_nights", "exchange_rates", "item_ids",
            "fixed", "labels", "offsets"))
    assert scale_dataset(Dataset(schema=ds.schema, queries=[]), 2.0).queries == ()


@pytest.mark.parametrize("c, bad_value", [(1e300, 1e10), (1e-300, 1e-10), (1e300, float("nan"))])
def test_scale_dataset_names_the_first_query_scale_query_refuses(c, bad_value):
    ds = prepared(seed=24)
    with pytest.raises(DomainError, match="positive finite"):
        scale_dataset(ds, -1.0)
    changed = {qi: replace(ds.queries[qi], scalevariant=edited(ds.queries[qi].scalevariant,
                                                               (1, 0), bad_value))
               for qi in (5, 8)}
    with pytest.raises(ValidationError) as want:
        scale_query(changed[5], c)
    if math.isnan(bad_value):  # no Dataset holds a NaN: it is refused where it is made
        with pytest.raises(ValidationError, match="feature 'price' must be finite and at least "
                                                  "the smallest normal float64, got nan"):
            with_queries(ds, changed)
        return
    with pytest.raises(ValidationError) as got:
        scale_dataset(with_queries(ds, changed), c)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"query {ds.queries[5].query_id}: scaling by {c:g}")


@pytest.mark.parametrize("price, c, case_id, where", [
    (1e306, 1200.0, 4, "beyond the float64 range"),
    (1e-300, 1e-20, 2, "below the smallest normal float64")], ids=["overflow", "below_normal"])
@pytest.mark.parametrize("rescale", ["scale_query", "scale_dataset", "apply_case"])
def test_every_rescale_reports_through_one_template(rescale, price, c, case_id, where):
    """Each rescale names the first bad query in dataset order in the same
    words: what rescaled it, then where a product fell."""
    ds = prepared(seed=25, n_queries=6)
    # case 2 multiplies a query by its exchange rate: c for the two changed here
    ds = with_queries(ds, {qi: replace(ds.queries[qi], exchange_rate=c, scalevariant=edited(
        ds.queries[qi].scalevariant, (1, 0), price)) for qi in (2, 4)})
    call, what = {
        "scale_query": (lambda: scale_query(ds.queries[2], c), f"scaling by {c:g} takes"),
        "scale_dataset": (lambda: scale_dataset(ds, c), f"scaling by {c:g} takes"),
        "apply_case": (lambda: apply_case(ds, PerturbationCase(case_id)),
                       f"case {case_id} rescales"),
    }[rescale]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == f"query {ds.queries[2].query_id}: {what} a scale-variant value {where}"


def test_batched_path_needs_scalevariant_stats_and_queries():
    ds = prepared(seed=10)
    # the stats a deep_only model scores with cover the scale-variant features
    assert small_model(ds, mode="deep_only").stats.covers_scalevariant
    with pytest.raises(ValidationError):
        prepare_dataset(small_model(ds), Dataset(schema=ds.schema, queries=[]))


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
    ds = prepared(seed=23)
    path = tmp_path / "m.json"
    save_checkpoint(small_model(ds, mode="deep_only"), path)
    obj = json.loads(path.read_text())
    del obj["stats"]["scalevariant"]
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match=rf"^checkpoint {re.escape(str(path))} .*scale-variant"):
        load_checkpoint(path, ds.schema)


def test_checkpoint_requires_stats(tmp_path):
    ds = prepared(seed=22)
    model = small_model(ds)
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    assert load_checkpoint(path, ds.schema).stats.to_json() == model.stats.to_json()
    obj = json.loads(path.read_text())
    del obj["stats"]
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match="lacks stats"):
        load_checkpoint(path, ds.schema)
