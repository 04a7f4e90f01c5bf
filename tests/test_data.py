import copy
import json

import numpy as np
import pytest

import sirank.data
from sirank.data import (
    Dataset,
    FeatureSchema,
    QueryFeature,
    apply_standardization,
    fit_standardization,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    split_holdout,
)
from sirank.errors import ContractError, ParseError, SchemaError, ValidationError
from sirank.scoring import build_model, prepare_dataset

from conftest import hand_dataset, tiny_schema


# ---------------------------------------------------------------------------
# schema


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError, match="price"):
        FeatureSchema(
            query_features=(QueryFeature("price", "numeric"),),
            item_features_fixed=("stars",),
            item_features_scalevariant=("price",),
        )


def test_schema_requires_scalevariant_feature():
    with pytest.raises(SchemaError):
        FeatureSchema(
            query_features=(QueryFeature("a", "numeric"),),
            item_features_fixed=("stars",),
            item_features_scalevariant=(),
        )


def test_schema_rejects_tiny_cardinality():
    with pytest.raises(SchemaError, match="cardinality"):
        FeatureSchema(
            query_features=(QueryFeature("c", "categorical", cardinality=1, embedding_dim=2),),
            item_features_fixed=(),
            item_features_scalevariant=("price",),
        )


def test_schema_rejects_embedding_table_beyond_cap():
    with pytest.raises(SchemaError, match="embedding table"):
        FeatureSchema(
            query_features=(QueryFeature("c", "categorical", cardinality=10 ** 400,
                                         embedding_dim=2),),
            item_features_fixed=(),
            item_features_scalevariant=("price",),
        )


def test_schema_json_round_trip(tmp_path, schema):
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    loaded = load_schema(path)
    assert loaded == schema
    assert loaded.fingerprint() == schema.fingerprint()


def test_schema_fingerprint_changes_with_content(schema):
    other = FeatureSchema(
        query_features=schema.query_features,
        item_features_fixed=schema.item_features_fixed + ("extra",),
        item_features_scalevariant=schema.item_features_scalevariant,
    )
    assert other.fingerprint() != schema.fingerprint()


def test_query_repr_dim(schema):
    # 3 numerics + one embedding of width 2
    assert schema.query_repr_dim == 5


# ---------------------------------------------------------------------------
# load / save


def test_empty_file_gives_empty_dataset(tmp_path, schema):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    ds = load_dataset(path, schema)
    assert len(ds) == 0


def test_round_trip_field_by_field(tmp_path):
    ds = hand_dataset(n_queries=8, seed=3)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path, ds.schema)
    assert len(back) == len(ds)
    for q0, q1 in zip(ds.queries, back.queries):
        assert q0.query_id == q1.query_id
        np.testing.assert_array_equal(q0.numeric, q1.numeric)
        np.testing.assert_array_equal(q0.category_ids, q1.category_ids)
        assert q0.num_nights == q1.num_nights
        assert q0.exchange_rate == q1.exchange_rate
        assert q0.n_items == q1.n_items
        assert q0.item_ids == q1.item_ids
        np.testing.assert_array_equal(q0.fixed, q1.fixed)
        np.testing.assert_array_equal(q0.scalevariant, q1.scalevariant)
        np.testing.assert_array_equal(q0.labels, q1.labels)


def test_standardized_view_saves_the_raw_bytes(tmp_path):
    ds = hand_dataset(n_queries=8, seed=3)
    save_dataset(ds, tmp_path / "raw.jsonl")
    save_dataset(apply_standardization(ds, fit_standardization(ds, ds.schema)),
                 tmp_path / "view.jsonl")
    assert (tmp_path / "view.jsonl").read_bytes() == (tmp_path / "raw.jsonl").read_bytes()


def test_malformed_line_reports_line_number(tmp_path, schema):
    ds = hand_dataset(n_queries=2)
    path = tmp_path / "bad.jsonl"
    save_dataset(ds, path)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(path, schema)


def _one_query_obj(ds):
    path_free = json.loads(json.dumps({
        "query_id": "q0",
        "query": {"num_nights": 2.0, "exchange_rate": 1.0, "lead_days": 0.3, "device_type": 1},
        "num_nights": 2,
        "exchange_rate": 1.0,
        "items": [
            {"item_id": "a", "fixed": {"star_rating": 4.0, "review_score": 8.0},
             "scalevariant": {"price": 120.0, "discount": 10.0}, "label": 1},
            {"item_id": "b", "fixed": {"star_rating": 3.0, "review_score": 7.0},
             "scalevariant": {"price": 90.0, "discount": 5.0}, "label": 0},
        ],
    }))
    return path_free


def _write_and_load(tmp_path, schema, obj):
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    return load_dataset(path, schema)


def test_two_booked_items_rejected(tmp_path, schema):
    obj = _one_query_obj(None)
    obj["items"][1]["label"] = 1
    with pytest.raises(ValidationError, match="multiple booked items"):
        _write_and_load(tmp_path, schema, obj)


def test_zero_booked_items_rejected(tmp_path, schema):
    obj = _one_query_obj(None)
    obj["items"][0]["label"] = 0
    with pytest.raises(ValidationError, match="no booked item"):
        _write_and_load(tmp_path, schema, obj)


def test_nonpositive_scalevariant_rejected(tmp_path, schema):
    obj = _one_query_obj(None)
    obj["items"][0]["scalevariant"]["price"] = 0.0
    with pytest.raises(ValidationError, match="q0"):
        _write_and_load(tmp_path, schema, obj)


@pytest.mark.parametrize("field", ["lead_days", "exchange_rate"])
def test_query_number_too_large_for_float_rejected(tmp_path, schema, field):
    obj = _one_query_obj(None)
    if field == "exchange_rate":
        obj["exchange_rate"] = 10 ** 400
    else:
        obj["query"][field] = 10 ** 400
    with pytest.raises(ValidationError, match=field):
        _write_and_load(tmp_path, schema, obj)


def test_num_nights_too_large_for_float_rejected(tmp_path, schema):
    obj = _one_query_obj(None)
    obj["num_nights"] = 10 ** 400
    with pytest.raises(ValidationError, match="num_nights"):
        _write_and_load(tmp_path, schema, obj)


def test_out_of_range_category_rejected(tmp_path, schema):
    obj = _one_query_obj(None)
    obj["query"]["device_type"] = 3
    with pytest.raises(ValidationError, match="device_type"):
        _write_and_load(tmp_path, schema, obj)


def test_single_item_query_rejected(tmp_path, schema):
    obj = _one_query_obj(None)
    obj["items"] = obj["items"][:1]
    with pytest.raises(ValidationError, match="items count"):
        _write_and_load(tmp_path, schema, obj)


def test_valid_single_query_loads(tmp_path, schema):
    ds = _write_and_load(tmp_path, schema, _one_query_obj(None))
    assert len(ds) == 1
    q = ds.queries[0]
    assert q.booked_index == 0
    assert q.n_items == 2


ITEM_MUTATIONS = (
    [("fixed", "star_rating", v) for v in ("4.5", None, True, 10 ** 400, float("nan"),
                                             float("inf"), -1.0, 0, 3, 2 ** 60, [1.0])]
    + [("scalevariant", "discount", v) for v in (False, 0.0, {"x": 1.0}, 7, 1e308)]
    + [(group, "colour", 2.0) for group in ("fixed", "scalevariant")]
    + [(group, None, value) for group in ("fixed", "scalevariant")
       for value in (None, [4.0, 8.0], {"star_rating": 4.0}, "drop")]
    + [(None, "item_id", v) for v in (None, "", 5, "a")]
    + [(None, "label", v) for v in (True, 2, 1.0, 0.0, None, "1", float("nan"))]
    + [("item", None, v) for v in (7, None, [])]
)


def _mutate(obj, j, mutation):
    group, key, value = mutation
    items = obj["items"]
    if group == "item":
        items[j] = value
    elif group is None:
        items[j][key] = value
    elif key is None and value == "drop":
        items[j].pop(group, None)
    elif key is None:
        items[j][group] = value
    elif isinstance(items[j].get(group), dict):
        items[j][group][key] = value


def _parse_outcome(obj, schema):
    try:
        q = sirank.data._parse_query_obj(copy.deepcopy(obj), schema)
    except ValidationError as exc:
        return ("error", str(exc))
    return ("ok", q.item_ids, q.fixed.tobytes(), q.scalevariant.tobytes(), q.labels.tobytes())


def test_columnwise_item_checks_agree_with_per_item_checks(schema, monkeypatch):
    base = _one_query_obj(None)
    base["items"].append({"item_id": "c", "fixed": {"star_rating": 2, "review_score": 6.5},
                          "scalevariant": {"price": 70, "discount": 2.5}, "label": 0})
    cases = [base]
    for j in range(3):
        for mutation in ITEM_MUTATIONS:
            obj = copy.deepcopy(base)
            _mutate(obj, j, mutation)
            cases.append(obj)
    rng = np.random.default_rng(40)
    for _ in range(300):
        obj = copy.deepcopy(base)
        for _ in range(2):
            j = int(rng.integers(3))
            if isinstance(obj["items"][j], dict):
                _mutate(obj, j, ITEM_MUTATIONS[rng.integers(len(ITEM_MUTATIONS))])
        cases.append(obj)
    columnwise = [_parse_outcome(obj, schema) for obj in cases]
    monkeypatch.setattr(sirank.data, "_item_arrays", lambda raw_items, schema: None)
    per_item = [_parse_outcome(obj, schema) for obj in cases]
    assert columnwise == per_item
    assert columnwise[0][0] == "ok"
    assert {outcome[0] for outcome in columnwise} == {"ok", "error"}


# ---------------------------------------------------------------------------
# standardization


def test_constant_feature_rejected():
    ds = hand_dataset(n_queries=6, seed=1)
    for q in ds.queries:
        q.numeric[2] = 5.0
    with pytest.raises(ValidationError, match="lead_days"):
        fit_standardization(ds, ds.schema)


@pytest.mark.parametrize("factor", [1e200, 1e307])
def test_non_finite_stats_rejected_naming_feature(factor):
    ds = hand_dataset(n_queries=6, seed=1)
    for q in ds.queries:
        q.fixed = q.fixed.copy()
        q.fixed[:, 1] *= factor
    with pytest.raises(ValidationError, match="'review_score' has a non-finite"):
        fit_standardization(ds, ds.schema)


def test_symmetric_pair_gives_zero_mean_unit_std():
    ds = hand_dataset(n_queries=6, seed=1)
    for i, q in enumerate(ds.queries):
        q.numeric[2] = 1.0 if i % 2 == 0 else -1.0
    stats = fit_standardization(ds, ds.schema)
    assert stats.numeric_mean[2] == 0.0
    assert stats.numeric_std[2] == 1.0


def test_fit_matches_two_pass_oracle():
    ds = hand_dataset(n_queries=20, seed=7)
    stats = fit_standardization(ds, ds.schema, include_scalevariant=True)
    # oracle: explicit two-pass mean then squared-deviation mean
    vals = [q.numeric[1] for q in ds.queries]
    mu = sum(vals) / len(vals)
    var = sum((v - mu) ** 2 for v in vals) / len(vals)
    assert abs(stats.numeric_mean[1] - mu) < 1e-12
    assert abs(stats.numeric_std[1] - var ** 0.5) < 1e-12
    prices = [row[0] for q in ds.queries for row in q.scalevariant]
    mu_p = sum(prices) / len(prices)
    var_p = sum((v - mu_p) ** 2 for v in prices) / len(prices)
    assert abs(stats.scalevariant_mean[0] - mu_p) < 1e-12
    assert abs(stats.scalevariant_std[0] - var_p ** 0.5) < 1e-12


def test_apply_maps_mean_to_zero_and_mean_plus_std_to_one():
    ds = hand_dataset(n_queries=10, seed=2)
    stats = fit_standardization(ds, ds.schema)
    ds.queries[0].numeric[2] = stats.numeric_mean[2]
    ds.queries[1].numeric[2] = stats.numeric_mean[2] + stats.numeric_std[2]
    model = build_model(ds.schema, widths=(4,), compressor_dim=2, stats=stats)
    deep_numeric = prepare_dataset(model, apply_standardization(ds, stats)).deep_numeric
    assert deep_numeric[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert deep_numeric[1, 2] == pytest.approx(1.0, abs=1e-12)


def test_apply_never_touches_scalevariant_or_raw():
    ds = hand_dataset(n_queries=10, seed=2)
    before_sv = [q.scalevariant.copy() for q in ds.queries]
    before_fixed = [q.fixed.copy() for q in ds.queries]
    before_labels = [q.labels.copy() for q in ds.queries]
    before_numeric = [q.numeric.copy() for q in ds.queries]
    stats = fit_standardization(ds, ds.schema)
    out = apply_standardization(ds, stats)
    for q, sv, fx in zip(out.queries, before_sv, before_fixed):
        np.testing.assert_array_equal(q.scalevariant, sv)
        np.testing.assert_array_equal(q.fixed, fx)
    # the standardized deep-path inputs live in the prepared block only
    block = prepare_dataset(build_model(ds.schema, widths=(4,), compressor_dim=2, stats=stats),
                            out)
    assert block.deep_numeric.shape == (len(ds), len(ds.schema.numeric_query_names))
    assert block.deep_items.shape == (sum(q.n_items for q in ds), ds.schema.k1)
    # the view shares the input records, which keep every array and stay raw
    assert out.stats is stats and ds.stats is None
    for q, q_out, sv, fx, labels, numeric in zip(ds.queries, out.queries, before_sv,
                                                 before_fixed, before_labels, before_numeric):
        assert q_out is q
        np.testing.assert_array_equal(q.scalevariant, sv)
        np.testing.assert_array_equal(q.fixed, fx)
        np.testing.assert_array_equal(q.labels, labels)
        np.testing.assert_array_equal(q.numeric, numeric)


def test_double_apply_refused():
    ds = hand_dataset(n_queries=10, seed=2)
    stats = fit_standardization(ds, ds.schema)
    out = apply_standardization(ds, stats)
    with pytest.raises(ContractError):
        apply_standardization(out, stats)


def test_stats_for_foreign_schema_rejected():
    ds = hand_dataset(n_queries=10, seed=2)
    other = Dataset(
        schema=FeatureSchema(
            query_features=tiny_schema().query_features,
            item_features_fixed=("star_rating", "review_score"),
            item_features_scalevariant=("price", "discount", "tax"),
        ),
        queries=[],
    )
    stats = fit_standardization(ds, ds.schema, include_scalevariant=True)
    with pytest.raises(SchemaError):
        apply_standardization(
            Dataset(schema=other.schema, queries=ds.queries), stats
        )


def test_stats_json_round_trip():
    ds = hand_dataset(n_queries=10, seed=4)
    stats = fit_standardization(ds, ds.schema, include_scalevariant=True)
    from sirank.data import StandardizationStats

    back = StandardizationStats.from_json(json.loads(json.dumps(stats.to_json())))
    np.testing.assert_array_equal(back.numeric_mean, stats.numeric_mean)
    np.testing.assert_array_equal(back.fixed_std, stats.fixed_std)
    np.testing.assert_array_equal(back.scalevariant_mean, stats.scalevariant_mean)
    assert back.numeric_names == stats.numeric_names


# ---------------------------------------------------------------------------
# split


def test_split_sizes_100_queries():
    ds = hand_dataset(n_queries=100, seed=5)
    train, val, test = split_holdout(ds, seed=11)
    assert (len(train), len(val), len(test)) == (63, 7, 30)


def test_split_is_partition_and_deterministic():
    ds = hand_dataset(n_queries=57, seed=6)
    a = split_holdout(ds, seed=9)
    b = split_holdout(ds, seed=9)
    ids = lambda part: [q.query_id for q in part.queries]
    for pa, pb in zip(a, b):
        assert ids(pa) == ids(pb)
    combined = ids(a[0]) + ids(a[1]) + ids(a[2])
    assert sorted(combined) == sorted(q.query_id for q in ds.queries)
    assert len(set(combined)) == len(combined)


def test_split_changes_with_seed():
    ds = hand_dataset(n_queries=57, seed=6)
    a = split_holdout(ds, seed=1)
    b = split_holdout(ds, seed=2)
    assert [q.query_id for q in a[2].queries] != [q.query_id for q in b[2].queries]


def test_split_requires_ten_queries():
    ds = hand_dataset(n_queries=9, seed=0)
    with pytest.raises(ValidationError):
        split_holdout(ds, seed=0)
