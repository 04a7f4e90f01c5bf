import decimal
import json
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sirank.cli
import sirank.data
import sirank.trainer
from sirank.data import (
    Dataset,
    FeatureSchema,
    QueryFeature,
    QueryRecord,
    apply_standardization,
    fit_standardization,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    split_holdout,
)
from sirank.errors import DomainError, ParseError, SchemaError, ValidationError
from sirank.generator import GeneratorConfig, generate
from sirank.metrics import random_ranker_mean_ndcg
from sirank.perturb import CASE_IDS, PerturbationCase, apply_case
from sirank.scoring import (build_model, prepare_dataset, save_checkpoint, scale_dataset,
                            scale_query)

from conftest import (edited, hand_dataset, hand_records, record_bytes, tiny_schema,
                      with_queries)


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
    # a model standardizes in its prepared block only; the records stay raw
    ds = hand_dataset(n_queries=8, seed=3)
    save_dataset(ds, tmp_path / "raw.jsonl")
    stats = fit_standardization(ds, ds.schema)
    prepare_dataset(build_model(ds.schema, widths=(4,), compressor_dim=2, stats=stats), ds)
    save_dataset(apply_standardization(ds, stats), tmp_path / "view.jsonl")
    assert (tmp_path / "view.jsonl").read_bytes() == (tmp_path / "raw.jsonl").read_bytes()


def test_malformed_line_reports_line_number(tmp_path, schema):
    ds = hand_dataset(n_queries=2)
    path = tmp_path / "bad.jsonl"
    save_dataset(ds, path)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(path, schema)


# ---------------------------------------------------------------------------
# save_dataset against a reference writer


def _query_to_obj(q: QueryRecord, schema: FeatureSchema) -> dict:
    """One record as a JSON object built field by field: the reference that
    ``save_dataset``'s lines are checked against."""
    qvals = {name: float(v) for name, v in zip(schema.numeric_query_names, q.numeric)}
    qvals |= {f.name: int(v) for f, v in zip(schema.categorical_query_features, q.category_ids)}
    return {
        "query_id": q.query_id,
        "query": qvals,
        "num_nights": int(q.num_nights),
        "exchange_rate": float(q.exchange_rate),
        "items": [
            {
                "item_id": iid,
                "fixed": {n: float(v) for n, v in zip(schema.item_features_fixed, fixed)},
                "scalevariant": {
                    n: float(v) for n, v in zip(schema.item_features_scalevariant, sv)
                },
                "label": int(label),
            }
            for iid, fixed, sv, label in zip(q.item_ids, q.fixed, q.scalevariant, q.labels)
        ],
    }


def _assert_saved_as_reference(ds: Dataset, path):
    save_dataset(ds, path)
    reference = "".join(json.dumps(_query_to_obj(q, ds.schema), sort_keys=True) + "\n"
                        for q in ds.queries)
    assert path.read_bytes() == reference.encode()


# names out of sorted order, differing only in case, non-ASCII, and holding
# characters that JSON escapes or that a format template would read
ODD_SCHEMA = FeatureSchema(
    query_features=(QueryFeature("zeta", "numeric"),
                    QueryFeature("{cat}", "categorical", cardinality=4, embedding_dim=2),
                    QueryFeature("Zeta", "numeric"), QueryFeature("100%", "numeric"),
                    QueryFeature("ünïcode", "numeric"),
                    QueryFeature('say "hi"', "categorical", cardinality=3, embedding_dim=1)),
    item_features_fixed=("stars", "Stars", "back\\slash", "%r", "}{"),
    item_features_scalevariant=("price", "Price", "€uro", "%%s", '"q"'),
)


def _odd_record(qid, item_ids, fixed, scalevariant, numeric=(3.0, -0.0, 1e308, -2.5),
                nights=3, rate=1.5) -> QueryRecord:
    d = len(item_ids)
    return QueryRecord(query_id=qid, numeric=np.asarray(numeric), category_ids=np.array([3, 0]),
                       num_nights=nights, exchange_rate=rate, item_ids=tuple(item_ids),
                       fixed=np.reshape(fixed, (d, ODD_SCHEMA.k1)),
                       scalevariant=np.reshape(scalevariant, (d, ODD_SCHEMA.k2)),
                       labels=(np.arange(d) == d - 1).astype(np.float64))


def test_save_dataset_writes_the_reference_bytes_for_the_generated_corpus(tmp_path):
    ds = generate(GeneratorConfig(num_queries=40, seed=2))
    _assert_saved_as_reference(ds, tmp_path / "g.jsonl")
    _assert_saved_as_reference(apply_case(ds, PerturbationCase(3)), tmp_path / "p.jsonl")


def test_save_dataset_writes_the_reference_bytes_for_odd_names_ids_and_values(tmp_path):
    ds = Dataset(schema=ODD_SCHEMA, queries=[
        _odd_record("qé\n\t\x00", ["i\u2028\x7f", "日本\x1f", 'i"d\\'],
                    fixed=[3.0, 1e308, 5e-324, 0.1, 7.0] * 3,
                    scalevariant=[sirank.data.SMALLEST_NORMAL, 3.0, 1e308, 2.5e-8, 12.0] * 3),
        # an integer exchange rate, a numpy float one, and integer arrays
        replace(_odd_record("%s {0}", ["a", "b"], fixed=np.arange(1, 11),
                            scalevariant=np.arange(1, 11), numeric=np.array([1, -2, 3, 0]),
                            nights=10 ** 6, rate=2), labels=np.array([0, 1])),
        _odd_record("q3", ["a", "b"], fixed=[1e-310] * 10, scalevariant=[1e300] * 10,
                    rate=np.float64(0.85)),
    ])
    _assert_saved_as_reference(ds, tmp_path / "odd.jsonl")
    assert load_dataset(tmp_path / "odd.jsonl", ODD_SCHEMA).queries[0].item_ids == (
        "i\u2028\x7f", "日本\x1f", 'i"d\\')


def test_save_dataset_writes_the_reference_bytes_at_the_bounds_of_orjson_s_text(tmp_path):
    """A query whose values lie just inside and just outside both bounds of
    the range where orjson writes a float as repr does, beside a query whose
    values all lie inside it."""
    low, high = sirank.data._ORJSON_AS_REPR
    edges = [np.nextafter(low, 0), low, np.nextafter(low, 1), np.nextafter(high, 0), high,
             np.nextafter(high, np.inf)]
    ds = Dataset(schema=ODD_SCHEMA, queries=[
        _odd_record("edges", ["a", "b", "c"], fixed=(edges * 3)[:15],
                    scalevariant=(edges[::-1] * 3)[:15], numeric=(-edges[0], -high, edges[3], -low),
                    rate=edges[5]),
        _odd_record("inside", ["a", "b"], fixed=[2e-4, 0.5, 3.0, 1234.5, 7e15] * 2,
                    scalevariant=[9e15, 0.25, 12.0, 3e-4, 1e15] * 2,
                    numeric=(0.1, -2.5, 1e5, -7e-4), rate=0.85),
    ])
    _assert_saved_as_reference(ds, tmp_path / "edges.jsonl")
    edge_line = (tmp_path / "edges.jsonl").read_text().splitlines()[0]
    assert "9.999999999999999e-05" in edge_line and "1.0000000000000002e+16" in edge_line


_FINITE = {"allow_nan": False, "allow_infinity": False}


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), d=st.integers(2, 4))
def test_save_dataset_writes_the_reference_bytes_for_drawn_floats(tmp_path, data, d):
    def floats(n, **bounds):
        return data.draw(st.lists(st.floats(**bounds, **_FINITE), min_size=n, max_size=n))

    record = _odd_record(
        "q", [f"i{j}" for j in range(d)],
        fixed=floats(d * ODD_SCHEMA.k1, min_value=0.0, exclude_min=True),
        scalevariant=floats(d * ODD_SCHEMA.k2, min_value=sirank.data.SMALLEST_NORMAL),
        numeric=floats(4), rate=floats(1, min_value=0.0, exclude_min=True)[0])
    _assert_saved_as_reference(Dataset(schema=ODD_SCHEMA, queries=[record]),
                               tmp_path / "drawn.jsonl")


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


@pytest.mark.parametrize("value", [5e-324, 1e-310])
def test_subnormal_scalevariant_rejected_naming_query_and_item(tmp_path, schema, value):
    obj = _one_query_obj(None)
    obj["items"][1]["scalevariant"]["discount"] = value
    with pytest.raises(ValidationError, match=rf"^query q0: item b: scale-variant feature "
                                              rf"'discount' must be finite and at least the "
                                              rf"smallest normal float64, got {value}$"):
        _write_and_load(tmp_path, schema, obj)


def test_scalevariant_just_above_the_smallest_normal_loads(tmp_path, schema):
    obj = _one_query_obj(None)
    obj["items"][1]["scalevariant"]["discount"] = 2.3e-308
    assert _write_and_load(tmp_path, schema, obj).queries[0].scalevariant[1, 1] == 2.3e-308


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
    + [("scalevariant", "discount", v) for v in (False, 0.0, {"x": 1.0}, 7, 1e308, 5e-324,
                                                 2.3e-308)]
    + [(group, "colour", 2.0) for group in ("fixed", "scalevariant")]
    + [(group, None, value) for group in ("fixed", "scalevariant")
       for value in (None, [4.0, 8.0], {"star_rating": 4.0}, "drop")]
    + [(None, "item_id", v) for v in (None, "", 5, "a")]
    + [(None, "label", v) for v in (True, 2, 1.0, 0.0, None, "1", float("nan"), 10 ** 400)]
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


QUERY_MUTATIONS = (
    [(("query_id",), v) for v in (None, "", 5, "q1")]
    + [(("query",), v) for v in (None, [], {})]
    + [(("query", "lead_days"), v) for v in ("0.3", None, True, 10 ** 400, float("nan"),
                                             float("inf"), 7, 2 ** 60, "drop")]
    + [(("query", "colour"), 1.0)]
    + [(("query", "device_type"), v) for v in (1.0, True, 3, -1, "1", 2 ** 70, "drop")]
    + [(("num_nights",), v) for v in (0, -1, 1.5, True, None, 10 ** 400, "2", 3, "drop")]
    + [(("exchange_rate",), v) for v in (0.0, -1.0, float("inf"), float("nan"), None, True,
                                         10 ** 400, 7, 1e-300, "drop")]
    + [(("items",), v) for v in (None, {}, [], "one", "many")]
)


def _mutate_query(obj, mutation):
    path, value = mutation
    *parents, key = path
    target = obj
    for name in parents:
        target = target.get(name) if isinstance(target, dict) else None
    if not isinstance(target, dict):
        return
    if value == "drop":
        target.pop(key, None)
    elif key == "items" and value in ("one", "many"):
        items = target.get("items")
        if isinstance(items, list):
            many = [dict(raw, item_id=f"x{k}") if isinstance(raw, dict) else raw
                    for k, raw in enumerate(items * 9)]
            target["items"] = items[:1] if value == "one" else many
    else:
        target[key] = value


def _base_query(k: int) -> dict:
    """A valid query ``q<k>``; its items ``a``, ``b`` and ``c`` repeat in
    every query, as hotel ids do in real data."""
    obj = _one_query_obj(None)
    obj["query_id"] = f"q{k}"
    obj["items"].append({"item_id": "c", "fixed": {"star_rating": 2, "review_score": 6.5},
                         "scalevariant": {"price": 70, "discount": 2.5}, "label": 0})
    obj["query"]["lead_days"] = 0.1 * k
    for raw in obj["items"]:
        raw["scalevariant"]["price"] *= k + 1
    return obj


def _write_lines(path, objs):
    path.write_text("".join((obj if isinstance(obj, str) else json.dumps(obj)) + "\n"
                            for obj in objs))
    return path


def _one_mutation_files():
    """(three valid queries but one, its index) for every mutation of
    ``ITEM_MUTATIONS`` at each item and of ``QUERY_MUTATIONS``."""
    for k in range(3):
        for j in range(3):
            for mutation in ITEM_MUTATIONS:
                objs = [_base_query(i) for i in range(3)]
                _mutate(objs[k], j, mutation)
                yield objs, k
        for mutation in QUERY_MUTATIONS:
            objs = [_base_query(i) for i in range(3)]
            _mutate_query(objs[k], mutation)
            yield objs, k


def _load_outcome(path, schema):
    try:
        ds = load_dataset(path, schema)
    except ValidationError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", [(q.query_id, q.numeric.tobytes(), q.category_ids.tobytes(), q.num_nights,
                    q.exchange_rate, q.item_ids, q.fixed.tobytes(), q.scalevariant.tobytes(),
                    q.labels.tobytes()) for q in ds.queries])


def _outcomes_both_ways(paths, schema, monkeypatch):
    """Each file's load outcome in chunks of ``LOAD_CHUNK_QUERIES`` queries,
    and with one query a chunk: the first error in file order does not
    depend on where the chunks end."""
    chunked = [_load_outcome(p, schema) for p in paths]
    with monkeypatch.context() as m:
        m.setattr(sirank.data, "LOAD_CHUNK_QUERIES", 1)
        one_by_one = [_load_outcome(p, schema) for p in paths]
    return chunked, one_by_one


def test_load_outcomes_do_not_depend_on_the_chunk_size(tmp_path, schema, monkeypatch):
    n_long = 2 * sirank.data.LOAD_CHUNK_QUERIES + 3
    files, broken = [[_base_query(k) for k in range(3)]], [None]
    for objs, k in _one_mutation_files():
        files.append(objs)
        broken.append(k)
    rng = np.random.default_rng(40)
    for _ in range(150):
        objs = [_base_query(i) for i in range(n_long)]
        for _ in range(int(rng.integers(1, 4))):
            k, j = int(rng.integers(n_long)), int(rng.integers(3))
            items = objs[k].get("items")
            if rng.random() < 0.5:
                _mutate_query(objs[k], QUERY_MUTATIONS[rng.integers(len(QUERY_MUTATIONS))])
            elif isinstance(items, list) and len(items) > j and isinstance(items[j], dict):
                _mutate(objs[k], j, ITEM_MUTATIONS[rng.integers(len(ITEM_MUTATIONS))])
        files.append(objs)
        broken.append(None)
    paths = [_write_lines(tmp_path / f"f{i}.jsonl", objs) for i, objs in enumerate(files)]
    chunked, one_by_one = _outcomes_both_ways(paths, schema, monkeypatch)
    assert chunked == one_by_one
    assert chunked[0][0] == "ok"
    assert {outcome[0] for outcome in chunked} == {"ok", "error"}
    # a file with one broken query names that query, or names its repeated id
    for outcome, objs, k in zip(chunked, files, broken):
        if k is not None and outcome[0] == "error":
            qid = objs[k]["query_id"]
            assert (outcome[2].startswith(f"query {qid}: ") if isinstance(qid, str) and qid
                    else outcome[2] == "record without a non-empty string query_id"), outcome


def test_chunk_boundaries_keep_the_first_error_in_file_order(tmp_path, schema, monkeypatch):
    chunk = sirank.data.LOAD_CHUNK_QUERIES
    n = 2 * chunk + 3

    def long_file(name, edit=lambda objs: None):
        objs = [_base_query(k) for k in range(n)]
        edit(objs)
        return _write_lines(tmp_path / name, objs)

    def duplicate_across_boundary(objs):
        objs[chunk]["query_id"] = objs[chunk - 1]["query_id"]

    def bad_in_last_chunk(objs):
        objs[2 * chunk + 1]["num_nights"] = 0

    def error_before_syntax_error(objs):
        objs[chunk + 1]["items"][0]["label"] = 2
        objs[chunk + 4] = "{not json"

    def error_before_non_object(objs):
        objs[3]["exchange_rate"] = -1.0
        objs[5] = "[1, 2]"

    def syntax_error_before_error(objs):
        objs[1] = "{not json"
        objs[4]["num_nights"] = 0

    paths = [long_file(name, edit) for name, edit in (
        ("ok.jsonl", lambda objs: None), ("dup.jsonl", duplicate_across_boundary),
        ("late.jsonl", bad_in_last_chunk), ("syntax.jsonl", error_before_syntax_error),
        ("object.jsonl", error_before_non_object), ("first.jsonl", syntax_error_before_error))]
    chunked, one_by_one = _outcomes_both_ways(paths, schema, monkeypatch)
    assert chunked == one_by_one
    assert chunked[0][0] == "ok" and len(chunked[0][1]) == n
    last, first = f"q{chunk - 1}", chunk
    assert chunked[1] == ("error", "ValidationError", f"query {last}: duplicate query_id "
                          f"(lines {first} and {first + 1})")
    assert chunked[2] == ("error", "ValidationError",
                          f"query q{2 * chunk + 1}: num_nights must be a positive integer")
    assert chunked[3] == ("error", "ValidationError",
                          f"query q{chunk + 1}: item a: label must be 0 or 1")
    assert chunked[4] == ("error", "ValidationError",
                          "query q3: exchange_rate must be a positive finite number")
    assert chunked[5][:2] == ("error", "ParseError") and "line 2:" in chunked[5][2]


def test_valid_long_file_never_walks(tmp_path, schema, monkeypatch):
    n = 2 * sirank.data.LOAD_CHUNK_QUERIES + 3
    path = _write_lines(tmp_path / "long.jsonl", [_base_query(k) for k in range(n)])

    def type_fault(obj, schema):
        raise AssertionError("a valid chunk reached the per-query pass")

    monkeypatch.setattr(sirank.data, "_type_fault", type_fault)
    ds = load_dataset(path, schema)
    assert [q.query_id for q in ds.queries] == [f"q{k}" for k in range(n)]
    assert all(q.item_ids == ("a", "b", "c") for q in ds.queries)


# ---------------------------------------------------------------------------
# lines parsed by orjson, judged as json parses them

_BEYOND_FLOAT = int(sys.float_info.max) + 1  # orjson reads it as the largest float
_BIG_INTS = (2 ** 63, 2 ** 64 - 1, 2 ** 64, 10 ** 20, -(2 ** 63) - 1, -(10 ** 20),
             _BEYOND_FLOAT, -_BEYOND_FLOAT, 2 ** 1024 - 2 ** 970)


def _json_only_outcome(path, schema, monkeypatch):
    """``_load_outcome`` of a loader that parses every line with
    ``json.loads`` alone, as it did before orjson."""
    with monkeypatch.context() as m:
        m.setattr(sirank.data, "_parse_line", lambda line, fast_loads: json.loads(line))
        return _load_outcome(path, schema)


def _literal(obj, edit, text: str) -> str:
    """``obj`` as a JSON line in which ``edit`` placed the JSON text ``text``."""
    edit(obj, "@literal@")
    return json.dumps(obj).replace('"@literal@"', text)


def _set(*path):
    def edit(obj, value):
        *parents, key = path
        for name in parents:
            obj = obj[name]
        obj[key] = value
    return edit


_VALUE_PLACES = {  # one value of each group, and the item id
    "numeric": _set("query", "lead_days"), "category": _set("query", "device_type"),
    "num_nights": _set("num_nights"), "exchange_rate": _set("exchange_rate"),
    "fixed": _set("items", 1, "fixed", "star_rating"),
    "scalevariant": _set("items", 1, "scalevariant", "price"),
    "label": _set("items", 1, "label"), "query_id": _set("query_id"),
    "item_id": _set("items", 1, "item_id")}


def _json_edge_files() -> list[list]:
    """Files of three queries or fewer, with one line that orjson refuses or
    reads apart from json, or whose value the rules judge by its JSON type.
    In some, a later query holds a fault that JSON decides, so that the
    per-query pass (``_type_fault``) names the first fault of its chunk."""
    files = [objs for objs, _ in _one_mutation_files()]
    texts = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", *map(str, _BIG_INTS),
             "1e20", "1.7976931348623157e308", '"\\ud800"', '"\\udc00x"']
    for edit in _VALUE_PLACES.values():
        for text in texts:
            for later_fault in (False, True):
                objs = [_base_query(i) for i in range(3)]
                if later_fault:
                    del objs[2]["items"][0]["item_id"]
                objs[1] = _literal(objs[1], edit, text)
                files.append(objs)
    one = json.dumps(_base_query(1))  # duplicate keys at the top, query and item levels
    for line in (one[:-1] + ', "num_nights": 0}', '{"num_nights": 10e19, ' + one[1:],
                 '{"exchange_rate": NaN, ' + one[1:],
                 one.replace('"query": {', '"query": {"lead_days": "x", '),
                 one.replace('"query": {', '"query": {"device_type": 7, '),
                 one.replace('"item_id": "b"', '"item_id": "a", "item_id": "b"'),
                 one.replace('"label": 0', '"label": 0, "label": 1'),
                 one.replace('"fixed": {', '"fixed": {"star_rating": -1e400, ')):
        files.append([_base_query(0), line, _base_query(2)])
    files += [["\ufeff" + json.dumps(_base_query(0)), _base_query(1)],
              [_base_query(0), "{not json", _base_query(2)],
              [_base_query(0), "[1, 2]"], [_base_query(0), "100000000000000000000"],
              [_base_query(0), '{"query_id": "q1", "x": 1e400}']]
    return files


def test_load_outcomes_are_json_loads_outcomes(tmp_path, schema, monkeypatch):
    paths = [_write_lines(tmp_path / f"f{i}.jsonl", objs)
             for i, objs in enumerate(_json_edge_files())]
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes(json.dumps(_base_query(0)).encode() + b'\n{"query_id": "q\xe9"}\n')
    paths.append(latin1)
    outcomes = [_load_outcome(p, schema) for p in paths]
    assert outcomes == [_json_only_outcome(p, schema, monkeypatch) for p in paths]
    assert {outcome[0] for outcome in outcomes} == {"ok", "error"}
    assert {outcome[1] for outcome in outcomes if outcome[0] == "error"} == {
        "ParseError", "ValidationError"}


def test_a_line_nested_too_deep_for_json_is_a_parse_error(tmp_path, schema):
    deep = "[" * 1200 + "]" * 1200
    path = _write_lines(tmp_path / "deep.jsonl",
                        [_base_query(0), json.dumps(_base_query(1))[:-1] + f', "x": {deep}}}'])
    with pytest.raises(RecursionError):
        json.loads(path.read_text().splitlines()[1])
    with pytest.raises(ParseError, match=f"^{path}: line 2: maximum recursion depth exceeded "):
        load_dataset(path, schema)


def test_an_int_literal_beyond_json_s_digit_limit_is_a_parse_error(tmp_path, schema):
    line = _literal(_base_query(1), _set("query", "lead_days"), "1" * 5000)
    path = _write_lines(tmp_path / "digits.jsonl", [_base_query(0), line])
    with pytest.raises(ValueError, match="Exceeds the limit"):
        json.loads(line)
    with pytest.raises(ParseError, match=rf"^{path}: line 2: Exceeds the limit \(4300 digits\)"):
        load_dataset(path, schema)


def test_an_int_that_numpy_rounds_to_the_largest_float_is_refused_at_any_chunk_size(
        tmp_path, schema, monkeypatch):
    first = _literal(_base_query(0), _set("query", "lead_days"), str(_BEYOND_FLOAT))
    second = _base_query(1)
    del second["items"][0]["item_id"]
    path = _write_lines(tmp_path / "two.jsonl", [first, second])
    chunked, one_by_one = _outcomes_both_ways([path], schema, monkeypatch)
    assert chunked == one_by_one == [
        ("error", "ValidationError", "query q0: query feature 'lead_days' is not numeric")]


@pytest.mark.parametrize("nights", [10 ** 20, 2 ** 64, 2 ** 200])
def test_night_counts_beyond_int64_load_as_the_exact_int(tmp_path, schema, nights):
    obj = _one_query_obj(None)
    obj["num_nights"] = nights
    loaded = _write_and_load(tmp_path, schema, obj).num_nights
    assert loaded == (nights,) and type(loaded[0]) is int


@pytest.mark.parametrize("text", [str(-(2 ** 63) - 1), "1e20", "100000000000000000000.0"])
def test_night_counts_that_are_not_positive_ints_are_refused(tmp_path, schema, text):
    path = tmp_path / "one.jsonl"
    path.write_text(_literal(_one_query_obj(None), _set("num_nights"), text) + "\n")
    with pytest.raises(ValidationError, match="^query q0: num_nights must be a positive integer$"):
        load_dataset(path, schema)


def test_an_int_beyond_float64_is_no_exchange_rate(tmp_path, schema):
    obj = _one_query_obj(None)
    obj["exchange_rate"] = _BEYOND_FLOAT
    with pytest.raises(ValidationError, match="exchange_rate must be a positive finite number"):
        _write_and_load(tmp_path, schema, obj)
    obj["exchange_rate"] = sys.float_info.max
    assert _write_and_load(tmp_path, schema, obj).exchange_rates[0] == sys.float_info.max


def test_values_orjson_reads_apart_keep_json_s_outcome_across_chunks(tmp_path, schema,
                                                                     monkeypatch):
    """Files of three chunks: a value that orjson reads apart from json, or
    the largest float, in chunk 1, and a fault that JSON decides in chunk 0,
    in chunk 2 or nowhere, or a NaN (a line json reads alone) beside it. The
    outcome is json's at every chunk size."""
    chunk = sirank.data.LOAD_CHUNK_QUERIES
    n, apart = 2 * chunk + 3, chunk + 2
    texts = [*map(str, _BIG_INTS), "1.7976931348623157e308", "-1.7976931348623157e308"]

    def break_item_id(objs, k):
        del objs[k]["items"][0]["item_id"]

    def break_syntax(objs, k):
        objs[k] = "{not json"

    def put_nan(objs, k):
        objs[k] = _literal(objs[k], _set("query", "lead_days"), "NaN")

    files = {}
    for place, edit in _VALUE_PLACES.items():
        for text in texts:
            for fault_at, fault in ((None, None), (apart + 1, put_nan),
                                    *((k, f) for k in (3, 2 * chunk + 1)
                                      for f in (break_item_id, break_syntax))):
                objs = [_base_query(k) for k in range(n)]
                objs[apart] = _literal(objs[apart], edit, text)
                if fault:
                    fault(objs, fault_at)
                files[place, text, fault_at, fault and fault.__name__] = objs
    paths = [_write_lines(tmp_path / f"f{i}.jsonl", objs) for i, objs in enumerate(files.values())]
    chunked, one_by_one = _outcomes_both_ways(paths, schema, monkeypatch)
    assert chunked == one_by_one == [_json_only_outcome(p, schema, monkeypatch) for p in paths]
    outcomes = dict(zip(files, chunked))
    lead = schema.numeric_query_names.index("lead_days")
    for text, want in (("1.7976931348623157e308", sys.float_info.max),
                       ("-1.7976931348623157e308", -sys.float_info.max)):
        loaded = outcomes["numeric", text, None, None]
        assert loaded[0] == "ok" and len(loaded[1]) == n
        assert np.frombuffer(loaded[1][apart][1])[lead] == want
    for text in (str(_BEYOND_FLOAT), str(-_BEYOND_FLOAT)):
        assert outcomes["numeric", text, None, None] == outcomes[
            "numeric", text, 2 * chunk + 1, "break_item_id"] == outcomes[
            "numeric", text, apart + 1, "put_nan"] == (
            "error", "ValidationError", f"query q{apart}: query feature 'lead_days' is not numeric")
        assert outcomes["numeric", text, 3, "break_item_id"] == (
            "error", "ValidationError", "query q3: item without a non-empty string item_id")
        assert outcomes["numeric", text, 3, "break_syntax"][:2] == ("error", "ParseError")
    assert outcomes["num_nights", str(10 ** 20), None, None][1][apart][3] == 10 ** 20


def test_json_parses_again_only_the_chunk_that_holds_the_largest_float(tmp_path, schema,
                                                                        monkeypatch):
    chunk = sirank.data.LOAD_CHUNK_QUERIES
    objs = [_base_query(k) for k in range(2 * chunk + 3)]
    objs[chunk + 5]["query"]["lead_days"] = sys.float_info.max
    path = _write_lines(tmp_path / "largest.jsonl", objs)
    real_loads, parsed = json.loads, []

    def loads(text, *args, **kwargs):
        parsed.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    ds = load_dataset(path, schema)
    assert ds.numeric[chunk + 5, schema.numeric_query_names.index("lead_days")] == (
        sys.float_info.max)
    assert parsed == path.read_text().splitlines(keepends=True)[chunk:2 * chunk]


def _number_literals(rng) -> list[str]:
    """JSON number literals: float64 reprs and longer forms of them,
    decimals of 1-40 digits with exponents -340..320, exact halfway points
    between adjacent doubles and numbers just either side of them, and
    integers near +-2**63, +-2**64 and the largest float."""
    drawn = rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64).view(np.float64)
    doubles = drawn[np.isfinite(drawn)].tolist() + [0.0, -0.0, 5e-324, -5e-324]
    literals = [repr(x) for x in doubles] + [f"{x:.25e}" for x in doubles[:5000]]
    for _ in range(40_000):
        digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(1, 41)))))
        point = int(rng.integers(1, len(digits) + 1))
        text = ("-" if rng.random() < 0.5 else "") + (digits[:point].lstrip("0") or "0")
        text += "." + digits[point:] if digits[point:] else ""
        if rng.random() < 0.8:
            text += "eE"[int(rng.integers(2))] + str(int(rng.integers(-340, 321)))
        literals.append(text)
    exact = decimal.Context(prec=2000)
    for x in doubles[:3000]:
        above = math.nextafter(x, math.inf)
        if math.isfinite(above):
            half = exact.divide(exact.add(decimal.Decimal(x), decimal.Decimal(above)), 2)
            step = decimal.Decimal(1).scaleb(half.adjusted() - 1000)
            literals += [format(h, "e") for h in (half, exact.add(half, step),
                                                  exact.subtract(half, step))]
    big = int(sys.float_info.max)
    literals += [str(v + d) for v in (2 ** 63, -(2 ** 63), 2 ** 64, -(2 ** 64), big, -big)
                 for d in range(-300, 300)]
    # past the largest float up to the halfway point to 2**1024, and beyond it
    literals += [str(big + d * 2 ** 960) for d in range(-3, 2 ** 10 + 3)]
    return literals


def test_orjson_reads_numbers_as_json_does_but_big_ints_as_floats():
    """The equivalence the loader relies on, pinned to the installed
    orjson: a float literal to the same bits (the sign of zero too), one
    beyond float64 (json's infinity) to a refusal, an integer in [-2**63,
    2**64) to the same int, and any other integer to the float of equal
    value, or a refusal where that float is beyond float64."""
    import orjson

    literals = _number_literals(np.random.default_rng(28))
    by_json = json.loads("[" + ",".join(literals) + "]")
    floats = [(text, x) for text, x in zip(literals, by_json) if type(x) is float]
    ints = [(text, v) for text, v in zip(literals, by_json) if type(v) is int]
    assert len(floats) > 90_000 and len(ints) > 4_000
    finite = [(text, x) for text, x in floats if math.isfinite(x)]
    assert 0 < len(floats) - len(finite) < len(floats) // 10
    for text, x in floats:
        if not math.isfinite(x):
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(text)
    by_orjson = orjson.loads("[" + ",".join(text for text, _ in finite) + "]")
    assert all(type(x) is float for x in by_orjson)
    assert np.array(by_orjson).tobytes() == np.array([x for _, x in finite]).tobytes()
    small = [(text, v) for text, v in ints if -(2 ** 63) <= v < 2 ** 64]
    by_orjson = orjson.loads("[" + ",".join(text for text, _ in small) + "]")
    assert by_orjson == [v for _, v in small] and all(type(v) is int for v in by_orjson)
    for text, v in ints:
        if -(2 ** 63) <= v < 2 ** 64:
            continue
        try:
            want = float(v)
        except OverflowError:
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(text)
            continue
        got = orjson.loads(text)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), text


def test_orjson_writes_floats_as_repr_inside_its_range():
    """The equivalence the writer relies on, pinned to the installed orjson:
    a float64 of magnitude in ``_ORJSON_AS_REPR``, or a zero of either sign,
    gets repr's text from orjson, on the numpy path ``_float_texts`` takes
    and on the list path; just outside both bounds it does not, and
    ``_float_texts`` writes repr's text there."""
    import orjson

    def texts(values, **option):
        return orjson.dumps(values, **option).decode()[1:-1].split(",")

    low, high = sirank.data._ORJSON_AS_REPR
    rng = np.random.default_rng(31)
    # positive float64s order as their int64 bits: random bit patterns in [low, high)
    drawn = rng.integers(np.float64(low).view(np.int64), np.float64(high).view(np.int64),
                         200_000).view(np.float64)
    decimals = [round(x, k) for x, k in zip(rng.uniform(1e-3, 1e5, 20_000).tolist(),
                                            rng.integers(0, 8, 20_000).tolist())]
    powers = 10.0 ** np.arange(-4, 16)
    neighbours = [np.nextafter(low, np.inf), np.nextafter(high, 0),
                  *np.nextafter(powers[1:], 0), *np.nextafter(powers, np.inf)]
    positive = np.concatenate([drawn, decimals, powers, neighbours])
    inside = np.concatenate([positive, -positive, [0.0, -0.0]])
    want = [repr(x) for x in inside.tolist()]
    assert texts(inside, option=orjson.OPT_SERIALIZE_NUMPY) == want
    assert texts(inside.tolist()) == want
    assert sirank.data._float_texts(inside) == want
    outside = np.array([np.nextafter(low, 0), high, np.nextafter(high, np.inf), 1e-5, 1e300])
    outside = np.concatenate([outside, -outside])
    assert all(text != repr(x) for text, x in zip(
        texts(outside, option=orjson.OPT_SERIALIZE_NUMPY), outside.tolist()))
    assert sirank.data._float_texts(outside) == [repr(x) for x in outside.tolist()]


def test_import_sirank_does_not_load_orjson():
    script = "import sys, sirank; assert 'orjson' not in sys.modules"
    src = Path(sirank.data.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_readers_decode_utf_8_in_any_locale(tmp_path):
    """Under the C locale, whose text encoding is ASCII, a UTF-8 schema and
    data file load, and a data file that is not UTF-8 is refused naming
    UTF-8."""
    obj = _one_query_obj(None)
    obj["query_id"] = "qé"
    (tmp_path / "utf8.jsonl").write_text(json.dumps(obj, ensure_ascii=False) + "\n",
                                         encoding="utf-8")
    (tmp_path / "latin1.jsonl").write_bytes((json.dumps(obj, ensure_ascii=False) + "\n")
                                            .encode("latin-1"))
    save_schema(tiny_schema(), tmp_path / "s.json")
    text = (tmp_path / "s.json").read_text().replace('"star_rating"', '"étoiles"')
    (tmp_path / "s.json").write_text(text, encoding="utf-8")
    obj["items"][0]["fixed"]["étoiles"] = obj["items"][0]["fixed"].pop("star_rating")
    obj["items"][1]["fixed"]["étoiles"] = obj["items"][1]["fixed"].pop("star_rating")
    for name, encoding in (("utf8", "utf-8"), ("latin1", "latin-1")):
        (tmp_path / f"{name}.jsonl").write_bytes(
            (json.dumps(obj, ensure_ascii=False) + "\n").encode(encoding))
    script = """if True:
        import locale, sys
        from sirank.data import load_dataset, load_schema
        from sirank.errors import ParseError
        assert locale.getpreferredencoding(False).lower().replace("-", "") != "utf8"
        schema = load_schema(sys.argv[1] + "/s.json")
        print(load_dataset(sys.argv[1] + "/utf8.jsonl", schema).query_ids)
        try:
            load_dataset(sys.argv[1] + "/latin1.jsonl", schema)
        except ParseError as exc:
            print(exc)
    """
    src = Path(sirank.data.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "('qé',)", f"{tmp_path}/latin1.jsonl: not utf-8 text (invalid continuation byte)"]


# ---------------------------------------------------------------------------
# valid by construction


def test_datasets_built_without_the_check_pass_it(tmp_path):
    """Each builder that skips the check makes a dataset whose records pass
    it when made into a new Dataset."""
    ds = generate(GeneratorConfig(num_queries=60, seed=5))
    data, schema_path = tmp_path / "d.jsonl", tmp_path / "d.schema.json"
    save_dataset(ds, data)
    save_schema(ds.schema, schema_path)
    loaded = load_dataset(data, ds.schema)
    built = {"load_dataset": loaded}
    for cid in CASE_IDS:
        out = tmp_path / f"case{cid}.jsonl"
        assert sirank.cli.main(["perturb", "--data", str(data), "--schema", str(schema_path),
                                "--case", str(cid), "--out", str(out)]) == 0
        built[f"load_dataset of perturb case {cid}"] = load_dataset(out, ds.schema)
        built[f"apply_case {cid}"] = apply_case(loaded, PerturbationCase(cid))
    built.update(zip(("train", "validation", "test"), split_holdout(loaded, seed=3)))
    for c in (1e-3, 1200.0):
        built[f"scale_dataset {c:g}"] = scale_dataset(loaded, c)
    for name, made in built.items():
        rebuilt = Dataset(schema=made.schema, queries=made.queries)
        assert len(made) > 0 and _column_bytes(rebuilt) == _column_bytes(made), name


def _column_bytes(ds: Dataset) -> dict:
    """Every column of ds: the tuples as they are, each array as its dtype, shape and bytes."""
    return {f.name: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for f in fields(ds)[1:] for v in [getattr(ds, f.name)]}


@pytest.mark.parametrize("source", ["hand", "generated"])
def test_query_views_are_read_only_and_equal_the_records(source):
    """``Dataset.queries`` gives back, as read-only views made once, the
    records the dataset was made of; a one-query dataset's columns are its
    record's own arrays."""
    if source == "hand":
        schema, records = tiny_schema(), hand_records(n_queries=12, seed=5)
    else:
        generated = generate(GeneratorConfig(num_queries=40, seed=4))
        schema = generated.schema
        records = [QueryRecord(q.query_id, q.numeric.copy(), q.category_ids.copy(), q.num_nights,
                               q.exchange_rate, q.item_ids, q.fixed.copy(), q.scalevariant.copy(),
                               q.labels.copy()) for q in generated.queries]
    ds = Dataset(schema=schema, queries=records)
    assert ds.queries is ds.queries and len(ds.queries) == len(records)
    for view, record in zip(ds.queries, records):
        for f in fields(QueryRecord):
            got, want = getattr(view, f.name), getattr(record, f.name)
            assert type(got) is type(want), f.name
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and not got.flags.writeable, f.name
                np.testing.assert_array_equal(got, want, err_msg=f.name)
            else:
                assert got == want, f.name
    one = Dataset(schema=schema, queries=records[:1])
    for name in ("numeric", "category_ids", "fixed", "scalevariant", "labels"):
        assert np.shares_memory(getattr(one, name), getattr(records[0], name)), name


def test_loading_rescaling_training_and_evaluating_never_build_record_views(
        tmp_path, monkeypatch):
    """The package's own paths read a Dataset's columns: with the record
    views made to fail, every one of them still runs."""
    ds = generate(GeneratorConfig(num_queries=60, seed=2))
    paths = {name: str(tmp_path / name) for name in (
        "d.jsonl", "d.schema.json", "sir.json", "deep_only.json", "p.jsonl", "e.json")}
    save_schema(ds.schema, paths["d.schema.json"])

    def views(self):
        raise AssertionError("a Dataset's record views were built")

    monkeypatch.setattr(Dataset, "queries", property(views))
    monkeypatch.setattr(sirank.trainer, "_worker_count", lambda cells: 1)  # in-process cells
    save_dataset(ds, paths["d.jsonl"])
    train_ds, val_ds, test_ds = split_holdout(ds, seed=2)
    for mode in ("sir", "deep_only"):
        fit_standardization(train_ds, ds.schema, include_scalevariant=(mode == "deep_only"))
        model, _ = sirank.trainer.train(train_ds, val_ds, sirank.trainer.TrainConfig(
            mode=mode, max_epochs=2, patience=1, widths=(8,)))
        save_checkpoint(model, paths[f"{mode}.json"])
        assert sirank.cli.main(["evaluate", "--model", paths[f"{mode}.json"], "--data",
                                paths["d.jsonl"], "--schema", paths["d.schema.json"],
                                "--case", "1,2,3,4", "--out", paths["e.json"]]) == 0
    for cid in CASE_IDS:
        apply_case(test_ds, PerturbationCase(cid))
    scale_dataset(test_ds, 1200.0)
    random_ranker_mean_ndcg(test_ds)
    assert sirank.cli.main(["perturb", "--data", paths["d.jsonl"], "--schema",
                            paths["d.schema.json"], "--case", "3", "--out", paths["p.jsonl"]]) == 0
    report = sirank.trainer.run_experiment(ds, sirank.trainer.ExperimentConfig(
        seed=2, losses=("ranknet",), max_epochs=2, patience=1, widths=(8,)))
    assert [cell.error for cell in report.cells] == [None, None]


def test_records_and_datasets_cannot_be_edited(tmp_path):
    hand = hand_dataset(n_queries=3)
    save_dataset(hand, tmp_path / "d.jsonl")
    loaded = load_dataset(tmp_path / "d.jsonl", hand.schema)
    for ds in (hand, loaded, apply_case(loaded, PerturbationCase(3)), split_holdout(
            hand_dataset(n_queries=10), seed=1)[0],
            Dataset(schema=hand.schema, queries=[scale_query(loaded.queries[0], 7.0)])):
        q = ds.queries[0]
        with pytest.raises(FrozenInstanceError):
            q.labels = np.zeros(q.n_items)
        for name in ("numeric", "category_ids", "fixed", "scalevariant", "labels"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(q, name)[0] = 1
        with pytest.raises(TypeError):
            ds.queries[0] = q
        with pytest.raises(FrozenInstanceError):
            ds.queries = ()


def _edit_record(q: QueryRecord, field: str, index, value) -> QueryRecord:
    """q with one value changed: ``field``'s entry ``index``, or the whole
    field when ``index`` is None; "n_items" keeps the first ``value`` items."""
    if field == "n_items":
        return replace(q, item_ids=q.item_ids[:value], fixed=q.fixed[:value],
                       scalevariant=q.scalevariant[:value], labels=q.labels[:value])
    if index is None:
        return replace(q, **{field: value})
    if field == "item_ids":
        return replace(q, item_ids=tuple(value if j == index else iid
                                         for j, iid in enumerate(q.item_ids)))
    return replace(q, **{field: edited(getattr(q, field), index, value)})


def _edit_obj(obj: dict, schema: FeatureSchema, field: str, index, value) -> dict:
    """The JSON object ``obj`` with the change that ``_edit_record`` makes."""
    items = obj["items"]
    if field == "n_items":
        obj["items"] = items[:value]
    elif index is None and field == "category_ids":
        obj["query"].update(zip([f.name for f in schema.categorical_query_features],
                                value.tolist()))
    elif index is None:
        obj[field] = value
    elif field == "item_ids":
        items[index]["item_id"] = value
    elif field == "labels":
        items[index]["label"] = value
    elif field in ("numeric", "category_ids"):
        names = (schema.numeric_query_names if field == "numeric"
                 else [f.name for f in schema.categorical_query_features])
        obj["query"][names[index]] = value
    else:
        j, k = index
        names = {"fixed": schema.item_features_fixed,
                 "scalevariant": schema.item_features_scalevariant}[field]
        items[j][field][names[k]] = value
    return obj


_NORMAL_RULE = "must be finite and at least the smallest normal float64"


@pytest.mark.parametrize("field, index, value, error", [
    ("numeric", 1, np.nan, "query q2: query feature 'exchange_rate' must be finite, got nan"),
    ("numeric", 2, -np.inf, "query q2: query feature 'lead_days' must be finite, got -inf"),
    ("category_ids", 0, 3, "query q2: query feature 'device_type' must be an id in [0, 3), got 3"),
    ("category_ids", 0, -1,
     "query q2: query feature 'device_type' must be an id in [0, 3), got -1"),
    ("fixed", (0, 1), 0.0,
     "query q2: item q2-i0: fixed feature 'review_score' must be finite and > 0, got 0.0"),
    ("fixed", (0, 1), -2.0,
     "query q2: item q2-i0: fixed feature 'review_score' must be finite and > 0, got -2.0"),
    ("fixed", (1, 0), np.inf,
     "query q2: item q2-i1: fixed feature 'star_rating' must be finite and > 0, got inf"),
    ("fixed", (1, 0), np.nan,
     "query q2: item q2-i1: fixed feature 'star_rating' must be finite and > 0, got nan"),
    ("fixed", (1, 0), 1e-310, None),  # a fixed value need only be > 0
    *(("scalevariant", (1, 1), v, f"query q2: item q2-i1: scale-variant feature 'discount' "
                                  f"{_NORMAL_RULE}, got {v}")
      for v in (0.0, np.nan, np.inf, 1e-310)),
    ("scalevariant", (1, 1), sirank.data.SMALLEST_NORMAL, None),
    ("labels", 0, 0.5, "query q2: item q2-i0: label must be 0 or 1"),
    ("labels", 1, 2.0, "query q2: item q2-i1: label must be 0 or 1"),
    ("labels", 3, 1.0, "query q2: multiple booked items"),
    ("labels", 1, 0.0, "query q2: no booked item"),
    *(("num_nights", None, v, "query q2: num_nights must be a positive integer")
      for v in (2.5, 0, -3, True, 2.0, 10 ** 400, None)),
    *(("exchange_rate", None, v, "query q2: exchange_rate must be a positive finite number")
      for v in (-1.0, 0.0, float("nan"), float("inf"), 10 ** 400, True, "1.5", None)),
    ("n_items", None, 1, "query q2: items count 1 outside [2, 25]"),
    ("query_id", None, "", "record without a non-empty string query_id"),
    ("item_ids", 2, "q2-i0", "query q2: item q2-i0: duplicate item_id"),
    ("item_ids", 1, "", "query q2: item without a non-empty string item_id"),
], ids=lambda v: "beyond_float64" if v == 10 ** 400 else None)
def test_a_dataset_and_the_loader_refuse_a_record_with_one_message(tmp_path, field, index,
                                                                    value, error):
    """A hand-built Dataset refuses what the loader refuses, with the same
    error type and text: a bad rate would otherwise surface as a rescale
    error in case 1/2, and save_dataset would write a night count of 2.5
    as 2."""
    ds = hand_dataset(n_queries=5, seed=6)
    q = ds.queries[2]
    assert q.booked_index == 1 and q.n_items >= 4  # the label rows rely on both
    records = list(ds.queries)
    records[2] = _edit_record(q, field, index, value)
    path = _write_lines(tmp_path / "one.jsonl", [
        _edit_obj(_query_to_obj(r, ds.schema), ds.schema, field, index, value) if i == 2
        else _query_to_obj(r, ds.schema) for i, r in enumerate(ds.queries)])
    if error is None:
        made = Dataset(schema=ds.schema, queries=records)
        loaded = load_dataset(path, ds.schema)
        assert made.queries[2].fixed.tobytes() == loaded.queries[2].fixed.tobytes()
        assert made.queries[2].scalevariant.tobytes() == loaded.queries[2].scalevariant.tobytes()
        return
    with pytest.raises(ValidationError) as made:
        Dataset(schema=ds.schema, queries=records)
    with pytest.raises(ValidationError) as loaded:
        load_dataset(path, ds.schema)
    assert type(made.value) is type(loaded.value) is ValidationError
    assert str(made.value) == str(loaded.value) == error


def test_a_repeated_query_id_is_named_by_positions_or_lines(tmp_path):
    ds = hand_dataset(n_queries=5, seed=6)
    records = [replace(q, query_id="q0") if i == 2 else q for i, q in enumerate(ds.queries)]
    with pytest.raises(ValidationError) as made:
        Dataset(schema=ds.schema, queries=records)
    path = _write_lines(tmp_path / "dup.jsonl", [_query_to_obj(r, ds.schema) for r in records])
    with pytest.raises(ValidationError) as loaded:
        load_dataset(path, ds.schema)
    assert str(made.value) == "query q0: duplicate query_id (positions 0 and 2)"
    assert str(loaded.value) == "query q0: duplicate query_id (lines 1 and 3)"


@pytest.mark.parametrize("ids", [[1.7], [1.0]], ids=["fraction", "integral_float"])
def test_category_ids_of_a_float_dtype_are_refused(ids, tmp_path):
    """An id array must have an integer dtype: a float id is not truncated
    to an embedding row. The loader and the generator make int64 ids, and a
    file's float id is not an integer id."""
    ds = hand_dataset(n_queries=5, seed=6)
    q = ds.queries[2]
    with pytest.raises(DomainError) as made:
        Dataset(schema=ds.schema, queries=[*ds.queries[:2], _edit_record(
            q, "category_ids", None, np.array(ids)), *ds.queries[3:]])
    assert str(made.value) == (
        f"query {q.query_id}: category ids must be integers, got dtype float64")
    path = _write_lines(tmp_path / "float.jsonl", [_edit_obj(
        _query_to_obj(q, ds.schema), ds.schema, "category_ids", None, np.array(ids))])
    with pytest.raises(ValidationError, match=f"^query {q.query_id}: query feature "
                                              "'device_type' must be an integer id$"):
        load_dataset(path, ds.schema)
    generated = generate(GeneratorConfig(num_queries=20, seed=1))
    save_dataset(generated, tmp_path / "g.jsonl")
    for made in (generated, load_dataset(tmp_path / "g.jsonl", generated.schema)):
        assert {q.category_ids.dtype for q in made} == {np.dtype(np.int64)}
        assert len(Dataset(schema=made.schema, queries=made.queries)) == 20


# the four kinds of Dataset that save_dataset once wrote and load_dataset refused
@pytest.mark.parametrize("gap", ["one_item", "repeated_query_id", "repeated_item_id",
                                 "empty_query_id"])
def test_a_dataset_refuses_what_its_file_would_be_refused_for(tmp_path, gap):
    ds = hand_dataset(n_queries=3, seed=2)
    q = ds.queries[1]
    bad = {"one_item": lambda: _edit_record(q, "n_items", None, 1),
           "repeated_query_id": lambda: replace(q, query_id="q0"),
           "repeated_item_id": lambda: _edit_record(q, "item_ids", 1, q.item_ids[0]),
           "empty_query_id": lambda: replace(q, query_id="")}[gap]()
    records = [ds.queries[0], bad, ds.queries[2]]
    path = _write_lines(tmp_path / "gap.jsonl", [_query_to_obj(r, ds.schema) for r in records])
    with pytest.raises(ValidationError) as made:
        Dataset(schema=ds.schema, queries=records)
    with pytest.raises(ValidationError) as loaded:
        load_dataset(path, ds.schema)
    want = {"one_item": "query q1: items count 1 outside [2, 25]",
            "repeated_query_id": "query q0: duplicate query_id (lines 1 and 2)",
            "repeated_item_id": "query q1: item q1-i0: duplicate item_id",
            "empty_query_id": "record without a non-empty string query_id"}[gap]
    assert type(made.value) is type(loaded.value)
    assert str(loaded.value) == want
    assert str(made.value) == want.replace("lines 1 and 2", "positions 0 and 1")


# ids with non-ASCII, control and JSON-escaped characters
_IDS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_dataset_of_save_dataset_is_the_dataset(tmp_path, data):
    """The round trip gives every value back bitwise: float64 bytes for the
    values (a hand-built record may hold int arrays, the loader makes
    float64) and int64 bytes for the category ids."""
    def values(shape, as_int, **bounds):
        n = int(np.prod(shape))
        drawn = (st.integers(max(1, int(bounds.get("min_value", -10 ** 6))), 10 ** 6) if as_int
                 else st.floats(**bounds, **_FINITE))
        return np.reshape(data.draw(st.lists(drawn, min_size=n, max_size=n)), shape)

    qids = data.draw(st.lists(_IDS, min_size=1, max_size=3, unique=True))
    records = []
    for qid in qids:
        item_ids = data.draw(st.lists(_IDS, min_size=2, max_size=25, unique=True))
        d, as_int = len(item_ids), data.draw(st.booleans())
        records.append(QueryRecord(
            query_id=qid, numeric=values((4,), as_int), item_ids=tuple(item_ids),
            category_ids=np.array([data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))]),
            num_nights=data.draw(st.integers(1, 10 ** 6)),
            exchange_rate=data.draw(st.floats(min_value=0.0, exclude_min=True, **_FINITE)),
            fixed=values((d, ODD_SCHEMA.k1), as_int, min_value=0.0, exclude_min=True),
            scalevariant=values((d, ODD_SCHEMA.k2), as_int,
                                min_value=sirank.data.SMALLEST_NORMAL),
            labels=(np.arange(d) == data.draw(st.integers(0, d - 1))).astype(np.float64)))
    ds = Dataset(schema=ODD_SCHEMA, queries=records)
    save_dataset(ds, tmp_path / "drawn.jsonl")
    back = load_dataset(tmp_path / "drawn.jsonl", ODD_SCHEMA)

    assert [record_bytes(q) for q in back.queries] == [record_bytes(q) for q in records]


# ---------------------------------------------------------------------------
# standardization


def test_constant_feature_rejected():
    ds = hand_dataset(n_queries=6, seed=1)
    ds = Dataset(schema=ds.schema, queries=[replace(q, numeric=edited(q.numeric, 2, 5.0))
                                            for q in ds.queries])
    with pytest.raises(ValidationError, match="lead_days"):
        fit_standardization(ds, ds.schema)


@pytest.mark.parametrize("factor", [1e200, 1e307])
def test_non_finite_stats_rejected_naming_feature(factor):
    ds = hand_dataset(n_queries=6, seed=1)
    ds = Dataset(schema=ds.schema, queries=[replace(q, fixed=q.fixed * [1.0, factor])
                                            for q in ds.queries])
    with pytest.raises(ValidationError, match="'review_score' has a non-finite"):
        fit_standardization(ds, ds.schema)


def test_symmetric_pair_gives_zero_mean_unit_std():
    ds = hand_dataset(n_queries=6, seed=1)
    ds = Dataset(schema=ds.schema, queries=[
        replace(q, numeric=edited(q.numeric, 2, 1.0 if i % 2 == 0 else -1.0))
        for i, q in enumerate(ds.queries)])
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
    mean, std = stats.numeric_mean[2], stats.numeric_std[2]
    q0, q1 = ds.queries[:2]
    ds = with_queries(ds, {0: replace(q0, numeric=edited(q0.numeric, 2, mean)),
                           1: replace(q1, numeric=edited(q1.numeric, 2, mean + std))})
    model = build_model(ds.schema, widths=(4,), compressor_dim=2, stats=stats)
    deep_numeric = prepare_dataset(model, ds).deep_numeric
    assert deep_numeric[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert deep_numeric[1, 2] == pytest.approx(1.0, abs=1e-12)


def test_apply_never_touches_scalevariant_or_raw():
    ds = hand_dataset(n_queries=10, seed=2)
    before_sv = [q.scalevariant.copy() for q in ds.queries]
    before_fixed = [q.fixed.copy() for q in ds.queries]
    before_labels = [q.labels.copy() for q in ds.queries]
    before_numeric = [q.numeric.copy() for q in ds.queries]
    stats = fit_standardization(ds, ds.schema)
    # the benchmark workloads' call: the same dataset back, stats checked
    assert apply_standardization(ds, stats) is ds
    # the standardized deep-path inputs live in the prepared block only
    block = prepare_dataset(build_model(ds.schema, widths=(4,), compressor_dim=2, stats=stats),
                            ds)
    assert block.deep_numeric.shape == (len(ds), len(ds.schema.numeric_query_names))
    assert block.deep_items.shape == (sum(q.n_items for q in ds), ds.schema.k1)
    # the records keep every array and stay raw
    for q, sv, fx, labels, numeric in zip(ds.queries, before_sv, before_fixed, before_labels,
                                          before_numeric):
        np.testing.assert_array_equal(q.scalevariant, sv)
        np.testing.assert_array_equal(q.fixed, fx)
        np.testing.assert_array_equal(q.labels, labels)
        np.testing.assert_array_equal(q.numeric, numeric)


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
        build_model(other.schema, widths=(4,), compressor_dim=2, stats=stats)
    with pytest.raises(SchemaError):  # ds.queries do not fit other.schema: Dataset refuses them
        apply_standardization(other, stats)


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
    # each part holds, bitwise, the records of its share of the permutation, in input order
    perm = np.random.default_rng(9).permutation(57)
    n_train, n_val = 57 - round(0.30 * 57) - round(0.07 * 57), round(0.07 * 57)
    for part, idx in zip(a, (perm[:n_train], perm[n_train:n_train + n_val],
                             perm[n_train + n_val:])):
        assert ([record_bytes(q) for q in part.queries]
                == [record_bytes(ds.queries[i]) for i in np.sort(idx)])


def test_split_changes_with_seed():
    ds = hand_dataset(n_queries=57, seed=6)
    a = split_holdout(ds, seed=1)
    b = split_holdout(ds, seed=2)
    assert [q.query_id for q in a[2].queries] != [q.query_id for q in b[2].queries]


def test_split_requires_ten_queries():
    ds = hand_dataset(n_queries=9, seed=0)
    with pytest.raises(ValidationError):
        split_holdout(ds, seed=0)
