"""Feature schema, frozen raw query records, datasets held as one read-only
array per field and checked once where they are made, JSONL I/O, splits,
rescales and standardization stats."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import pairwise
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ContractError, DomainError, ParseError, SchemaError, ValidationError

MAX_ITEMS_PER_QUERY = 25
MIN_ITEMS_PER_QUERY = 2
MAX_EMBEDDING_VALUES = 10 ** 7  # values in one embedding table or dense weight
# A scale-variant value below the smallest normal float64 is refused, on load
# and after a rescale: log of a subnormal loses the precision exact invariance
# needs.
SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
# Queries that ``load_dataset`` parses into columns as one block: enough to
# spread numpy's per-call cost, few enough that one block's parsed JSON
# (about 20 kB a query) adds little to peak RSS. The blocks' columns are
# joined into the Dataset's one array per field, and ``_check_columns`` runs
# once, over those, per file.
LOAD_CHUNK_QUERIES = 16


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class QueryFeature:
    name: str
    kind: str  # "numeric" or "categorical"
    cardinality: int | None = None
    embedding_dim: int | None = None


@dataclass(frozen=True)
class FeatureSchema:
    """Declares query features plus the fixed / scale-variant item features.

    Scale-variant features are the ones whose scale can legitimately change at
    prediction time (price-like quantities). They stay raw end to end and only
    reach a model through the wide part's log. Fixed item features feed both
    paths, so their raw values must be strictly positive as well.
    """

    query_features: tuple[QueryFeature, ...]
    item_features_fixed: tuple[str, ...]
    item_features_scalevariant: tuple[str, ...]

    def __post_init__(self):
        names = [f.name for f in self.query_features]
        names += list(self.item_features_fixed) + list(self.item_features_scalevariant)
        bad = [n for n in names if not isinstance(n, str)]
        if bad:
            raise SchemaError(f"feature names must be strings, got {bad}")
        if len(set(names)) != len(names):
            dup = sorted(n for n in set(names) if names.count(n) > 1)
            raise SchemaError(f"duplicate feature names: {dup}")
        if len(self.item_features_scalevariant) < 1:
            raise SchemaError("schema needs at least one scale-variant item feature")
        for f in self.query_features:
            if f.kind == "numeric":
                if f.cardinality is not None or f.embedding_dim is not None:
                    raise SchemaError(f"numeric feature {f.name!r} must not set cardinality or embedding_dim")
            elif f.kind == "categorical":
                if not _is_int(f.cardinality) or f.cardinality < 2:
                    raise SchemaError(f"categorical feature {f.name!r} needs an integer "
                                      f"cardinality >= 2, got {f.cardinality!r}")
                if not _is_int(f.embedding_dim) or f.embedding_dim < 1:
                    raise SchemaError(f"categorical feature {f.name!r} needs an integer "
                                      f"embedding_dim >= 1, got {f.embedding_dim!r}")
                if f.cardinality * f.embedding_dim > MAX_EMBEDDING_VALUES:
                    raise SchemaError(f"categorical feature {f.name!r} needs an embedding "
                                      f"table of more than {MAX_EMBEDDING_VALUES} values")
            else:
                raise SchemaError(f"feature {f.name!r} has unknown kind {f.kind!r}")

    # computed once per schema: a frozen dataclass lets cached_property fill
    # the instance dict, and neither equality nor the hash reads it
    @cached_property
    def numeric_query_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.query_features if f.kind == "numeric")

    @cached_property
    def categorical_query_features(self) -> tuple[QueryFeature, ...]:
        return tuple(f for f in self.query_features if f.kind == "categorical")

    @property
    def k1(self) -> int:
        return len(self.item_features_fixed)

    @property
    def k2(self) -> int:
        return len(self.item_features_scalevariant)

    @property
    def query_repr_dim(self) -> int:
        """Width of the processed query representation (numerics + embeddings)."""
        return len(self.numeric_query_names) + sum(
            f.embedding_dim for f in self.categorical_query_features
        )

    def to_json(self) -> dict:
        return {
            "query_features": [
                {
                    "name": f.name,
                    "kind": f.kind,
                    **({"cardinality": f.cardinality, "embedding_dim": f.embedding_dim}
                       if f.kind == "categorical" else {}),
                }
                for f in self.query_features
            ],
            "item_features_fixed": list(self.item_features_fixed),
            "item_features_scalevariant": list(self.item_features_scalevariant),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSchema":
        try:
            for group in ("query_features", "item_features_fixed", "item_features_scalevariant"):
                if not isinstance(obj[group], list):
                    raise SchemaError(f"schema {group!r} must be a list")
            feats = tuple(
                QueryFeature(
                    name=f["name"],
                    kind=f["kind"],
                    cardinality=f.get("cardinality"),
                    embedding_dim=f.get("embedding_dim"),
                )
                for f in obj["query_features"]
            )
            return cls(
                query_features=feats,
                item_features_fixed=tuple(obj["item_features_fixed"]),
                item_features_scalevariant=tuple(obj["item_features_scalevariant"]),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema object: {exc}") from exc

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def save_schema(schema: FeatureSchema, path):
    with open(path, "w") as fh:
        json.dump(schema.to_json(), fh, indent=2)
        fh.write("\n")


def load_schema(path) -> FeatureSchema:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON, or text that is not UTF-8
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return FeatureSchema.from_json(obj)


@dataclass(frozen=True)
class QueryRecord:
    """One query and its D items; row j of every item array belongs to
    item ``item_ids[j]``. Records are frozen."""

    query_id: str
    numeric: np.ndarray        # raw numeric query values, schema order
    category_ids: np.ndarray   # int ids, schema categorical order
    num_nights: int
    exchange_rate: float
    item_ids: tuple[str, ...]
    fixed: np.ndarray          # raw, finite and > 0, (D, K1)
    scalevariant: np.ndarray   # raw, finite and >= SMALLEST_NORMAL, (D, K2)
    labels: np.ndarray         # 1.0 for the booked item, else 0.0, (D,)

    def __post_init__(self):  # read-only arrays: a checked record cannot be edited
        for a in (self.numeric, self.category_ids, self.fixed, self.scalevariant, self.labels):
            if a.flags.writeable:
                a.setflags(write=False)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def booked_index(self) -> int:
        return int(np.flatnonzero(self.labels)[0])


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Dataset:
    """Queries under one schema, held as one read-only column per field:
    query i is entry i of the query columns and owns rows
    ``offsets[i]:offsets[i + 1]`` of the item columns.

    ``Dataset(schema, queries)`` stacks the records once and checks them
    (``_check_columns``), raising the first bad query's error. The loader,
    the generator, splits and rescales make theirs from columns
    (``_of_columns``). ``queries`` gives the records back as read-only
    views into the columns, made on first use."""

    schema: FeatureSchema
    query_ids: tuple[str, ...]
    numeric: np.ndarray          # (Q, numeric query features), float64
    category_ids: np.ndarray     # (Q, categorical query features), int64
    num_nights: tuple[int, ...]  # ints: a night count may exceed int64
    exchange_rates: np.ndarray   # (Q,), float64
    item_ids: tuple[str, ...]    # (N,): query 0's items, then query 1's, ...
    fixed: np.ndarray            # (N, K1), float64
    scalevariant: np.ndarray     # (N, K2), float64
    labels: np.ndarray           # (N,), float64
    offsets: np.ndarray          # (Q + 1,), int64

    def __init__(self, schema: FeatureSchema, queries):
        queries = tuple(queries)
        n, c = len(schema.numeric_query_names), len(schema.categorical_query_features)
        for k, q in enumerate(queries):  # shapes and the id dtype first: stacking reads them
            d = len(q.item_ids)
            for name, want in (("numeric", (n,)), ("category_ids", (c,)), ("fixed", (d, schema.k1)),
                               ("scalevariant", (d, schema.k2)), ("labels", (d,))):
                if getattr(q, name).shape != want:
                    Dataset(schema, queries[:k])  # the queries before it are checked first
                    expected = f"(D, K) = {want}" if len(want) == 2 else f"{want}"
                    raise ContractError(f"query {q.query_id}: {name} array has shape "
                                        f"{list(getattr(q, name).shape)}, expected {expected}")
            if q.category_ids.dtype.kind not in "iu":
                Dataset(schema, queries[:k])
                raise DomainError(f"query {q.query_id}: category ids must be integers, "
                                  f"got dtype {q.category_ids.dtype}")
        # each record is a one-query chunk; one record's arrays are the columns
        columns = _joined_chunks([dict(
            query_ids=[q.query_id], numeric=q.numeric[None], category_ids=q.category_ids[None],
            num_nights=[q.num_nights], exchange_rates=[q.exchange_rate], item_ids=q.item_ids,
            fixed=q.fixed, scalevariant=q.scalevariant, labels=q.labels, sizes=[len(q.item_ids)])
            for q in queries] or [_chunk_columns([], schema)])
        _check_columns(schema, range(len(queries)), "positions", **columns)
        self._set(schema, **columns)

    def _set(self, schema, query_ids, numeric, category_ids, num_nights, exchange_rates,
             item_ids, fixed, scalevariant, labels, offsets):
        """Fill every field from its column, converted to the field's type; arrays read-only."""
        values = dict(
            schema=schema, query_ids=tuple(query_ids), numeric=np.asarray(numeric, np.float64),
            category_ids=np.asarray(category_ids, np.int64), num_nights=tuple(num_nights),
            exchange_rates=np.asarray(exchange_rates, np.float64), item_ids=tuple(item_ids),
            fixed=np.asarray(fixed, np.float64), scalevariant=np.asarray(scalevariant, np.float64),
            labels=np.asarray(labels, np.float64), offsets=np.asarray(offsets, np.int64))
        for value in values.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(values)  # frozen: set once, here

    @classmethod
    def _of_columns(cls, schema: FeatureSchema, **columns) -> Dataset:
        """A dataset of ``columns`` (one per field but the schema) without
        the check: for columns that passed ``_check_columns``, or that keep
        what a dataset's columns held."""
        ds = object.__new__(cls)
        ds._set(schema, **columns)
        return ds

    @cached_property
    def queries(self) -> tuple[QueryRecord, ...]:
        """Every query as a ``QueryRecord`` whose arrays are read-only views
        into the columns, made on first use. Loading, rescaling, training
        and evaluating a model read the columns; only a callable ranker
        (``metrics.mean_ndcg``) is handed records."""
        return tuple(
            QueryRecord(qid, self.numeric[i], self.category_ids[i], nights, rate,
                        self.item_ids[a:b], self.fixed[a:b], self.scalevariant[a:b],
                        self.labels[a:b])
            for i, (qid, nights, rate, (a, b)) in enumerate(zip(
                self.query_ids, self.num_nights, self.exchange_rates.tolist(),
                pairwise(self.offsets.tolist()))))

    def __len__(self) -> int:
        return len(self.query_ids)

    def __iter__(self):
        return iter(self.queries)


_NO_QUERY_ID = "record without a non-empty string query_id"
_NO_ITEM_ID = "item without a non-empty string item_id"


def _is_number(v) -> bool:
    """A JSON number that converts to float64: a float, or an int that is
    not a bool and not too large for a float."""
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _check_columns(schema: FeatureSchema, places, unit: str, *, query_ids, numeric,
                   category_ids, num_nights, exchange_rates, item_ids, fixed, scalevariant,
                   labels, offsets):
    """Raise the first broken rule of the first query that breaks a rule of
    a Dataset. The columns are a Dataset's fields before ``Dataset._set``
    converts them: nights and exchange rates as given, category ids of any
    integer dtype. A repeated query id is named by the ``unit`` ("positions"
    or "lines") of its ``places``. Each rule is one boolean per query; a
    rule on the item rows holds at most one (N, K) boolean array at a time."""
    if not query_ids:
        return
    cats = schema.categorical_query_features
    n, k1, k2 = len(schema.numeric_query_names), schema.k1, schema.k2
    bounds = offsets.tolist()
    ids = [item_ids[a:b] for a, b in pairwise(bounds)]
    ids_ok = [set(map(type, i)) <= {str} and all(i) for i in ids]
    keys = [q if type(q) is str and q else None for q in query_ids]
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    booked_rows = labels == 1
    label_ok = booked_rows | (labels == 0)

    def per_query(rows, reduce=np.logical_and, pad=True):
        # an empty query reads a wrong row, but it breaks the items count rule
        # first; an empty last query reads a pad row
        if bounds[-2] == bounds[-1]:
            rows = np.concatenate((rows, [pad]))
        return reduce.reduceat(rows, offsets[:-1])

    booked = per_query(booked_rows, np.add, 0)

    def item(i, row_ok):  # "item <id>: " of query i's first item whose row breaks a rule
        j = int(np.argmin(row_ok[bounds[i]:bounds[i + 1]]))
        return f"item {ids[i][j]}: ", bounds[i] + j

    def within(values, tests):  # elementwise: every (comparison, bound) of ``tests`` holds
        ok = tests[0][0](values, tests[0][1])
        for compare, bound in tests[1:]:
            compare(values, bound, out=ok, where=ok)  # in place: one boolean array
        return ok

    def values_rule(values, tests, names, rules, what, per_item):
        """(holds, message) of the rule "feature k of ``names`` must be
        ``rules[k]``", kept where ``within(values, tests)``; a row is an
        item if ``per_item``."""
        row_ok = np.logical_and.reduce(within(values, tests), axis=1)

        def message(i):
            prefix, row = item(i, row_ok) if per_item else ("", i)
            k = int(np.argmin(within(values[row], tests)))  # the row it names, tested again
            return f"{prefix}{what} {names[k]!r} must be {rules[k]}, got {values[row, k]}"
        return (per_query(row_ok) if per_item else row_ok), message

    def repeated(i):  # an item id of query i that repeats
        return next(iid for j, iid in enumerate(ids[i]) if iid in ids[i][:j])

    finite = [(np.greater, -np.inf), (np.less, np.inf)]  # NaN fails both
    # (holds, message) per rule, in order; holds[i]: query i keeps the rule
    rules = [
        ([key is not None for key in keys], None),
        values_rule(numeric, finite, schema.numeric_query_names, ["finite"] * n,
                    "query feature", False),
        values_rule(category_ids, [(np.greater_equal, 0),
                                   (np.less, np.array([f.cardinality for f in cats]))],
                    [f.name for f in cats], [f"an id in [0, {f.cardinality})" for f in cats],
                    "query feature", False),
        ([_is_int(v) and 0 < v <= sys.float_info.max for v in num_nights],
         lambda i: "num_nights must be a positive integer"),
        ([_is_number(v) and math.isfinite(v) and v > 0 for v in exchange_rates],
         lambda i: "exchange_rate must be a positive finite number"),
        ([MIN_ITEMS_PER_QUERY <= len(i) <= MAX_ITEMS_PER_QUERY for i in ids], lambda i: (
            f"items count {len(ids[i])} outside [{MIN_ITEMS_PER_QUERY}, {MAX_ITEMS_PER_QUERY}]")),
        (ids_ok, lambda i: _NO_ITEM_ID),
        ([not good or len(set(i)) == len(i) for good, i in zip(ids_ok, ids)],
         lambda i: f"item {repeated(i)}: duplicate item_id"),
        values_rule(fixed, [(np.greater, 0), finite[1]], schema.item_features_fixed,
                    ["finite and > 0"] * k1, "fixed feature", True),
        values_rule(scalevariant, [(np.greater_equal, SMALLEST_NORMAL), finite[1]],
                    schema.item_features_scalevariant,
                    ["finite and at least the smallest normal float64"] * k2,
                    "scale-variant feature", True),
        (per_query(label_ok), lambda i: f"{item(i, label_ok)[0]}label must be 0 or 1"),
        (booked > 0, lambda i: "no booked item"),
        (booked < 2, lambda i: "multiple booked items"),
        ([first[q] == i for i, q in enumerate(keys)],
         lambda i: f"duplicate query_id ({unit} {places[first[keys[i]]]} and {places[i]})"),
    ]
    held = np.array([holds for holds, _ in rules], dtype=bool)
    if not held.all():
        broken = ~held
        i = int(np.argmax(broken.any(axis=0)))
        message = rules[int(np.argmax(broken[:, i]))][1]
        raise ValidationError(_NO_QUERY_ID if message is None
                              else f"query {query_ids[i]}: {message(i)}")


def rescaled(ds: Dataset, columns, factors: list[np.ndarray], what: str) -> Dataset:
    """``ds`` with the scale-variant ``columns`` (an index of the feature
    axis) multiplied by each array of ``factors`` in turn, one value per
    query each; every other column is shared. A product out of range
    raises ValidationError (``check_rescaled``)."""
    scalevariant = ds.scalevariant.copy()
    with np.errstate(over="ignore"):  # an overflow is reported as a data error below
        for f in factors:
            scalevariant[:, columns] *= np.repeat(f, np.diff(ds.offsets))[:, None]
    check_rescaled(scalevariant, ds.offsets, ds.query_ids, what)
    return Dataset._of_columns(ds.schema, **{f.name: getattr(ds, f.name) for f in fields(ds)[1:]}
                               | {"scalevariant": scalevariant})


def check_rescaled(scalevariant: np.ndarray, offsets, query_ids, what: str):
    """Raise ValidationError for the first query (rows ``offsets[i]:offsets[i
    + 1]``) holding a rescaled scale-variant value that is not finite, or one
    below ``SMALLEST_NORMAL``: "query <id>: <what> a scale-variant value
    beyond the float64 range" (or "below the smallest normal float64")."""
    if scalevariant.size == 0 or (scalevariant.max() < np.inf
                                  and scalevariant.min() >= SMALLEST_NORMAL):
        return
    finite = np.logical_and.reduceat(np.isfinite(scalevariant).all(axis=1), offsets[:-1])
    normal = np.logical_and.reduceat((scalevariant >= SMALLEST_NORMAL).all(axis=1), offsets[:-1])
    i = int(np.argmin(finite & normal))
    where = "below the smallest normal float64" if finite[i] else "beyond the float64 range"
    raise ValidationError(f"query {query_ids[i]}: {what} a scale-variant value {where}")


# ---------------------------------------------------------------------------
# JSONL I/O

def _is_category_id(v) -> bool:
    """An integer that a category id column (int64) can hold."""
    return _is_int(v) and -2 ** 63 <= v < 2 ** 63


def _float_column(values: list, shape) -> np.ndarray | None:
    """``values`` as a float64 array of ``shape``, or None unless every value
    is a JSON number (``_is_number``)."""
    types = set(map(type, values))
    if not types <= {float, int}:
        return None
    try:
        column = np.array(values, dtype=np.float64).reshape(shape)
    except OverflowError:  # an int too large for a float
        return None
    # numpy rounds an int just beyond the float range to the largest float
    if (int in types and (np.abs(column) == sys.float_info.max).any()
            and not all(map(_is_number, values))):
        return None
    return column


def _item_matrix(raw_items: list, group: str, names: tuple[str, ...]) -> np.ndarray | None:
    """One feature group of every item as a (D, len(names)) matrix, or None
    if any item lacks the group or one of its features, has a feature the
    schema does not name, or holds a value that is not a JSON number."""
    try:
        groups = [raw[group] for raw in raw_items]
        if set(map(len, groups)) <= {len(names)}:
            return _float_column([values[name] for values in groups for name in names],
                                 (len(raw_items), len(names)))
    except (KeyError, TypeError):
        pass
    return None


def _chunk_columns(objs: list[dict], schema: FeatureSchema) -> dict | None:
    """The query objects ``objs`` as ``_check_columns`` takes a Dataset's
    columns, with ``sizes`` (items per query) in place of ``offsets``; None
    if a key is missing, a value has the wrong JSON type or a feature is not
    in the schema (the faults ``_type_fault`` names). Values are not
    checked: a label that is not a number becomes NaN."""
    qids = [obj.get("query_id") for obj in objs]
    qvals = [obj.get("query") for obj in objs]
    cats = schema.categorical_query_features
    n_known = len(schema.numeric_query_names) + len(cats)
    if (not set(map(type, qids)) <= {str}
            or not all(type(v) is dict and len(v) == n_known for v in qvals)):
        return None
    try:  # every name present and no others: no unknown query feature
        numeric = _float_column([v[name] for v in qvals for name in schema.numeric_query_names],
                                (len(objs), len(schema.numeric_query_names)))
        cat_values = [v[f.name] for v in qvals for f in cats]
    except KeyError:
        return None
    if numeric is None or not all(map(_is_category_id, cat_values)):
        return None
    items = [obj.get("items") for obj in objs]
    raw_items = [raw for v in items if type(v) is list for raw in v]
    if not all(type(v) is list for v in items) or not all(type(r) is dict for r in raw_items):
        return None
    item_ids = [raw.get("item_id") for raw in raw_items]
    fixed = _item_matrix(raw_items, "fixed", schema.item_features_fixed)
    sv = _item_matrix(raw_items, "scalevariant", schema.item_features_scalevariant)
    if not set(map(type, item_ids)) <= {str} or fixed is None or sv is None:
        return None
    raw_labels = [raw.get("label") for raw in raw_items]
    labels = _float_column(raw_labels, -1)
    if labels is None:  # a label that is not a number breaks the label rule as NaN
        labels = np.array([float(v) if _is_number(v) else np.nan for v in raw_labels])
    return dict(query_ids=qids, numeric=numeric,
                category_ids=np.array(cat_values, dtype=np.int64).reshape(len(objs), len(cats)),
                num_nights=[obj.get("num_nights") for obj in objs],
                exchange_rates=[obj.get("exchange_rate") for obj in objs], item_ids=item_ids,
                fixed=fixed, scalevariant=sv, labels=labels, sizes=list(map(len, items)))


def _joined_chunks(chunks: list[dict]) -> dict:
    """Consecutive chunks of columns, as ``_chunk_columns`` makes them, as
    one Dataset's columns; a single chunk's columns are used as they are."""
    columns = dict(chunks[0])
    if len(chunks) > 1:
        for name, first in chunks[0].items():
            parts = [chunk[name] for chunk in chunks]
            columns[name] = (np.concatenate(parts) if isinstance(first, np.ndarray)
                             else [value for part in parts for value in part])
    columns["offsets"] = np.array([0, *columns.pop("sizes")]).cumsum()
    return columns


def _group_fault(values, tests: dict, what: str) -> str | None:
    """What is wrong, as JSON decides, with ``values``: a JSON object that
    holds exactly the features that ``tests`` maps to an (is_ok, fault)
    pair, each value passing its ``is_ok``; None if nothing is."""
    if type(values) is not dict:
        return f"missing {what} object"
    for name, (is_ok, fault) in tests.items():
        if name not in values:
            return f"missing {what} {name!r}"
        if not is_ok(values[name]):
            return f"{what} {name!r} {fault}"
    extra = sorted(set(values) - set(tests))
    return f"{what}s not in the schema: {extra}" if extra else None


def _type_fault(obj: dict, schema: FeatureSchema) -> str | None:
    """The message of the first fault in the query object ``obj``, as
    ``json.loads`` reads it, that makes ``_chunk_columns`` refuse it, or
    None: what JSON decides, never a value."""
    qid, number = obj.get("query_id"), (_is_number, "is not numeric")
    if type(qid) is not str:
        return _NO_QUERY_ID
    fault = _group_fault(obj.get("query"), {
        **dict.fromkeys(schema.numeric_query_names, number),
        **{f.name: (_is_category_id, "must be an integer id")
           for f in schema.categorical_query_features}}, "query feature")
    if fault:
        return f"query {qid}: {fault}"
    items = obj.get("items")
    if type(items) is not list:
        return f"query {qid}: missing items list"
    for j, raw in enumerate(items):
        if type(raw) is not dict:
            return f"query {qid}: item at position {j} is not a JSON object"
        if type(raw.get("item_id")) is not str:
            return f"query {qid}: {_NO_ITEM_ID}"
        for group, names, what in (
                ("fixed", schema.item_features_fixed, "fixed feature"),
                ("scalevariant", schema.item_features_scalevariant, "scale-variant feature")):
            fault = _group_fault(raw.get(group), dict.fromkeys(names, number), what)
            if fault:
                return f"query {qid}: item {raw['item_id']}: {fault}"
    return None


def _read_chunk(chunk: list[tuple[int, str, dict]], schema: FeatureSchema, chunks: list[dict],
                lines: list[int]) -> ValidationError | None:
    """Add the columns of ``chunk``'s (line number, line, JSON object)
    triples to ``chunks`` and their line numbers to ``lines``; if JSON
    decides a fault in a query, add the queries before it and return the
    error that ``_type_fault`` names. The one place where json reads a line
    again: the chunk's lines, if ``_chunk_columns`` refuses their objects or
    they hold a value orjson may read apart from json. orjson reads an int
    outside [-2**63, 2**64) as the float of equal value (one just past the
    float range as the largest float); the rules judge it apart only as a
    night count, a rate equal to the largest float, or a numeric, fixed or
    scale-variant value not strictly within +-the largest float (as NaN and
    the infinities are, which break a rule anyway)."""
    objs = [obj for _, _, obj in chunk]
    columns = _chunk_columns(objs, schema)
    big = sys.float_info.max
    if (columns is None or not set(map(type, columns["num_nights"])) <= {int}
            or big in columns["exchange_rates"]
            or any(a.size and not -big < a.min() <= a.max() < big
                   for a in (columns["numeric"], columns["fixed"], columns["scalevariant"]))):
        objs = [json.loads(line) for _, line, _ in chunk]
        columns = _chunk_columns(objs, schema)
    fault = None
    if columns is None:
        k, fault = next((k, ValidationError(message)) for k, obj in enumerate(objs)
                        if (message := _type_fault(obj, schema)) is not None)
        chunk, columns = chunk[:k], _chunk_columns(objs[:k], schema)
    chunks.append(columns)
    lines.extend(lineno for lineno, _, _ in chunk)
    return fault


# json's decoder recurses once per level of nesting and raises RecursionError
# near the interpreter's recursion limit (1000); orjson nests without a limit.
# A line with more opening brackets than this is parsed by json alone. A
# valid record has at most 3 * MAX_ITEMS_PER_QUERY + 3.
_ORJSON_MAX_BRACKETS = 200


def _parse_line(line: str, fast_loads):
    """``fast_loads(line)`` (``orjson.loads``), or ``json.loads(line)``'s
    object or exception where orjson refuses the line (NaN, the infinities,
    a number beyond float64, a lone surrogate escape, a BOM, a syntax error)
    or it may nest beyond json's reach. ``_read_chunk`` decides when json
    reads a line that orjson read."""
    if line.count("{") + line.count("[") <= _ORJSON_MAX_BRACKETS:
        try:
            return fast_loads(line)
        except json.JSONDecodeError:  # orjson.JSONDecodeError subclasses it
            pass
    return json.loads(line)


def load_dataset(path, schema: FeatureSchema) -> Dataset:
    """Read a UTF-8 JSONL dataset, validating every record against the
    schema; query ids must be unique within the file. The file is read once,
    by orjson where it can (``_parse_line``), into columns
    ``LOAD_CHUNK_QUERIES`` queries at a time, with json's results and
    messages (``_read_chunk``). Reading stops at the first fault that JSON or
    the text decoder decides, and the columns read are checked once, so the
    first error in file order is raised."""
    columns, lines, fault = _read_columns(path, schema)
    _check_columns(schema, lines, "lines", **columns)
    if fault:
        raise fault
    return Dataset._of_columns(schema, **columns)


def _read_columns(path, schema: FeatureSchema) -> tuple[dict, list[int], Exception | None]:
    """The columns of ``path``'s lines up to its first fault that JSON or the
    text decoder decides, their line numbers, and that fault (or None); the
    chunks' columns are freed on return, before the check."""
    import orjson  # here, not on ``import sirank``: only a reader of JSONL pays for it

    chunks, lines, chunk, fault = [], [], [], None
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = _parse_line(line, orjson.loads)
                    bad = None if isinstance(obj, dict) else "expected a JSON object"
                except json.JSONDecodeError as exc:
                    bad = exc.msg
                except (RecursionError, ValueError) as exc:  # json's nesting or int-digit limit
                    bad = str(exc)
                if bad:
                    fault = ParseError(f"{path}: line {lineno}: {bad}")
                    break
                chunk.append((lineno, line, obj))
                if len(chunk) == LOAD_CHUNK_QUERIES:
                    fault, chunk = _read_chunk(chunk, schema, chunks, lines), []
                    if fault:
                        break
        except UnicodeDecodeError as exc:  # the text decoder raises it as the loop reads the file
            fault = ParseError(f"{path}: not {exc.encoding} text ({exc.reason})")
    fault = _read_chunk(chunk, schema, chunks, lines) or fault
    return _joined_chunks(chunks), lines, fault


def _object_template(fields: list[tuple[str, str]]) -> tuple[str, list[int]]:
    """The %-format template of a JSON object of ``fields``' (name, value
    format) pairs, keys in sorted order as ``json.dumps(..., sort_keys=True)``
    writes them, and the positions of the fields in that order."""
    order = sorted(range(len(fields)), key=lambda i: fields[i][0])
    return "{" + ", ".join(encode_basestring_ascii(fields[i][0]).replace("%", "%%") + ": "
                           + fields[i][1] for i in order) + "}", order


# orjson writes a float64 as ``repr`` does, the shortest text that reads back
# to it, at a magnitude in [1e-4, 1e16) and at 0; outside that range its
# notation differs (``0.00001`` for ``1e-05``, ``1e16`` for ``1e+16``).
_ORJSON_AS_REPR = (1e-4, 1e16)


def _float_texts(values: np.ndarray) -> list[str]:
    """The text ``repr`` writes for each float of the 1-D float64 ``values``:
    orjson's, from one call, and ``repr``'s for a magnitude outside
    ``_ORJSON_AS_REPR`` (0 included: its texts agree)."""
    import orjson  # here, not on ``import sirank``: only a writer of JSONL pays for it

    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    low, high = _ORJSON_AS_REPR
    magnitude = np.abs(values)
    for i in np.flatnonzero((magnitude < low) | (magnitude >= high)).tolist():
        texts[i] = repr(float(values[i]))
    return texts


def save_dataset(ds: Dataset, path):
    """Write the raw records as JSONL, one query object per line: each line
    is ``json.dumps(record, sort_keys=True)``, filled into templates made
    once from the schema. A query's floats are written as ``repr`` writes
    them, as json does (``_float_texts``: one orjson call per query)."""
    schema = ds.schema
    n, k1 = len(schema.numeric_query_names), schema.k1
    query, query_order = _object_template(
        [(name, "%s") for name in schema.numeric_query_names]
        + [(f.name, "%d") for f in schema.categorical_query_features])
    fixed, fixed_order = _object_template([(name, "%s") for name in schema.item_features_fixed])
    sv, sv_order = _object_template([(name, "%s") for name in schema.item_features_scalevariant])
    line = ('{"exchange_rate": %s, "items": [%s], "num_nights": %d, "query": ' + query
            + ', "query_id": %s}\n')
    item = '{"fixed": ' + fixed + ', "item_id": %s, "label": %d, "scalevariant": ' + sv + "}"
    # the columns of [fixed | scalevariant] in the item template's order
    width = k1 + schema.k2
    table = np.hstack([ds.fixed, ds.scalevariant])[:, [*fixed_order, *(k1 + i for i in sv_order)]]
    query_floats = np.hstack([ds.exchange_rates[:, None], ds.numeric])
    with open(path, "w") as fh:
        for (a, b), floats, categories, nights, qid in zip(
                pairwise(ds.offsets.tolist()), query_floats, ds.category_ids.tolist(),
                ds.num_nights, ds.query_ids):
            # the rate, the numeric query values, then each item's row
            texts = _float_texts(np.concatenate((floats, table[a:b]), axis=None))
            rows = [texts[j:j + width] for j in range(n + 1, len(texts), width)]
            for row, item_id, label in zip(rows, ds.item_ids[a:b], ds.labels[a:b].tolist()):
                row[k1:k1] = encode_basestring_ascii(item_id), label
            values = texts[1:n + 1] + categories
            fh.write(line % (texts[0], ", ".join([item % tuple(row) for row in rows]), nights,
                             *[values[k] for k in query_order], encode_basestring_ascii(qid)))


# ---------------------------------------------------------------------------
# standardization

@dataclass(frozen=True)
class StandardizationStats:
    """Train-split mean and std for every deep-path numeric feature.

    Scale-variant stats are present only when the stats were fitted for a
    deep-only model, which standardizes those features into its dense stack.
    A scale-invariant model never standardizes them, so there they stay None.
    """

    numeric_names: tuple[str, ...]
    numeric_mean: np.ndarray
    numeric_std: np.ndarray
    fixed_names: tuple[str, ...]
    fixed_mean: np.ndarray
    fixed_std: np.ndarray
    scalevariant_names: tuple[str, ...] | None = None
    scalevariant_mean: np.ndarray | None = None
    scalevariant_std: np.ndarray | None = None

    @property
    def covers_scalevariant(self) -> bool:
        return self.scalevariant_names is not None

    def to_json(self) -> dict:
        obj = {
            "numeric": {n: [float(m), float(s)] for n, m, s in
                        zip(self.numeric_names, self.numeric_mean, self.numeric_std)},
            "fixed": {n: [float(m), float(s)] for n, m, s in
                      zip(self.fixed_names, self.fixed_mean, self.fixed_std)},
        }
        if self.covers_scalevariant:
            obj["scalevariant"] = {n: [float(m), float(s)] for n, m, s in
                                   zip(self.scalevariant_names, self.scalevariant_mean,
                                       self.scalevariant_std)}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "StandardizationStats":
        def unpack(d):
            names = tuple(d.keys())
            mean = np.array([d[n][0] for n in names], dtype=np.float64)
            std = np.array([d[n][1] for n in names], dtype=np.float64)
            return names, mean, std

        nn, nm, ns = unpack(obj["numeric"])
        fn, fm, fs = unpack(obj["fixed"])
        kwargs = {}
        if "scalevariant" in obj:
            sn, sm, ss = unpack(obj["scalevariant"])
            kwargs = {"scalevariant_names": sn, "scalevariant_mean": sm, "scalevariant_std": ss}
        return cls(numeric_names=nn, numeric_mean=nm, numeric_std=ns,
                   fixed_names=fn, fixed_mean=fm, fixed_std=fs, **kwargs)


def _fit_columns(rows: np.ndarray, names) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):  # reported per feature below
        mean, std = rows.mean(axis=0), rows.std(axis=0)
    for name, m, s in zip(names, mean, std):
        if not (np.isfinite(m) and np.isfinite(s)):
            raise ValidationError(f"feature {name!r} has a non-finite mean or standard "
                                  "deviation on the training split")
        if s <= 0.0:
            raise ValidationError(f"feature {name!r} has zero variance on the training split")
    return mean, std


def fit_standardization(train: Dataset, schema: FeatureSchema,
                        include_scalevariant: bool = False) -> StandardizationStats:
    """Fit per-feature mean/std on the training split only.

    include_scalevariant covers the deep-only baseline, whose dense stack
    consumes standardized scale-variant values. Invariant models must fit
    with the default so the stats cover exactly their deep-path features.
    """
    if schema != train.schema:
        raise SchemaError("fit_standardization needs the dataset's own schema")
    if len(train) == 0:
        raise ValidationError("cannot fit standardization on an empty dataset")
    n_mean, n_std = _fit_columns(train.numeric, schema.numeric_query_names)
    f_mean, f_std = _fit_columns(train.fixed, schema.item_features_fixed)
    kwargs = {}
    if include_scalevariant:
        s_mean, s_std = _fit_columns(train.scalevariant, schema.item_features_scalevariant)
        kwargs = {"scalevariant_names": schema.item_features_scalevariant,
                  "scalevariant_mean": s_mean, "scalevariant_std": s_std}
    return StandardizationStats(
        numeric_names=schema.numeric_query_names, numeric_mean=n_mean, numeric_std=n_std,
        fixed_names=schema.item_features_fixed, fixed_mean=f_mean, fixed_std=f_std,
        **kwargs,
    )


def check_stats_schema(stats: StandardizationStats, schema: FeatureSchema,
                       scalevariant: bool = False):
    """Raise SchemaError unless ``stats`` name the schema's deep-path
    features, and its scale-variant ones too if ``scalevariant``."""
    if stats.numeric_names != schema.numeric_query_names:
        raise SchemaError(f"stats cover query numerics {stats.numeric_names}, "
                          f"schema declares {schema.numeric_query_names}")
    if stats.fixed_names != schema.item_features_fixed:
        raise SchemaError(f"stats cover fixed features {stats.fixed_names}, "
                          f"schema declares {schema.item_features_fixed}")
    if stats.covers_scalevariant and stats.scalevariant_names != schema.item_features_scalevariant:
        raise SchemaError("stats cover scale-variant features not in the schema")
    if scalevariant and not stats.covers_scalevariant:
        raise SchemaError("a deep_only model needs stats that cover the scale-variant features")


def apply_standardization(ds: Dataset, stats: StandardizationStats) -> Dataset:
    """``ds`` itself, once ``stats`` are checked against its schema. A model
    carries its own stats, so the package never calls this; it keeps its old
    signature for ``perfbench/workloads.py``, which passes what it returns
    to ``train`` on this tree and on older ones."""
    check_stats_schema(stats, ds.schema)
    return ds


# ---------------------------------------------------------------------------
# splitting

def split_holdout(ds: Dataset, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Split whole queries into train/validation/test at 63/7/30.

    The test share is 30% of everything and validation is 10% of the
    remaining 70%, which nets out to 7% overall.
    """
    n = len(ds)
    if n < 10:
        raise ValidationError(f"need at least 10 queries to split, got {n}")
    n_test = round(0.30 * n)
    n_val = round(0.07 * n)
    n_train = n - n_test - n_val
    perm = np.random.default_rng(seed).permutation(n)

    def take(idx):  # the queries ``idx`` of ds, with their item rows gathered
        starts, ends = ds.offsets[idx], ds.offsets[idx + 1]
        offsets = np.concatenate(([0], np.cumsum(ends - starts)))
        rows = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], ends - starts)
        picked = idx.tolist()
        return Dataset._of_columns(
            ds.schema, query_ids=[ds.query_ids[i] for i in picked], numeric=ds.numeric[idx],
            category_ids=ds.category_ids[idx], num_nights=[ds.num_nights[i] for i in picked],
            exchange_rates=ds.exchange_rates[idx],
            item_ids=[iid for a, b in zip(starts.tolist(), ends.tolist())
                      for iid in ds.item_ids[a:b]],
            fixed=ds.fixed[rows], scalevariant=ds.scalevariant[rows], labels=ds.labels[rows],
            offsets=offsets)

    return tuple(take(np.sort(idx)) for idx in (
        perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]))
