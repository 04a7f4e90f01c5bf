"""Feature schema, frozen raw query records, datasets that check their records
once where they are made, JSONL I/O, splits and standardization stats."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, pairwise
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
# Queries that ``load_dataset`` parses and checks as one block: enough to
# spread numpy's per-call cost, few enough that one block's parsed JSON
# (about 20 kB a query) adds little to peak RSS.
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
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
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


@dataclass(frozen=True)
class Dataset:
    """Queries under one schema. Making one checks its records once, as
    stacked columns (``_check_columns``), and raises the first bad query's
    error; its records are frozen and ``queries`` is a tuple, so a dataset
    stays valid."""

    schema: FeatureSchema
    queries: tuple[QueryRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        columns = [[getattr(q, f.name) for q in self.queries] for f in fields(QueryRecord)]
        _check_columns(self.schema, columns, range(len(self)), "positions", {})

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


_NO_QUERY_ID = "record without a non-empty string query_id"
_NO_ITEM_ID = "item without a non-empty string item_id"


def _unchecked(cls, base=(), **fields):
    """``cls(**base, **fields)`` without ``__post_init__``'s checks: for valid,
    read-only values only."""
    obj = object.__new__(cls)
    obj.__dict__.update(base, **fields)
    return obj


def _is_number(v) -> bool:
    """A JSON number that converts to float64: a float, or an int that is
    not a bool and not too large for a float."""
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _check_columns(schema: FeatureSchema, columns: list[list], places, unit: str, seen: dict):
    """Raise the first broken rule of the first query that breaks a rule of
    a Dataset. ``columns`` holds one sequence per ``QueryRecord`` field, in
    field order, with one entry (or array row) per query. A repeated query
    id is named by the ``unit`` ("positions" or "lines") of its ``places``,
    or of ``seen``, which maps the ids of queries checked before to theirs.
    Each rule is one boolean per query. Array shapes and the category ids'
    dtype come first: the other rules read the stacked columns, so the
    queries before a bad shape are checked on their own first."""
    qids, numeric, category_ids, nights, rates, item_ids, fixed, sv, labels = columns
    cats, sizes = schema.categorical_query_features, [len(ids) for ids in item_ids]
    arrays = {"numeric": numeric, "category_ids": category_ids, "fixed": fixed,
              "scalevariant": sv, "labels": labels}
    n, c, k1, k2 = len(schema.numeric_query_names), len(cats), schema.k1, schema.k2

    def shapes(d):  # of the arrays of a query of d items, in ``arrays`` order
        return (n,), (c,), (d, k1), (d, k2), (d,)

    structure = [(a.shape, b.shape, f.shape, s.shape, y.shape) != shapes(d)
                 or b.dtype.kind not in "iu" for a, b, f, s, y, d in zip(*arrays.values(), sizes)]
    if True in structure:  # a shape or a dtype that only a hand-built record can have
        k = structure.index(True)
        _check_columns(schema, [column[:k] for column in columns], places[:k], unit, seen)
        for (name, column), want in zip(arrays.items(), shapes(sizes[k])):
            if column[k].shape != want:
                expected = f"(D, K) = {want}" if len(want) == 2 else f"{want}"
                raise ContractError(f"query {qids[k]}: {name} array has shape "
                                    f"{list(column[k].shape)}, expected {expected}")
        raise DomainError(f"query {qids[k]}: category ids must be integers, "
                          f"got dtype {category_ids[k].dtype}")
    if not qids:
        return
    offsets = [0, *accumulate(sizes)]
    numeric, category_ids = np.asarray(numeric), np.asarray(category_ids)  # stacked: same shapes
    fixed, sv, labels = (np.concatenate(a) for a in (fixed, sv, labels))
    ids_ok = [set(map(type, ids)) <= {str} and all(ids) for ids in item_ids]
    keys = [q if type(q) is str and q else None for q in qids]
    first = dict(zip(reversed(keys), range(len(qids) - 1, -1, -1)))
    label_ok = (labels == 0) | (labels == 1)

    def per_query(rows, reduce=np.logical_and, pad=True):
        # the pad row gives an empty last query an index to read; an empty
        # query reads a wrong row, but it breaks the items count rule first
        return reduce.reduceat(np.concatenate((rows, [pad])), offsets[:-1])

    booked = per_query(labels == 1, np.add, 0)

    def item(i, row_ok):  # "item <id>: " of query i's first item whose row breaks a rule
        j = int(np.argmin(row_ok[offsets[i]:offsets[i + 1]]))
        return f"item {item_ids[i][j]}: ", offsets[i] + j

    def values_rule(values, ok, names, rules, what, per_item):
        """(holds, message) of the rule "feature k of ``names`` must be ``rules[k]``",
        kept where ``ok(values)``; a row is an item if ``per_item``."""
        row_ok = ok(values).all(axis=1)

        def message(i):
            prefix, row = item(i, row_ok) if per_item else ("", i)
            k = int(np.argmin(ok(values[row])))  # the row it names, tested again
            return f"{prefix}{what} {names[k]!r} must be {rules[k]}, got {values[row, k]}"
        return (per_query(row_ok) if per_item else row_ok), message

    def repeated(i):  # an item id of query i that repeats
        return next(iid for j, iid in enumerate(item_ids[i]) if iid in item_ids[i][:j])

    # (holds, message) per rule, in order; holds[i]: query i keeps the rule
    rules = [
        ([key is not None for key in keys], None),
        values_rule(numeric, np.isfinite, schema.numeric_query_names, ["finite"] * n,
                    "query feature", False),
        values_rule(category_ids, lambda a: (a >= 0) & (a < [f.cardinality for f in cats]),
                    [f.name for f in cats], [f"an id in [0, {f.cardinality})" for f in cats],
                    "query feature", False),
        ([_is_int(v) and 0 < v <= sys.float_info.max for v in nights],
         lambda i: "num_nights must be a positive integer"),
        ([_is_number(v) and math.isfinite(v) and v > 0 for v in rates],
         lambda i: "exchange_rate must be a positive finite number"),
        ([MIN_ITEMS_PER_QUERY <= d <= MAX_ITEMS_PER_QUERY for d in sizes], lambda i: (
            f"items count {sizes[i]} outside [{MIN_ITEMS_PER_QUERY}, {MAX_ITEMS_PER_QUERY}]")),
        (ids_ok, lambda i: _NO_ITEM_ID),
        ([not good or len(set(ids)) == len(ids) for good, ids in zip(ids_ok, item_ids)],
         lambda i: f"item {repeated(i)}: duplicate item_id"),
        values_rule(fixed, lambda a: np.isfinite(a) & (a > 0), schema.item_features_fixed,
                    ["finite and > 0"] * k1, "fixed feature", True),
        values_rule(sv, lambda a: np.isfinite(a) & (a >= SMALLEST_NORMAL),
                    schema.item_features_scalevariant,
                    ["finite and at least the smallest normal float64"] * k2,
                    "scale-variant feature", True),
        (per_query(label_ok), lambda i: f"{item(i, label_ok)[0]}label must be 0 or 1"),
        (booked > 0, lambda i: "no booked item"),
        (booked < 2, lambda i: "multiple booked items"),
        ([q not in seen and first[q] == i for i, q in enumerate(keys)],
         lambda i: f"duplicate query_id ({unit} {seen.get(qids[i], places[first[qids[i]]])} "
                   f"and {places[i]})"),
    ]
    broken = ~np.array([holds for holds, _ in rules], dtype=bool)
    if broken.any():
        i = int(np.argmax(broken.any(axis=0)))
        message = rules[int(np.argmax(broken[:, i]))][1]
        raise ValidationError(_NO_QUERY_ID if message is None else f"query {qids[i]}: {message(i)}")


def rescale_records(queries: tuple[QueryRecord, ...], columns, factors: list[np.ndarray],
                    what: str) -> tuple[QueryRecord, ...]:
    """``queries`` with scale-variant ``columns`` multiplied by each array of
    ``factors`` in turn (one value per query each); every other array is
    shared. A query holding a product that is not finite, or one below
    ``SMALLEST_NORMAL``, raises ValidationError for the first such query:
    "query <id>: <what> a scale-variant value beyond the float64 range" (or
    "below the smallest normal float64")."""
    if not queries:
        return ()
    # each query gets its own array, made before the stack: the stack is then
    # the last block made and the first freed, and leaves no hole under
    # them (about 0.3 MB less peak RSS in a cli_evaluate benchmark run)
    outs = [np.empty(q.scalevariant.shape) for q in queries]
    stacked = np.concatenate([q.scalevariant for q in queries], dtype=np.float64)
    sizes = [len(out) for out in outs]
    per_row = [np.repeat(f, sizes) for f in factors]
    with np.errstate(over="ignore"):  # an overflow is reported as a data error below
        for k in columns:
            column = stacked[:, k]  # a view: the products land in stacked
            for f in per_row:
                column *= f
    if not (np.isfinite(stacked).all() and (stacked >= SMALLEST_NORMAL).all()):
        starts = np.cumsum([0] + sizes[:-1])
        finite = np.logical_and.reduceat(np.isfinite(stacked).all(axis=1), starts)
        normal = np.logical_and.reduceat((stacked >= SMALLEST_NORMAL).all(axis=1), starts)
        i = int(np.argmin(finite & normal))
        where = "below the smallest normal float64" if finite[i] else "beyond the float64 range"
        raise ValidationError(f"query {queries[i].query_id}: {what} a scale-variant value {where}")
    rescaled, start = [], 0
    for q, out in zip(queries, outs):
        out[...] = stacked[start:start + len(out)]
        out.setflags(write=False)
        rescaled.append(_unchecked(QueryRecord, vars(q), scalevariant=out))
        start += len(out)
    return tuple(rescaled)


# ---------------------------------------------------------------------------
# JSONL I/O

def _is_category_id(v) -> bool:
    """An integer that a category id column (int64) can hold."""
    return _is_int(v) and -2 ** 63 <= v < 2 ** 63


def _float_column(values: list, shape) -> np.ndarray | None:
    """``values`` as a float64 array of ``shape``, or None unless every value
    is a JSON number (``_is_number``)."""
    if not set(map(type, values)) <= {float, int}:
        return None
    try:
        return np.array(values, dtype=np.float64).reshape(shape)
    except OverflowError:  # an int too large for a float
        return None


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


def _chunk_columns(objs: list[dict], schema: FeatureSchema) -> list[list] | None:
    """The columns of the query objects ``objs`` as ``_check_columns`` takes
    them, item arrays as row views into one array per group; None if a key
    is missing, a value has the wrong JSON type or a feature is not in the
    schema (the faults ``_type_fault`` names). Values are not checked: a
    label that is not a number becomes NaN."""
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
    spans = list(pairwise([0, *accumulate(map(len, items))]))
    # tuples of list slices are made at their final size; long-lived tuples
    # grown from generators fragmented the heap and raised peak RSS
    return [qids, numeric, np.array(cat_values, dtype=np.int64).reshape(len(objs), len(cats)),
            [obj.get("num_nights") for obj in objs], [obj.get("exchange_rate") for obj in objs],
            [tuple(item_ids[a:b]) for a, b in spans],
            *([column[a:b] for a, b in spans] for column in (fixed, sv, labels))]


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
    """The message of the first fault in the query object ``obj`` that
    makes ``_chunk_columns`` refuse it, or None: what JSON decides, never a
    value."""
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


def _load_chunk(chunk: list[tuple[int, dict]], schema: FeatureSchema,
                first_line: dict[str, int]) -> list[QueryRecord]:
    """The records of ``chunk``'s (line number, JSON object) pairs, checked by
    ``_check_columns``; ``first_line`` maps the ids loaded so far to their
    lines. ``_type_fault`` names a fault that JSON decides, after the queries
    before it are checked: the first error in file order is raised."""
    objs = [obj for _, obj in chunk]
    columns = _chunk_columns(objs, schema)
    if columns is None:
        k, fault = next((k, fault) for k, obj in enumerate(objs)
                        if (fault := _type_fault(obj, schema)) is not None)
        _load_chunk(chunk[:k], schema, first_line)
        raise ValidationError(fault)
    lines = [lineno for lineno, _ in chunk]
    _check_columns(schema, columns, lines, "lines", first_line)
    first_line.update(zip(columns[0], lines))
    return [QueryRecord(*f[:4], float(f[4]), *f[5:]) for f in zip(*columns)]


def load_dataset(path, schema: FeatureSchema) -> Dataset:
    """Read a JSONL dataset, validating every record against the schema;
    query ids must be unique within the file. Lines are parsed and checked
    ``LOAD_CHUNK_QUERIES`` queries at a time."""
    queries = []
    first_line: dict[str, int] = {}
    chunk: list[tuple[int, dict]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                fault = None if isinstance(obj, dict) else "expected a JSON object"
            except json.JSONDecodeError as exc:
                fault = exc.msg
            if fault:
                _load_chunk(chunk, schema, first_line)  # an error on an earlier line wins
                raise ParseError(f"{path}: line {lineno}: {fault}")
            chunk.append((lineno, obj))
            if len(chunk) == LOAD_CHUNK_QUERIES:
                queries += _load_chunk(chunk, schema, first_line)
                chunk = []
    queries += _load_chunk(chunk, schema, first_line)
    return _unchecked(Dataset, schema=schema, queries=tuple(queries))


def _object_template(fields: list[tuple[str, str]]) -> tuple[str, list[int]]:
    """The %-format template of a JSON object of ``fields``' (name, value
    format) pairs, keys in sorted order as ``json.dumps(..., sort_keys=True)``
    writes them, and the positions of the fields in that order."""
    order = sorted(range(len(fields)), key=lambda i: fields[i][0])
    return "{" + ", ".join(encode_basestring_ascii(fields[i][0]).replace("%", "%%") + ": "
                           + fields[i][1] for i in order) + "}", order


def save_dataset(ds: Dataset, path):
    """Write the raw records as JSONL, one query object per line: each line
    is ``json.dumps(record, sort_keys=True)``, filled into templates made
    once from the schema. A Dataset's values are finite, so ``%r`` (a
    Python float's repr) writes each float as json does."""
    schema = ds.schema
    query, query_order = _object_template(
        [(name, "%r") for name in schema.numeric_query_names]
        + [(f.name, "%d") for f in schema.categorical_query_features])
    fixed, fixed_order = _object_template([(name, "%r") for name in schema.item_features_fixed])
    sv, sv_order = _object_template([(name, "%r") for name in schema.item_features_scalevariant])
    line = ('{"exchange_rate": %r, "items": [%s], "num_nights": %d, "query": ' + query
            + ', "query_id": %s}\n')
    item = '{"fixed": ' + fixed + ', "item_id": %s, "label": %d, "scalevariant": ' + sv + "}"
    # the columns of [fixed | scalevariant | label] in the item template's order
    columns = [*fixed_order, schema.k1 + schema.k2, *(schema.k1 + i for i in sv_order)]
    with open(path, "w") as fh:
        for q in ds.queries:
            rows = np.hstack([q.fixed, q.scalevariant, q.labels[:, None]],
                             dtype=np.float64)[:, columns].tolist()
            for row, item_id in zip(rows, q.item_ids):
                row.insert(schema.k1, encode_basestring_ascii(item_id))
            # category ids are below MAX_EMBEDDING_VALUES, so exact as float64
            values = np.concatenate([q.numeric, q.category_ids], dtype=np.float64)[query_order]
            fh.write(line % (float(q.exchange_rate), ", ".join([item % tuple(r) for r in rows]),
                             q.num_nights, *values.tolist(), encode_basestring_ascii(q.query_id)))


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
    if len(train) == 0:
        raise ValidationError("cannot fit standardization on an empty dataset")
    numeric_rows = np.stack([q.numeric for q in train.queries])
    fixed_rows = np.concatenate([q.fixed for q in train.queries])
    n_mean, n_std = _fit_columns(numeric_rows, schema.numeric_query_names)
    f_mean, f_std = _fit_columns(fixed_rows, schema.item_features_fixed)
    kwargs = {}
    if include_scalevariant:
        sv_rows = np.concatenate([q.scalevariant for q in train.queries])
        s_mean, s_std = _fit_columns(sv_rows, schema.item_features_scalevariant)
        kwargs = {"scalevariant_names": schema.item_features_scalevariant,
                  "scalevariant_mean": s_mean, "scalevariant_std": s_std}
    return StandardizationStats(
        numeric_names=schema.numeric_query_names, numeric_mean=n_mean, numeric_std=n_std,
        fixed_names=schema.item_features_fixed, fixed_mean=f_mean, fixed_std=f_std,
        **kwargs,
    )


def check_stats_schema(stats: StandardizationStats, schema: FeatureSchema):
    """Raise SchemaError unless ``stats`` name the schema's deep-path features."""
    if stats.numeric_names != schema.numeric_query_names:
        raise SchemaError(f"stats cover query numerics {stats.numeric_names}, "
                          f"schema declares {schema.numeric_query_names}")
    if stats.fixed_names != schema.item_features_fixed:
        raise SchemaError(f"stats cover fixed features {stats.fixed_names}, "
                          f"schema declares {schema.item_features_fixed}")
    if stats.covers_scalevariant and stats.scalevariant_names != schema.item_features_scalevariant:
        raise SchemaError("stats cover scale-variant features not in the schema")


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
    idx_train = np.sort(perm[:n_train])
    idx_val = np.sort(perm[n_train:n_train + n_val])
    idx_test = np.sort(perm[n_train + n_val:])

    return tuple(_unchecked(Dataset, schema=ds.schema, queries=tuple(ds.queries[i] for i in idx))
                 for idx in (idx_train, idx_val, idx_test))
