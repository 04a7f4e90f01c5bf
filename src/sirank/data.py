"""Feature schema, frozen raw query records, datasets that check their records
once where they are made, JSONL I/O, splits and standardization stats."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
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
    stacked columns (``_valid_columns``), and raises the first bad query's
    error (``_raise_first_bad``); its records are frozen and ``queries`` is
    a tuple, so a dataset stays valid."""

    schema: FeatureSchema
    queries: tuple[QueryRecord, ...]

    def __post_init__(self):
        queries = tuple(self.queries)
        object.__setattr__(self, "queries", queries)
        try:
            columns = [np.stack([q.numeric for q in queries]),
                       np.stack([q.category_ids for q in queries]),
                       *(np.concatenate([getattr(q, group) for q in queries])
                         for group in ("fixed", "scalevariant", "labels"))]
        except ValueError:  # arrays of different shapes, or no queries
            columns = None
        if columns is None or not _valid_columns(
                self.schema, *columns, [q.n_items for q in queries],
                [q.num_nights for q in queries], [q.exchange_rate for q in queries]):
            _raise_first_bad(self.schema, queries)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


def _unchecked(cls, base=(), **fields):
    """``cls(**base, **fields)`` without ``__post_init__``'s checks: for valid,
    read-only values only."""
    obj = object.__new__(cls)
    obj.__dict__.update(base, **fields)
    return obj


def _valid_columns(schema: FeatureSchema, numeric, category_ids, fixed, scalevariant,
                   labels, sizes: list[int], nights: list, rates: list) -> bool:
    """Whether the stacked arrays of queries of ``sizes`` items, and their
    ``nights`` and ``rates``, keep every rule of a Dataset: the array shapes,
    at least one item per query, integer category ids within the cardinalities,
    finite numerics, finite fixed values > 0, finite scale-variant values >=
    ``SMALLEST_NORMAL``, labels of 0 or 1 with one 1 per query, ``_check_stay``."""
    n, cats = sum(sizes), schema.categorical_query_features
    return bool([a.shape for a in (numeric, category_ids, fixed, scalevariant, labels)] == [
        (len(sizes), len(schema.numeric_query_names)), (len(sizes), len(cats)),
        (n, schema.k1), (n, schema.k2), (n,)]
        and min(sizes) > 0 and np.isfinite(numeric).all()
        and np.issubdtype(category_ids.dtype, np.integer)
        and ((category_ids >= 0) & (category_ids < [f.cardinality for f in cats])).all()
        and _finite_positive(fixed)
        and np.isfinite(scalevariant).all() and (scalevariant >= SMALLEST_NORMAL).all()
        and ((labels == 0.0) | (labels == 1.0)).all()
        and (np.add.reduceat(labels, np.cumsum([0] + sizes[:-1])) == 1.0).all()
        and all(map(_positive_int, nights)) and all(map(_positive_finite, rates)))


def _raise_first_bad(schema: FeatureSchema, queries: tuple[QueryRecord, ...]):
    """Check ``_valid_columns``' rules one query at a time, in order, and
    raise the error of the first one a query breaks."""
    cats = schema.categorical_query_features
    names = schema.item_features_fixed + schema.item_features_scalevariant
    for q in queries:
        d = q.n_items
        for group, want in (("numeric", (len(schema.numeric_query_names),)),
                            ("category_ids", (len(cats),)), ("fixed", (d, schema.k1)),
                            ("scalevariant", (d, schema.k2)), ("labels", (d,))):
            shape = np.shape(getattr(q, group))
            if shape != want:
                expected = f"(D, K) = {want}" if len(want) == 2 else f"{want}"
                raise ContractError(f"query {q.query_id}: {group} array has shape "
                                    f"{list(shape)}, expected {expected}")
        if d == 0:
            raise ContractError("cannot score an empty item selection")
        if not np.issubdtype(q.category_ids.dtype, np.integer):
            raise DomainError(f"query {q.query_id}: category ids must be integers, "
                              f"got dtype {q.category_ids.dtype}")
        for f, cid in zip(cats, q.category_ids):
            if not 0 <= cid < f.cardinality:
                raise DomainError(f"category id {cid} out of range for feature '{f.name}' "
                                  f"(cardinality {f.cardinality})")
        _check_stay(q.query_id, q.num_nights, q.exchange_rate)
        if not (np.isfinite(q.numeric).all() and np.isfinite(q.fixed).all()):
            raise DomainError(f"query {q.query_id}: non-finite deep-path input")
        wide = np.hstack([q.fixed, q.scalevariant])
        not_normal = ~(np.isfinite(wide) & (wide >= SMALLEST_NORMAL))
        not_normal[:, :schema.k1] = False  # a fixed value need only be finite and > 0
        for bad, rule in ((~(wide > 0), "must be > 0"),
                          (not_normal, "must be finite and at least the smallest normal float64")):
            if bad.any():
                j, k = (int(v[0]) for v in np.nonzero(bad))
                raise DomainError(f"query {q.query_id}, item {q.item_ids[j]}: wide-path feature "
                                  f"{names[k]!r} {rule}, got {wide[j, k]}")
        if np.count_nonzero(q.labels == 1.0) != 1 or not np.isin(q.labels, (0.0, 1.0)).all():
            raise ValidationError(f"query {q.query_id}: labels must be 0 or 1 "
                                  "with exactly one booked item")


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

def _require(cond: bool, query_id: str, rule: str):
    if not cond:
        raise ValidationError(f"query {query_id}: {rule}")


def _positive_int(v) -> bool:
    return _is_int(v) and 0 < v <= sys.float_info.max


def _positive_finite(v) -> bool:
    return _is_number(v) and math.isfinite(v) and v > 0


def _check_stay(qid: str, nights, rate):
    _require(_positive_int(nights), qid, "num_nights must be a positive integer")
    _require(_positive_finite(rate), qid, "exchange_rate must be a positive finite number")


def _finite_positive(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all() and (arr > 0).all())


def _is_number(v) -> bool:
    """A JSON number that converts to float64: a float, or an int that is
    not a bool and not too large for a float."""
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _item_features(values, names: tuple[str, ...], qid: str, what: str, out: np.ndarray):
    """Write one item's feature group into the row ``out`` in schema order;
    every value must be a JSON number (not a string, null or boolean), and
    the group must hold no feature that the schema does not name."""
    for i, name in enumerate(names):
        _require(isinstance(values, dict) and name in values, qid, f"missing {what} {name!r}")
        v = values[name]
        _require(_is_number(v), qid, f"{what} {name!r} is not numeric")
        out[i] = float(v)
    extra = sorted(set(values) - set(names)) if isinstance(values, dict) else []
    _require(not extra, qid, f"{what}s not in the schema: {extra}")


def _float_column(values: list) -> np.ndarray | None:
    """``values`` as one float64 array, or None unless every value is a JSON
    number (``_is_number``)."""
    types = set(map(type, values))
    if not types <= {float, int} or (int in types and not all(map(_is_number, values))):
        return None
    return np.array(values, dtype=np.float64)


def _item_matrix(raw_items: list, group: str, names: tuple[str, ...]) -> np.ndarray | None:
    """One feature group of every item as a (D, len(names)) matrix, or None
    if any item lacks the group or one of its features, has a feature the
    schema does not name, or holds a value that is not a JSON number."""
    try:
        groups = [raw[group] for raw in raw_items]
        if set(map(len, groups)) != {len(names)}:
            return None
        out = _float_column([values[name] for values in groups for name in names])
    except (KeyError, TypeError):
        return None
    return None if out is None else out.reshape(len(raw_items), len(names))


def _item_arrays(raw_items: list, schema: FeatureSchema, qid: str):
    """A query's item ids, fixed and scale-variant matrices and labels, read
    item by item, raising ValidationError with the rule at the first item
    that breaks one."""
    d = len(raw_items)
    item_ids = []
    fixed = np.empty((d, schema.k1))
    sv = np.empty((d, schema.k2))
    labels = np.empty(d)
    for j, raw in enumerate(raw_items):
        _require(isinstance(raw, dict), qid, f"item at position {j} is not a JSON object")
        iid = raw.get("item_id")
        _require(isinstance(iid, str) and bool(iid), qid, "item without a string item_id")
        _require(iid not in item_ids, qid, f"item {iid}: duplicate item_id")
        _item_features(raw.get("fixed"), schema.item_features_fixed, qid,
                       f"item {iid}: fixed feature", fixed[j])
        _item_features(raw.get("scalevariant"), schema.item_features_scalevariant, qid,
                       f"item {iid}: scale-variant feature", sv[j])
        _require(_finite_positive(fixed[j]), qid, f"item {iid}: fixed features must be finite and > 0")
        _require(_finite_positive(sv[j]), qid, f"item {iid}: scale-variant features must be finite and > 0")
        _require((sv[j] >= SMALLEST_NORMAL).all(), qid, f"item {iid}: scale-variant feature "
                 "below the smallest normal float64")
        label = raw.get("label")
        _require(label in (0, 1) and not isinstance(label, bool), qid,
                 f"item {iid}: label must be 0 or 1")
        item_ids.append(iid)
        labels[j] = label
    return tuple(item_ids), fixed, sv, labels


def _parse_query_obj(obj: dict, schema: FeatureSchema) -> QueryRecord:
    qid = obj.get("query_id")
    if not isinstance(qid, str) or not qid:
        raise ValidationError("record without a string query_id")
    qvals = obj.get("query")
    _require(isinstance(qvals, dict), qid, "missing query feature object")

    numeric = np.empty(len(schema.numeric_query_names), dtype=np.float64)
    for i, name in enumerate(schema.numeric_query_names):
        _require(name in qvals, qid, f"missing query feature {name!r}")
        v = qvals[name]
        _require(_is_number(v), qid, f"query feature {name!r} is not numeric")
        numeric[i] = float(v)
    _require(bool(np.all(np.isfinite(numeric))), qid, "non-finite query feature value")

    cats = schema.categorical_query_features
    category_ids = np.empty(len(cats), dtype=np.int64)
    for i, f in enumerate(cats):
        _require(f.name in qvals, qid, f"missing query feature {f.name!r}")
        v = qvals[f.name]
        _require(_is_int(v), qid, f"categorical feature {f.name!r} must be an integer id")
        _require(0 <= v < f.cardinality, qid,
                 f"categorical feature {f.name!r} id {v} out of range [0, {f.cardinality})")
        category_ids[i] = v
    known = set(schema.numeric_query_names) | {f.name for f in cats}
    extra = sorted(set(qvals) - known)
    _require(not extra, qid, f"unknown query features {extra}")

    nights, rate = obj.get("num_nights"), obj.get("exchange_rate")
    _check_stay(qid, nights, rate)

    raw_items = obj.get("items")
    _require(isinstance(raw_items, list), qid, "missing items list")
    _require(MIN_ITEMS_PER_QUERY <= len(raw_items) <= MAX_ITEMS_PER_QUERY, qid,
             f"items count {len(raw_items)} outside [{MIN_ITEMS_PER_QUERY}, {MAX_ITEMS_PER_QUERY}]")

    item_ids, fixed, sv, labels = _item_arrays(raw_items, schema, qid)

    booked = int(labels.sum())
    _require(booked != 0, qid, "no booked item")
    _require(booked == 1, qid, "multiple booked items")

    return QueryRecord(
        query_id=qid,
        numeric=numeric,
        category_ids=category_ids,
        num_nights=int(nights),
        exchange_rate=float(rate),
        item_ids=item_ids,
        fixed=fixed,
        scalevariant=sv,
        labels=labels,
    )


def _chunk_records(objs: list[dict], schema: FeatureSchema) -> list[QueryRecord] | None:
    """The queries of ``objs`` as records holding row views into one array
    per column, every rule of ``_parse_query_obj`` checked column-wise over
    the whole chunk (the value rules a Dataset keeps by ``_valid_columns``);
    None if any value breaks one."""
    qids = [obj.get("query_id") for obj in objs]
    qvals = [obj.get("query") for obj in objs]
    cats = schema.categorical_query_features
    n_known = len(schema.numeric_query_names) + len(cats)
    if (set(map(type, qids)) != {str} or not all(qids)
            or not all(type(v) is dict and len(v) == n_known for v in qvals)):
        return None
    try:  # every name present and no others: no unknown query feature
        numeric = _float_column([v[name] for v in qvals for name in schema.numeric_query_names])
        cat_values = [v[f.name] for v in qvals for f in cats]
    except KeyError:
        return None
    if numeric is None or not set(map(type, cat_values)) <= {int}:
        return None
    try:
        category_ids = np.array(cat_values, dtype=np.int64).reshape(len(objs), len(cats))
    except OverflowError:
        return None

    items = [obj.get("items") for obj in objs]
    if not all(type(v) is list for v in items):
        return None
    sizes = [len(v) for v in items]
    raw_items = [raw for v in items for raw in v]
    if (not MIN_ITEMS_PER_QUERY <= min(sizes) <= max(sizes) <= MAX_ITEMS_PER_QUERY
            or not all(type(raw) is dict for raw in raw_items)):
        return None
    item_ids = [raw.get("item_id") for raw in raw_items]
    labels = [raw.get("label") for raw in raw_items]
    if (set(map(type, item_ids)) != {str} or not all(item_ids)
            or not set(map(type, labels)) <= {int, float}):
        return None
    offsets = np.cumsum([0] + sizes).tolist()
    # tuples of list slices are made at their final size; long-lived tuples
    # grown from generators fragmented the heap and raised peak RSS
    ids = [tuple(item_ids[a:b]) for a, b in zip(offsets, offsets[1:])]
    if not all(len(set(t)) == len(t) for t in ids):  # item ids repeat across queries
        return None
    fixed = _item_matrix(raw_items, "fixed", schema.item_features_fixed)
    sv = _item_matrix(raw_items, "scalevariant", schema.item_features_scalevariant)
    labels = np.array(labels, dtype=np.float64)
    numeric = numeric.reshape(len(objs), len(schema.numeric_query_names))
    nights = [obj.get("num_nights") for obj in objs]
    rates = [obj.get("exchange_rate") for obj in objs]
    if (fixed is None or sv is None
            or not _valid_columns(schema, numeric, category_ids, fixed, sv, labels, sizes,
                                  nights, rates)):
        return None
    return [QueryRecord(query_id=qids[i], numeric=numeric[i], category_ids=category_ids[i],
                        num_nights=nights[i], exchange_rate=float(rates[i]), item_ids=ids[i],
                        fixed=fixed[a:b], scalevariant=sv[a:b], labels=labels[a:b])
            for i, (a, b) in enumerate(zip(offsets, offsets[1:]))]


def _load_chunk(chunk: list[tuple[int, dict]], schema: FeatureSchema,
                first_line: dict[str, int]) -> list[QueryRecord]:
    """The records of ``chunk``'s (line number, JSON object) pairs. If the
    column-wise checks fail, the chunk is parsed query by query instead,
    which raises the first error in file order."""
    records = _chunk_records([obj for _, obj in chunk], schema)
    qids = [q.query_id for q in records or ()]
    if records is None or len(set(qids)) != len(qids) or not first_line.keys().isdisjoint(qids):
        records = []
        for lineno, obj in chunk:
            q = _parse_query_obj(obj, schema)
            _require(q.query_id not in first_line, q.query_id,
                     f"duplicate query_id (lines {first_line.get(q.query_id)} and {lineno})")
            first_line[q.query_id] = lineno
            records.append(q)
        return records
    first_line.update(zip(qids, (lineno for lineno, _ in chunk)))
    return records


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
            except json.JSONDecodeError as exc:
                _load_chunk(chunk, schema, first_line)  # an error on an earlier line wins
                raise ParseError(f"{path}: line {lineno}: {exc.msg}") from exc
            if not isinstance(obj, dict):
                _load_chunk(chunk, schema, first_line)
                raise ParseError(f"{path}: line {lineno}: expected a JSON object")
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
