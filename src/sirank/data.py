"""Feature schema, raw query/item records, JSONL I/O, splits and the stats
that ``scoring.prepare_dataset`` standardizes deep-path inputs with."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, ParseError, SchemaError, ValidationError

MAX_ITEMS_PER_QUERY = 25
MIN_ITEMS_PER_QUERY = 2
MAX_EMBEDDING_VALUES = 10 ** 7  # values in one embedding table or dense weight


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


@dataclass
class QueryRecord:
    """One query and its D items; row j of every item array belongs to
    item ``item_ids[j]``."""

    query_id: str
    numeric: np.ndarray        # raw numeric query values, schema order
    category_ids: np.ndarray   # int ids, schema categorical order
    num_nights: int
    exchange_rate: float
    item_ids: tuple[str, ...]
    fixed: np.ndarray          # raw, strictly positive, (D, K1)
    scalevariant: np.ndarray   # raw, strictly positive, (D, K2)
    labels: np.ndarray         # 1.0 for the booked item, else 0.0, (D,)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def booked_index(self) -> int:
        booked = np.flatnonzero(self.labels == 1.0)
        if booked.size == 0:
            raise ValidationError(f"query {self.query_id}: no booked item")
        return int(booked[0])


@dataclass
class Dataset:
    schema: FeatureSchema
    queries: list[QueryRecord]
    stats: "StandardizationStats | None" = None

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


# ---------------------------------------------------------------------------
# JSONL I/O

def _require(cond: bool, query_id: str, rule: str):
    if not cond:
        raise ValidationError(f"query {query_id}: {rule}")


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


def _item_matrix(raw_items: list, group: str, names: tuple[str, ...]) -> np.ndarray | None:
    """One feature group of every item as a (D, len(names)) matrix, or None
    if any item lacks the group or one of its features, has a feature the
    schema does not name, or holds a value that is not a finite positive
    JSON number."""
    try:
        if {len(raw[group]) for raw in raw_items} != {len(names)}:
            return None
        values = [raw[group][name] for raw in raw_items for name in names]
        types = {type(v) for v in values}
        if not types <= {float, int} or (int in types and not all(map(_is_number, values))):
            return None
        out = np.array(values, dtype=np.float64).reshape(len(raw_items), len(names))
    except (KeyError, TypeError, OverflowError):
        return None
    return out if _finite_positive(out) else None


def _item_arrays(raw_items: list, schema: FeatureSchema):
    """A query's item ids, fixed and scale-variant matrices and labels,
    each checked as one array; None if any check fails."""
    if not all(type(raw) is dict for raw in raw_items):
        return None
    # tuple() of a generator grows the tuple by reallocation; those
    # long-lived tuples fragmented the heap, and peak RSS crept up by
    # about 4 MB over a few hundred loads of one file
    item_ids = tuple([raw.get("item_id") for raw in raw_items])
    if ({type(iid) for iid in item_ids} != {str} or not all(item_ids)
            or len(set(item_ids)) != len(item_ids)):
        return None
    labels = [raw.get("label") for raw in raw_items]
    if not ({type(v) for v in labels} <= {int, float} and set(labels) <= {0, 1}):
        return None
    fixed = _item_matrix(raw_items, "fixed", schema.item_features_fixed)
    sv = _item_matrix(raw_items, "scalevariant", schema.item_features_scalevariant)
    if fixed is None or sv is None:
        return None
    return item_ids, fixed, sv, np.array(labels, dtype=np.float64)


def _item_arrays_checked(raw_items: list, schema: FeatureSchema, qid: str):
    """``_item_arrays`` item by item, raising ValidationError with the rule
    at the first item that breaks one."""
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

    nights = obj.get("num_nights")
    _require(_is_int(nights) and _is_number(nights) and nights > 0, qid,
             "num_nights must be a positive integer")
    rate = obj.get("exchange_rate")
    _require(_is_number(rate) and math.isfinite(rate) and rate > 0,
             qid, "exchange_rate must be a positive finite number")

    raw_items = obj.get("items")
    _require(isinstance(raw_items, list), qid, "missing items list")
    _require(MIN_ITEMS_PER_QUERY <= len(raw_items) <= MAX_ITEMS_PER_QUERY, qid,
             f"items count {len(raw_items)} outside [{MIN_ITEMS_PER_QUERY}, {MAX_ITEMS_PER_QUERY}]")

    item_ids, fixed, sv, labels = (_item_arrays(raw_items, schema)
                                   or _item_arrays_checked(raw_items, schema, qid))

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


def load_dataset(path, schema: FeatureSchema) -> Dataset:
    """Read a JSONL dataset, validating every record against the schema;
    query ids must be unique within the file."""
    queries = []
    first_line: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: line {lineno}: expected a JSON object")
            q = _parse_query_obj(obj, schema)
            _require(q.query_id not in first_line, q.query_id,
                     f"duplicate query_id (lines {first_line.get(q.query_id)} and {lineno})")
            first_line[q.query_id] = lineno
            queries.append(q)
    return Dataset(schema=schema, queries=queries)


def _query_to_obj(q: QueryRecord, schema: FeatureSchema) -> dict:
    qvals: dict = {}
    for name, v in zip(schema.numeric_query_names, q.numeric):
        qvals[name] = float(v)
    for f, v in zip(schema.categorical_query_features, q.category_ids):
        qvals[f.name] = int(v)
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


def save_dataset(ds: Dataset, path):
    """Write the raw records as JSONL, one query object per line (records
    stay raw, so a view with stats writes the same bytes)."""
    with open(path, "w") as fh:
        for q in ds.queries:
            fh.write(json.dumps(_query_to_obj(q, ds.schema), sort_keys=True))
            fh.write("\n")


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
    """Return a view of ``ds`` that carries ``stats`` and shares its records,
    for ``train`` to build its model from; no value changes, since
    ``scoring.prepare_dataset`` standardizes from the model's stats. Stats
    for other features, or a view that already has stats, are refused."""
    if ds.stats is not None:
        raise ContractError("dataset is already standardized")
    check_stats_schema(stats, ds.schema)
    return Dataset(schema=ds.schema, queries=list(ds.queries), stats=stats)


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

    def take(idx):
        return Dataset(schema=ds.schema, queries=[ds.queries[i] for i in idx])

    return take(idx_train), take(idx_val), take(idx_test)
