"""Two-part ranking scorer: a deep stack over query and fixed item features
plus a wide bilinear term over a compressed query vector and logged raw item
features. Pairwise score differences from the combined scorer do not move
when every scale-variant value in a query is multiplied by a constant, which
is the property the whole package exists to demonstrate.

The network is fixed, so its forward pass, its backward pass and the SGD
step are written out by hand below. Everything that scores reads one
prepared form: ``prepare_dataset`` stacks every query's item rows into a
``DatasetBlock`` with per-query offsets, standardizes the deep-path inputs
from the model's stats (records stay raw), takes the logs of the wide inputs
and runs the data checks once over the stack (the first bad query in dataset
order names the error). ``forward_block`` scores one query's rows of a block
for a training step; ``score_block`` scores every row, ``EVAL_CHUNK_ROWS``
at a time, so the memory of an evaluation pass does not grow with the
dataset; ``forward`` and ``score_query`` score one query through a
one-query block. Training prepares both of its splits before the first
step, so a bad record is reported before epoch 0. Batched scores match
per-query ones to within a few ulps (matrix products of another shape sum
in another order).

All parameters live in one contiguous float64 vector; ``SirModel.params`` is
a ``ParamVector``, a dict of named views into it in build order. ``backward``
writes gradients with the same layout, into a fresh vector or into one the
caller passes (``train`` reuses one vector for every step), so ``sgd_step``
checks and updates every parameter with one vector operation each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import (MAX_EMBEDDING_VALUES, Dataset, FeatureSchema, QueryRecord,
                   StandardizationStats, check_stats_schema)
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    SchemaError,
    TrainingError,
    ValidationError,
)

MODES = ("sir", "deep_only")
DEFAULT_WIDTHS = (64, 32, 16)
DEFAULT_L = 4
CHECKPOINT_VERSION = 1
# Item rows per batched evaluation step. Steps of 256 rows score a dataset as
# fast as steps of 1,024 here, and their intermediates (the dense-layer
# activations of every row) take a quarter of the memory.
EVAL_CHUNK_ROWS = 256


class ParamVector(dict):
    """Parameter arrays by name, in build order, each a reshaped view into
    one contiguous float64 vector ``flat``. Writing through a view writes the
    vector, so one vector operation updates every parameter. Set values with
    ``params[name][...] = value``: binding a new array to a name would detach
    it from ``flat``.

    ``layout`` holds one (name, span of ``flat``, shape) entry per array.
    """

    def __init__(self, layout: tuple[tuple[str, slice, tuple[int, ...]], ...]):
        self.layout = layout
        self.flat = np.zeros(layout[-1][1].stop)
        super().__init__((name, self.flat[span].reshape(shape)) for name, span, shape in layout)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> ParamVector:
        layout, lo = [], 0
        for name, value in arrays.items():
            layout.append((name, slice(lo, lo + value.size), value.shape))
            lo += value.size
        out = cls(tuple(layout))
        for name, value in arrays.items():
            out[name][...] = value
        return out

    def zeros_like(self) -> ParamVector:
        return ParamVector(self.layout)


@dataclass
class SirModel:
    schema: FeatureSchema
    mode: str
    widths: tuple[int, ...]
    compressor_dim: int
    params: ParamVector
    stats: StandardizationStats | None = None

    @cached_property
    def embedding_names(self) -> tuple[str, ...]:
        """Embedding table parameter names, in schema categorical order."""
        return tuple(f"emb_{f.name}" for f in self.schema.categorical_query_features)

    @cached_property
    def dense_names(self) -> tuple[tuple[str, str], ...]:
        """(weight, bias) parameter names of each dense layer, input first."""
        return tuple((f"deep_w{i}", f"deep_b{i}") for i in range(len(self.widths)))


# ---------------------------------------------------------------------------
# weight initialization (seeded so builds are reproducible)


def init_dense_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform in +-sqrt(6/(fan_in+fan_out))."""
    if fan_in * fan_out > MAX_EMBEDDING_VALUES:
        raise ConfigError(f"dense weight {fan_in} x {fan_out} has more than "
                          f"{MAX_EMBEDDING_VALUES} values")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_embedding_table(rng: np.random.Generator, cardinality: int, dim: int) -> np.ndarray:
    """Uniform in +-0.05."""
    return rng.uniform(-0.05, 0.05, size=(cardinality, dim))


def build_model(schema: FeatureSchema, mode: str = "sir",
                widths: tuple[int, ...] = DEFAULT_WIDTHS,
                compressor_dim: int = DEFAULT_L, seed: int = 0,
                stats: StandardizationStats | None = None) -> SirModel:
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"invalid dense widths {widths}")
    m_prime = schema.query_repr_dim
    if not 1 <= compressor_dim < m_prime:
        raise ConfigError(
            f"compressor output {compressor_dim} must be at least 1 and smaller than "
            f"the query representation width {m_prime}")

    rng = np.random.default_rng(seed)
    params = {}
    for f in schema.categorical_query_features:
        params[f"emb_{f.name}"] = init_embedding_table(rng, f.cardinality, f.embedding_dim)

    deep_in = m_prime + schema.k1
    if mode == "deep_only":
        deep_in += schema.k2
    prev = deep_in
    for i, width in enumerate(widths):
        params[f"deep_w{i}"] = init_dense_weight(rng, prev, width)
        params[f"deep_b{i}"] = np.zeros(width)
        prev = width
    params["head_w"] = init_dense_weight(rng, prev, 1)
    params["head_b"] = np.zeros(1)

    if mode == "sir":
        params["fs_w"] = init_dense_weight(rng, m_prime, compressor_dim)
        params["fs_b"] = np.zeros(compressor_dim)
        k = schema.k1 + schema.k2
        params["wide_w"] = init_dense_weight(rng, compressor_dim * k, 1).reshape(-1)

    return SirModel(schema=schema, mode=mode, widths=tuple(widths),
                    compressor_dim=compressor_dim, params=ParamVector.from_arrays(params),
                    stats=stats)


# ---------------------------------------------------------------------------
# prepared inputs: gather and check a dataset's scoring inputs once


@dataclass(frozen=True)
class DatasetBlock:
    """Every query of a dataset stacked for scoring, gathered and checked
    once. Query i owns item rows ``offsets[i]:offsets[i + 1]`` of
    ``deep_items``, ``log_values`` and ``labels``; ``row_query`` maps each
    item row to its query. Nothing in a block depends on the parameters, so
    it can be scored again after every update."""

    deep_numeric: np.ndarray        # (Q, numeric query features)
    category_ids: np.ndarray        # (Q, categorical query features)
    deep_items: np.ndarray          # (N, deep-path item inputs)
    log_values: np.ndarray | None   # (N, K1 + K2); None for deep_only models
    labels: np.ndarray              # (N,)
    offsets: np.ndarray             # (Q + 1,)
    row_query: np.ndarray           # (N,)


@np.errstate(over="ignore")  # a standardized value beyond float64 range is reported below
def prepare_dataset(model: SirModel, dataset: Dataset) -> DatasetBlock:
    """Stack what scoring reads from every query of ``dataset``, standardize
    the deep-path inputs from ``model.stats`` (a model without stats is
    refused first), take the logs of the wide inputs and check the data once.

    If a check fails, the error raised, and its message, are those of the
    first query in dataset order that fails one, for the first check it
    fails: an empty item list, a category id, a non-finite deep-path input,
    a wide-path input that is not > 0.
    """
    stats = model.stats
    if stats is None:
        raise ContractError("deep-path inputs cannot be standardized: the model has no stats")
    if model.mode == "deep_only" and not stats.covers_scalevariant:
        raise ContractError("deep_only scoring needs standardization stats that "
                            "cover the scale-variant features")
    queries = dataset.queries
    if not queries:
        raise ValidationError("cannot evaluate a dataset without queries")
    cut = next((i for i, q in enumerate(queries) if q.n_items == 0), None)
    if cut is not None:
        if cut:  # a data error in an earlier query comes first
            prepare_dataset(model, replace(dataset, queries=queries[:cut]))
        raise ContractError("cannot score an empty item selection")

    cats = model.schema.categorical_query_features
    category_ids = np.array([q.category_ids for q in queries], dtype=np.int64)
    category_ids = category_ids.reshape(len(queries), len(cats))
    deep_numeric = (np.stack([q.numeric for q in queries]) - stats.numeric_mean) / stats.numeric_std
    fixed = np.concatenate([q.fixed for q in queries])
    deep_items = (fixed - stats.fixed_mean) / stats.fixed_std
    scalevariant = np.concatenate([q.scalevariant for q in queries])
    if model.mode == "deep_only":
        deep_items = np.concatenate(
            [deep_items, (scalevariant - stats.scalevariant_mean) / stats.scalevariant_std], axis=1)
    wide_raw = None
    if model.mode == "sir":
        wide_raw = np.concatenate([fixed, scalevariant], axis=1)
    sizes = [q.n_items for q in queries]
    offsets = np.cumsum([0] + sizes)
    cardinality = np.array([f.cardinality for f in cats], dtype=np.int64)
    if not (((category_ids >= 0) & (category_ids < cardinality)).all()
            and np.isfinite(deep_items).all() and np.isfinite(deep_numeric).all()
            and (wide_raw is None or (wide_raw > 0).all())):
        _raise_first_bad(model, queries, offsets, deep_numeric, deep_items, wide_raw)
    return DatasetBlock(
        deep_numeric=deep_numeric, category_ids=category_ids, deep_items=deep_items,
        log_values=None if wide_raw is None else np.log(wide_raw, out=wide_raw),
        labels=np.concatenate([q.labels for q in queries]), offsets=offsets,
        row_query=np.repeat(np.arange(len(queries)), sizes))


def _raise_first_bad(model, queries, offsets, deep_numeric, deep_items, wide_raw):
    """Run ``prepare_dataset``'s data checks query by query on the stacked
    inputs and raise the first one that fails."""
    names = model.schema.item_features_fixed + model.schema.item_features_scalevariant
    for qi, q in enumerate(queries):
        rows = slice(offsets[qi], offsets[qi + 1])
        for f, cid in zip(model.schema.categorical_query_features, q.category_ids):
            if not 0 <= cid < f.cardinality:
                raise DomainError(f"category id {cid} out of range for feature '{f.name}' "
                                  f"(cardinality {f.cardinality})")
        if not (np.isfinite(deep_items[rows]).all() and np.isfinite(deep_numeric[qi]).all()):
            raise DomainError(f"query {q.query_id}: non-finite deep-path input")
        if wide_raw is not None and not np.all(wide_raw[rows] > 0):
            j, kk = (int(v[0]) for v in np.nonzero(~(wide_raw[rows] > 0)))
            raise DomainError(f"query {q.query_id}, item {q.item_ids[j]}: wide-path feature "
                              f"{names[kk]!r} must be > 0, got {wide_raw[rows][j, kk]}")


# ---------------------------------------------------------------------------
# forward pass: the arithmetic on a prepared block


@dataclass
class ForwardCache:
    """What the backward pass needs from one forward pass.

    ``lookups`` names the embedding row of each categorical query feature as
    (table parameter name, category id). ``layer_inputs[i]`` is the input of
    dense layer i (the last one feeds the head) and ``pre_activations[i]``
    its output before the ReLU. The wide fields stay None for deep_only
    models.
    """

    lookups: tuple[tuple[str, int], ...]
    q_repr: np.ndarray
    layer_inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    s_row: np.ndarray | None = None
    log_values: np.ndarray | None = None


def _query_repr(model: SirModel, block: DatasetBlock, qi: int):
    """Query ``qi``'s standardized numeric features followed by one
    embedding row per categorical feature, and the lookups that gave them."""
    p = model.params
    lookups = tuple(zip(model.embedding_names, block.category_ids[qi].tolist()))
    q_repr = np.concatenate([block.deep_numeric[qi]] + [p[name][cid] for name, cid in lookups])
    return q_repr, lookups


def _deep_forward(model: SirModel, query_rows: np.ndarray, deep_items: np.ndarray):
    """Deep-tower scores (D,), the dense-layer inputs and the pre-activations;
    row j of ``query_rows`` is the representation of item j's query, and a
    single row (one query's representation) stands for every item."""
    p = model.params
    q_width = query_rows.shape[-1]
    h = np.empty((deep_items.shape[0], q_width + deep_items.shape[1]))
    h[:, :q_width] = query_rows
    h[:, q_width:] = deep_items
    layer_inputs, pre_activations = [], []
    for w_name, b_name in model.dense_names:
        layer_inputs.append(h)
        z = h @ p[w_name] + p[b_name]
        pre_activations.append(z)
        h = np.maximum(z, 0.0)
    layer_inputs.append(h)
    return (h @ p["head_w"] + p["head_b"]).reshape(-1), layer_inputs, pre_activations


def _wide_weights(model: SirModel, q_reprs: np.ndarray):
    """Per-feature wide weights W s(q), one row (K,) per query row of
    ``q_reprs``, and the compressed queries s(q) they came from."""
    p = model.params
    s = q_reprs @ p["fs_w"] + p["fs_b"]
    return s @ p["wide_w"].reshape(model.compressor_dim, -1), s


def forward_block(model: SirModel, block: DatasetBlock, qi: int,
                  item_indices=None) -> tuple[np.ndarray, ForwardCache]:
    """Scores (D,) of query ``qi``'s item rows of ``block`` (the selected
    ones, all by default) and the cache that ``backward`` needs.

    The same weights score every item, so stacking items as rows is just the
    batched form of that sharing.
    """
    rows = slice(block.offsets[qi], block.offsets[qi + 1])
    deep_items = block.deep_items[rows]
    log_values = None if block.log_values is None else block.log_values[rows]
    if item_indices is not None:
        item_indices = list(item_indices)
        if not item_indices:
            raise ContractError("cannot score an empty item selection")
        deep_items = deep_items[item_indices]
        if log_values is not None:
            log_values = log_values[item_indices]
    q_repr, lookups = _query_repr(model, block, qi)
    deep, layer_inputs, pre_activations = _deep_forward(model, q_repr, deep_items)
    cache = ForwardCache(lookups, q_repr, layer_inputs, pre_activations)
    if model.mode == "deep_only":
        return deep, cache
    # wide scores (D,) = log(v) . (W s(q))
    feature_weights, cache.s_row = _wide_weights(model, q_repr.reshape(1, -1))
    cache.log_values = log_values
    return deep + (log_values @ feature_weights.reshape(-1, 1)).reshape(-1), cache


def forward(model: SirModel, query: QueryRecord,
            item_indices=None) -> tuple[np.ndarray, ForwardCache]:
    """``forward_block`` on a one-query block of ``query``."""
    block = prepare_dataset(model, Dataset(schema=model.schema, queries=[query]))
    return forward_block(model, block, 0, item_indices)


# ---------------------------------------------------------------------------
# backward pass and update


def backward(model: SirModel, cache: ForwardCache, score_gradients: np.ndarray,
             grads: ParamVector | None = None) -> ParamVector:
    """Gradient of sum(score_gradients * scores) for every parameter, laid
    out like ``model.params``; an embedding table's gradient is written only
    in the row the query looked up. ``grads``, if given, is zeroed and
    written instead of a fresh vector, and returned."""
    p = model.params
    g = np.asarray(score_gradients, dtype=np.float64).reshape(-1, 1)
    if g.shape[0] != cache.layer_inputs[0].shape[0]:
        raise ContractError(f"{g.shape[0]} score gradients for "
                            f"{cache.layer_inputs[0].shape[0]} scores")
    if grads is None:
        grads = p.zeros_like()
    elif grads.layout != p.layout:
        raise ContractError("the gradient vector is not laid out like the model's parameters")
    else:
        grads.flat.fill(0.0)
    n = len(model.widths)
    grads["head_w"][...] = cache.layer_inputs[n].T @ g
    grads["head_b"][...] = g.sum(axis=0)
    g_h = g @ p["head_w"].T
    for i in reversed(range(n)):
        w_name, b_name = model.dense_names[i]
        g_z = g_h * (cache.pre_activations[i] > 0.0)
        grads[w_name][...] = cache.layer_inputs[i].T @ g_z
        grads[b_name][...] = g_z.sum(axis=0)
        g_h = g_z @ p[w_name].T
    g_q = g_h[:, :cache.q_repr.shape[0]].sum(axis=0)

    if model.mode == "sir":
        k = model.schema.k1 + model.schema.k2
        g_fw = (cache.log_values.T @ g).reshape(1, k)
        grads["wide_w"][...] = (cache.s_row.T @ g_fw).reshape(-1)
        g_s = g_fw @ p["wide_w"].reshape(model.compressor_dim, k).T
        grads["fs_w"][...] = cache.q_repr.reshape(1, -1).T @ g_s
        grads["fs_b"][...] = g_s.sum(axis=0)
        g_q = g_q + (g_s @ p["fs_w"].T).reshape(-1)

    lo = len(model.schema.numeric_query_names)
    for name, cid in cache.lookups:
        row = grads[name][cid]
        row[...] = g_q[lo:lo + row.size]
        lo += row.size
    return grads


def sgd_step(params: ParamVector, grads: ParamVector, lr: float) -> None:
    """One plain gradient-descent step over the whole parameter vector, in
    place; a non-finite gradient leaves every parameter untouched."""
    if not np.isfinite(grads.flat).all():
        name = next(name for name, g in grads.items() if not np.all(np.isfinite(g)))
        raise TrainingError(f"non-finite gradient in parameter '{name}'")
    params.flat -= lr * grads.flat


# ---------------------------------------------------------------------------
# public scoring ops


def score_query(model: SirModel, query: QueryRecord) -> np.ndarray:
    return forward(model, query)[0]


# ---------------------------------------------------------------------------
# batched scoring of a whole dataset


@np.errstate(over="ignore", invalid="ignore")  # a non-finite score is reported below
def score_block(model: SirModel, block: DatasetBlock) -> np.ndarray:
    """Scores of every item row of ``block``, in row order, computed
    ``EVAL_CHUNK_ROWS`` rows at a time by the same deep tower and wide term
    as ``forward``. Parameters so large that a score is not finite raise
    DomainError."""
    p = model.params
    q_reprs = np.hstack([block.deep_numeric] + [p[name][block.category_ids[:, i]]
                                                for i, name in enumerate(model.embedding_names)])
    if model.mode == "sir":
        feature_weights = _wide_weights(model, q_reprs)[0]
    scores = np.empty(block.row_query.size)
    for lo in range(0, scores.size, EVAL_CHUNK_ROWS):
        rows = slice(lo, lo + EVAL_CHUNK_ROWS)
        owner = block.row_query[rows]
        chunk = _deep_forward(model, q_reprs[owner], block.deep_items[rows])[0]
        if model.mode == "sir":
            chunk = chunk + np.einsum("ij,ij->i", block.log_values[rows], feature_weights[owner])
        scores[rows] = chunk
    if not np.isfinite(scores).all():
        raise DomainError(f"{np.count_nonzero(~np.isfinite(scores))} of {scores.size} scores "
                          "are not finite: the model's parameters overflow float64 on this data")
    return scores


@dataclass(frozen=True)
class Ranking:
    """Positions 1..D assigned to item indices; order[r] is the item at rank r+1."""

    order: np.ndarray

    def positions(self) -> np.ndarray:
        pos = np.empty(len(self.order), dtype=np.int64)
        pos[self.order] = np.arange(1, len(self.order) + 1)
        return pos


def rank(scores: np.ndarray) -> Ranking:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise DomainError(f"scores must be a nonempty vector, got shape {list(scores.shape)}")
    if np.any(np.isnan(scores)):
        raise DomainError("cannot rank NaN scores")
    # descending by score, ties broken by ascending item index
    order = np.lexsort((np.arange(scores.size), -scores))
    return Ranking(order=order)


def scale_query(query: QueryRecord, c: float) -> QueryRecord:
    """Multiply every item's scale-variant vector by c, leaving the rest alone."""
    if not (c > 0) or not np.isfinite(c):
        raise DomainError(f"scale factor must be a positive finite number, got {c}")
    with np.errstate(over="ignore"):  # an overflow is reported as a data error below
        scaled = query.scalevariant * c
    if not np.isfinite(scaled).all():
        raise ValidationError(f"query {query.query_id}: scaling by {c:g} overflows float64")
    return replace(query, scalevariant=scaled)


def invariance_gap(model: SirModel, query: QueryRecord, c: float) -> float:
    """Largest change in any pairwise score difference after scaling by c."""
    base = score_query(model, query)
    scaled = score_query(model, scale_query(query, c))
    delta = scaled - base
    return float(np.max(delta) - np.min(delta))


def block_invariance_gap(model: SirModel, base_scores: np.ndarray, scaled: DatasetBlock) -> float:
    """The largest ``invariance_gap`` over the queries of a dataset, given
    ``score_block`` of its block and ``scaled``, its block after ``scale_query``."""
    delta = score_block(model, scaled) - base_scores
    starts = scaled.offsets[:-1]
    return float(np.max(np.maximum.reduceat(delta, starts) - np.minimum.reduceat(delta, starts)))


def dataset_invariance_gap(model: SirModel, dataset: Dataset, c: float) -> float:
    """The largest ``invariance_gap`` over the queries of ``dataset``, from
    one batched pass over the dataset and one over its rescaled copy."""
    scaled = replace(dataset, queries=[scale_query(q, c) for q in dataset.queries])
    base_scores = score_block(model, prepare_dataset(model, dataset))  # one block alive at a time
    return block_invariance_gap(model, base_scores, prepare_dataset(model, scaled))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: SirModel, path, provenance: dict | None = None):
    if model.stats is None:
        raise ContractError("refusing to checkpoint a model without standardization stats")
    obj = {
        "version": CHECKPOINT_VERSION,
        "provenance": provenance or {},
        "mode": model.mode,
        "widths": list(model.widths),
        "compressor_dim": model.compressor_dim,
        "schema_fingerprint": model.schema.fingerprint(),
        "stats": model.stats.to_json(),
        "params": {
            name: {"shape": list(value.shape), "data": [float(v) for v in value.reshape(-1)]}
            for name, value in model.params.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


CHECKPOINT_KEYS = ("version", "mode", "widths", "compressor_dim", "schema_fingerprint",
                   "stats", "params")


def load_checkpoint(path, schema: FeatureSchema) -> SirModel:
    """Read a checkpoint into the parameter vector of the model that its
    stored mode, widths and compressor width build for ``schema``; a
    parameter name or shape that does not match raises SchemaError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:
        raise SchemaError(f"checkpoint {path} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"checkpoint {path} is not a JSON object")
    missing = [key for key in CHECKPOINT_KEYS if key not in obj]
    if missing:
        raise SchemaError(f"checkpoint {path} lacks {', '.join(missing)}")
    if obj["version"] != CHECKPOINT_VERSION:
        raise SchemaError(f"unsupported checkpoint version {obj['version']}")
    if obj["schema_fingerprint"] != schema.fingerprint():
        raise SchemaError(
            "checkpoint was trained against a different feature schema "
            f"(fingerprint {str(obj['schema_fingerprint'])[:12]}..., "
            f"expected {schema.fingerprint()[:12]}...)")
    layout = f"mode {obj['mode']!r}, widths {obj['widths']}, compressor_dim {obj['compressor_dim']}"
    try:
        params = build_model(schema, mode=obj["mode"], widths=tuple(obj["widths"]),
                             compressor_dim=obj["compressor_dim"]).params
    except (ConfigError, TypeError, ValueError) as exc:
        raise SchemaError(f"checkpoint {path} has an invalid layout ({layout}): {exc}") from exc
    stored = obj["params"]
    if not isinstance(stored, dict) or set(stored) != set(params):
        raise SchemaError(f"checkpoint {path} parameters do not match {layout}")
    for name, want in params.items():
        try:
            value = np.array(stored[name]["data"], dtype=np.float64).reshape(stored[name]["shape"])
        except (LookupError, OverflowError, TypeError, ValueError) as exc:
            raise SchemaError(f"checkpoint {path} parameter {name!r} is malformed: {exc}") from exc
        if value.shape != want.shape:
            raise SchemaError(f"checkpoint {path} parameter {name!r} has shape "
                              f"{list(value.shape)}, expected {list(want.shape)} for {layout}")
        if not np.isfinite(value).all():
            raise SchemaError(f"checkpoint {path} parameter {name!r} holds a non-finite value")
        want[...] = value
    try:
        stats = StandardizationStats.from_json(obj["stats"])
        check_stats_schema(stats, schema)
    except (AttributeError, LookupError, OverflowError, SchemaError, TypeError,
            ValueError) as exc:
        raise SchemaError(f"checkpoint {path} has malformed stats: {exc!r}") from exc
    for group in stats.to_json().values():
        for name, (mean, std) in group.items():
            if not (np.isfinite(mean) and np.isfinite(std) and std > 0):
                raise SchemaError(f"checkpoint {path} stats for feature {name!r} need a finite "
                                  f"mean and a finite std > 0, got {mean} and {std}")
    if obj["mode"] == "deep_only" and not stats.covers_scalevariant:
        raise SchemaError(f"checkpoint {path} is deep_only but its stats do not cover "
                          "the scale-variant features")
    return SirModel(schema=schema, mode=obj["mode"], widths=tuple(obj["widths"]),
                    compressor_dim=obj["compressor_dim"], params=params, stats=stats)
