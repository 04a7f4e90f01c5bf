"""Two-part ranking scorer: a deep stack over query and fixed item features
plus a wide bilinear term over a compressed query vector and logged raw item
features. Pairwise score differences from the combined scorer do not move
when every scale-variant value in a query is multiplied by a constant, which
is the property the whole package exists to demonstrate.

The network is fixed, so its forward pass, its backward pass and the SGD
step are written out by hand below. Everything that scores reads one
prepared form: ``prepare_dataset`` reads a ``Dataset``'s columns into a
``DatasetBlock`` with the dataset's per-query offsets, standardizes the
deep-path inputs from the model's stats (the dataset stays raw) and takes
the logs of the wide inputs. The data rules were checked once, when the
``Dataset`` was made, so ``prepare_dataset`` checks only what depends on
the model: the schema and the finiteness of the standardized inputs. A
dataset holds exactly one booked item per query, so a block keeps each
query's booked row in place of its labels, and the positions of its
embedding rows in ``params.flat`` in place of its category ids.
``forward_block`` scores one query's rows of a block for a training step;
``score_block`` scores every row, ``EVAL_CHUNK_ROWS`` at a time, so the
memory of an evaluation pass does not grow with the dataset;
``prepare_rescale`` and ``block_scorer`` score a rescale of a dataset from
its block, in one deep-tower pass for a sir model. ``forward`` and
``score_query`` score one query through a one-query dataset, whose columns
are the record's own arrays, and its block. Training prepares both of its
splits before the first step, so an input that standardizes to a non-finite
value is reported before epoch 0. Batched scores match per-query ones to
within a few ulps (matrix products of another shape sum in another order).

All parameters live in one contiguous float64 vector; ``SirModel.params`` is
a ``ParamVector``, a dict of named views into it in build order. ``backward``
writes gradients with the same layout, into a fresh vector or into one the
caller passes (``train`` reuses one vector for every step), so ``sgd_step``
checks and updates every parameter with one vector operation each.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import (MAX_EMBEDDING_VALUES, Dataset, FeatureSchema, QueryRecord,
                   StandardizationStats, check_rescaled, check_stats_schema, fit_standardization,
                   rescaled)
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
    stats: StandardizationStats

    @cached_property
    def embedding_columns(self) -> np.ndarray:
        """(3, embedding width): per embedding column of the query
        representation, the categorical feature it reads, its position in
        ``params.flat`` for category id 0, and its table's row width."""
        starts = {name: span.start for name, span, _ in self.params.layout}
        return np.array([(i, starts[f"emb_{f.name}"] + j, f.embedding_dim)
                         for i, f in enumerate(self.schema.categorical_query_features)
                         for j in range(f.embedding_dim)], dtype=np.intp).reshape(-1, 3).T

    @cached_property
    def embedding_stop(self) -> int:
        """The end of the last embedding table in ``params.flat``."""
        return max((span.stop for name, span, _ in self.params.layout
                    if name.startswith("emb_")), default=0)

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


def fit_stats(train: Dataset, mode: str) -> StandardizationStats:
    """The stats a ``mode`` model standardizes with, fitted on its raw
    training split: a deep_only model standardizes the scale-variant
    features into its dense stack too."""
    return fit_standardization(train, train.schema, include_scalevariant=(mode == "deep_only"))


def build_model(schema: FeatureSchema, mode: str = "sir",
                widths: tuple[int, ...] = DEFAULT_WIDTHS,
                compressor_dim: int = DEFAULT_L, seed: int = 0, *,
                stats: StandardizationStats) -> SirModel:
    """A freshly initialized model that standardizes with ``stats``, which
    must name the schema's deep-path features (SchemaError otherwise), the
    scale-variant ones too for a deep_only model."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"invalid dense widths {widths}")
    m_prime = schema.query_repr_dim
    if not 1 <= compressor_dim < m_prime:
        raise ConfigError(
            f"compressor output {compressor_dim} must be at least 1 and smaller than "
            f"the query representation width {m_prime}")
    check_stats_schema(stats, schema)
    if mode == "deep_only" and not stats.covers_scalevariant:
        raise SchemaError("a deep_only model needs stats that cover the scale-variant features")

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
    """Every query of a dataset prepared for scoring, read from its columns
    and checked once. Query i owns item rows ``offsets[i]:offsets[i + 1]`` of
    ``deep_items`` and ``log_values``, and ``booked[i]`` is the row of its
    booked item; ``row_query`` maps each item row to its query.
    ``embedding_rows[i]`` holds the positions in ``params.flat`` of the
    embedding rows that query i's category ids pick, in schema order, so one
    gather reads them and one assignment writes their gradient. Nothing in a
    block depends on the parameter values, so it can be scored again after
    every update."""

    deep_numeric: np.ndarray        # (Q, numeric query features)
    embedding_rows: np.ndarray      # (Q, embedding width)
    deep_items: np.ndarray          # (N, deep-path item inputs)
    log_values: np.ndarray | None   # (N, K1 + K2); None for deep_only models
    booked: np.ndarray              # (Q,)
    offsets: np.ndarray             # (Q + 1,)
    row_query: np.ndarray           # (N,)


def _standardized(x: np.ndarray, mean: np.ndarray, std: np.ndarray, out=None) -> np.ndarray:
    """(x - mean) / std, subtracted into ``out`` (new by default), divided in place."""
    out = np.subtract(x, mean, out=out)
    out /= std
    return out


@np.errstate(over="ignore")  # a standardized value beyond float64 range is reported below
def prepare_dataset(model: SirModel, dataset: Dataset) -> DatasetBlock:
    """Read what scoring needs from the columns of ``dataset``, standardize
    the deep-path inputs from ``model.stats`` and take the logs of the wide
    inputs. The dataset checked its values when it was made; checked here
    is what depends on the model: the schema must be the model's
    (ContractError), a query must be there (ValidationError), and every
    standardized input must be finite (DomainError naming the query)."""
    if dataset.schema != model.schema:
        raise ContractError(f"the dataset's schema (fingerprint {dataset.schema.fingerprint()[:12]}"
                            f"...) is not the model's ({model.schema.fingerprint()[:12]}...)")
    stats, k1 = model.stats, model.schema.k1
    if not len(dataset):
        raise ValidationError("cannot evaluate a dataset without queries")

    deep_items = np.empty((len(dataset.fixed), k1 + model.schema.k2 * (model.mode == "deep_only")))
    _standardized(dataset.fixed, stats.fixed_mean, stats.fixed_std, deep_items[:, :k1])
    log_values = None
    if model.mode == "sir":
        log_values = np.concatenate([dataset.fixed, dataset.scalevariant], axis=1)
        np.log(log_values, out=log_values)
    else:
        _standardized(dataset.scalevariant, stats.scalevariant_mean, stats.scalevariant_std,
                      deep_items[:, k1:])
    deep_numeric = _standardized(dataset.numeric, stats.numeric_mean, stats.numeric_std)
    _check_finite(dataset, deep_numeric, deep_items)
    offsets = dataset.offsets
    feature, first, width = model.embedding_columns
    return DatasetBlock(
        deep_numeric=deep_numeric, embedding_rows=first + width * dataset.category_ids[:, feature],
        deep_items=deep_items, log_values=log_values,
        booked=np.flatnonzero(dataset.labels), offsets=offsets,
        row_query=np.repeat(np.arange(len(dataset)), np.diff(offsets)))


@np.errstate(over="ignore")  # a standardized value beyond float64 range is reported below
def prepare_rescale(model: SirModel, block: DatasetBlock, rescale: Dataset,
                    columns=slice(None)) -> DatasetBlock:
    """``prepare_dataset(model, rescale)`` for a rescale (``apply_case``,
    ``scale_dataset``) of the dataset ``block`` was prepared from that
    multiplied the scale-variant ``columns`` (an index of the feature axis;
    all of them by default): only their logs (sir) or their standardized
    deep-path inputs (deep_only) are computed again, and checked."""
    k1, rescaled_values = model.schema.k1, rescale.scalevariant[:, columns]
    if model.mode == "sir":
        log_values = block.log_values.copy()
        log_values[:, k1:][:, columns] = np.log(rescaled_values)
        return replace(block, log_values=log_values)
    stats = model.stats
    standardized = _standardized(rescaled_values, stats.scalevariant_mean[columns],
                                 stats.scalevariant_std[columns])
    _check_finite(rescale, block.deep_numeric, standardized)
    deep_items = block.deep_items.copy()
    deep_items[:, k1:][:, columns] = standardized
    return replace(block, deep_items=deep_items)


def _check_finite(dataset: Dataset, deep_numeric: np.ndarray, deep_items: np.ndarray):
    """DomainError naming the first query of ``dataset`` with a non-finite
    value in ``deep_numeric`` (a row per query) or ``deep_items`` (a row per
    item)."""
    if not (np.isfinite(deep_items).all() and np.isfinite(deep_numeric).all()):
        bad = ~(np.isfinite(deep_numeric).all(axis=1)
                & np.logical_and.reduceat(np.isfinite(deep_items).all(axis=1),
                                          dataset.offsets[:-1]))
        raise DomainError(f"query {dataset.query_ids[int(np.argmax(bad))]}: "
                          "non-finite deep-path input")


# ---------------------------------------------------------------------------
# forward pass: the arithmetic on a prepared block


@dataclass
class ForwardCache:
    """What the backward pass needs from one forward pass.

    ``embedding_rows`` holds the positions in ``params.flat`` of the
    embedding rows the query read (a row of ``DatasetBlock.embedding_rows``).
    ``layer_inputs[i]`` is the input of dense layer i (the last one feeds the
    head) and ``pre_activations[i]`` its output before the ReLU. The wide
    fields stay None for deep_only models.
    """

    embedding_rows: np.ndarray
    q_repr: np.ndarray
    layer_inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    s_row: np.ndarray | None = None
    log_values: np.ndarray | None = None


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
        z = np.dot(h, p[w_name])
        z += p[b_name]
        pre_activations.append(z)
        h = np.maximum(z, 0.0)
    layer_inputs.append(h)
    out = np.dot(h, p["head_w"])
    out += p["head_b"]
    return out.reshape(-1), layer_inputs, pre_activations


def _wide_weights(model: SirModel, q_reprs: np.ndarray):
    """Per-feature wide weights W s(q), one row (K,) per query row of
    ``q_reprs``, and the compressed queries s(q) they came from."""
    p = model.params
    s = np.dot(q_reprs, p["fs_w"])
    s += p["fs_b"]
    return np.dot(s, p["wide_w"].reshape(model.compressor_dim, -1)), s


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
    # the standardized numeric query features, then the embedding rows
    embedding_rows = block.embedding_rows[qi]
    q_repr = np.concatenate((block.deep_numeric[qi], model.params.flat[embedding_rows]))
    deep, layer_inputs, pre_activations = _deep_forward(model, q_repr, deep_items)
    cache = ForwardCache(embedding_rows, q_repr, layer_inputs, pre_activations)
    if model.mode == "deep_only":
        return deep, cache
    # wide scores (D,) = log(v) . (W s(q))
    feature_weights, cache.s_row = _wide_weights(model, q_repr.reshape(1, -1))
    cache.log_values = log_values
    deep += np.dot(log_values, feature_weights.reshape(-1, 1)).reshape(-1)
    return deep, cache


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
    in the row the query looked up. ``grads``, if given, is written instead
    of a fresh vector, and returned; only its embedding tables are zeroed
    first. Every other gradient is written whole into its view by
    ``np.dot(..., out=)``, the BLAS call of ``@``, or ``np.add.reduce(..., out=)``."""
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
        grads.flat[:model.embedding_stop] = 0.0
    n = len(model.widths)
    np.dot(cache.layer_inputs[n].T, g, out=grads["head_w"])
    np.add.reduce(g, axis=0, out=grads["head_b"])
    g_h = np.dot(g, p["head_w"].T)
    for i in reversed(range(n)):
        w_name, b_name = model.dense_names[i]
        g_h *= cache.pre_activations[i] > 0.0  # now the gradient of the pre-activations
        np.dot(cache.layer_inputs[i].T, g_h, out=grads[w_name])
        np.add.reduce(g_h, axis=0, out=grads[b_name])
        g_h = np.dot(g_h, p[w_name].T)
    g_q = np.add.reduce(g_h[:, :cache.q_repr.shape[0]], axis=0)

    if model.mode == "sir":
        k = model.schema.k1 + model.schema.k2
        g_fw = np.dot(cache.log_values.T, g).reshape(1, k)
        np.dot(cache.s_row.T, g_fw, out=grads["wide_w"].reshape(model.compressor_dim, k))
        g_s = np.dot(g_fw, p["wide_w"].reshape(model.compressor_dim, k).T)
        np.dot(cache.q_repr.reshape(1, -1).T, g_s, out=grads["fs_w"])
        np.add.reduce(g_s, axis=0, out=grads["fs_b"])
        g_q += np.dot(g_s, p["fs_w"].T).reshape(-1)

    grads.flat[cache.embedding_rows] = g_q[len(model.schema.numeric_query_names):]
    return grads


def sgd_step(params: ParamVector, grads: ParamVector, lr: float) -> None:
    """One plain gradient-descent step over the whole parameter vector, in
    place; a non-finite gradient leaves every parameter untouched. A finite
    sum means every entry is finite, so only a sum that is not is looked at
    entry by entry; numpy's warning from the sum is left to the caller."""
    if not math.isfinite(np.add.reduce(grads.flat)) and not np.isfinite(grads.flat).all():
        name = next(name for name, g in grads.items() if not np.all(np.isfinite(g)))
        raise TrainingError(f"non-finite gradient in parameter '{name}'")
    params.flat -= lr * grads.flat


# ---------------------------------------------------------------------------
# public scoring ops


def score_query(model: SirModel, query: QueryRecord) -> np.ndarray:
    return forward(model, query)[0]


# ---------------------------------------------------------------------------
# batched scoring of a whole dataset


def _deep_scores(model: SirModel, q_reprs: np.ndarray, block: DatasetBlock) -> np.ndarray:
    """Deep-tower scores of every item row of ``block``, ``EVAL_CHUNK_ROWS``
    rows at a time; row i of ``q_reprs`` represents query i."""
    deep = np.empty(block.row_query.size)
    for lo in range(0, deep.size, EVAL_CHUNK_ROWS):
        rows = slice(lo, lo + EVAL_CHUNK_ROWS)
        deep[rows] = _deep_forward(model, q_reprs[block.row_query[rows]], block.deep_items[rows])[0]
    return deep


@np.errstate(over="ignore", invalid="ignore")  # a non-finite score is reported by the scorer
def block_scorer(model: SirModel, block: DatasetBlock):
    """A function scoring every item row of ``block``, or of a block that
    ``prepare_rescale`` made from it, with the parameters ``model`` has now;
    what a rescale cannot change (the query representations, and a sir
    model's deep-tower scores and wide weights W s(q)) is computed once."""
    q_reprs = np.hstack((block.deep_numeric, model.params.flat[block.embedding_rows]))
    if model.mode == "sir":
        deep = _deep_scores(model, q_reprs, block)
        feature_weights = _wide_weights(model, q_reprs)[0]

    @np.errstate(over="ignore", invalid="ignore")
    def score(block: DatasetBlock) -> np.ndarray:
        if model.mode == "deep_only":
            scores = _deep_scores(model, q_reprs, block)
        else:  # plus the wide term log(v) . W s(q), in the same chunks
            scores = np.empty(deep.size)
            for lo in range(0, scores.size, EVAL_CHUNK_ROWS):
                rows = slice(lo, lo + EVAL_CHUNK_ROWS)
                scores[rows] = deep[rows] + np.einsum("ij,ij->i", block.log_values[rows],
                                                      feature_weights[block.row_query[rows]])
        if not np.isfinite(scores).all():
            raise DomainError(f"{np.count_nonzero(~np.isfinite(scores))} of {scores.size} "
                              "scores are not finite: the model's parameters overflow float64 "
                              "on this data")
        return scores

    return score


def score_block(model: SirModel, block: DatasetBlock) -> np.ndarray:
    """Scores of every item row of ``block``; DomainError if one is not finite."""
    return block_scorer(model, block)(block)


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


def _scaling(c: float) -> str:
    """What a rescale by c does, for ``check_rescaled``'s message; DomainError
    unless c > 0 is finite."""
    if not (c > 0) or not np.isfinite(c):
        raise DomainError(f"scale factor must be a positive finite number, got {c}")
    return f"scaling by {c:g} takes"


def scale_query(query: QueryRecord, c: float) -> QueryRecord:
    """Multiply every item's scale-variant vector by c, leaving the rest alone.
    A product beyond the float64 range or below its smallest normal value
    raises ValidationError naming the query; an array not of D rows, ContractError."""
    shape = np.shape(query.scalevariant)
    if len(shape) != 2 or shape[0] != query.n_items:
        raise ContractError(f"query {query.query_id}: scalevariant array has shape {list(shape)}, "
                            f"expected (D, K) with D = {query.n_items}")
    what = _scaling(c)
    with np.errstate(over="ignore"):  # an overflow is reported as a data error below
        scalevariant = np.multiply(query.scalevariant, c, dtype=np.float64)
    check_rescaled(scalevariant, [0, shape[0]], [query.query_id], what)
    return replace(query, scalevariant=scalevariant)


def scale_dataset(ds: Dataset, c: float) -> Dataset:
    """``scale_query`` of every query of ``ds``, as one multiply of its
    scale-variant column and one check; an error names the first query that
    ``scale_query`` would refuse, with its message."""
    return rescaled(ds, slice(None), [np.full(len(ds), c)], _scaling(c))


def invariance_gap(model: SirModel, query: QueryRecord, c: float) -> float:
    """Largest change in any pairwise score difference after scaling by c."""
    base = score_query(model, query)
    scaled = score_query(model, scale_query(query, c))
    delta = scaled - base
    return float(np.max(delta) - np.min(delta))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: SirModel, path, provenance: dict | None = None):
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
    """Read a checkpoint: its stats first, then the model that its stored
    mode, widths and compressor width build for ``schema`` with those stats,
    whose parameter vector the stored parameters fill. Stats, a layout or a
    parameter name or shape that does not fit raise SchemaError naming the
    checkpoint."""
    try:
        with open(path, encoding="utf-8") as fh:
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
    try:
        stats = StandardizationStats.from_json(obj["stats"])
    except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"checkpoint {path} has malformed stats: {exc!r}") from exc
    for group in stats.to_json().values():
        for name, (mean, std) in group.items():
            if not (np.isfinite(mean) and np.isfinite(std) and std > 0):
                raise SchemaError(f"checkpoint {path} stats for feature {name!r} need a finite "
                                  f"mean and a finite std > 0, got {mean} and {std}")
    layout = f"mode {obj['mode']!r}, widths {obj['widths']}, compressor_dim {obj['compressor_dim']}"
    try:
        model = build_model(schema, mode=obj["mode"], widths=tuple(obj["widths"]),
                            compressor_dim=obj["compressor_dim"], stats=stats)
    except SchemaError as exc:
        raise SchemaError(f"checkpoint {path} has stats that do not fit {layout}: {exc}") from exc
    except (ConfigError, TypeError, ValueError) as exc:
        raise SchemaError(f"checkpoint {path} has an invalid layout ({layout}): {exc}") from exc
    stored = obj["params"]
    if not isinstance(stored, dict) or set(stored) != set(model.params):
        raise SchemaError(f"checkpoint {path} parameters do not match {layout}")
    for name, want in model.params.items():
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
    return model
