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
a ``ParamVector``, a dict of named views into it in ``param_shapes`` order. ``backward``
writes gradients with the same layout, into a fresh vector or into one the
caller passes (``train`` reuses one vector for every step), so ``sgd_step``
checks and updates every parameter with one vector operation each.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import (MAX_EMBEDDING_VALUES, Dataset, FeatureSchema, QueryRecord,
                   StandardizationStats, _is_int, check_rescaled, check_stats_schema,
                   fit_standardization, rescaled)
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
    one contiguous float64 vector ``flat``, zero until written. Writing
    through a view writes the vector, so one vector operation updates every
    parameter. Set values with ``params[name][...] = value``: binding a new
    array to a name would detach it from ``flat``.

    ``shapes`` is its (name, shape) table; ``spans[name]`` is the span of ``flat`` ``name`` views.
    """

    def __init__(self, shapes: tuple[tuple[str, tuple[int, ...]], ...]):
        stops = [0, *itertools.accumulate(math.prod(shape) for _, shape in shapes)]
        self.shapes, self.flat, self.spans = shapes, np.zeros(stops[-1]), {}
        for (name, shape), lo, hi in zip(shapes, stops, stops[1:]):
            self.spans[name] = slice(lo, hi)
            self[name] = self.flat[lo:hi].reshape(shape)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> ParamVector:
        out = cls(tuple((name, value.shape) for name, value in arrays.items()))
        for name, value in arrays.items():
            out[name][...] = value
        return out

    def zeros_like(self) -> ParamVector:
        return ParamVector(self.shapes)


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
        spans = self.params.spans
        return np.array([(i, spans[f"emb_{f.name}"].start + j, f.embedding_dim)
                         for i, f in enumerate(self.schema.categorical_query_features)
                         for j in range(f.embedding_dim)], dtype=np.intp).reshape(-1, 3).T

    @cached_property
    def embedding_stop(self) -> int:
        """The end of the last embedding table in ``params.flat``."""
        return max((span.stop for name, span in self.params.spans.items()
                    if name.startswith("emb_")), default=0)

    @cached_property
    def dense_names(self) -> tuple[tuple[str, str], ...]:
        """(weight, bias) parameter names of each dense layer, input first."""
        return tuple((f"deep_w{i}", f"deep_b{i}") for i in range(len(self.widths)))


# ---------------------------------------------------------------------------
# parameter layout and seeded initialization


def param_shapes(schema: FeatureSchema, mode: str, widths: tuple[int, ...],
                 compressor_dim: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of every parameter array of a ``mode`` model for ``schema``,
    in build order, allocating none. ConfigError for an unknown mode, a width or
    compressor width not an int in range, or a dense weight over the cap."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not widths or not all(_is_int(w) and w >= 1 for w in widths):
        raise ConfigError(f"invalid dense widths {widths}")
    m_prime = schema.query_repr_dim
    if not _is_int(compressor_dim):
        raise ConfigError(f"compressor output {compressor_dim!r} must be an int")
    if not 1 <= compressor_dim < m_prime:
        raise ConfigError(
            f"compressor output {compressor_dim} must be at least 1 and smaller than "
            f"the query representation width {m_prime}")
    shapes = [(f"emb_{f.name}", (f.cardinality, f.embedding_dim))
              for f in schema.categorical_query_features]
    fan_ins = (m_prime + schema.k1 + (schema.k2 if mode == "deep_only" else 0), *widths)
    for i, (fan_in, width) in enumerate(zip(fan_ins, widths)):
        shapes += [(f"deep_w{i}", (fan_in, width)), (f"deep_b{i}", (width,))]
    shapes += [("head_w", (widths[-1], 1)), ("head_b", (1,))]
    if mode == "sir":
        shapes += [("fs_w", (m_prime, compressor_dim)), ("fs_b", (compressor_dim,)),
                   ("wide_w", (compressor_dim * (schema.k1 + schema.k2),))]
    # only a dense weight is refused: the schema caps embedding tables; a bias is <= its weight
    for _, shape in shapes:
        if math.prod(shape) > MAX_EMBEDDING_VALUES:
            raise ConfigError(f"dense weight {shape[0]} x {math.prod(shape[1:])} has more than "
                              f"{MAX_EMBEDDING_VALUES} values")
    return tuple(shapes)


def fit_stats(train: Dataset, mode: str) -> StandardizationStats:
    """The stats a ``mode`` model standardizes with, fitted on its raw
    training split: a deep_only model standardizes the scale-variant
    features into its dense stack too."""
    return fit_standardization(train, train.schema, include_scalevariant=(mode == "deep_only"))


def build_model(schema: FeatureSchema, mode: str = "sir",
                widths: tuple[int, ...] = DEFAULT_WIDTHS,
                compressor_dim: int = DEFAULT_L, seed: int = 0, *,
                stats: StandardizationStats) -> SirModel:
    """A freshly initialized model that standardizes with ``stats`` (see
    ``check_stats_schema``): in build order, embedding tables uniform in
    +-0.05, dense weights uniform in +-sqrt(6/(fan_in+fan_out)), biases 0."""
    shapes = param_shapes(schema, mode, widths, compressor_dim)
    check_stats_schema(stats, schema, scalevariant=mode == "deep_only")
    params, rng = ParamVector(shapes), np.random.default_rng(seed)
    for name, shape in shapes:
        if name.startswith("emb_"):
            params[name][...] = rng.uniform(-0.05, 0.05, size=shape)
        elif not name.rstrip("0123456789").endswith("_b"):
            bound = np.sqrt(6.0 / (shape[0] + math.prod(shape[1:])))
            params[name][...] = rng.uniform(-bound, bound, size=shape)
    return SirModel(schema=schema, mode=mode, widths=tuple(widths),
                    compressor_dim=compressor_dim, params=params, stats=stats)


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
    elif grads.shapes != p.shapes:
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
    """Read a checkpoint: its stats first, then the ``param_shapes`` layout
    of its stored mode, widths and compressor width for ``schema``, which the
    stored parameter names and shapes must match before a zero parameter
    vector is made and filled. Stats, a layout or a parameter name or shape
    that does not fit raise SchemaError naming the checkpoint."""
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
        widths = tuple(obj["widths"])
        shapes = param_shapes(schema, obj["mode"], widths, obj["compressor_dim"])
        check_stats_schema(stats, schema, scalevariant=obj["mode"] == "deep_only")
    except SchemaError as exc:
        raise SchemaError(f"checkpoint {path} has stats that do not fit {layout}: {exc}") from exc
    except (ConfigError, TypeError) as exc:
        raise SchemaError(f"checkpoint {path} has an invalid layout ({layout}): {exc}") from exc
    stored = obj["params"]
    if not isinstance(stored, dict) or set(stored) != {name for name, _ in shapes}:
        raise SchemaError(f"checkpoint {path} parameters do not match {layout}")
    values = {}
    for name, shape in shapes:
        try:
            value = np.array(stored[name]["data"], dtype=np.float64).reshape(stored[name]["shape"])
        except (LookupError, OverflowError, TypeError, ValueError) as exc:
            raise SchemaError(f"checkpoint {path} parameter {name!r} is malformed: {exc}") from exc
        if value.shape != shape:
            raise SchemaError(f"checkpoint {path} parameter {name!r} has shape "
                              f"{list(value.shape)}, expected {list(shape)} for {layout}")
        if not np.isfinite(value).all():
            raise SchemaError(f"checkpoint {path} parameter {name!r} holds a non-finite value")
        values[name] = value
    return SirModel(schema=schema, mode=obj["mode"], widths=widths, stats=stats,
                    compressor_dim=obj["compressor_dim"], params=ParamVector.from_arrays(values))
