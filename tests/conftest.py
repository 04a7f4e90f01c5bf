"""Hand-built fixtures, deliberately independent of the package's generator."""

from dataclasses import replace

import numpy as np
import pytest

import sirank.data
from sirank.data import Dataset, FeatureSchema, QueryFeature, QueryRecord
from sirank.scoring import ParamVector

CURRENCIES = [1.0, 0.85, 7.1, 110.0, 1200.0]


def tiny_schema() -> FeatureSchema:
    return FeatureSchema(
        query_features=(
            QueryFeature("num_nights", "numeric"),
            QueryFeature("exchange_rate", "numeric"),
            QueryFeature("lead_days", "numeric"),
            QueryFeature("device_type", "categorical", cardinality=3, embedding_dim=2),
        ),
        item_features_fixed=("star_rating", "review_score"),
        item_features_scalevariant=("price", "discount"),
    )


def hand_dataset(n_queries=12, seed=0, items=(3, 6)) -> Dataset:
    return Dataset(schema=tiny_schema(), queries=hand_records(n_queries, seed, items))


def hand_records(n_queries=12, seed=0, items=(3, 6)) -> list[QueryRecord]:
    """The records ``hand_dataset`` is made of."""
    rng = np.random.default_rng(seed)
    schema = tiny_schema()
    queries = []
    for qi in range(n_queries):
        d = int(rng.integers(items[0], items[1] + 1))
        booked = int(rng.integers(d))
        # one item at a time, fixed then scale-variant, so the draws keep their order
        rows = [(rng.uniform(0.5, 5.0, size=schema.k1), rng.uniform(20.0, 400.0, size=schema.k2))
                for _ in range(d)]
        nights = int(rng.integers(1, 15))
        rate = float(rng.choice(CURRENCIES))
        queries.append(QueryRecord(
            query_id=f"q{qi}",
            numeric=np.array([float(nights), rate, float(rng.normal())]),
            category_ids=np.array([int(rng.integers(3))], dtype=np.int64),
            num_nights=nights,
            exchange_rate=rate,
            item_ids=tuple(f"q{qi}-i{j}" for j in range(d)),
            fixed=np.array([fx for fx, _ in rows]),
            scalevariant=np.array([sv for _, sv in rows]),
            labels=(np.arange(d) == booked).astype(np.float64),
        ))
    return queries


def record_bytes(q: QueryRecord) -> tuple:
    """Every field of q, its arrays as float64 bytes (category ids as int64):
    records with equal fields give equal tuples."""
    return (q.query_id, q.item_ids, q.num_nights, float(q.exchange_rate),
            np.asarray(q.category_ids, dtype=np.int64).tobytes(),
            *(np.asarray(a, dtype=np.float64).tobytes()
              for a in (q.numeric, q.fixed, q.scalevariant, q.labels)))


LABEL_BREAKS = ("two_booked", "none_booked", "label_of_two")


def break_labels(q: QueryRecord, case: str) -> QueryRecord:
    """q (of at least two items) with labels that break the one-booked-item
    rule in the way ``case`` names."""
    booked, other = q.booked_index, (q.booked_index + 1) % q.n_items
    labels = np.zeros(q.n_items)
    labels[booked] = 0.0 if case == "none_booked" else 1.0
    labels[other] = {"two_booked": 1.0, "label_of_two": 2.0}.get(case, 0.0)
    return replace(q, labels=labels)


def edited(a: np.ndarray, index, value) -> np.ndarray:
    """A copy of the (read-only) record array ``a`` with ``a[index] = value``."""
    out = a.copy()
    out[index] = value
    return out


def with_queries(ds: Dataset, changed: dict[int, QueryRecord]) -> Dataset:
    """A new Dataset of ``ds``'s queries with query i replaced by
    ``changed[i]``; making it checks the records."""
    return Dataset(schema=ds.schema,
                   queries=[changed.get(i, q) for i, q in enumerate(ds.queries)])


def standardized(q: QueryRecord, stats):
    """Query q's standardized numerics and fixed item features, by the
    per-query formulas: (x - mean) / std with the train-split stats."""
    return ((q.numeric - stats.numeric_mean) / stats.numeric_std,
            (q.fixed - stats.fixed_mean) / stats.fixed_std)


def without_wide(model):
    """A copy of a sir model with its wide weights zeroed: the wide term is
    then exactly 0, so the copy's scores are the deep tower's alone."""
    params = ParamVector.from_arrays(dict(model.params))
    params["wide_w"][...] = 0.0
    return replace(model, params=params)


# ---------------------------------------------------------------------------
# a frozen reference of the training step's forward and backward pass: one
# lookup per embedding table, ``@`` products and one gradient array per
# parameter name. It is kept plain on purpose and never optimized, so a
# rewrite of the step that moves a bit of a score or a gradient fails
# against it.


def reference_forward(model, block, category_ids, qi, item_indices=None):
    """Scores of query ``qi``'s rows of ``block`` (the selected ones, all by
    default) and what ``reference_backward`` needs; ``category_ids`` are the
    dataset's, row ``qi`` naming the embedding rows the query reads."""
    p = model.params
    rows = slice(block.offsets[qi], block.offsets[qi + 1])
    deep_items = block.deep_items[rows]
    log_values = None if block.log_values is None else block.log_values[rows]
    if item_indices is not None:
        deep_items = deep_items[list(item_indices)]
        if log_values is not None:
            log_values = log_values[list(item_indices)]
    lookups = [(f"emb_{f.name}", int(cid))
               for f, cid in zip(model.schema.categorical_query_features, category_ids[qi])]
    q_repr = np.concatenate([block.deep_numeric[qi]] + [p[name][cid] for name, cid in lookups])
    h = np.empty((deep_items.shape[0], q_repr.size + deep_items.shape[1]))
    h[:, :q_repr.size] = q_repr
    h[:, q_repr.size:] = deep_items
    layer_inputs, pre_activations = [], []
    for i in range(len(model.widths)):
        layer_inputs.append(h)
        z = h @ p[f"deep_w{i}"] + p[f"deep_b{i}"]
        pre_activations.append(z)
        h = np.maximum(z, 0.0)
    layer_inputs.append(h)
    scores = (h @ p["head_w"] + p["head_b"]).reshape(-1)
    cache = {"lookups": lookups, "q_repr": q_repr, "layer_inputs": layer_inputs,
             "pre_activations": pre_activations}
    if model.mode == "sir":
        s_row = q_repr.reshape(1, -1) @ p["fs_w"] + p["fs_b"]
        feature_weights = s_row @ p["wide_w"].reshape(model.compressor_dim, -1)
        scores = scores + (log_values @ feature_weights.reshape(-1, 1)).reshape(-1)
        cache |= {"s_row": s_row, "log_values": log_values}
    return scores, cache


def reference_backward(model, cache, score_gradients) -> dict[str, np.ndarray]:
    """Gradient of sum(score_gradients * scores) for every parameter by
    name, zero outside the embedding rows the query looked up."""
    p = model.params
    grads = {name: np.zeros_like(value) for name, value in p.items()}
    g = np.asarray(score_gradients, dtype=np.float64).reshape(-1, 1)
    n = len(model.widths)
    grads["head_w"] = cache["layer_inputs"][n].T @ g
    grads["head_b"] = g.sum(axis=0)
    g_h = g @ p["head_w"].T
    for i in reversed(range(n)):
        g_z = g_h * (cache["pre_activations"][i] > 0.0)
        grads[f"deep_w{i}"] = cache["layer_inputs"][i].T @ g_z
        grads[f"deep_b{i}"] = g_z.sum(axis=0)
        g_h = g_z @ p[f"deep_w{i}"].T
    g_q = g_h[:, :cache["q_repr"].shape[0]].sum(axis=0)
    if model.mode == "sir":
        k = model.schema.k1 + model.schema.k2
        g_fw = (cache["log_values"].T @ g).reshape(1, k)
        grads["wide_w"] = (cache["s_row"].T @ g_fw).reshape(-1)
        g_s = g_fw @ p["wide_w"].reshape(model.compressor_dim, k).T
        grads["fs_w"] = cache["q_repr"].reshape(1, -1).T @ g_s
        grads["fs_b"] = g_s.sum(axis=0)
        g_q = g_q + (g_s @ p["fs_w"].T).reshape(-1)
    lo = len(model.schema.numeric_query_names)
    for name, cid in cache["lookups"]:
        row = grads[name][cid]
        row[...] = g_q[lo:lo + row.size]
        lo += row.size
    return grads


@pytest.fixture
def schema():
    return tiny_schema()


@pytest.fixture
def dataset():
    return hand_dataset()


@pytest.fixture(autouse=True)
def chunk_columns_agree_with_type_faults(monkeypatch):
    """Fail a test in which ``load_dataset``'s column-wise parse of a chunk
    and the per-query pass that names a fault JSON decides disagree: valid
    data must never reach that pass, and the pass must name a fault in
    every chunk that the column-wise parse refuses."""
    real_columns, real_fault = sirank.data._chunk_columns, sirank.data._type_fault

    def chunk_columns(objs, schema):
        columns = real_columns(objs, schema)
        faults = [f for obj in objs if (f := real_fault(obj, schema)) is not None]
        assert (columns is None) == bool(faults), (
            f"the chunk's columns were {'refused' if columns is None else 'parsed'}, "
            f"the per-query pass found {faults[:1] or 'no fault'}")
        return columns

    monkeypatch.setattr(sirank.data, "_chunk_columns", chunk_columns)
