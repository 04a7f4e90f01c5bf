"""Differentiation and update rules of training: the scorer's hand-derived
forward and backward passes, checked against loop oracles and central
differences, the SGD step, and the max-shifted softmax."""

import json
import math

import numpy as np
import pytest

from sirank.data import apply_standardization, fit_standardization
from sirank.errors import ContractError, DomainError, SchemaError, TrainingError
from sirank.generator import stable_softmax
from sirank.scoring import (
    ParamVector,
    backward,
    build_model,
    forward,
    load_checkpoint,
    save_checkpoint,
    score_query,
    sgd_step,
)

from conftest import hand_dataset, standardized, without_wide


def prepared(seed=0, include_scalevariant=False):
    ds = hand_dataset(n_queries=4, seed=seed)
    stats = fit_standardization(ds, ds.schema, include_scalevariant=include_scalevariant)
    return apply_standardization(ds, stats)


def small_model(ds, mode="sir", widths=(8, 4), seed=0):
    return build_model(ds.schema, mode=mode, widths=widths, compressor_dim=2,
                       seed=seed, stats=ds.stats)


def finite_diff(loss_fn, params, name, i, h=1e-5):
    """Central difference d loss / d params[name].flat[i], independent of backward."""
    flat = params[name].reshape(-1)
    orig = flat[i]
    flat[i] = orig + h
    hi = loss_fn()
    flat[i] = orig - h
    lo = loss_fn()
    flat[i] = orig
    return (hi - lo) / (2.0 * h)


def gradient_check(loss_fn, params, grads, h=1e-5):
    """Max relative error between analytic gradients and central differences
    over every coordinate; ``loss_fn`` reads ``params`` and must be
    deterministic."""
    if loss_fn() != loss_fn():
        raise ContractError("loss_fn is not deterministic: two evaluations differ")
    worst = 0.0
    for name, value in params.items():
        for i in range(value.size):
            numeric = finite_diff(loss_fn, params, name, i, h)
            a = float(grads[name].reshape(-1)[i])
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst


def linear_loss(model, query, weights):
    """weights . scores, whose score gradient is ``weights`` itself."""
    return lambda: float(weights @ score_query(model, query))


def check_model_gradients(model, query, seed):
    weights = np.random.default_rng(seed).normal(size=query.n_items)
    _, cache = forward(model, query)
    grads = backward(model, cache, weights)
    assert list(grads) == list(model.params)
    return gradient_check(linear_loss(model, query, weights), model.params, grads)


# ---------------------------------------------------------------------------
# dense layers


def test_affine_matches_double_loop_oracle():
    ds = prepared(seed=7)
    model = small_model(ds, widths=(3, 2), seed=4)
    p = model.params
    q = ds.queries[1]
    deep = score_query(without_wide(model), q)
    deep_numeric, deep_fixed_rows = standardized(q, ds.stats)
    q_repr = np.concatenate([deep_numeric, p["emb_device_type"][int(q.category_ids[0])]])
    for j, deep_fixed in enumerate(deep_fixed_rows):
        x = list(q_repr) + list(deep_fixed)
        for name_w, name_b, relu in (("deep_w0", "deep_b0", True),
                                     ("deep_w1", "deep_b1", True),
                                     ("head_w", "head_b", False)):
            w, b = p[name_w], p[name_b]
            out = []
            for c in range(w.shape[1]):
                acc = b[c]
                for k in range(w.shape[0]):
                    acc += x[k] * w[k, c]
                out.append(max(acc, 0.0) if relu else acc)
            x = out
        assert abs(deep[j] - x[0]) < 1e-12


def test_affine_shape_mismatch_names_both_shapes(tmp_path):
    ds = prepared(seed=1)
    model = small_model(ds)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    obj = json.loads(path.read_text())
    assert obj["params"]["deep_w0"]["shape"] == [7, 8]
    obj["params"]["deep_w0"]["shape"] = [8, 7]
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match=r"deep_w0.*\[8, 7\].*\[7, 8\]"):
        load_checkpoint(path, ds.schema)


# ---------------------------------------------------------------------------
# relu


def test_relu_sign_cases():
    ds = prepared(seed=2)
    model = small_model(ds, widths=(3,), seed=1)
    p = model.params
    p["deep_w0"][:, :] = 0.0
    p["deep_b0"][:] = [-1.0, 0.0, 1.0]  # negative, zero and positive pre-activations
    q = ds.queries[0]
    _, cache = forward(model, q)
    np.testing.assert_array_equal(cache.layer_inputs[1], np.tile([0.0, 0.0, 1.0], (q.n_items, 1)))
    grads = backward(model, cache, np.ones(q.n_items))
    assert grads["deep_b0"][0] == 0.0 and grads["deep_b0"][1] == 0.0
    np.testing.assert_allclose(grads["deep_b0"][2], q.n_items * p["head_w"][2, 0], rtol=1e-12)


def test_relu_elementwise_oracle():
    ds = prepared(seed=3)
    model = small_model(ds, seed=2)
    _, cache = forward(model, ds.queries[2])
    for z, h in zip(cache.pre_activations, cache.layer_inputs[1:]):
        for zi, hi in zip(z.reshape(-1), h.reshape(-1)):
            assert hi == (zi if zi > 0 else 0.0)


# ---------------------------------------------------------------------------
# softmax (the generator's booking draw)


def test_softmax_symmetry_and_single():
    np.testing.assert_allclose(stable_softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)
    np.testing.assert_array_equal(stable_softmax(np.array([42.0])), [1.0])


def test_softmax_large_inputs_stable():
    # oracle at shifted values (0, 1)
    e = math.exp(1.0)
    expected = np.array([1.0 / (1.0 + e), e / (1.0 + e)])
    out = stable_softmax(np.array([1000.0, 1001.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_softmax_probability_vector_and_argmax():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(scale=5.0, size=rng.integers(1, 12))
        p = stable_softmax(x)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.argmax(p) == np.argmax(x)


def test_softmax_empty_rejected():
    with pytest.raises(DomainError):
        stable_softmax(np.array([]))


# ---------------------------------------------------------------------------
# wide path


def test_log_requires_positive():
    ds = prepared(seed=4)
    model = small_model(ds)
    q = ds.queries[0]
    q.fixed = q.fixed.copy()
    q.fixed[0] = [1.0, 0.0]
    with pytest.raises(DomainError, match="review_score"):
        forward(model, q)


# ---------------------------------------------------------------------------
# embedding lookup


def test_embedding_lookup_one_hot_row():
    ds = prepared(seed=5)
    model = small_model(ds)
    model.params["emb_device_type"][...] = np.eye(3, 2)
    q = ds.queries[0]
    for cid in range(3):
        q.category_ids = np.array([cid])
        _, cache = forward(model, q)
        np.testing.assert_array_equal(cache.q_repr[-2:], np.eye(3, 2)[cid])


def test_embedding_lookup_matches_slice():
    ds = prepared(seed=6)
    model = small_model(ds, seed=3)
    table = model.params["emb_device_type"]
    q = ds.queries[1]
    deep_numeric = standardized(q, ds.stats)[0]
    for cid in range(3):
        q.category_ids = np.array([cid])
        _, cache = forward(model, q)
        np.testing.assert_array_equal(cache.q_repr, np.concatenate([deep_numeric, table[cid]]))


def test_embedding_gradient_sparsity():
    ds = prepared(seed=7)
    model = small_model(ds)
    q = ds.queries[0]
    cid = int(q.category_ids[0])
    _, cache = forward(model, q)
    g = backward(model, cache, np.ones(q.n_items))["emb_device_type"]
    assert np.any(g[cid] != 0.0)
    np.testing.assert_array_equal(np.delete(g, cid, axis=0), 0.0)


def test_embedding_out_of_range_names_feature():
    ds = prepared(seed=8)
    model = small_model(ds)
    q = ds.queries[0]
    for bad in (3, -1):  # numpy indexing would wrap -1 to the last row
        q.category_ids = np.array([bad])
        with pytest.raises(DomainError, match=r"category id -?\d out of range.*device_type"):
            forward(model, q)


# ---------------------------------------------------------------------------
# backward


def test_backward_linear_gradient_is_input():
    # the wide term is linear in wide_w: the gradient of item j's score is
    # the outer product of s(q) and log(v_j)
    ds = prepared(seed=9)
    model = small_model(ds, seed=5)
    p = model.params
    q = ds.queries[2]
    _, cache = forward(model, q)
    s = cache.q_repr @ p["fs_w"] + p["fs_b"]
    for j in range(q.n_items):
        onehot = np.eye(q.n_items)[j]
        got = backward(model, cache, onehot)["wide_w"]
        v = np.log(np.concatenate([q.fixed[j], q.scalevariant[j]]))
        np.testing.assert_allclose(got, np.outer(s, v).reshape(-1), rtol=0, atol=1e-12)


def test_backward_unused_parameter_gets_zero():
    # s(q) reaches the scores only through wide_w, so with wide_w at zero
    # the compressor gets no gradient
    ds = prepared(seed=10)
    model = small_model(ds)
    model.params["wide_w"][...] = 0.0
    q = ds.queries[0]
    _, cache = forward(model, q)
    grads = backward(model, cache, np.arange(q.n_items, dtype=np.float64))
    np.testing.assert_array_equal(grads["fs_w"], 0.0)
    np.testing.assert_array_equal(grads["fs_b"], 0.0)
    assert np.any(grads["wide_w"] != 0.0)


def test_backward_two_layer_network_vs_finite_differences():
    ds = prepared(seed=11)
    model = small_model(ds, widths=(4,), seed=6)
    assert check_model_gradients(model, ds.queries[1], seed=0) < 1e-4


def test_backward_deep_only_vs_finite_differences():
    ds = prepared(seed=12, include_scalevariant=True)
    model = small_model(ds, mode="deep_only", widths=(8, 4), seed=7)
    assert "wide_w" not in model.params
    for qi in range(2):
        assert check_model_gradients(model, ds.queries[qi], seed=qi) < 1e-4


def test_backward_is_additive():
    ds = prepared(seed=13)
    model = small_model(ds, seed=8)
    q = ds.queries[3]
    rng = np.random.default_rng(9)
    g1, g2 = rng.normal(size=q.n_items), rng.normal(size=q.n_items)
    _, cache = forward(model, q)
    both = backward(model, cache, g1 + g2)
    one, two = backward(model, cache, g1), backward(model, cache, g2)
    for name in model.params:
        np.testing.assert_allclose(both[name], one[name] + two[name], rtol=1e-12, atol=1e-15)


def test_backward_repeatable_after_zeroing():
    # gradients are fresh arrays: nothing accumulates between calls
    ds = prepared(seed=14)
    model = small_model(ds, seed=9)
    q = ds.queries[0]
    before = {k: v.copy() for k, v in model.params.items()}
    _, cache = forward(model, q)
    g = np.linspace(-1.0, 1.0, q.n_items)
    first, second = backward(model, cache, g), backward(model, cache, g)
    for name in model.params:
        np.testing.assert_array_equal(first[name], second[name])
        np.testing.assert_array_equal(model.params[name], before[name])


@pytest.mark.parametrize("mode", ["sir", "deep_only"])
def test_backward_into_reused_vector_is_bitwise_fresh(mode):
    # training writes every step's gradients into one vector: what the
    # previous query left there (another embedding row) must not leak
    ds = prepared(seed=16, include_scalevariant=(mode == "deep_only"))
    model = small_model(ds, mode=mode, seed=10)
    qa = ds.queries[0]
    qb = next(q for q in ds.queries if q.category_ids[0] != qa.category_ids[0])
    rng = np.random.default_rng(10)
    _, cache_a = forward(model, qa)
    _, cache_b = forward(model, qb)
    reused = backward(model, cache_a, rng.normal(size=qa.n_items))
    g = rng.normal(size=qb.n_items)
    got = backward(model, cache_b, g, reused)
    assert got is reused
    assert got.flat.tobytes() == backward(model, cache_b, g).flat.tobytes()
    assert not got["emb_device_type"][qa.category_ids[0]].any()


def test_backward_rejects_mismatched_score_gradients():
    ds = prepared(seed=15)
    model = small_model(ds)
    q = ds.queries[0]
    _, cache = forward(model, q)
    with pytest.raises(ContractError):
        backward(model, cache, np.ones(q.n_items + 1))
    other = small_model(ds, widths=(4,))
    with pytest.raises(ContractError):
        backward(model, cache, np.ones(q.n_items), other.params.zeros_like())


# ---------------------------------------------------------------------------
# the finite-difference verifier itself


def test_gradient_check_quadratic():
    params = {"theta": np.array([3.0])}
    loss_fn = lambda: float(params["theta"][0] ** 2)
    assert gradient_check(loss_fn, params, {"theta": np.array([6.0])}) < 1e-9


def test_gradient_check_constant_loss_zero_error():
    params = {"theta": np.array([1.0, 2.0])}
    assert gradient_check(lambda: 0.0, params, {"theta": np.zeros(2)}) == 0.0


def test_gradient_check_detects_nondeterminism():
    params = {"theta": np.array([1.0])}
    state = {"n": 0}

    def loss_fn():
        state["n"] += 1
        return float(params["theta"][0] * state["n"])

    with pytest.raises(ContractError):
        gradient_check(loss_fn, params, {"theta": np.array([1.0])})


# ---------------------------------------------------------------------------
# sgd_step


def vector(**arrays):
    return ParamVector.from_arrays({k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()})


def test_sgd_step_basic_update():
    params = vector(t=[1.0])
    sgd_step(params, vector(t=[2.0]), 0.1)
    np.testing.assert_allclose(params["t"], [0.8], atol=1e-15)


def test_sgd_step_zero_lr_keeps_parameters():
    params = vector(t=[1.5, -2.0])
    sgd_step(params, vector(t=np.full(2, 100.0)), 0.0)
    np.testing.assert_array_equal(params["t"], [1.5, -2.0])


def test_sgd_converges_on_convex_quadratic():
    # loss = sum a_i (t_i - m_i)^2 has closed-form minimizer m
    a = np.array([1.0, 2.0, 0.5])
    m = np.array([0.3, -1.2, 2.5])
    params = vector(t=np.zeros(3))
    for _ in range(100):
        sgd_step(params, vector(t=2.0 * a * (params["t"] - m)), 0.2)
    assert np.max(np.abs(params["t"] - m)) < 1e-3


def test_sgd_step_rejects_non_finite_gradient():
    params = vector(good=[1.0], bad=[1.0])
    with pytest.raises(TrainingError, match="bad"):
        sgd_step(params, vector(good=[0.5], bad=[np.nan]), 0.1)
    # the check runs before the update, so no parameter moved
    np.testing.assert_array_equal(params.flat, [1.0, 1.0])


# ---------------------------------------------------------------------------
# module-wide properties


def test_forward_ops_are_pure_and_deterministic():
    ds = prepared(seed=16)
    model = small_model(ds, seed=10)
    q = ds.queries[1]
    params_before = {k: v.copy() for k, v in model.params.items()}
    fixed_before = q.fixed.copy()
    a, _ = forward(model, q)
    b, _ = forward(model, q)
    np.testing.assert_array_equal(a, b)
    for name, value in model.params.items():
        np.testing.assert_array_equal(value, params_before[name])
    np.testing.assert_array_equal(q.fixed, fixed_before)
