import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sirank.data import apply_standardization, fit_standardization, split_holdout
from sirank.errors import ConfigError, ContractError, DomainError, TrainingError
from sirank.generator import GeneratorConfig, generate
from sirank.losses import SOFTRANK_LIST_SIZE, loss_by_name
from sirank.metrics import bonferroni, mean_ndcg, random_ranker_mean_ndcg
import sirank.metrics
import sirank.scoring
import sirank.trainer
from sirank.scoring import backward, build_model, forward
from sirank.trainer import (
    DEFAULT_LEARNING_RATES,
    ExperimentConfig,
    TrainConfig,
    _cell_seed,
    _softrank_indices,
    render_csv,
    render_text,
    run_experiment,
    train,
)


def prepared(num_queries=60, seed=11, include_scalevariant=False, split_seed=0):
    ds = generate(GeneratorConfig(num_queries=num_queries, seed=seed))
    tr_raw, va_raw, te_raw = split_holdout(ds, seed=split_seed)
    stats = fit_standardization(tr_raw, ds.schema, include_scalevariant=include_scalevariant)
    return (apply_standardization(tr_raw, stats),
            apply_standardization(va_raw, stats),
            apply_standardization(te_raw, stats),
            te_raw)


# --- config validation ------------------------------------------------------

def test_config_rejects_unknown_loss():
    with pytest.raises(ConfigError):
        TrainConfig(loss="hinge")


def test_config_rejects_patience_not_below_max_epochs():
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=10, patience=10)


def test_config_rejects_bad_sigma_and_lr():
    with pytest.raises(ConfigError):
        TrainConfig(sigma=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-0.1)


def test_config_rejects_non_finite_lr():
    for lr in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(learning_rate=lr)


def test_per_loss_default_learning_rates():
    for loss, lr in DEFAULT_LEARNING_RATES.items():
        assert TrainConfig(loss=loss).resolved_learning_rate == lr
    assert TrainConfig(loss="softrank", learning_rate=0.007).resolved_learning_rate == 0.007


# --- training loop mechanics -------------------------------------------------

def test_zero_lr_stops_after_patience_plus_one_epochs():
    tr, va, te, _ = prepared(num_queries=40)
    cfg = TrainConfig(loss="ranknet", learning_rate=0.0, max_epochs=30, patience=3, seed=5)
    model, hist = train(tr, va, cfg)
    # epoch 0 improves over -inf, then `patience` flat epochs in a row
    assert len(hist.val_ndcg) == cfg.patience + 1
    assert hist.stopping_reason == "early_stop"
    assert hist.best_epoch == 0
    assert len(set(hist.val_ndcg)) == 1


def test_max_epochs_reached_when_patience_never_exhausted():
    tr, va, te, _ = prepared(num_queries=40)
    cfg = TrainConfig(loss="ranknet", max_epochs=3, patience=2, seed=5)
    model, hist = train(tr, va, cfg)
    assert hist.stopping_reason == "max_epochs"
    assert len(hist.val_ndcg) == 3
    assert len(hist.train_loss) == 3


def test_history_is_deterministic_for_fixed_seed():
    tr, va, te, _ = prepared(num_queries=40)
    cfg = TrainConfig(loss="listmle", max_epochs=4, patience=3, seed=9)
    _, h1 = train(tr, va, cfg)
    _, h2 = train(tr, va, cfg)
    assert h1.train_loss == h2.train_loss
    assert h1.val_ndcg == h2.val_ndcg
    assert h1.best_epoch == h2.best_epoch
    _, h3 = train(tr, va, TrainConfig(loss="listmle", max_epochs=4, patience=3, seed=10))
    assert h3.train_loss != h1.train_loss


def test_returned_model_is_restored_to_best_epoch():
    tr, va, te, _ = prepared(num_queries=60)
    cfg = TrainConfig(loss="ranknet", max_epochs=10, patience=9, seed=2)
    model, hist = train(tr, va, cfg)
    val_now = mean_ndcg(model, va).mean
    assert val_now == pytest.approx(max(hist.val_ndcg), abs=1e-6)
    assert hist.val_ndcg[hist.best_epoch] == pytest.approx(max(hist.val_ndcg), abs=1e-6)


def test_history_serializes_to_json():
    tr, va, te, _ = prepared(num_queries=40)
    _, hist = train(tr, va, TrainConfig(max_epochs=2, patience=1, seed=0))
    blob = json.dumps(hist.to_json())
    back = json.loads(blob)
    assert back["stopping_reason"] in ("max_epochs", "early_stop")
    assert len(back["train_loss"]) == len(back["val_ndcg"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_aborts_with_epoch_and_query_context():
    tr, va, te, _ = prepared(num_queries=40)
    cfg = TrainConfig(loss="ranknet", learning_rate=20.0, max_epochs=5, patience=4, seed=0)
    with pytest.raises(TrainingError, match=r"epoch \d+, query q\d+"):
        train(tr, va, cfg)


def reference_epochs(train_ds, config):
    """The per-step work of ``train`` written as a plain loop without any
    caching: ``forward`` on the query, the loss, ``backward``, then
    ``value -= lr * g`` per parameter by name, with train's epoch RNG and
    softrank sub-sampling. Returns the parameters after each epoch and the
    mean training loss of each epoch."""
    model = build_model(train_ds.schema, mode=config.mode, widths=config.widths,
                        compressor_dim=config.compressor_dim, seed=config.seed,
                        stats=train_ds.stats)
    loss_fn = loss_by_name(config.loss, config.sigma)
    lr = config.resolved_learning_rate
    snapshots, losses = [], []
    for epoch in range(config.max_epochs):
        epoch_rng = np.random.default_rng([config.seed, epoch])
        total = 0.0
        for qi in epoch_rng.permutation(len(train_ds)):
            q = train_ds.queries[qi]
            rows, labels = None, q.labels
            if config.loss == "softrank" and q.n_items > SOFTRANK_LIST_SIZE:
                rows = _softrank_indices(q, epoch_rng)
                labels = labels[rows]
            scores, cache = forward(model, q, rows)
            out = loss_fn(scores, labels)
            grads = backward(model, cache, out.score_gradients)
            for name, value in model.params.items():
                value -= lr * grads[name]
            total += out.value
        snapshots.append({name: value.copy() for name, value in model.params.items()})
        losses.append(total / len(train_ds))
    return snapshots, losses


@pytest.mark.parametrize("loss,mode", [("ranknet", "sir"), ("listnet", "deep_only"),
                                       ("softrank", "sir"), ("listmle", "sir"),
                                       ("lambdarank", "deep_only")])
def test_train_is_bitwise_equal_to_reference_loop(loss, mode):
    ds = generate(GeneratorConfig(num_queries=40, items_min=10, items_max=20, seed=6))
    tr_raw, va_raw, _ = split_holdout(ds, seed=0)
    stats = fit_standardization(tr_raw, ds.schema, include_scalevariant=(mode == "deep_only"))
    tr, va = apply_standardization(tr_raw, stats), apply_standardization(va_raw, stats)
    assert min(q.n_items for q in tr.queries) > SOFTRANK_LIST_SIZE
    cfg = TrainConfig(loss=loss, mode=mode, max_epochs=2, patience=1, seed=4)
    model, hist = train(tr, va, cfg)
    snapshots, losses = reference_epochs(tr, cfg)
    assert hist.train_loss == losses[:len(hist.train_loss)]
    want = snapshots[hist.best_epoch]
    assert list(model.params) == list(want)
    for name, value in model.params.items():
        assert value.tobytes() == want[name].tobytes(), name


def test_bad_record_found_in_training_names_epoch_query_and_feature(monkeypatch):
    tr, va, te, _ = prepared(num_queries=40)
    q = tr.queries[3]
    q.scalevariant = q.scalevariant.copy()
    q.scalevariant[1, 0] = -1.0
    feature = tr.schema.item_features_scalevariant[0]
    steps = []
    monkeypatch.setattr(sirank.trainer, "sgd_step", lambda *args: steps.append(args))
    # the training split is checked as a whole before the first step
    with pytest.raises(DomainError, match=rf"^query {q.query_id}, "
                                          rf"item {re.escape(q.item_ids[1])}: "
                                          rf"wide-path feature '{feature}'"):
        train(tr, va, TrainConfig(loss="ranknet", max_epochs=2, patience=1, seed=1))
    assert steps == []


# --- contract checks ---------------------------------------------------------

def test_train_rejects_unstandardized_data():
    ds = generate(GeneratorConfig(num_queries=20, seed=1))
    tr_raw, va_raw, _ = split_holdout(ds, seed=0)
    with pytest.raises(ContractError):
        train(tr_raw, va_raw, TrainConfig())


@pytest.mark.parametrize("mode", ["sir", "deep_only"])
def test_validation_split_needs_no_stats(mode):
    # only the training split's stats reach the model, so a raw validation
    # split trains exactly like its standardized view
    ds = generate(GeneratorConfig(num_queries=40, seed=1))
    tr_raw, va_raw, _ = split_holdout(ds, seed=0)
    stats = fit_standardization(tr_raw, ds.schema, include_scalevariant=(mode == "deep_only"))
    tr = apply_standardization(tr_raw, stats)
    cfg = TrainConfig(mode=mode, max_epochs=3, patience=2, seed=2)
    model, hist = train(tr, va_raw, cfg)
    want_model, want_hist = train(tr, apply_standardization(va_raw, stats), cfg)
    assert model.params.flat.tobytes() == want_model.params.flat.tobytes()
    assert hist.train_loss == want_hist.train_loss
    assert hist.val_ndcg == want_hist.val_ndcg


def test_deep_only_requires_scalevariant_stats():
    tr, va, te, _ = prepared(num_queries=20, include_scalevariant=False)
    with pytest.raises(ContractError):
        train(tr, va, TrainConfig(mode="deep_only", max_epochs=2, patience=1))


# --- softrank list truncation -------------------------------------------------

def test_softrank_indices_keep_booked_and_cap_length():
    ds = generate(GeneratorConfig(num_queries=10, items_min=20, items_max=25, seed=3))
    rng = np.random.default_rng(0)
    for q in ds.queries:
        idx = _softrank_indices(q, rng)
        assert len(idx) == 9
        assert q.booked_index in idx
        assert idx == sorted(idx)
        assert len(set(idx)) == 9


def test_softrank_indices_resampled_per_epoch():
    ds = generate(GeneratorConfig(num_queries=4, items_min=25, items_max=25, seed=3))
    q = ds.queries[0]
    a = _softrank_indices(q, np.random.default_rng([7, 0]))
    b = _softrank_indices(q, np.random.default_rng([7, 1]))
    assert a != b


def test_softrank_short_lists_left_alone():
    ds = generate(GeneratorConfig(num_queries=10, items_min=5, items_max=8, seed=3))
    rng = np.random.default_rng(0)
    for q in ds.queries:
        idx = _softrank_indices(q, rng)
        assert idx == list(range(q.n_items))


def test_softrank_trains_on_long_lists():
    ds = generate(GeneratorConfig(num_queries=30, items_min=20, items_max=25, seed=3))
    tr_raw, va_raw, _ = split_holdout(ds, seed=0)
    stats = fit_standardization(tr_raw, ds.schema)
    tr = apply_standardization(tr_raw, stats)
    va = apply_standardization(va_raw, stats)
    model, hist = train(tr, va, TrainConfig(loss="softrank", max_epochs=2, patience=1, seed=0))
    assert len(hist.train_loss) == 2
    assert all(np.isfinite(v) for v in hist.train_loss)


# --- learning quality ---------------------------------------------------------

@pytest.mark.parametrize("loss", ["ranknet", "lambdarank", "listnet", "listmle", "softrank"])
def test_every_loss_beats_random_ranker(loss):
    tr, va, te, te_raw = prepared(num_queries=200, seed=11)
    cfg = TrainConfig(loss=loss, mode="sir", max_epochs=15, patience=14, seed=3)
    model, hist = train(tr, va, cfg)
    achieved = mean_ndcg(model, te).mean
    floor = random_ranker_mean_ndcg(te_raw)
    assert achieved > floor + 0.05, f"{loss}: {achieved:.4f} vs random {floor:.4f}"


# --- experiment grid -----------------------------------------------------------

def test_cell_seeds_are_distinct():
    seeds = {_cell_seed(7, li, mi) for li in range(5) for mi in range(2)}
    assert len(seeds) == 10


def small_report():
    ds = generate(GeneratorConfig(num_queries=60, seed=11))
    cfg = ExperimentConfig(seed=4, losses=("ranknet", "listnet"), max_epochs=3, patience=2)
    return run_experiment(ds, cfg)


@pytest.fixture(scope="module")
def report():
    return small_report()


def test_experiment_grid_shape(report):
    assert len(report.cells) == 4
    assert [(c.loss, c.mode) for c in report.cells] == [
        ("ranknet", "deep_only"), ("ranknet", "sir"),
        ("listnet", "deep_only"), ("listnet", "sir"),
    ]
    for cell in report.cells:
        assert cell.error is None
        assert sorted(cell.case_ndcg) == [1, 2, 3, 4]
        assert cell.history is not None
        assert cell.history.best_epoch < len(cell.history.val_ndcg)


def test_experiment_tests_cover_losses_by_conditions(report):
    conds = {(t.loss, t.condition) for t in report.tests}
    assert len(conds) == 10
    assert report.meta["n_comparisons"] == 10
    assert report.meta["significance_threshold"] == bonferroni(0.05, 10)


def test_sir_cells_are_case_invariant(report):
    for cell in report.cells:
        if cell.mode != "sir":
            continue
        for cid, v in cell.case_ndcg.items():
            assert abs(v - cell.test_ndcg) < 1e-9
        assert cell.invariance_gap_c1200 < 1e-9


def test_deep_only_cells_feel_the_rescaling(report):
    gaps = [c.invariance_gap_c1200 for c in report.cells if c.mode == "deep_only"]
    assert all(g > 1e-6 for g in gaps)


def test_report_round_trips_through_json(report):
    blob = json.dumps(report.to_json(), sort_keys=True)
    back = json.loads(blob)
    assert len(back["cells"]) == 4
    assert back["meta"]["random_ranker_test_ndcg"] > 0


def test_report_renders_text_and_csv(report):
    text = render_text(report)
    assert "(inv)" in text
    assert "random-ranker" in text
    csv_out = render_csv(report)
    lines = csv_out.splitlines()
    assert lines[0].startswith("loss,mode,val_ndcg,test_ndcg,case1_ndcg")
    assert len([l for l in lines if l.startswith(("ranknet", "listnet"))]) >= 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_experiment_records_partial_failures():
    ds = generate(GeneratorConfig(num_queries=60, seed=11))
    cfg = ExperimentConfig(seed=4, losses=("ranknet",), max_epochs=2, patience=1,
                           learning_rate=50.0)
    report = run_experiment(ds, cfg)
    assert any(c.error is not None for c in report.cells)
    failed = [c for c in report.cells if c.error]
    for c in failed:
        assert c.test_ndcg is None
        assert "epoch" in c.error
    json.dumps(report.to_json())  # still serializable


def test_experiment_config_rejects_unknown_loss():
    with pytest.raises(ConfigError):
        ExperimentConfig(losses=("ranknet", "mystery"))


def test_experiment_config_checks_epochs_and_patience_like_train_config():
    for max_epochs, patience in ((1, 0), (10, 10), (5, 0), (3, 7)):
        with pytest.raises(ConfigError, match=r"patience") as train_err:
            TrainConfig(max_epochs=max_epochs, patience=patience)
        with pytest.raises(ConfigError) as experiment_err:
            ExperimentConfig(max_epochs=max_epochs, patience=patience)
        assert str(experiment_err.value) == str(train_err.value)
    ExperimentConfig(max_epochs=2, patience=1)


def test_each_validation_query_is_prepared_once(monkeypatch):
    tr, va, te, _ = prepared(num_queries=60)
    seen = Counter()

    def counting(prepare):
        def wrapper(model, data, *args, **kwargs):
            queries = getattr(data, "queries", [data])
            seen.update(q.query_id for q in queries)
            return prepare(model, data, *args, **kwargs)
        return wrapper

    for module in (sirank.scoring, sirank.trainer):
        monkeypatch.setattr(module, "prepare_dataset", counting(module.prepare_dataset))
    _, hist = train(tr, va, TrainConfig(loss="ranknet", max_epochs=3, patience=2, seed=1))
    assert len(hist.val_ndcg) == 3
    assert {q.query_id: seen[q.query_id] for q in va.queries} == {q.query_id: 1 for q in va}
    assert {q.query_id: seen[q.query_id] for q in tr.queries} == {q.query_id: 1 for q in tr}


def test_experiment_prepares_each_evaluation_block_once_per_mode(monkeypatch):
    calls = Counter()
    in_train = []
    real_train = sirank.trainer.train

    def counting_train(*args, **kwargs):
        in_train.append(True)
        try:
            return real_train(*args, **kwargs)
        finally:
            in_train.pop()

    def counting(prepare):
        def wrapper(*args, **kwargs):
            calls["train" if in_train else "evaluation"] += 1
            return prepare(*args, **kwargs)
        return wrapper

    for module in (sirank.scoring, sirank.metrics, sirank.trainer):
        monkeypatch.setattr(module, "prepare_dataset", counting(module.prepare_dataset))
    monkeypatch.setattr(sirank.trainer, "train", counting_train)
    ds = generate(GeneratorConfig(num_queries=60, seed=11))
    report = run_experiment(ds, ExperimentConfig(seed=4, max_epochs=2, patience=1))
    assert len(report.cells) == 10
    # per mode: the test split, four case splits and the x1200 rescaled test split
    assert calls["evaluation"] <= 12
    assert calls["train"] == 20


def test_default_grid_is_five_losses_two_modes():
    cfg = ExperimentConfig()
    assert len(cfg.losses) == 5


def test_overflowing_validation_scores_are_a_training_error(monkeypatch):
    # one training query, so the first update is followed by the validation
    # pass, which scores with parameters too large for float64
    tr, va, _, _ = prepared(num_queries=40)
    tr = replace(tr, queries=tr.queries[:1])

    def blow_up(params, grads, lr):
        params["head_w"][...] = 1e308

    monkeypatch.setattr(sirank.trainer, "sgd_step", blow_up)
    with pytest.raises(TrainingError, match=r"^epoch 0: .* scores are not finite"):
        train(tr, va, TrainConfig(loss="ranknet", max_epochs=2, patience=1, seed=1))
