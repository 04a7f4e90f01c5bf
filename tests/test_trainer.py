import concurrent.futures
import json
import math
import multiprocessing
import os
import re
import threading
import warnings
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from sirank.data import fit_standardization, split_holdout
from sirank.errors import ConfigError, ContractError, TrainingError, ValidationError
from sirank.generator import GeneratorConfig, generate
from sirank.losses import LOSS_NAMES, SOFTRANK_LIST_SIZE, loss_by_name
from sirank.metrics import bonferroni, mean_ndcg, random_ranker_mean_ndcg
import sirank.metrics
import sirank.scoring
import sirank.trainer
from sirank.scoring import build_model, fit_stats, prepare_dataset
from sirank.trainer import (
    DEFAULT_LEARNING_RATES,
    LOSS_COST_ORDER,
    ROW_ORDER,
    CellResult,
    ExperimentConfig,
    TrainConfig,
    _cell_seed,
    _softrank_indices,
    render_csv,
    render_text,
    run_experiment,
    train,
)

from conftest import (LABEL_BREAKS, break_labels, edited, reference_backward, reference_forward,
                      with_queries)


def prepared(num_queries=60, seed=11, split_seed=0):
    """Raw training, validation and test splits of a generated corpus."""
    ds = generate(GeneratorConfig(num_queries=num_queries, seed=seed))
    return split_holdout(ds, seed=split_seed)


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


def test_configs_refuse_a_non_finite_sigma():
    # an infinite sigma flattens softrank's gradient to zero: every step is a no-op
    for sigma in (math.inf, -math.inf, math.nan):
        for config in (TrainConfig, ExperimentConfig):
            with pytest.raises(ConfigError, match=r"^sigma must be finite and > 0, got "):
                config(sigma=sigma)


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
    tr, va, te = prepared(num_queries=40)
    cfg = TrainConfig(loss="ranknet", learning_rate=0.0, max_epochs=30, patience=3, seed=5)
    model, hist = train(tr, va, cfg)
    # epoch 0 improves over -inf, then `patience` flat epochs in a row
    assert len(hist.val_ndcg) == cfg.patience + 1
    assert hist.stopping_reason == "early_stop"
    assert hist.best_epoch == 0
    assert len(set(hist.val_ndcg)) == 1


def test_max_epochs_reached_when_patience_never_exhausted():
    tr, va, te = prepared(num_queries=40)
    cfg = TrainConfig(loss="ranknet", max_epochs=3, patience=2, seed=5)
    model, hist = train(tr, va, cfg)
    assert hist.stopping_reason == "max_epochs"
    assert len(hist.val_ndcg) == 3
    assert len(hist.train_loss) == 3


def test_history_is_deterministic_for_fixed_seed():
    tr, va, te = prepared(num_queries=40)
    cfg = TrainConfig(loss="listmle", max_epochs=4, patience=3, seed=9)
    _, h1 = train(tr, va, cfg)
    _, h2 = train(tr, va, cfg)
    assert h1.train_loss == h2.train_loss
    assert h1.val_ndcg == h2.val_ndcg
    assert h1.best_epoch == h2.best_epoch
    _, h3 = train(tr, va, TrainConfig(loss="listmle", max_epochs=4, patience=3, seed=10))
    assert h3.train_loss != h1.train_loss


def test_returned_model_is_restored_to_best_epoch():
    tr, va, te = prepared(num_queries=60)
    cfg = TrainConfig(loss="ranknet", max_epochs=10, patience=9, seed=2)
    model, hist = train(tr, va, cfg)
    val_now = mean_ndcg(model, va).mean
    assert val_now == pytest.approx(max(hist.val_ndcg), abs=1e-6)
    assert hist.val_ndcg[hist.best_epoch] == pytest.approx(max(hist.val_ndcg), abs=1e-6)


def test_history_serializes_to_json():
    tr, va, te = prepared(num_queries=40)
    _, hist = train(tr, va, TrainConfig(max_epochs=2, patience=1, seed=0))
    blob = json.dumps(asdict(hist))
    back = json.loads(blob)
    assert back["stopping_reason"] in ("max_epochs", "early_stop")
    assert len(back["train_loss"]) == len(back["val_ndcg"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_aborts_with_epoch_and_query_context():
    tr, va, te = prepared(num_queries=40)
    cfg = TrainConfig(loss="ranknet", learning_rate=20.0, max_epochs=5, patience=4, seed=0)
    with pytest.raises(TrainingError, match=r"epoch \d+, query q\d+"):
        train(tr, va, cfg)


def test_divergence_raises_only_a_training_error():
    # the overflowing forward pass is reported once, by the finiteness check
    tr, va, te = prepared(num_queries=40)
    cfg = TrainConfig(loss="ranknet", learning_rate=20.0, max_epochs=5, patience=4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingError, match="non-finite"):
            train(tr, va, cfg)


def with_scores(monkeypatch, fill):
    """Make train's forward pass return ``fill(n)`` as the scores of a
    query of n selected items, with the true cache."""
    real = sirank.trainer.forward_block

    def forward_block(*args):
        scores, cache = real(*args)
        return np.asarray(fill(scores.size), dtype=np.float64), cache

    monkeypatch.setattr(sirank.trainer, "forward_block", forward_block)


def test_training_takes_finite_scores_whose_sum_overflows(monkeypatch):
    # the one-sum check overflows to inf; the entrywise test passes the scores
    # (no step moves the parameters, so no gradient grows with the epochs)
    with_scores(monkeypatch, lambda n: np.full(n, 1e308))
    tr, va, _ = prepared(num_queries=40)
    _, hist = train(tr, va, TrainConfig(loss="ranknet", max_epochs=2, patience=1,
                                        learning_rate=0.0, seed=0))
    # every pair is tied, so each query's loss is (n - 1) log 2
    want = sum((q.n_items - 1) * math.log(2.0) for q in tr.queries) / len(tr)
    assert hist.train_loss == pytest.approx([want, want], rel=1e-12)


@pytest.mark.parametrize("bad", [[np.inf, -np.inf], [np.nan], [np.inf], [-np.inf]])
def test_non_finite_scores_stop_training_at_their_query(monkeypatch, bad):
    with_scores(monkeypatch, lambda n: np.r_[bad, np.zeros(n - len(bad))])
    tr, va, _ = prepared(num_queries=40)
    first = tr.query_ids[np.random.default_rng([0, 0]).permutation(len(tr))[0]]
    with pytest.raises(TrainingError) as err:
        train(tr, va, TrainConfig(loss="ranknet", max_epochs=2, patience=1, seed=0))
    assert str(err.value) == (f"epoch 0, query {first}: scores became non-finite; "
                              "training diverged")


def reference_epochs(train_ds, config):
    """The per-step work of ``train`` written as a plain loop: the frozen
    reference forward pass on the query, the loss, the frozen reference
    backward pass, then ``value -= lr * g`` per parameter by name, with
    train's epoch RNG and softrank sub-sampling. Returns the parameters after
    each epoch and the mean training loss of each epoch. The stats are
    fitted on the raw training split, the scale-variant features too for a
    deep_only model."""
    stats = fit_standardization(train_ds, train_ds.schema,
                                include_scalevariant=(config.mode == "deep_only"))
    model = build_model(train_ds.schema, mode=config.mode, widths=config.widths,
                        compressor_dim=config.compressor_dim, seed=config.seed, stats=stats)
    block = prepare_dataset(model, train_ds)
    loss_fn = loss_by_name(config.loss, config.sigma)
    lr = config.resolved_learning_rate
    snapshots, losses = [], []
    for epoch in range(config.max_epochs):
        epoch_rng = np.random.default_rng([config.seed, epoch])
        total = 0.0
        for qi in epoch_rng.permutation(len(train_ds)):
            q = train_ds.queries[qi]
            rows, booked = None, q.booked_index
            if config.loss == "softrank" and q.n_items > SOFTRANK_LIST_SIZE:
                rows = _softrank_indices(q.n_items, booked, epoch_rng)
                booked = rows.index(booked)
            scores, cache = reference_forward(model, block, train_ds.category_ids, qi, rows)
            out = loss_fn(scores, booked)
            grads = reference_backward(model, cache, out.score_gradients)
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
    tr, va, _ = split_holdout(ds, seed=0)
    assert min(q.n_items for q in tr.queries) > SOFTRANK_LIST_SIZE
    cfg = TrainConfig(loss=loss, mode=mode, max_epochs=2, patience=1, seed=4)
    model, hist = train(tr, va, cfg)
    snapshots, losses = reference_epochs(tr, cfg)
    assert hist.train_loss == losses[:len(hist.train_loss)]
    want = snapshots[hist.best_epoch]
    assert list(model.params) == list(want)
    for name, value in model.params.items():
        assert value.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("case", LABEL_BREAKS)
def test_label_rule_is_enforced_where_data_is_prepared(case):
    tr, va, _ = prepared(num_queries=40)
    bad = tr.queries[3]
    model = build_model(tr.schema, widths=(8, 4), compressor_dim=2, stats=fit_stats(tr, "sir"))
    cfg = TrainConfig(loss="ranknet", max_epochs=2, patience=1, seed=1)

    def broken():  # a later bad query is not the one named
        return with_queries(tr, {3: break_labels(bad, case),
                                 7: break_labels(tr.queries[7], "none_booked")})

    rule = {"two_booked": "multiple booked items", "none_booked": "no booked item",
            "label_of_two": f"item {bad.item_ids[(bad.booked_index + 1) % bad.n_items]}: "
                            "label must be 0 or 1"}[case]
    # each call gets a dataset made from the broken records, which raises there
    for call in (lambda: prepare_dataset(model, broken()), lambda: train(broken(), va, cfg),
                 lambda: mean_ndcg(model, broken()),
                 lambda: mean_ndcg(lambda q: np.zeros(q.n_items), broken())):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == f"query {bad.query_id}: {rule}"


def test_bad_record_found_in_training_names_epoch_query_and_feature(monkeypatch):
    tr, va, te = prepared(num_queries=40)
    q = tr.queries[3]
    feature = tr.schema.item_features_scalevariant[0]
    steps = []
    monkeypatch.setattr(sirank.trainer, "sgd_step", lambda *args: steps.append(args))
    # the training split is checked as a whole, where it is made, before the first step
    with pytest.raises(ValidationError, match=rf"^query {q.query_id}: "
                                              rf"item {re.escape(q.item_ids[1])}: "
                                              rf"scale-variant feature '{feature}'"):
        broken = with_queries(tr, {3: replace(q, scalevariant=edited(q.scalevariant,
                                                                    (1, 0), -1.0))})
        train(broken, va, TrainConfig(loss="ranknet", max_epochs=2, patience=1, seed=1))
    assert steps == []


# --- contract checks ---------------------------------------------------------

@pytest.mark.parametrize("mode", ["sir", "deep_only"])
def test_validation_split_needs_no_stats(mode):
    # train fits the model's stats on its raw training split alone and
    # keeps nothing between calls, on the splits or anywhere else
    ds = generate(GeneratorConfig(num_queries=40, seed=1))
    tr, va, _ = split_holdout(ds, seed=0)

    def attributes(split):
        records = [set(vars(q)) for q in split.queries]  # the views are made (and kept) first
        return set(vars(split)), records

    before = [attributes(tr), attributes(va)]
    cfg = TrainConfig(mode=mode, max_epochs=3, patience=2, seed=2)
    model, hist = train(tr, va, cfg)
    want = fit_standardization(tr, ds.schema, include_scalevariant=(mode == "deep_only"))
    assert model.stats.to_json() == want.to_json()
    assert model.stats.covers_scalevariant == (mode == "deep_only")
    again, again_hist = train(tr, va, cfg)
    assert again.params.flat.tobytes() == model.params.flat.tobytes()
    assert again_hist.train_loss == hist.train_loss
    assert again_hist.val_ndcg == hist.val_ndcg
    assert [attributes(tr), attributes(va)] == before


# --- softrank list truncation -------------------------------------------------

def test_softrank_indices_keep_booked_and_cap_length():
    ds = generate(GeneratorConfig(num_queries=10, items_min=20, items_max=25, seed=3))
    rng = np.random.default_rng(0)
    for q in ds.queries:
        idx = _softrank_indices(q.n_items, q.booked_index, rng)
        assert len(idx) == 9
        assert q.booked_index in idx
        assert idx == sorted(idx)
        assert len(set(idx)) == 9


def test_softrank_indices_resampled_per_epoch():
    ds = generate(GeneratorConfig(num_queries=4, items_min=25, items_max=25, seed=3))
    q = ds.queries[0]
    a = _softrank_indices(q.n_items, q.booked_index, np.random.default_rng([7, 0]))
    b = _softrank_indices(q.n_items, q.booked_index, np.random.default_rng([7, 1]))
    assert a != b


def test_softrank_short_lists_left_alone():
    ds = generate(GeneratorConfig(num_queries=10, items_min=5, items_max=8, seed=3))
    rng = np.random.default_rng(0)
    for q in ds.queries:
        idx = _softrank_indices(q.n_items, q.booked_index, rng)
        assert idx == list(range(q.n_items))


def test_softrank_trains_on_long_lists():
    ds = generate(GeneratorConfig(num_queries=30, items_min=20, items_max=25, seed=3))
    tr, va, _ = split_holdout(ds, seed=0)
    model, hist = train(tr, va, TrainConfig(loss="softrank", max_epochs=2, patience=1, seed=0))
    assert len(hist.train_loss) == 2
    assert all(np.isfinite(v) for v in hist.train_loss)


# --- learning quality ---------------------------------------------------------

@pytest.mark.parametrize("loss", ["ranknet", "lambdarank", "listnet", "listmle", "softrank"])
def test_every_loss_beats_random_ranker(loss):
    tr, va, te = prepared(num_queries=200, seed=11)
    cfg = TrainConfig(loss=loss, mode="sir", max_epochs=15, patience=14, seed=3)
    model, hist = train(tr, va, cfg)
    achieved = mean_ndcg(model, te).mean
    floor = random_ranker_mean_ndcg(te)
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
    blob = json.dumps(asdict(report), sort_keys=True)
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
    json.dumps(asdict(report))  # still serializable


def test_experiment_config_rejects_unknown_loss():
    with pytest.raises(ConfigError):
        ExperimentConfig(losses=("ranknet", "mystery"))


def test_experiment_config_rejects_a_repeated_loss():
    # a repeated loss would train its pair of cells twice, and its t-tests
    # and the Bonferroni count would hold the duplicate
    for losses in (("ranknet", "ranknet"), ("listnet", "ranknet", "listnet")):
        with pytest.raises(ConfigError, match=r"each loss may appear once"):
            ExperimentConfig(losses=losses)


def test_experiment_config_checks_epochs_and_patience_like_train_config():
    for max_epochs, patience in ((1, 0), (10, 10), (5, 0), (3, 7)):
        with pytest.raises(ConfigError, match=r"patience") as train_err:
            TrainConfig(max_epochs=max_epochs, patience=patience)
        with pytest.raises(ConfigError) as experiment_err:
            ExperimentConfig(max_epochs=max_epochs, patience=patience)
        assert str(experiment_err.value) == str(train_err.value)
    ExperimentConfig(max_epochs=2, patience=1)


def test_configs_share_one_keyword_only_schedule():
    schedule = {f.name: f.default for f in fields(sirank.trainer.Schedule)}
    for config in (TrainConfig, ExperimentConfig):
        assert {f.name: f.default for f in fields(config) if f.name in schedule} == schedule
        with pytest.raises(TypeError):
            config(0)
    assert ExperimentConfig(learning_rate=0.2).learning_rate_for("listmle") == 0.2


def test_each_validation_query_is_prepared_once(monkeypatch):
    tr, va, te = prepared(num_queries=60)
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


def test_each_experiment_cell_prepares_its_test_split_once(monkeypatch):
    calls = Counter()
    in_train = []
    real_train = sirank.trainer.train

    def counting_train(*args, **kwargs):
        in_train.append(True)
        try:
            return real_train(*args, **kwargs)
        finally:
            in_train.pop()

    def counting(prepare, kind=None):
        def wrapper(*args, **kwargs):
            calls[kind or ("train" if in_train else "evaluation")] += 1
            return prepare(*args, **kwargs)
        return wrapper

    for module in (sirank.scoring, sirank.metrics, sirank.trainer):
        monkeypatch.setattr(module, "prepare_dataset", counting(module.prepare_dataset))
    monkeypatch.setattr(sirank.metrics, "prepare_rescale",
                        counting(sirank.metrics.prepare_rescale, "rescale"))
    monkeypatch.setattr(sirank.trainer, "train", counting_train)
    # in-process, so the counters see the cells' calls too
    monkeypatch.setattr(sirank.trainer, "_worker_count", lambda cells: 1)
    ds = generate(GeneratorConfig(num_queries=60, seed=11))
    report = run_experiment(ds, ExperimentConfig(seed=4, max_epochs=2, patience=1))
    assert len(report.cells) == 10
    # per cell: the test split, once; the four cases and the x1200 copy are
    # made from its block
    assert calls["evaluation"] == 10
    assert calls["rescale"] == 5 * 10
    # per cell: the training and validation splits
    assert calls["train"] == 2 * 10


def test_grid_workers_start_the_dearest_cells_first_and_report_in_grid_order(monkeypatch):
    assert sorted(LOSS_COST_ORDER) == sorted(LOSS_NAMES)
    submitted = []

    class RecordingPool:  # takes the cells in the order the grid submits them; trains nothing
        def __init__(self, workers, mp_context):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, run_cell, task):
            submitted.append(task)
            future = concurrent.futures.Future()
            future.set_result((CellResult(loss=task[0], mode=task[1], seed=task[2]), {}))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sirank.trainer, "_worker_count", lambda cells: 2)
    report = run_experiment(generate(GeneratorConfig(num_queries=30, seed=11)),
                            ExperimentConfig(seed=4, max_epochs=2, patience=1))
    assert [task[:2] for task in submitted] == [(loss, mode) for loss in LOSS_COST_ORDER
                                                for mode in ("sir", "deep_only")]
    assert [(c.loss, c.mode, c.seed) for c in report.cells] == [
        (loss, mode, _cell_seed(4, li, mi)) for li, loss in enumerate(LOSS_NAMES)
        for mi, mode in enumerate(ROW_ORDER)]


def grid_in(monkeypatch, workers, ds, config):
    monkeypatch.setattr(sirank.trainer, "_worker_count", lambda cells: min(cells, workers))
    return run_experiment(ds, config)


def test_worker_pool_and_in_process_grids_give_the_same_bytes(monkeypatch):
    # listnet's step is raised until its sir cell, and only that one, diverges
    monkeypatch.setitem(sirank.trainer.DEFAULT_LEARNING_RATES, "listnet", 1.5)
    ds = generate(GeneratorConfig(num_queries=60, seed=11))
    config = ExperimentConfig(seed=4, max_epochs=2, patience=1)
    serial = grid_in(monkeypatch, 1, ds, config)
    pooled = grid_in(monkeypatch, 2, ds, config)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1  # the pool's own threads are joined too
    assert len(pooled.cells) == 10
    assert [(c.loss, c.mode) for c in pooled.cells if c.error] == [("listnet", "sir")]
    assert (json.dumps(asdict(pooled), sort_keys=True)
            == json.dumps(asdict(serial), sort_keys=True))
    assert render_text(pooled) == render_text(serial)
    assert render_csv(pooled) == render_csv(serial)


def test_a_cell_error_reaches_the_caller_as_in_process(monkeypatch):
    real_train = sirank.trainer.train

    def failing_train(train_ds, val_ds, config):
        if config.loss == "listnet":
            raise ContractError(f"broken cell {config.loss}/{config.mode}")
        return real_train(train_ds, val_ds, config)

    monkeypatch.setattr(sirank.trainer, "train", failing_train)
    ds = generate(GeneratorConfig(num_queries=60, seed=11))
    config = ExperimentConfig(seed=4, losses=("ranknet", "listnet", "listmle"),
                              max_epochs=2, patience=1)
    errors = []
    for workers in (1, 2):
        with pytest.raises(ContractError) as err:
            grid_in(monkeypatch, workers, ds, config)
        errors.append((type(err.value), str(err.value)))
        assert multiprocessing.active_children() == []
    # the first failing cell in grid order, whichever worker failed first
    assert errors == [(ContractError, "broken cell listnet/deep_only")] * 2
    assert sirank.trainer._GRID is None


def test_worker_count_is_bounded_by_cells_and_usable_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert 1 <= sirank.trainer._worker_count(10) <= min(10, cpus)
    assert sirank.trainer._worker_count(1) == 1
    # a fork copies only the calling thread, so beside another one the cells run in-process
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert sirank.trainer._worker_count(10) == 1
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()


def test_default_grid_is_five_losses_two_modes():
    cfg = ExperimentConfig()
    assert len(cfg.losses) == 5


def test_overflowing_validation_scores_are_a_training_error(monkeypatch):
    # the epoch's last update is followed by the validation pass, which
    # scores with parameters too large for float64
    tr, va, _ = prepared(num_queries=40)
    steps = []

    def blow_up(params, grads, lr):
        steps.append(lr)
        if len(steps) == len(tr):
            params["head_w"][...] = 1e308

    monkeypatch.setattr(sirank.trainer, "sgd_step", blow_up)
    with pytest.raises(TrainingError, match=r"^epoch 0: .* scores are not finite"):
        train(tr, va, TrainConfig(loss="ranknet", max_epochs=2, patience=1, seed=1))
