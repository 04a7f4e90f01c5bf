"""Per-query SGD training with validation-based early stopping, plus the
full loss-by-mode experiment grid and its report rendering. Each grid cell
trains one model and measures it on the test split with
``metrics.evaluate_scenarios``, as ``sirank evaluate`` does."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import Dataset, split_holdout
from .errors import ConfigError, ContractError, DomainError, TrainingError, ValidationError
from .losses import (
    DEFAULT_SOFTRANK_SIGMA,
    LOSS_NAMES,
    SOFTRANK_LIST_SIZE,
    loss_by_name,
)
from .metrics import (bonferroni, evaluate_block, evaluate_scenarios, random_ranker_mean_ndcg,
                      two_sample_t_test)
from .perturb import DEFAULT_RATE, DEFAULT_TARGETS, CASE_IDS
from .scoring import (
    DEFAULT_L,
    DEFAULT_WIDTHS,
    MODES,
    SirModel,
    backward,
    build_model,
    fit_stats,
    forward_block,
    prepare_dataset,
    score_block,
    sgd_step,
)

IMPROVEMENT_EPS = 1e-6
ALPHA = 0.05
DEFAULT_MAX_EPOCHS = 100
DEFAULT_PATIENCE = 20

# Step sizes differ per loss because the score-gradient scales do: RankNet sums
# up to n-1 pair gradients, ListNet gradients are probability differences
# bounded by 1, SoftRank gradients are derivatives of an NDCG in [0, 1].
DEFAULT_LEARNING_RATES = {
    "ranknet": 0.01,
    "lambdarank": 0.05,
    "listnet": 0.3,
    "listmle": 0.01,
    "softrank": 0.1,
}


@dataclass(frozen=True, kw_only=True)
class Schedule:
    """The training protocol that ``sirank train`` and every grid cell share."""
    max_epochs: int = DEFAULT_MAX_EPOCHS
    patience: int = DEFAULT_PATIENCE
    learning_rate: float | None = None  # None picks the per-loss default
    sigma: float = DEFAULT_SOFTRANK_SIGMA
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    compressor_dim: int = DEFAULT_L

    def __post_init__(self):
        if not (1 <= self.patience < self.max_epochs):
            raise ConfigError(f"patience {self.patience} must be in [1, max_epochs) "
                              f"with max_epochs {self.max_epochs}")
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and > 0, got {self.sigma}")
        lr = self.learning_rate
        if lr is not None and not (math.isfinite(lr) and lr >= 0):
            raise ConfigError(f"learning rate must be a finite number >= 0, got {lr}")

    def learning_rate_for(self, loss: str) -> float:
        """``learning_rate``, or without it the default step size of ``loss``."""
        return DEFAULT_LEARNING_RATES[loss] if self.learning_rate is None else self.learning_rate


@dataclass(frozen=True, kw_only=True)
class TrainConfig(Schedule):
    loss: str = "ranknet"
    mode: str = "sir"
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.loss!r}, expected one of {LOSS_NAMES}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        super().__post_init__()

    @property
    def resolved_learning_rate(self) -> float:
        return self.learning_rate_for(self.loss)


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_ndcg: list[float]
    stopping_reason: str  # "max_epochs" or "early_stop"
    best_epoch: int


def _softrank_indices(n_items: int, booked: int, epoch_rng: np.random.Generator) -> list[int]:
    """The items a softrank step scores: the booked one and at most
    ``SOFTRANK_LIST_SIZE - 1`` others drawn without replacement."""
    negatives = [j for j in range(n_items) if j != booked]
    keep = SOFTRANK_LIST_SIZE - 1
    if len(negatives) > keep:
        negatives = sorted(epoch_rng.choice(negatives, size=keep, replace=False).tolist())
    return sorted([booked] + negatives)


# A diverged step or validation pass raises TrainingError from the finiteness
# checks, so numpy's overflow warnings on the way there would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def train(train_ds: Dataset, val_ds: Dataset, config: TrainConfig) -> tuple[SirModel, TrainHistory]:
    """SGD over one query at a time, stopping when validation NDCG stalls.

    Both splits are prepared once, before the first step, so an input that
    standardizes to a non-finite value raises before epoch 0; each step scores one
    query's rows of the training block, passes the loss its booked item's
    index from the block and writes its gradients into one vector reused for
    every step, and every epoch scores the whole validation block. Both
    splits are raw; the model standardizes with ``fit_stats`` of the
    training split. Returns the model restored to its best-validation epoch.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ContractError("need nonempty training and validation splits")

    model = build_model(train_ds.schema, mode=config.mode, widths=config.widths,
                        compressor_dim=config.compressor_dim, seed=config.seed,
                        stats=fit_stats(train_ds, config.mode))
    loss_fn = loss_by_name(config.loss, config.sigma)
    lr = config.resolved_learning_rate

    train_losses: list[float] = []
    val_curve: list[float] = []
    best = -np.inf
    best_epoch = 0
    best_snapshot = model.params.flat.copy()
    train_block = prepare_dataset(model, train_ds)
    val_block = prepare_dataset(model, val_ds)
    grads = model.params.zeros_like()
    booked_items = (train_block.booked - train_block.offsets[:-1]).tolist()
    sizes = np.diff(train_block.offsets).tolist()
    bad_epochs = 0
    stopping = "max_epochs"

    for epoch in range(config.max_epochs):
        epoch_rng = np.random.default_rng([config.seed, epoch])
        order = epoch_rng.permutation(len(train_ds))
        total = 0.0
        for qi in order.tolist():
            item_indices = None
            booked = booked_items[qi]
            if config.loss == "softrank" and sizes[qi] > SOFTRANK_LIST_SIZE:
                item_indices = _softrank_indices(sizes[qi], booked, epoch_rng)
                booked = item_indices.index(booked)
            try:
                scores, cache = forward_block(model, train_block, qi, item_indices)
                # a finite sum means every score is finite
                if not math.isfinite(np.add.reduce(scores)) and not np.isfinite(scores).all():
                    raise TrainingError("scores became non-finite; training diverged")
                out = loss_fn(scores, booked)
                sgd_step(model.params, backward(model, cache, out.score_gradients, grads), lr)
            except (TrainingError, DomainError) as exc:
                raise TrainingError(
                    f"epoch {epoch}, query {train_ds.query_ids[qi]}: {exc}") from exc
            total += out.value
        train_losses.append(total / len(train_ds))

        try:
            val = evaluate_block(val_block, score_block(model, val_block)).mean
        except DomainError as exc:
            raise TrainingError(f"epoch {epoch}: {exc}") from exc
        val_curve.append(val)
        if val > best + IMPROVEMENT_EPS:
            best = val
            best_epoch = epoch
            best_snapshot = model.params.flat.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                stopping = "early_stop"
                break

    model.params.flat[...] = best_snapshot
    history = TrainHistory(train_loss=train_losses, val_ndcg=val_curve,
                           stopping_reason=stopping, best_epoch=best_epoch)
    return model, history


# ---------------------------------------------------------------------------
# experiment grid


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Schedule):
    seed: int = 0
    losses: tuple[str, ...] = LOSS_NAMES

    def __post_init__(self):
        unknown = [l for l in self.losses if l not in LOSS_NAMES]
        if unknown:
            raise ConfigError(f"unknown losses {unknown}")
        if not self.losses:
            raise ConfigError("need at least one loss")
        if len(set(self.losses)) != len(self.losses):
            raise ConfigError(f"each loss may appear once, got {list(self.losses)}")
        super().__post_init__()


@dataclass
class CellResult:
    loss: str
    mode: str
    seed: int
    val_ndcg: float | None = None
    test_ndcg: float | None = None
    case_ndcg: dict[int, float] = field(default_factory=dict)
    invariance_gap_c1200: float | None = None
    history: TrainHistory | None = None
    error: str | None = None


@dataclass
class TestCell:
    loss: str
    condition: str  # "test" or "case1".."case4"
    baseline_mean: float
    sir_mean: float
    t: float
    p_value: float
    significant: bool


@dataclass
class ExperimentReport:
    cells: list[CellResult]
    tests: list[TestCell]
    meta: dict

    @classmethod
    def from_json(cls, obj) -> ExperimentReport:
        """Inverse of ``asdict``; a missing key or a wrong-typed value raises ValidationError."""
        try:
            cells = [CellResult(
                loss=_text(c["loss"]), mode=_text(c["mode"]), seed=c["seed"],
                val_ndcg=_number_or_none(c["val_ndcg"]),
                test_ndcg=_number_or_none(c["test_ndcg"]),
                case_ndcg={int(k): _number_or_none(v) for k, v in c["case_ndcg"].items()},
                invariance_gap_c1200=_number_or_none(c["invariance_gap_c1200"]),
                history=TrainHistory(**c["history"]) if c.get("history") else None,
                error=_text(c["error"], nullable=True),
            ) for c in obj["cells"]]
            tests = [TestCell(**{**t, "loss": _text(t["loss"]),
                                 "condition": _text(t["condition"])}) for t in obj["tests"]]
            meta = obj["meta"]
            for key in REPORT_META_NUMBERS:
                if _number_or_none(meta[key]) is None:
                    raise TypeError(f"meta {key!r} must be a number")
        except KeyError as exc:
            raise ValidationError(f"experiment report lacks key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed experiment report: {exc}") from exc
        return cls(cells=cells, tests=tests, meta=meta)


# meta fields that render_text formats as numbers
REPORT_META_NUMBERS = ("alpha", "n_comparisons", "significance_threshold",
                       "random_ranker_test_ndcg")


def _number_or_none(v):
    if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))
                          or isinstance(v, int) and abs(v) > sys.float_info.max):
        raise TypeError(f"expected a float64 number or null, got {v!r}")
    return v


def _text(v, nullable: bool = False):
    if not (isinstance(v, str) or nullable and v is None):
        raise TypeError(f"expected a string{' or null' if nullable else ''}, got {v!r}")
    return v


CONDITIONS = ("test",) + tuple(f"case{cid}" for cid in CASE_IDS)
ROW_ORDER = ("deep_only", "sir")  # baseline row first, invariant row second
# The losses by the cost of their cells, dearest first; a sir cell costs more
# than its deep_only twin. The grid's workers start its cells in this order.
LOSS_COST_ORDER = ("softrank", "ranknet", "lambdarank", "listnet", "listmle")


def _cell_seed(base_seed: int, loss_index: int, mode_index: int) -> int:
    return base_seed * 100 + loss_index * 10 + mode_index


# run_experiment's shared inputs while its cells run; forked workers inherit them
_GRID: tuple | None = None


def _worker_count(cells: int) -> int:
    """One process per usable CPU; 1 runs the cells in-process, as it must
    without fork or beside another thread, which a fork would not copy."""
    import multiprocessing
    import threading
    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(cells, len(os.sched_getaffinity(0)))


def _run_cell(task: tuple[str, str, int], grid: tuple | None = None):
    """The cell of ``grid`` (``_GRID`` in a worker) and its per-query NDCG arrays."""
    loss, mode, seed = task
    config, train_raw, val_raw, test_raw = grid or _GRID
    cell = CellResult(loss=loss, mode=mode, seed=seed)
    tc = TrainConfig(loss=loss, mode=mode, seed=seed,
                     **{f.name: getattr(config, f.name) for f in fields(Schedule)})
    try:
        model, history = train(train_raw, val_raw, tc)
    except TrainingError as exc:
        cell.error = str(exc)
        return cell, {}
    cell.history = history
    cell.val_ndcg = float(history.val_ndcg[history.best_epoch])
    clean, cases, gap = evaluate_scenarios(model, test_raw, CASE_IDS, gap=True)
    cell.test_ndcg, cell.invariance_gap_c1200 = clean.mean, gap
    cell.case_ndcg = {cid: res.mean for cid, res in cases.items()}
    per_query = {(loss, mode, "test"): clean.per_query}
    per_query |= {(loss, mode, f"case{cid}"): res.per_query for cid, res in cases.items()}
    return cell, per_query


def run_experiment(ds: Dataset, config: ExperimentConfig) -> ExperimentReport:
    """Train every loss in both modes on one split, evaluate each model on
    the test split and under all perturbation cases, and compare the mode
    pairs with one-sided t-tests. Cells run in forked workers, which start
    the dearest first (``LOSS_COST_ORDER``); results and the first error are
    taken in grid order, so no output depends on how many."""
    global _GRID
    train_raw, val_raw, test_raw = split_holdout(ds, seed=config.seed)
    tasks = [(loss, mode, _cell_seed(config.seed, li, mi))
             for li, loss in enumerate(config.losses) for mi, mode in enumerate(ROW_ORDER)]
    grid = (config, train_raw, val_raw, test_raw)
    workers = _worker_count(len(tasks))
    if workers == 1:
        results = [_run_cell(task, grid) for task in tasks]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the t-tests below load it anyway; loaded before the fork, every
        # worker inherits it rather than importing it for softrank
        import scipy.special
        _GRID = grid
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                futures = {task: pool.submit(_run_cell, task) for task in sorted(
                    tasks, key=lambda t: (LOSS_COST_ORDER.index(t[0]), t[1] != "sir"))}
                results = [futures[task].result() for task in tasks]
        finally:
            _GRID = None
    cells = [cell for cell, _ in results]
    per_query = {key: values for _, arrays in results for key, values in arrays.items()}

    n_comparisons = len(CONDITIONS) * len(config.losses)
    threshold = bonferroni(ALPHA, n_comparisons)
    tests: list[TestCell] = []
    for loss in config.losses:
        for condition in CONDITIONS:
            key_b = (loss, "deep_only", condition)
            key_s = (loss, "sir", condition)
            if key_b not in per_query or key_s not in per_query:
                continue
            res = two_sample_t_test(per_query[key_b], per_query[key_s])
            tests.append(TestCell(
                loss=loss, condition=condition,
                baseline_mean=float(per_query[key_b].mean()),
                sir_mean=float(per_query[key_s].mean()),
                t=res.t, p_value=res.p_value,
                significant=bool(res.p_value < threshold),
            ))

    meta = {
        "seed": config.seed,
        "n_queries": len(ds),
        "split_sizes": [len(train_raw), len(val_raw), len(test_raw)],
        "losses": list(config.losses),
        "alpha": ALPHA,
        "n_comparisons": n_comparisons,
        "significance_threshold": threshold,
        "random_ranker_test_ndcg": random_ranker_mean_ndcg(test_raw),
        "learning_rates": {loss: config.learning_rate_for(loss) for loss in config.losses},
        "max_epochs": config.max_epochs,
        "patience": config.patience,
        "widths": list(config.widths),
        "compressor_dim": config.compressor_dim,
        "targets": list(DEFAULT_TARGETS),
        "rate": DEFAULT_RATE,
    }
    return ExperimentReport(cells=cells, tests=tests, meta=meta)


# ---------------------------------------------------------------------------
# rendering


def _fmt(v: float | None) -> str:
    return "  n/a " if v is None else f"{v:.4f}"


def render_text(report: ExperimentReport) -> str:
    """Aligned table: one row per trained model, NDCG per condition; a star
    marks conditions where the deep-only counterpart scored significantly
    lower than the invariant variant."""
    stars = {(t.loss, t.condition): t.significant for t in report.tests}
    lines = []
    header = f"{'model':<22} {'val':>8} {'test':>8} " + " ".join(
        f"{c:>8}" for c in CONDITIONS[1:])
    lines.append(header)
    lines.append("-" * len(header))
    for cell in report.cells:
        name = cell.loss if cell.mode == "deep_only" else f"{cell.loss} (inv)"
        if cell.error:
            lines.append(f"{name:<22} failed: {cell.error}")
            continue
        row = [f"{name:<22}", f"{_fmt(cell.val_ndcg):>8}", f"{_fmt(cell.test_ndcg):>8}"]
        for cid in CASE_IDS:
            mark = "*" if cell.mode == "sir" and stars.get((cell.loss, f"case{cid}")) else " "
            row.append(f"{_fmt(cell.case_ndcg.get(cid)):>7}{mark}")
        lines.append(" ".join(row))
    lines.append("")
    lines.append(f"star: counterpart significantly lower, one-sided Welch p < "
                 f"{report.meta['significance_threshold']:g} "
                 f"(alpha {report.meta['alpha']}, {report.meta['n_comparisons']} comparisons)")
    lines.append(f"random-ranker test NDCG: {report.meta['random_ranker_test_ndcg']:.4f}")
    return "\n".join(lines) + "\n"


def render_csv(report: ExperimentReport) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["loss", "mode", "val_ndcg", "test_ndcg"]
                    + [f"case{cid}_ndcg" for cid in CASE_IDS]
                    + ["invariance_gap_c1200", "error"])
    for cell in report.cells:
        writer.writerow([
            cell.loss, cell.mode, cell.val_ndcg, cell.test_ndcg,
            *[cell.case_ndcg.get(cid) for cid in CASE_IDS],
            cell.invariance_gap_c1200, cell.error or "",
        ])
    writer.writerow([])
    writer.writerow([f.name for f in fields(TestCell)])
    writer.writerows(astuple(t) for t in report.tests)
    return buf.getvalue()
