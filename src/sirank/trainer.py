"""Per-query SGD training with validation-based early stopping, plus the
full loss-by-mode experiment grid and its report rendering."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, apply_standardization, fit_standardization, split_holdout
from .errors import ConfigError, ContractError, DomainError, TrainingError, ValidationError
from .losses import (
    DEFAULT_SOFTRANK_SIGMA,
    LOSS_NAMES,
    SOFTRANK_LIST_SIZE,
    loss_by_name,
)
from .metrics import bonferroni, evaluate_block, random_ranker_mean_ndcg, two_sample_t_test
from .perturb import DEFAULT_RATE, DEFAULT_TARGETS, CASE_IDS, PerturbationCase, apply_case
from .scoring import (
    DEFAULT_L,
    DEFAULT_WIDTHS,
    MODES,
    SirModel,
    backward,
    block_invariance_gap,
    build_model,
    forward_block,
    prepare_dataset,
    scale_query,
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


def _check_schedule(max_epochs: int, patience: int, learning_rate: float | None, sigma: float):
    """The checks that TrainConfig and ExperimentConfig share."""
    if not (1 <= patience < max_epochs):
        raise ConfigError(f"patience {patience} must be in [1, max_epochs) "
                          f"with max_epochs {max_epochs}")
    if not (sigma > 0):
        raise ConfigError(f"sigma must be > 0, got {sigma}")
    if learning_rate is not None and not (math.isfinite(learning_rate) and learning_rate >= 0):
        raise ConfigError(f"learning rate must be a finite number >= 0, got {learning_rate}")


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "ranknet"
    mode: str = "sir"
    max_epochs: int = DEFAULT_MAX_EPOCHS
    patience: int = DEFAULT_PATIENCE
    learning_rate: float | None = None  # None picks the per-loss default
    sigma: float = DEFAULT_SOFTRANK_SIGMA
    seed: int = 0
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    compressor_dim: int = DEFAULT_L

    def __post_init__(self):
        if self.loss not in LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.loss!r}, expected one of {LOSS_NAMES}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        _check_schedule(self.max_epochs, self.patience, self.learning_rate, self.sigma)

    @property
    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return DEFAULT_LEARNING_RATES[self.loss]


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_ndcg: list[float]
    stopping_reason: str  # "max_epochs" or "early_stop"
    best_epoch: int

    def to_json(self) -> dict:
        return {
            "train_loss": [float(v) for v in self.train_loss],
            "val_ndcg": [float(v) for v in self.val_ndcg],
            "stopping_reason": self.stopping_reason,
            "best_epoch": int(self.best_epoch),
        }


def _softrank_indices(query, epoch_rng: np.random.Generator) -> list[int]:
    booked = query.booked_index
    negatives = [j for j in range(query.n_items) if j != booked]
    keep = SOFTRANK_LIST_SIZE - 1
    if len(negatives) > keep:
        negatives = sorted(epoch_rng.choice(negatives, size=keep, replace=False).tolist())
    return sorted([booked] + negatives)


def train(train_ds: Dataset, val_ds: Dataset, config: TrainConfig) -> tuple[SirModel, TrainHistory]:
    """SGD over one query at a time, stopping when validation NDCG stalls.

    Both splits are prepared once, before the first step, so a bad record in
    either raises its data error before epoch 0; each step scores one
    query's rows of the training block and writes its gradients into one
    vector reused for every step, and every epoch scores the whole
    validation block. The model standardizes with the training split's
    stats; the validation split's stats, if any, are not read. Returns the
    model restored to its best-validation epoch.
    """
    if train_ds.stats is None:
        raise ContractError("the training split needs standardization stats")
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ContractError("need nonempty training and validation splits")

    model = build_model(train_ds.schema, mode=config.mode, widths=config.widths,
                        compressor_dim=config.compressor_dim, seed=config.seed,
                        stats=train_ds.stats)
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
    bad_epochs = 0
    stopping = "max_epochs"

    for epoch in range(config.max_epochs):
        epoch_rng = np.random.default_rng([config.seed, epoch])
        order = epoch_rng.permutation(len(train_ds))
        total = 0.0
        for qi in order:
            q = train_ds.queries[qi]
            item_indices = None
            labels = q.labels
            if config.loss == "softrank" and q.n_items > SOFTRANK_LIST_SIZE:
                item_indices = _softrank_indices(q, epoch_rng)
                labels = labels[item_indices]
            try:
                scores, cache = forward_block(model, train_block, qi, item_indices)
                if not np.all(np.isfinite(scores)):
                    raise TrainingError("scores became non-finite; training diverged")
                out = loss_fn(scores, labels)
                sgd_step(model.params, backward(model, cache, out.score_gradients, grads), lr)
            except (TrainingError, DomainError) as exc:
                raise TrainingError(
                    f"epoch {epoch}, query {q.query_id}: {exc}") from exc
            total += out.value
        train_losses.append(total / len(train_ds))

        try:
            val = evaluate_block(model, val_block).mean
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


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    losses: tuple[str, ...] = LOSS_NAMES
    max_epochs: int = DEFAULT_MAX_EPOCHS
    patience: int = DEFAULT_PATIENCE
    learning_rate: float | None = None
    sigma: float = DEFAULT_SOFTRANK_SIGMA
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    compressor_dim: int = DEFAULT_L

    def __post_init__(self):
        unknown = [l for l in self.losses if l not in LOSS_NAMES]
        if unknown:
            raise ConfigError(f"unknown losses {unknown}")
        if not self.losses:
            raise ConfigError("need at least one loss")
        _check_schedule(self.max_epochs, self.patience, self.learning_rate, self.sigma)


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

    def to_json(self) -> dict:
        return {
            "loss": self.loss,
            "mode": self.mode,
            "seed": int(self.seed),
            "val_ndcg": self.val_ndcg,
            "test_ndcg": self.test_ndcg,
            "case_ndcg": {str(k): v for k, v in sorted(self.case_ndcg.items())},
            "invariance_gap_c1200": self.invariance_gap_c1200,
            "history": self.history.to_json() if self.history else None,
            "error": self.error,
        }


@dataclass
class TestCell:
    loss: str
    condition: str  # "test" or "case1".."case4"
    baseline_mean: float
    sir_mean: float
    t: float
    p_value: float
    significant: bool

    def to_json(self) -> dict:
        return {
            "loss": self.loss, "condition": self.condition,
            "baseline_mean": self.baseline_mean, "sir_mean": self.sir_mean,
            "t": self.t, "p_value": self.p_value, "significant": self.significant,
        }


@dataclass
class ExperimentReport:
    cells: list[CellResult]
    tests: list[TestCell]
    meta: dict

    def to_json(self) -> dict:
        return {
            "meta": self.meta,
            "cells": [c.to_json() for c in self.cells],
            "tests": [t.to_json() for t in self.tests],
        }

    @classmethod
    def from_json(cls, obj) -> ExperimentReport:
        """Inverse of ``to_json``; a missing key or a value of the wrong type
        raises ValidationError."""
        try:
            cells = [CellResult(
                loss=c["loss"], mode=c["mode"], seed=c["seed"],
                val_ndcg=_number_or_none(c["val_ndcg"]),
                test_ndcg=_number_or_none(c["test_ndcg"]),
                case_ndcg={int(k): _number_or_none(v) for k, v in c["case_ndcg"].items()},
                invariance_gap_c1200=_number_or_none(c["invariance_gap_c1200"]),
                history=TrainHistory(**c["history"]) if c.get("history") else None,
                error=c["error"],
            ) for c in obj["cells"]]
            tests = [TestCell(**t) for t in obj["tests"]]
            meta = obj["meta"]
            for key in REPORT_META_NUMBERS:
                if _number_or_none(meta[key]) is None:
                    raise TypeError(f"meta {key!r} must be a number")
        except KeyError as exc:
            raise ValidationError(f"experiment report lacks key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed experiment report: {exc}") from exc
        return cls(cells=cells, tests=tests, meta=meta)

    def cell(self, loss: str, mode: str) -> CellResult:
        for c in self.cells:
            if c.loss == loss and c.mode == mode:
                return c
        raise KeyError(f"no cell for loss={loss} mode={mode}")


# meta fields that render_text formats as numbers
REPORT_META_NUMBERS = ("alpha", "n_comparisons", "significance_threshold",
                       "random_ranker_test_ndcg")


def _number_or_none(v):
    if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
        raise TypeError(f"expected a number or null, got {v!r}")
    return v


CONDITIONS = ("test",) + tuple(f"case{cid}" for cid in CASE_IDS)
ROW_ORDER = ("deep_only", "sir")  # baseline row first, invariant row second


def _cell_seed(base_seed: int, loss_index: int, mode_index: int) -> int:
    return base_seed * 100 + loss_index * 10 + mode_index


def run_experiment(ds: Dataset, config: ExperimentConfig) -> ExperimentReport:
    """Train every loss in both modes on one split, evaluate under all
    perturbation cases, and compare the mode pairs with one-sided t-tests."""
    train_raw, val_raw, test_raw = split_holdout(ds, seed=config.seed)

    train_views: dict[str, Dataset] = {}
    for mode in MODES:
        stats = fit_standardization(train_raw, ds.schema,
                                    include_scalevariant=(mode == "deep_only"))
        train_views[mode] = apply_standardization(train_raw, stats)
    cases = {cid: apply_case(test_raw, PerturbationCase(cid)) for cid in CASE_IDS}
    scaled_test = replace(test_raw, queries=[scale_query(q, 1200.0) for q in test_raw.queries])
    blocks: dict[str, tuple] = {}  # once per mode: they depend on schema, mode and stats

    cells: list[CellResult] = []
    per_query: dict[tuple[str, str, str], np.ndarray] = {}
    for li, loss in enumerate(config.losses):
        for mi, mode in enumerate(ROW_ORDER):
            seed = _cell_seed(config.seed, li, mi)
            cell = CellResult(loss=loss, mode=mode, seed=seed)
            cells.append(cell)
            tc = TrainConfig(loss=loss, mode=mode, max_epochs=config.max_epochs,
                             patience=config.patience, learning_rate=config.learning_rate,
                             sigma=config.sigma, seed=seed, widths=config.widths,
                             compressor_dim=config.compressor_dim)
            try:
                model, history = train(train_views[mode], val_raw, tc)
            except TrainingError as exc:
                cell.error = str(exc)
                continue
            cell.history = history
            cell.val_ndcg = float(history.val_ndcg[history.best_epoch])
            if mode not in blocks:
                blocks[mode] = (prepare_dataset(model, test_raw),
                                {cid: prepare_dataset(model, c) for cid, c in cases.items()},
                                prepare_dataset(model, scaled_test))
            test_block, case_blocks, scaled_block = blocks[mode]
            clean = evaluate_block(model, test_block)
            cell.test_ndcg = clean.mean
            per_query[(loss, mode, "test")] = clean.per_query
            for cid, block in case_blocks.items():
                res = evaluate_block(model, block)
                cell.case_ndcg[cid] = res.mean
                per_query[(loss, mode, f"case{cid}")] = res.per_query
            cell.invariance_gap_c1200 = block_invariance_gap(
                model, score_block(model, test_block), scaled_block)

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
        "learning_rates": {
            loss: (config.learning_rate if config.learning_rate is not None
                   else DEFAULT_LEARNING_RATES[loss])
            for loss in config.losses
        },
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
    writer.writerow(["loss", "condition", "baseline_mean", "sir_mean", "t", "p_value",
                     "significant"])
    for t in report.tests:
        writer.writerow([t.loss, t.condition, t.baseline_mean, t.sir_mean, t.t,
                         t.p_value, t.significant])
    return buf.getvalue()
