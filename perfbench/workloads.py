"""The benchmark's three workloads, each a closed loop with one caller.

Every workload builds its inputs from the seed in ``setup`` and then runs one
operation per ``op`` call; the runner repeats ``op`` until the measuring time
is up. Only public sirank functions are called, and always through their
module attribute, so a tracer that swaps a module attribute sees the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sirank as sr
import sirank.cli

SIZES = {
    # train_sgd: 2,000 queries split 1,260 / 140 / 600, as in the baseline.
    # experiment_grid: all ten cells in about seven seconds on a 2-vCPU host.
    # cli_evaluate: checkpoints trained on a small split, then evaluated on
    # a separate generated file.
    "full": {"train_queries": 2000, "train_epochs": 2,
             "grid_queries": 300, "grid_epochs": 2,
             "cli_train_queries": 200, "cli_eval_queries": 300, "cli_epochs": 2},
    "smoke": {"train_queries": 200, "train_epochs": 2,
              "grid_queries": 60, "grid_epochs": 2,
              "cli_train_queries": 60, "cli_eval_queries": 40, "cli_epochs": 2},
}

INVARIANCE_TOL = 1e-9


class Checks:
    """Pass and fail tallies per named correctness check."""

    def __init__(self):
        self.tally: dict[str, list[int]] = {}

    def record(self, name: str, ok: bool) -> bool:
        passed_failed = self.tally.setdefault(name, [0, 0])
        passed_failed[0 if ok else 1] += 1
        return bool(ok)

    @property
    def all_passed(self) -> bool:
        return all(failed == 0 for _, failed in self.tally.values())


@dataclass
class OpResult:
    attempted: int
    failed: int
    timings: dict = field(default_factory=dict)


def params_sha256(model) -> str:
    """Digest of every parameter's name, shape and float64 bytes."""
    digest = hashlib.sha256()
    for name, value in sorted(model.params.items(), key=lambda kv: kv[0]):
        arr = np.ascontiguousarray(getattr(value, "data", value), dtype=np.float64)
        digest.update(name.encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


class TrainSgd:
    """One ranknet ``sr.train`` call in ``sir`` mode per operation."""

    name = "train_sgd"

    def __init__(self, seed: int, sizes: dict, workdir: Path, checks: Checks):
        self.seed, self.sizes, self.checks = seed, sizes, checks
        self.sha = None
        self.test_ndcg = None

    def setup(self):
        ds = sr.generate(sr.GeneratorConfig(num_queries=self.sizes["train_queries"],
                                            seed=self.seed))
        tr, va, te = sr.split_holdout(ds, seed=self.seed)
        stats = sr.fit_standardization(tr, ds.schema)
        self.train_ds = sr.apply_standardization(tr, stats)
        self.val_ds = sr.apply_standardization(va, stats)
        self.test_ds = sr.apply_standardization(te, stats)
        self.random_ndcg = sr.random_ranker_mean_ndcg(te)
        epochs = self.sizes["train_epochs"]
        # patience = max_epochs - 1, so every call runs all epochs
        self.config = sr.TrainConfig(loss="ranknet", mode="sir", max_epochs=epochs,
                                     patience=epochs - 1, seed=self.seed)

    def op(self) -> OpResult:
        start = time.perf_counter()
        try:
            model, history = sr.train(self.train_ds, self.val_ds, self.config)
        except sr.TrainingError:
            return OpResult(1, 1)
        elapsed = time.perf_counter() - start
        steps = len(history.train_loss) * len(self.train_ds)
        sha = params_sha256(model)
        if self.sha is None:
            self.sha = sha
            self.test_ndcg = sr.mean_ndcg(model, self.test_ds).mean
            ok = self.checks.record("test_ndcg_above_random", self.test_ndcg > self.random_ndcg)
        else:
            ok = self.checks.record("params_bitwise_repeatable", sha == self.sha)
        return OpResult(1, 0 if ok else 1, {"call_s": elapsed, "work_per_s": steps / elapsed,
                                            "steps": steps})

    def report(self, timings: list[dict]) -> tuple[float, list[str]]:
        """Quality metric and info lines; timings are raw, as measured."""
        call = [t["call_s"] for t in timings]
        rate = [t["work_per_s"] for t in timings]
        return self.test_ndcg, [
            f"train_steps_per_s {statistics.median(rate):.2f} 1/s "
            f"(median of {len(rate)} train calls, {timings[0]['steps']} steps each)",
            f"train_call_s_p50 {statistics.median(call):.4f} s (n={len(call)})",
            f"test_ndcg {self.test_ndcg:.6f} (random ranker {self.random_ndcg:.6f})",
            f"params_sha256 {self.sha}"]


class ExperimentGrid:
    """One ``sr.run_experiment`` over five losses x two modes per operation."""

    name = "experiment_grid"

    def __init__(self, seed: int, sizes: dict, workdir: Path, checks: Checks):
        self.seed, self.sizes, self.checks = seed, sizes, checks
        self.errors: set[str] = set()
        self.quality = None
        self.deep_case4_below = (0, 0)

    def setup(self):
        self.dataset = sr.generate(sr.GeneratorConfig(num_queries=self.sizes["grid_queries"],
                                                      seed=self.seed))
        epochs = self.sizes["grid_epochs"]
        self.config = sr.ExperimentConfig(seed=self.seed, max_epochs=epochs,
                                          patience=epochs - 1)

    def op(self) -> OpResult:
        start = time.perf_counter()
        report = sr.run_experiment(self.dataset, self.config)
        elapsed = time.perf_counter() - start
        n_train = report.meta["split_sizes"][0]
        done = [c for c in report.cells if c.error is None]
        failed = 0
        for cell in report.cells:
            if cell.error is not None:
                self.errors.add(f"{cell.loss}/{cell.mode}: {cell.error}")
                failed += 1
            elif cell.mode == "sir":
                gap_ok = self.checks.record("sir_invariance_gap_below_1e-9",
                                            cell.invariance_gap_c1200 < INVARIANCE_TOL)
                equal_ok = self.checks.record(
                    "sir_case_ndcg_equals_clean",
                    all(v == cell.test_ndcg for v in cell.case_ndcg.values()))
                failed += not (gap_ok and equal_ok)
            else:
                failed += not self.checks.record("deep_only_case4_changes_ndcg",
                                                 cell.case_ndcg[4] != cell.test_ndcg)
        deep = [c for c in done if c.mode == "deep_only"]
        self.deep_case4_below = (sum(c.case_ndcg[4] < c.test_ndcg for c in deep), len(deep))
        self.quality = statistics.fmean(c.test_ndcg for c in done) if done else 0.0
        random_ndcg = report.meta["random_ranker_test_ndcg"]
        failed += not self.checks.record("test_ndcg_above_random", self.quality > random_ndcg)
        steps = sum(len(c.history.train_loss) * n_train for c in done)
        attempted = len(report.cells)
        return OpResult(attempted, min(failed, attempted),
                        {"call_s": elapsed, "work_per_s": steps / elapsed})

    def report(self, timings: list[dict]) -> tuple[float, list[str]]:
        call = [t["call_s"] for t in timings]
        rate = [t["work_per_s"] for t in timings]
        below, deep = self.deep_case4_below
        info = [f"grid_s {statistics.median(call):.4f} s (median of {len(call)} grids)",
                f"grid_train_steps_per_s {statistics.median(rate):.2f} 1/s",
                f"test_ndcg {self.quality:.6f} (mean over completed cells)",
                f"deep_only_case4_below_clean {below}/{deep} cells"]
        return self.quality, info + [f"failed cell {e}" for e in sorted(self.errors)]


class CliEvaluate:
    """In-process ``sirank.cli.main`` calls: evaluate a ``sir`` and a
    ``deep_only`` checkpoint on all four cases, then perturb with case 3."""

    name = "cli_evaluate"

    def __init__(self, seed: int, sizes: dict, workdir: Path, checks: Checks):
        self.seed, self.sizes, self.checks = seed, sizes, checks
        self.workdir = workdir
        self.paths = {k: str(workdir / f) for k, f in (
            ("data", "eval.jsonl"), ("schema", "schema.json"),
            ("sir", "sir.ckpt.json"), ("deep_only", "deep_only.ckpt.json"),
            ("perturbed", "perturbed.jsonl"))}
        self.test_ndcg = None

    def setup(self):
        sizes = self.sizes
        # Two generator seeds, so the evaluated file holds no training query.
        train_raw = sr.generate(sr.GeneratorConfig(num_queries=sizes["cli_train_queries"],
                                                   seed=2 * self.seed))
        eval_raw = sr.generate(sr.GeneratorConfig(num_queries=sizes["cli_eval_queries"],
                                                  seed=2 * self.seed + 1))
        sr.save_schema(eval_raw.schema, self.paths["schema"])
        sr.save_dataset(eval_raw, self.paths["data"])
        self.random_ndcg = sr.random_ranker_mean_ndcg(eval_raw)
        tr, va, _ = sr.split_holdout(train_raw, seed=self.seed)
        epochs = sizes["cli_epochs"]
        for mode in sr.MODES:
            stats = sr.fit_standardization(tr, train_raw.schema,
                                           include_scalevariant=(mode == "deep_only"))
            config = sr.TrainConfig(loss="ranknet", mode=mode, max_epochs=epochs,
                                    patience=epochs - 1, seed=self.seed)
            model, _ = sr.train(sr.apply_standardization(tr, stats),
                                sr.apply_standardization(va, stats), config)
            sr.save_checkpoint(model, self.paths[mode])

    def _main(self, argv) -> tuple[int, float]:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = sirank.cli.main(argv + ["--seed", str(self.seed)])
        return code, time.perf_counter() - start

    def _evaluate(self, mode: str) -> tuple[bool, int, float]:
        out = str(self.workdir / f"eval_{mode}.json")
        code, elapsed = self._main(["evaluate", "--model", self.paths[mode],
                                    "--data", self.paths["data"], "--schema",
                                    self.paths["schema"], "--case", "1,2,3,4", "--out", out])
        if not self.checks.record("cli_main_returns_0", code == 0):
            return False, 0, elapsed
        with open(out) as fh:
            results = json.load(fh)["results"]
        clean = results["clean"]["mean"]
        cases = [results[f"case{c}"]["mean"] for c in range(1, 5)]
        evaluated = sum(r["count"] for r in results.values() if isinstance(r, dict))
        if mode == "sir":
            self.test_ndcg = clean
            ok = self.checks.record("sir_invariance_gap_below_1e-9",
                                    results["invariance_gap_c1200"] < INVARIANCE_TOL)
            ok = self.checks.record("sir_case_ndcg_equals_clean",
                                    all(v == clean for v in cases)) and ok
            ok = self.checks.record("test_ndcg_above_random", clean > self.random_ndcg) and ok
        else:
            ok = self.checks.record("deep_only_case4_changes_ndcg", cases[3] != clean)
        return ok, evaluated, elapsed

    def op(self) -> OpResult:
        start = time.perf_counter()
        sir_ok, sir_n, sir_s = self._evaluate("sir")
        deep_ok, deep_n, deep_s = self._evaluate("deep_only")
        code, perturb_s = self._main(["perturb", "--data", self.paths["data"], "--schema",
                                      self.paths["schema"], "--case", "3",
                                      "--out", self.paths["perturbed"]])
        perturb_ok = self.checks.record("cli_main_returns_0", code == 0)
        wall = time.perf_counter() - start
        failed = (not sir_ok) + (not deep_ok) + (not perturb_ok)
        return OpResult(3, failed, {
            "call_s": (sir_s + deep_s) / 2, "work_per_s": (sir_n + deep_n) / wall,
            "evaluate_s": [sir_s, deep_s], "perturb_s": perturb_s})

    def report(self, timings: list[dict]) -> tuple[float, list[str]]:
        call = [t["call_s"] for t in timings]
        rate = [t["work_per_s"] for t in timings]
        evaluate = [s for t in timings for s in t["evaluate_s"]]
        perturb = [t["perturb_s"] for t in timings]
        return self.test_ndcg, [
            f"eval_queries_per_s {statistics.median(rate):.2f} 1/s "
            f"(median of {len(rate)} loops of evaluate x2 + perturb)",
            f"evaluate_call_s_p50 {statistics.median(evaluate):.4f} s (n={len(evaluate)})",
            f"evaluate_pair_mean_s_p50 {statistics.median(call):.4f} s (n={len(call)})",
            f"perturb_call_s_p50 {statistics.median(perturb):.4f} s (n={len(perturb)})",
            f"test_ndcg {self.test_ndcg:.6f} (sir checkpoint, clean; random ranker "
            f"{self.random_ndcg:.6f})"]


WORKLOADS = {w.name: w for w in (TrainSgd, ExperimentGrid, CliEvaluate)}
