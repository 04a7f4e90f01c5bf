"""Evaluation-path timings: JSONL loading, batched NDCG, the dataset
invariance gap and one ``sirank evaluate`` call.

Run from the root of a checkout:

    python3 benchmarks/bench_evaluation.py                       # this checkout's src/
    python3 benchmarks/bench_evaluation.py --smoke               # seconds; for CI

Before and after a change, against an exported older tree (``.bench-parent/``
is git-ignored):

    mkdir -p .bench-parent && git archive <commit> src | tar -x -C .bench-parent
    python3 benchmarks/bench_evaluation.py --src .bench-parent/src --src src \
        --out BENCH_evaluation.json

Each ``--src`` tree is measured in its own worker process, so two trees never
share an import. With several trees the workers run in rounds, the order
reversed every other round, and each metric is the median (with quartiles)
of all repeats of that tree. Models are built untrained: evaluation costs
the same whatever the parameter values are. BLAS runs on one thread, as in
perfbench.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

import bench_common

SIZES = {
    "full": {"load_small": 300, "load_large": 2000, "eval_queries": 2000, "cli_queries": 300},
    "smoke": {"load_small": 30, "load_large": 100, "eval_queries": 100, "cli_queries": 30},
}
GAP_RATE = 1200.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(sizes: dict, repeats: int, seed: int) -> dict[str, list[float]]:
    """Seconds per call of every measured operation, one sample per repeat."""
    import sirank as sr
    import sirank.cli
    import sirank.scoring

    samples: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory(prefix="bench-eval-") as tmp:
        tmp = Path(tmp)
        schema_path = tmp / "schema.json"
        files = {}
        for key in ("load_small", "load_large", "cli_queries"):
            ds = sr.generate(sr.GeneratorConfig(num_queries=sizes[key], seed=seed))
            files[key] = tmp / f"{key}.jsonl"
            sr.save_dataset(ds, files[key])
        sr.save_schema(ds.schema, schema_path)

        full = sr.generate(sr.GeneratorConfig(num_queries=sizes["eval_queries"], seed=seed))
        train_raw, _, test_raw = sr.split_holdout(full, seed=seed)
        models, tests = {}, {}
        for mode in sr.MODES:
            stats = sr.fit_standardization(train_raw, full.schema,
                                           include_scalevariant=(mode == "deep_only"))
            models[mode] = sr.build_model(full.schema, mode=mode, seed=seed, stats=stats)
            tests[mode] = sr.apply_standardization(test_raw, stats)
            sr.save_checkpoint(models[mode], tmp / f"{mode}.ckpt.json")

        batched_gap = getattr(sirank.scoring, "dataset_invariance_gap", None)

        def gap():
            model, test = models["sir"], tests["sir"]
            if batched_gap is not None:
                return batched_gap(model, test, GAP_RATE)
            return max(sr.invariance_gap(model, q, GAP_RATE) for q in test.queries)

        def evaluate(mode):
            argv = ["evaluate", "--model", str(tmp / f"{mode}.ckpt.json"),
                    "--data", str(files["cli_queries"]), "--schema", str(schema_path),
                    "--case", "1,2,3,4", "--out", str(tmp / "eval.json")]
            with contextlib.redirect_stdout(io.StringIO()):
                if sirank.cli.main(argv) != 0:
                    raise SystemExit(f"bench_evaluation: sirank {' '.join(argv)} failed")

        ops = {
            f"load_dataset_{sizes['load_small']}q_s":
                lambda: sr.load_dataset(files["load_small"], full.schema),
            f"load_dataset_{sizes['load_large']}q_s":
                lambda: sr.load_dataset(files["load_large"], full.schema),
            f"mean_ndcg_sir_{len(test_raw)}q_s": lambda: sr.mean_ndcg(models["sir"], tests["sir"]),
            f"mean_ndcg_deep_only_{len(test_raw)}q_s":
                lambda: sr.mean_ndcg(models["deep_only"], tests["deep_only"]),
            f"invariance_gap_sir_{len(test_raw)}q_s": gap,
            f"cli_evaluate_sir_{sizes['cli_queries']}q_s": lambda: evaluate("sir"),
            f"cli_evaluate_deep_only_{sizes['cli_queries']}q_s": lambda: evaluate("deep_only"),
        }
        for fn in ops.values():
            fn()  # warm-up: imports, caches, first-call costs
        for _ in range(repeats):
            for name, fn in ops.items():
                samples.setdefault(name, []).append(_timed(fn))
    return samples


if __name__ == "__main__":
    sys.exit(bench_common.main(__file__, __doc__, SIZES, measure, unit=("ms", 1e3)))
