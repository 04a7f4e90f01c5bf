"""Evaluation-path timings: JSONL loading, the four perturbation cases,
batched NDCG, ``evaluate_scenarios`` (the clean split, the four cases and the
x1200 invariance gap, as one grid cell measures a model), writing a perturbed
dataset, ``load_checkpoint`` of a sir and a deep_only checkpoint,
``score_query`` on one generated query, one ``sirank evaluate`` and one
``sirank perturb`` call, and what ``import sirank.cli`` costs a fresh
interpreter: its wall time and the child's own peak RSS, one subprocess per
sample. The child reads that peak as its ``VmHWM`` (Linux): ``ru_maxrss`` of a
spawned child, whether read by the child or by ``wait4``, also counts the
spawning process's own peak, because Linux keeps the high-water mark of the
address space the child leaves at ``exec``.

Run from the root of a checkout:

    python3 benchmarks/bench_evaluation.py                       # this checkout's src/
    python3 benchmarks/bench_evaluation.py --smoke               # seconds; for CI

Before and after a change, with both trees exported from git, so that
neither runs from the checkout (``.bench-parent/`` and ``.bench-change/`` are
git-ignored):

    mkdir -p .bench-parent .bench-change
    git archive <parent commit> src | tar -x -C .bench-parent
    git archive <change commit> src | tar -x -C .bench-change
    python3 benchmarks/bench_evaluation.py --src .bench-parent/src --src .bench-change/src \
        --rounds 10 --out BENCH_evaluation.json

Each ``--src`` tree is measured in its own worker process, so two trees never
share an import. With several trees the workers run in rounds, the order
reversed every other round, and each metric is the median (with quartiles)
of all repeats of that tree; a change is read from the per-round ratios
(``round_ratio_last_to_first``). Models are built untrained: evaluation costs
the same whatever the parameter values are. BLAS runs on one thread, as in
perfbench.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_common

SIZES = {
    "full": {"load_small": 300, "load_large": 2000, "eval_queries": 2000, "cli_queries": 300},
    "smoke": {"load_small": 30, "load_large": 100, "eval_queries": 100, "cli_queries": 30},
}
# score_query calls per sample of score_query_us, which is in microseconds a call
SCORE_QUERY_CALLS = 200


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# the child's last stdout line: the peak RSS, in kB, of its own address space
_IMPORT_CLI = """import sirank.cli
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def import_cli(src: Path) -> tuple[float, float]:
    """Wall seconds of a new interpreter that imports ``sirank.cli`` from
    ``src`` and exits, and that child's own peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI], env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"bench_evaluation: import sirank.cli failed:\n{proc.stderr}")
    return seconds, int(proc.stdout.split()[-1]) / 1024


def measure(sizes: dict, repeats: int, seed: int) -> dict[str, list[float]]:
    """Seconds per call of every measured operation, one sample per repeat,
    and the peak RSS in MB of each fresh ``import sirank.cli``."""
    import sirank as sr
    import sirank.cli
    import sirank.metrics

    src = Path(sirank.__file__).resolve().parents[1]

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
        models = {}
        for mode in sr.MODES:
            stats = sr.fit_standardization(train_raw, full.schema,
                                           include_scalevariant=(mode == "deep_only"))
            models[mode] = sr.build_model(full.schema, mode=mode, seed=seed, stats=stats)
            sr.save_checkpoint(models[mode], tmp / f"{mode}.ckpt.json")

        def cli(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                if sirank.cli.main(argv) != 0:
                    raise SystemExit(f"bench_evaluation: sirank {' '.join(argv)} failed")

        def evaluate(mode):
            cli(["evaluate", "--model", str(tmp / f"{mode}.ckpt.json"),
                 "--data", str(files["cli_queries"]), "--schema", str(schema_path),
                 "--case", "1,2,3,4", "--out", str(tmp / "eval.json")])

        def perturb():
            cli(["perturb", "--data", str(files["cli_queries"]), "--schema", str(schema_path),
                 "--case", "3", "--out", str(tmp / "perturbed.jsonl")])

        cases_ds = sr.load_dataset(files["cli_queries"], full.schema)

        def all_cases():
            for cid in sr.CASE_IDS:
                sr.apply_case(cases_ds, sr.PerturbationCase(cid))

        def scenarios(mode):  # as a grid cell measures its model
            return sirank.metrics.evaluate_scenarios(models[mode], cases_ds, sr.CASE_IDS, gap=True)

        perturbed = sr.apply_case(cases_ds, sr.PerturbationCase(3))  # what perturb() writes
        query = test_raw.queries[0]

        def score_query():
            for _ in range(SCORE_QUERY_CALLS):
                sr.score_query(models["sir"], query)

        ops = {
            f"load_dataset_{sizes['load_small']}q_s":
                lambda: sr.load_dataset(files["load_small"], full.schema),
            f"load_dataset_{sizes['load_large']}q_s":
                lambda: sr.load_dataset(files["load_large"], full.schema),
            f"apply_case_4_cases_{len(cases_ds)}q_s": all_cases,
            f"save_dataset_{len(perturbed)}q_s":
                lambda: sr.save_dataset(perturbed, tmp / "saved.jsonl"),
            f"mean_ndcg_sir_{len(test_raw)}q_s": lambda: sr.mean_ndcg(models["sir"], test_raw),
            f"mean_ndcg_deep_only_{len(test_raw)}q_s":
                lambda: sr.mean_ndcg(models["deep_only"], test_raw),
            f"evaluate_scenarios_sir_{len(cases_ds)}q_s": lambda: scenarios("sir"),
            f"evaluate_scenarios_deep_only_{len(cases_ds)}q_s": lambda: scenarios("deep_only"),
            "load_checkpoint_sir_s": lambda: sr.load_checkpoint(tmp / "sir.ckpt.json", full.schema),
            "load_checkpoint_deep_only_s":
                lambda: sr.load_checkpoint(tmp / "deep_only.ckpt.json", full.schema),
            f"cli_evaluate_sir_{sizes['cli_queries']}q_s": lambda: evaluate("sir"),
            f"cli_evaluate_deep_only_{sizes['cli_queries']}q_s": lambda: evaluate("deep_only"),
            f"cli_perturb_case3_{sizes['cli_queries']}q_s": perturb,
            "score_query_us": score_query,
        }
        for fn in ops.values():
            fn()  # warm-up: imports, caches, first-call costs
        import_cli(src)
        for _ in range(repeats):
            for name, fn in ops.items():
                seconds = _timed(fn)
                samples.setdefault(name, []).append(
                    seconds * 1e6 / SCORE_QUERY_CALLS if name == "score_query_us" else seconds)
            seconds, rss_mb = import_cli(src)
            samples.setdefault("import_sirank_cli_s", []).append(seconds)
            samples.setdefault("import_sirank_cli_peak_rss_mb", []).append(rss_mb)
    return samples


if __name__ == "__main__":
    sys.exit(bench_common.main(__file__, __doc__, SIZES, measure, unit=("ms", 1e3),
                               units={"score_query_us": ("us", 1.0),
                                      "import_sirank_cli_peak_rss_mb": ("MB", 1.0)}))
