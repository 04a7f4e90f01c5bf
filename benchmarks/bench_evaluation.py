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

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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


def summarize(samples: list[float]) -> dict:
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(samples)}


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": 1}


def run_worker(src: Path, size: str, repeats: int, seed: int) -> tuple[dict, dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--src", str(src),
           "--size", size, "--repeats", str(repeats), "--seed", str(seed)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result["samples"], result["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", type=Path, default=None,
                        help="a tree holding the sirank package (default: this checkout's src)")
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats per worker")
    parser.add_argument("--rounds", type=int, default=2, help="workers per tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repeat, one round")
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, default=None, help="write the results as JSON")
    args = parser.parse_args(argv)
    labels = [str(p) for p in (args.src or [Path("src")])]
    srcs = [p.resolve() for p in (args.src or [ROOT / "src"])]

    if args.worker:
        sys.path.insert(0, str(srcs[0]))
        import sirank
        if Path(sirank.__file__).resolve().parent != srcs[0] / "sirank":
            raise SystemExit(f"bench_evaluation: imported sirank from {sirank.__file__}")
        samples = measure(SIZES[args.size], args.repeats, args.seed)
        print(json.dumps({"samples": samples, "env": environment()}))
        return 0

    size, repeats, rounds = args.size, args.repeats, args.rounds
    if args.smoke:
        size, repeats, rounds = "smoke", 1, 1
    pooled: dict[Path, dict[str, list[float]]] = {src: {} for src in srcs}
    env = None
    for r in range(rounds):
        for src in (srcs if r % 2 == 0 else srcs[::-1]):
            samples, env = run_worker(src, size, repeats, args.seed)
            for name, values in samples.items():
                pooled[src].setdefault(name, []).extend(values)

    report = {"command": "python3 benchmarks/bench_evaluation.py " + " ".join(
                  sys.argv[1:] if argv is None else argv),
              "env": env, "size": size, "seed": args.seed,
              "runs": [{"src": label,
                        "metrics": {name: summarize(v) for name, v in pooled[src].items()}}
                       for label, src in zip(labels, srcs)]}
    if len(srcs) > 1:
        first, last = report["runs"][0]["metrics"], report["runs"][-1]["metrics"]
        report["median_ratio_last_to_first"] = {
            name: last[name]["median"] / first[name]["median"] for name in first if name in last}
    print(f"python {env['python']}, numpy {env['numpy']}, {env['cpu_count']} CPUs "
          f"({env['cpus_usable']} usable), BLAS threads 1; size {size}, "
          f"medians of {repeats * rounds} repeats")
    names = list(report["runs"][0]["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}} " + " ".join(f"{run['src'][-24:]:>24}" for run in report["runs"]))
    for name in names:
        cells = [run["metrics"].get(name) for run in report["runs"]]
        print(f"{name:<{width}} " + " ".join(
            f"{c['median'] * 1e3:>21.2f} ms" if c else f"{'-':>24}" for c in cells))
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
