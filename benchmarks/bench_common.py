"""The harness that benchmarks/bench_*.py share: one worker process per
``--src`` tree and round, BLAS on one thread, and medians with quartiles of
the pooled repeats, printed and optionally written as JSON.

With two or more trees, the rounds alternate which tree runs first, and each
round's median of the last tree over that of the first is one ratio per
metric; the report gives the median and quartiles of those ratios
(``round_ratio_last_to_first``). Two workers of one round run minutes apart
at most, so a ratio cancels most of a shared host's slow phases, which the
pooled medians of each tree do not.

A bench script defines ``SIZES`` (named input sizes, ``full`` and ``smoke``)
and ``measure(sizes, repeats, seed) -> {metric: [one sample per repeat]}``,
and calls ``main(__file__, doc, SIZES, measure, unit)``. It may also pass
``single_run(src, seed) -> {"command": ..., "metrics": {metric: value}}``,
which runs once per tree after the repeats (not with ``--smoke``) and is
reported under the tree's ``single_run`` key: one run, no median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(samples: list[float]) -> dict:
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(samples)}


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": 1}


def run_worker(script: Path, src: Path, size: str, repeats: int, seed: int) -> tuple[dict, dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(script), "--worker", "--src", str(src),
           "--size", size, "--repeats", str(repeats), "--seed", str(seed)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result["samples"], result["env"]


def main(script: str, doc: str, sizes: dict, measure, unit: tuple[str, float],
         units: dict[str, tuple[str, float]] | None = None, single_run=None) -> int:
    """Run ``measure`` in workers and report it; ``unit`` is the printed
    unit and the factor that turns a sample into it, and ``units`` overrides
    it per metric."""
    script = Path(script).resolve()
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--src", action="append", type=Path, default=None,
                        help="a tree holding the sirank package (default: this checkout's src)")
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats per worker")
    parser.add_argument("--rounds", type=int, default=2, help="workers per tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repeat, one round")
    parser.add_argument("--size", choices=sorted(sizes), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, default=None, help="write the results as JSON")
    args = parser.parse_args()
    labels = [str(p) for p in (args.src or [Path("src")])]
    srcs = [p.resolve() for p in (args.src or [ROOT / "src"])]

    if args.worker:
        sys.path.insert(0, str(srcs[0]))
        import sirank
        if Path(sirank.__file__).resolve().parent != srcs[0] / "sirank":
            raise SystemExit(f"{script.stem}: imported sirank from {sirank.__file__}")
        samples = measure(sizes[args.size], args.repeats, args.seed)
        print(json.dumps({"samples": samples, "env": environment()}))
        return 0

    size, repeats, rounds = args.size, args.repeats, args.rounds
    if args.smoke:
        size, repeats, rounds = "smoke", 1, 1
    pooled: dict[Path, dict[str, list[float]]] = {src: {} for src in srcs}
    per_round: dict[Path, list[dict[str, list[float]]]] = {src: [] for src in srcs}
    env = None
    for r in range(rounds):
        for src in (srcs if r % 2 == 0 else srcs[::-1]):
            samples, env = run_worker(script, src, size, repeats, args.seed)
            per_round[src].append(samples)
            for name, values in samples.items():
                pooled[src].setdefault(name, []).extend(values)

    report = {"command": f"python3 benchmarks/{script.name} " + " ".join(sys.argv[1:]),
              "env": env, "size": size, "seed": args.seed,
              "runs": [{"src": label,
                        "metrics": {name: summarize(v) for name, v in pooled[src].items()}}
                       for label, src in zip(labels, srcs)]}
    if single_run is not None and not args.smoke:
        for run, src in zip(report["runs"], srcs):
            run["single_run"] = single_run(src, args.seed)
    if len(srcs) > 1:
        first, last = per_round[srcs[0]], per_round[srcs[-1]]
        report["round_ratio_last_to_first"] = {
            name: summarize([statistics.median(b[name]) / statistics.median(a[name])
                             for a, b in zip(first, last)])
            for name in first[0]
            if name in last[0] and all(statistics.median(a[name]) for a in first)}
    print(f"python {env['python']}, numpy {env['numpy']}, {env['cpu_count']} CPUs "
          f"({env['cpus_usable']} usable), BLAS threads 1; size {size}, "
          f"medians of {repeats * rounds} repeats")
    names = list(report["runs"][0]["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}} " + " ".join(f"{run['src'][-24:]:>24}" for run in report["runs"]))
    for name in names:
        label, factor = (units or {}).get(name, unit)
        cells = [run["metrics"].get(name) for run in report["runs"]]
        print(f"{name:<{width}} " + " ".join(
            f"{c['median'] * factor:>21.2f} {label:<2}" if c else f"{'-':>24}" for c in cells))
    if len(srcs) > 1:
        print(f"per-round ratio {report['runs'][-1]['src']} / {report['runs'][0]['src']}, "
              f"median [q1, q3] of {rounds} rounds")
        for name, ratio in report["round_ratio_last_to_first"].items():
            print(f"{name:<{width}} {ratio['median']:>8.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}]")
    for run in report["runs"]:
        for name, value in run.get("single_run", {}).get("metrics", {}).items():
            print(f"{name} (single run) {run['src']}: {value:.2f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0
