"""The harness that benchmarks/bench_*.py share: one worker process per
``--src`` tree and round, BLAS on one thread, and medians with quartiles of
the pooled repeats, printed and optionally written as JSON.

A bench script defines ``SIZES`` (named input sizes, ``full`` and ``smoke``)
and ``measure(sizes, repeats, seed) -> {metric: [one sample per repeat]}``,
and calls ``main(__file__, doc, SIZES, measure, unit)``.
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


def main(script: str, doc: str, sizes: dict, measure, unit: tuple[str, float]) -> int:
    """Run ``measure`` in workers and report it; ``unit`` is the printed
    unit and the factor that turns a sample into it."""
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
    env = None
    for r in range(rounds):
        for src in (srcs if r % 2 == 0 else srcs[::-1]):
            samples, env = run_worker(script, src, size, repeats, args.seed)
            for name, values in samples.items():
                pooled[src].setdefault(name, []).extend(values)

    report = {"command": f"python3 benchmarks/{script.name} " + " ".join(sys.argv[1:]),
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
    label, factor = unit
    print(f"{'metric':<{width}} " + " ".join(f"{run['src'][-24:]:>24}" for run in report["runs"]))
    for name in names:
        cells = [run["metrics"].get(name) for run in report["runs"]]
        print(f"{name:<{width}} " + " ".join(
            f"{c['median'] * factor:>21.2f} {label:<2}" if c else f"{'-':>24}" for c in cells))
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0
