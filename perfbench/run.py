"""sirank benchmark: one workload per run, timed from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_sgd --seed 0 --seconds 20 --trace 0

The run sets up its inputs five times, then repeats the workload's operation
in a closed loop for ``--seconds``: it starts no operation that a typical one
says would end after that. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics. With ``--trace 1``
operations alternate between untraced and traced, and the last line holds
the per-layer metrics instead, the tracing overhead among them. See
perfbench/README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing

SETUPS = 5
BLAS_THREADS = 1  # the scorer's matrices are tiny; more threads only add noise
OUT_DIR = ".perfbench-out"

# Per-layer metrics as (span name, reduction); the metric is "<span>.<kind>".
FUNCTION_METRICS = (
    ("scoring.build_score_graph", "us_p50"),
    ("autodiff.backward", "us_p50"),
    ("autodiff.sgd_step", "us_p50"),
    ("autodiff.attach_loss", "us_p50"),
    ("trainer.train", "self_s"),
    *((f"losses.{loss}", kind) for loss in ("ranknet", "lambdarank", "listnet", "listmle",
                                            "softrank") for kind in ("us_p50", "calls")),
    ("data.load_dataset", "s"),
    ("data.load_dataset", "queries_per_s"),
    ("data.apply_standardization", "s"),
    ("perturb.apply_case", "s"),
    ("metrics.mean_ndcg", "s"),
    ("scoring.score_query", "us_p50"),
    ("scoring.rank", "us_p50"),
    ("metrics.ndcg", "us_p50"),
    ("scoring.invariance_gap", "s"),
    ("scoring.load_checkpoint", "s"),
    ("cli.main", "self_s"),
    ("data.save_dataset", "s"),
    ("generator.generate", "s"),
    ("data.fit_standardization", "s"),
    ("data.split_holdout", "s"),
    ("scoring.save_checkpoint", "s"),
)
# Work counts per traced operation: (metric, span name, use calls or counts).
WORK_COUNTS = (
    ("steps", "autodiff.sgd_step", "op_calls"),
    ("items_scored", "scoring.build_score_graph", "op_count"),
    ("queries_evaluated", "metrics.mean_ndcg", "op_count"),
    ("epochs", "trainer.train", "op_count"),
)
LAYERS = ("generator", "data", "scoring", "autodiff", "losses", "metrics", "perturb",
          "trainer", "cli")
UNITS = {"us_p50": "us", "s": "s", "self_s": "s", "calls": "count", "queries_per_s": "1/s"}
END_TO_END_UNITS = {"setup_s": "s", "call_s_p50": "s", "work_per_s": "1/s",
                    "test_ndcg": "ndcg", "peak_rss_mb": "MB"}


def limit_blas_threads() -> int:
    """Cap BLAS threads in this process; must run before numpy is imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program(root: Path):
    """Import sirank from the checkout's own src/, never from elsewhere."""
    src = root / "src"
    if not (src / "sirank" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sirank sources under {src}; run from the repo root")
    sys.path.insert(0, str(src))
    import sirank
    if Path(sirank.__file__).resolve().parent != (src / "sirank").resolve():
        raise SystemExit(f"perfbench: imported sirank from {sirank.__file__}, not {src}")


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "openblas": blas.get("version"), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()), "blas_threads": blas_threads}


def function_metric(stats: dict | None, kind: str, ops: int) -> float:
    """Reduce one span name's samples; a function never called reads 0."""
    if stats is None:
        return 0.0
    if kind == "us_p50":
        return tracing.median(stats["dur_ns"]) / 1e3
    if kind == "s":
        return tracing.median(stats["dur_ns"]) / 1e9
    if kind == "self_s":
        return tracing.median(stats["self_ns"]) / 1e9
    if kind == "queries_per_s":
        return tracing.median(stats["rate"])
    if kind == "calls":
        return stats["op_calls"] / ops
    raise ValueError(f"unknown reduction {kind!r}")


def per_layer_metrics(tracer, op_walls: dict) -> tuple[dict, list[str]]:
    summary = tracer.summary()
    spans = summary["spans"]
    ops = max(summary["op_regions"], 1)
    metrics = {f"{span}.{kind}": (function_metric(spans.get(span), kind, ops), UNITS[kind])
               for span, kind in FUNCTION_METRICS}
    for metric, span, field in WORK_COUNTS:
        metrics[metric] = (spans[span][field] / ops if span in spans else 0.0, "count")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (summary["layer_self_ns"].get(layer, 0) / 1e9, "s")
    wall, remainder = summary["wall_ns"] / 1e9, summary["remainder_ns"] / 1e9
    traced, untraced = statistics.median(op_walls[True]), statistics.median(op_walls[False])
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.remainder_s"] = (remainder, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    uncalled = {span for span, _ in FUNCTION_METRICS} - set(spans) - tracer.absent
    info = [f"traced wall {wall:.4f} s = layer self times {wall - remainder:.4f} s "
            f"+ remainder {remainder:.4f} s outside any span",
            f"trace overhead {traced / untraced:.4f}x: median traced op {traced:.4f} s "
            f"(n={len(op_walls[True])}) vs untraced {untraced:.4f} s (n={len(op_walls[False])})",
            f"absent layer functions: {', '.join(sorted(tracer.absent)) or 'none'}",
            f"layer functions not called: {', '.join(sorted(uncalled)) or 'none'}"]
    return metrics, info


def run(args, root: Path) -> int:
    blas_threads = limit_blas_threads()
    import_program(root)
    import hostspeed
    import workloads

    env = environment(blas_threads)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    checks = workloads.Checks()
    tracer = tracing.Tracer() if args.trace else None
    probe = hostspeed.HostProbe()

    def region(kind, traced=True):
        return tracer.region(kind) if tracer and traced else contextlib.nullcontext()

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.SIZES[args.size], workdir, checks)
        # A host probe before the first and after every set-up and operation.
        setup_probes, setup_s = [probe.measure()], []
        for _ in range(SETUPS):
            start = time.perf_counter()
            with region("setup"):
                workload.setup()
            setup_s.append(time.perf_counter() - start)
            setup_probes.append(probe.measure())

        op_probes, ops = [setup_probes[-1]], []
        loop_start = time.perf_counter()
        while True:
            # With --trace 1, operations alternate: untraced, traced, ...
            traced = bool(tracer) and len(ops) % 2 == 1
            start = time.perf_counter()
            with region("op", traced):
                result = workload.op()
            ops.append((traced, time.perf_counter() - start, result))
            op_probes.append(probe.measure())
            # Start another operation only if a typical one still fits.
            typical = statistics.median(wall for _, wall, _ in ops)
            if (time.perf_counter() - loop_start + typical > args.seconds
                    and (not tracer or len(ops) >= 2)):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(result.attempted for _, _, result in ops)
    failed = sum(result.failed for _, _, result in ops)
    op_scales = hostspeed.scales(op_probes)
    timed = [(result.timings, scale) for (traced, _, result), scale in zip(ops, op_scales)
             if not traced and result.timings]
    if not timed:
        raise SystemExit(f"perfbench: all {len(ops)} operations failed; nothing to report")
    quality, info = workload.report([t for t, _ in timed])
    setup_scales = hostspeed.scales(setup_probes)
    e2e = {
        "setup_s": statistics.median(s * f for s, f in zip(setup_s, setup_scales)),
        "call_s_p50": statistics.median(t["call_s"] * f for t, f in timed),
        "work_per_s": statistics.median(t["work_per_s"] / f for t, f in timed),
        "test_ndcg": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info += [
        "call_s samples " + " ".join(f"{t['call_s']:.4f}" for t, _ in timed),
        f"setup_s {statistics.median(setup_s):.4f} s (median of {SETUPS})",
        f"host probe {statistics.median(op_probes) * 1e3:.3f} ms median, reference "
        f"{hostspeed.REFERENCE_S * 1e3:.3f} ms; at reference speed: setup_s "
        f"{e2e['setup_s']:.4f} s, call_s_p50 {e2e['call_s_p50']:.4f} s, "
        f"work_per_s {e2e['work_per_s']:.2f} 1/s",
        f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB",
        f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)",
    ]
    if tracer:
        op_walls = {flag: [wall * f for (traced, wall, _), f in zip(ops, op_scales)
                           if traced == flag] for flag in (False, True)}
        metrics, trace_info = per_layer_metrics(tracer, op_walls)
        info += trace_info
        out = root / OUT_DIR
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace_{args.workload}.json"
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       **tracer.dump()}, fh)
        info.append(f"spans written to {trace_path.relative_to(root)}")
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}

    for line in info:
        print(line)
    for name, (passed, failed_checks) in sorted(checks.tally.items()):
        print(f"check {name}: {'pass' if not failed_checks else 'FAIL'} "
              f"({passed} passed, {failed_checks} failed)")
    print(json.dumps({
        "correct": checks.all_passed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_sgd", "experiment_grid", "cli_evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the quick self-test")
    args = parser.parse_args(argv)
    return run(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
