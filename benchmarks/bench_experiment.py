"""Experiment-grid timings: the wall time of one ``run_experiment`` over the
five losses in both modes, and the peak memory of the process that calls it
and of the worker processes the grid runs in.

Run from the root of a checkout:

    python3 benchmarks/bench_experiment.py                       # this checkout's src/
    python3 benchmarks/bench_experiment.py --smoke               # seconds; for CI

Before and after a change, against an exported older tree (``.bench-parent/``
is git-ignored):

    mkdir -p .bench-parent && git archive <commit> src | tar -x -C .bench-parent
    python3 benchmarks/bench_experiment.py --src .bench-parent/src --src src \
        --out BENCH_experiment.json

One repeat is one grid on generated queries (300, 2 epochs, patience 1, as
perfbench's ``experiment_grid``). ``peak_rss_caller_mb`` is the calling
process's peak resident set; ``peak_rss_workers_mb`` is the largest of the
grid's worker processes (``RUSAGE_CHILDREN``; 0 when the cells run
in-process), which perfbench's ``peak_rss_mb`` does not count. Each worker
reports both once, after its repeats. Without ``--smoke``, each tree also
runs ``sirank experiment --generate --queries 2000 --seed 7`` once, timed from
outside; that is one run, not a median. Each ``--src`` tree runs in its own
worker processes, in rounds whose order alternates, with BLAS on one thread,
as in perfbench.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_common

SIZES = {"full": {"queries": 300, "epochs": 2}, "smoke": {"queries": 40, "epochs": 2}}
SINGLE_RUN = ["experiment", "--generate", "--queries", "2000", "--seed", "7"]


def measure(sizes: dict, repeats: int, seed: int) -> dict[str, list[float]]:
    """Seconds per grid, one sample per repeat, and the two peak RSS figures."""
    import resource

    import sirank as sr

    ds = sr.generate(sr.GeneratorConfig(num_queries=sizes["queries"], seed=seed))
    config = sr.ExperimentConfig(seed=seed, max_epochs=sizes["epochs"], patience=1)
    sr.run_experiment(ds, config)  # warm-up: imports, caches, first-call costs
    samples: dict[str, list[float]] = {"run_experiment_s": []}
    for _ in range(repeats):
        start = time.perf_counter()
        sr.run_experiment(ds, config)
        samples["run_experiment_s"].append(time.perf_counter() - start)
    for name, who in (("peak_rss_caller_mb", resource.RUSAGE_SELF),
                      ("peak_rss_workers_mb", resource.RUSAGE_CHILDREN)):
        samples[name] = [resource.getrusage(who).ru_maxrss / 1024]
    return samples


def single_run(src: Path, seed: int) -> dict:
    """One ``sirank experiment`` on 2000 generated queries, timed from outside."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="bench-experiment-") as tmp:
        cmd = [sys.executable, "-c", "import sys, sirank.cli; sys.exit(sirank.cli.main(sys.argv[1:]))",
               *SINGLE_RUN, "--out", str(Path(tmp) / "report")]
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        wall = time.perf_counter() - start
    return {"command": "sirank " + " ".join(SINGLE_RUN), "metrics": {"wall_s": wall}}


if __name__ == "__main__":
    sys.exit(bench_common.main(__file__, __doc__, SIZES, measure, unit=("s", 1.0),
                               units={"peak_rss_caller_mb": ("MB", 1.0),
                                      "peak_rss_workers_mb": ("MB", 1.0)},
                               single_run=single_run))
