"""Training-step timings: forward, loss, backward and update of one SGD
step, per loss, for the five losses in ``sir`` mode and ranknet in
``deep_only`` mode.

Run from the root of a checkout:

    python3 benchmarks/bench_training.py                         # this checkout's src/
    python3 benchmarks/bench_training.py --smoke                 # seconds; for CI

Before and after a change, against an exported older tree (``.bench-parent/``
is git-ignored):

    mkdir -p .bench-parent && git archive <commit> src | tar -x -C .bench-parent
    python3 benchmarks/bench_training.py --src .bench-parent/src --src src \
        --rounds 10 --out BENCH_training.json

One repeat is one epoch of ``train``'s step over the training split, from a
freshly built model, so every repeat of every tree does the same arithmetic.
Each phase is timed apart; a metric is the mean microseconds per step of one
epoch, and the report gives its median (with quartiles) over every repeat of
a tree. ``step_us`` is the sum of the four phases. Each ``--src`` tree runs
in its own worker processes, in rounds whose order alternates, with BLAS on
one thread, as in perfbench. A change is read from
``round_ratio_last_to_first``: on a shared host, four recordings of the
same two trees once put listnet's step change, from the pooled medians, at
-22%, -32%, +1.9% and -22%; the two workers of one round meet much the same
host, so their ratio moves less.
"""

from __future__ import annotations

import sys
import time

import bench_common

SIZES = {"full": {"queries": 500}, "smoke": {"queries": 40}}
CASES = (("ranknet", "sir"), ("lambdarank", "sir"), ("listnet", "sir"), ("listmle", "sir"),
         ("softrank", "sir"), ("ranknet", "deep_only"))
PHASES = ("forward", "loss", "backward", "update")


def measure(sizes: dict, repeats: int, seed: int) -> dict[str, list[float]]:
    """Mean microseconds per step of every phase, one sample per repeat."""
    import numpy as np

    import sirank as sr
    from sirank.losses import SOFTRANK_LIST_SIZE, loss_by_name
    from sirank.scoring import backward, build_model, forward_block, prepare_dataset, sgd_step
    from sirank.trainer import DEFAULT_LEARNING_RATES, _softrank_indices

    ds = sr.generate(sr.GeneratorConfig(num_queries=sizes["queries"], seed=seed))
    train_raw, _, _ = sr.split_holdout(ds, seed=seed)
    samples: dict[str, list[float]] = {}

    def epoch(loss: str, mode: str, stats) -> dict[str, float]:
        model = build_model(ds.schema, mode=mode, seed=seed, stats=stats)
        block = prepare_dataset(model, train_raw)
        loss_fn, lr = loss_by_name(loss), DEFAULT_LEARNING_RATES[loss]
        grads = model.params.zeros_like()
        spent = dict.fromkeys(PHASES, 0.0)
        epoch_rng = np.random.default_rng([seed, 0])
        for qi in epoch_rng.permutation(len(train_raw)):
            q = train_raw.queries[qi]
            item_indices = None
            booked = int(block.booked[qi] - block.offsets[qi])
            if loss == "softrank" and q.n_items > SOFTRANK_LIST_SIZE:
                item_indices = _softrank_indices(q.n_items, booked, epoch_rng)
                booked = item_indices.index(booked)
            t0 = time.perf_counter()
            scores, cache = forward_block(model, block, qi, item_indices)
            t1 = time.perf_counter()
            out = loss_fn(scores, booked)
            t2 = time.perf_counter()
            step_grads = backward(model, cache, out.score_gradients, grads)
            t3 = time.perf_counter()
            sgd_step(model.params, step_grads, lr)
            t4 = time.perf_counter()
            for phase, dt in zip(PHASES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                spent[phase] += dt
        return {phase: 1e6 * s / len(train_raw) for phase, s in spent.items()}

    # every tree's prepare_dataset standardizes from the model's stats
    stats = {mode: sr.fit_standardization(train_raw, ds.schema,
                                          include_scalevariant=(mode == "deep_only"))
             for mode in sr.MODES}
    for loss, mode in CASES:
        epoch(loss, mode, stats[mode])  # warm-up: imports, caches, first-call costs
    for _ in range(repeats):
        for loss, mode in CASES:
            per_step = epoch(loss, mode, stats[mode])
            per_step["step"] = sum(per_step.values())
            for phase, us in per_step.items():
                samples.setdefault(f"{loss}_{mode}_{phase}_us", []).append(us)
    return samples


if __name__ == "__main__":
    sys.exit(bench_common.main(__file__, __doc__, SIZES, measure, unit=("us", 1.0)))
