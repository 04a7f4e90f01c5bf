"""Rescale a query's monetary features and watch what each scorer does.

The invariant model shifts every item's score by the same constant, so
pairwise differences and the induced ranking never move. The deep-only
baseline standardizes those features with training-time statistics, so a
serve-time rescaling pushes its inputs off-distribution and the ranking
drifts.
"""

import numpy as np

from sirank import (
    GeneratorConfig,
    build_model,
    fit_standardization,
    generate,
    invariance_gap,
    rank,
    scale_query,
    score_query,
)


def show(model, q, factors):
    base = score_query(model, q)
    print(f"  c=1        scores {np.round(base, 4)}  order {rank(base).order.tolist()}")
    for c in factors:
        s = score_query(model, scale_query(q, c))
        moved = "same order" if np.array_equal(rank(s).order, rank(base).order) else "ORDER CHANGED"
        print(f"  c={c:<8g} scores {np.round(s, 4)}  {moved}")
        diffs = (s - s[0]) - (base - base[0])
        print(f"             pairwise-difference deviation {np.max(np.abs(diffs)):.2e}")


def main():
    ds = generate(GeneratorConfig(num_queries=50, items_min=5, items_max=6, seed=12))
    q = ds.queries[7]
    factors = (0.01, 0.85, 7.1, 1200.0)

    print(f"query {q.query_id}: {q.n_items} items, booked item index {q.booked_index}")
    print(f"raw prices: {np.round(q.scalevariant[:, 0], 2).tolist()}\n")

    # each model standardizes its deep-path inputs with stats fitted on the corpus
    sir = build_model(ds.schema, mode="sir", seed=4, stats=fit_standardization(ds, ds.schema))
    print("invariant scorer (deep tower + bilinear log-price term):")
    show(sir, q, factors)
    print(f"  max invariance gap at c=1200: {invariance_gap(sir, q, 1200.0):.2e}\n")

    deep = build_model(ds.schema, mode="deep_only", seed=4,
                       stats=fit_standardization(ds, ds.schema, include_scalevariant=True))
    print("deep-only baseline (prices standardized into the tower):")
    show(deep, q, factors)
    print(f"  max invariance gap at c=1200: {invariance_gap(deep, q, 1200.0):.2e}")


if __name__ == "__main__":
    main()
