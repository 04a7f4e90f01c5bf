"""Train both model variants and stress them with serve-time rescalings.

Generates a small synthetic search log, trains a pairwise ranker in both
modes on the same split, then evaluates on held-out queries under the four
perturbation cases: nights multiplier, per-query exchange rate, both, and a
fixed x1200 conversion.
"""

import numpy as np

from sirank import (
    CASE_IDS,
    GeneratorConfig,
    PerturbationCase,
    TrainConfig,
    apply_case,
    generate,
    mean_ndcg,
    random_ranker_mean_ndcg,
    split_holdout,
    train,
)


def main():
    ds = generate(GeneratorConfig(num_queries=300, seed=11))
    tr, va, te = split_holdout(ds, seed=0)
    print(f"{len(ds)} queries -> {len(tr)} train / {len(va)} val / {len(te)} test")
    print(f"random-ranker test NDCG: {random_ranker_mean_ndcg(te):.4f}\n")

    header = f"{'model':<12} {'test':>7} " + " ".join(f"case{c:>2}".rjust(7) for c in CASE_IDS)
    print(header)
    print("-" * len(header))
    for mode in ("deep_only", "sir"):
        # train standardizes with stats it fits on the raw training split
        model, hist = train(tr, va, TrainConfig(loss="ranknet", mode=mode,
                                                max_epochs=25, patience=10, seed=3))
        clean = mean_ndcg(model, te).mean
        row = [f"{mode:<12}", f"{clean:7.4f}"]
        for cid in CASE_IDS:
            case_ndcg = mean_ndcg(model, apply_case(te, PerturbationCase(cid))).mean
            row.append(f"{case_ndcg:7.4f}")
        print(" ".join(row) + f"   ({len(hist.val_ndcg)} epochs, {hist.stopping_reason})")

    print("\nthe invariant rows repeat one number; the baseline degrades as the")
    print("rescaling grows (nights < nights x rate < everything x 1200).")


if __name__ == "__main__":
    main()
