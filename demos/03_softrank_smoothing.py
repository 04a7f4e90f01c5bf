"""How the smoothed listwise objective sees ranks.

Score differences become win probabilities through a Normal CDF; each item's
rank becomes a distribution instead of an integer. Shrinking sigma collapses
the distribution onto the hard ranking, so the smoothed NDCG approaches the
hard NDCG while staying differentiable.
"""

import numpy as np

from sirank import ndcg, rank, rank_distribution, softrank_objective


def main():
    scores = np.array([0.9, 1.1, 0.2])
    booked = 1

    print(f"scores {scores.tolist()}, booked item {booked}")
    hard = ndcg(rank(scores), np.eye(3)[booked])
    print(f"hard NDCG: {hard:.6f}\n")

    for sigma in (1.0, 0.3, 0.15, 0.02):
        dist = rank_distribution(scores, sigma=sigma)
        out = softrank_objective(scores, booked, sigma=sigma)
        print(f"sigma={sigma:<5} smoothed NDCG {-out.value:.6f}")
        for j in range(3):
            print(f"   item {j}: rank probs {np.round(dist.probs[j], 4).tolist()}"
                  f" (sum {dist.probs[j].sum():.6f})")
        print(f"   gradient on scores: {np.round(out.score_gradients, 4).tolist()}")
    print()

    # rows are distributions by construction; columns are not. Equal scores
    # make it obvious: every item has the same row, so the middle column
    # triples while the outer ones starve.
    tied = rank_distribution(np.zeros(3), sigma=0.15)
    print("three equal scores:")
    print(f"   every row  -> {tied.probs[0].tolist()}")
    print(f"   column sums -> {tied.probs.sum(axis=0).tolist()}  (not a distribution)")


if __name__ == "__main__":
    main()
