"""All five ranking losses on one toy result list.

Scores are model outputs for a 5-item list where item 2 was booked. Every
loss takes the scores and the booked item's index, and returns a value plus
gradients with respect to the scores; gradient descent subtracts them, so a
negative gradient on the booked item means its score will rise.
"""

import numpy as np

from sirank import LOSS_NAMES, loss_by_name, rank


def main():
    scores = np.array([0.8, -0.3, 0.1, 0.5, -0.6])
    booked = 2
    order = rank(scores).order
    print(f"scores {scores.tolist()}")
    print(f"booked item 2 currently sits at position {list(order).index(booked) + 1} of 5\n")

    for name in LOSS_NAMES:
        out = loss_by_name(name)(scores, booked)
        g = out.score_gradients
        print(f"{name:<11} value {out.value:+.4f}")
        print(f"{'':<11} score grads {np.round(g, 4).tolist()}")
        assert g[booked] < 0, "booked item should be pushed up"
        # gradients on a shared shift cancel: the losses only care about differences
        print(f"{'':<11} grad sum {np.sum(g):+.2e} (translation invariant)\n")

    # lambdarank is ranknet with |delta NDCG| pair weights: mistakes near the
    # top of the list cost more
    print("swap cost intuition: ranknet treats all pairs alike, lambdarank")
    print("weights each (booked, other) pair by the NDCG change of swapping them.")
    rn = loss_by_name("ranknet")(scores, booked).score_gradients
    lr = loss_by_name("lambdarank")(scores, booked).score_gradients
    ratio = lr[np.arange(5) != booked] / rn[np.arange(5) != booked]
    print(f"per-pair weight ratio lambdarank/ranknet: {np.round(ratio, 3).tolist()}")


if __name__ == "__main__":
    main()
