"""End-to-end acceptance checks for the package's headline claims.

Each criterion gets one test that prints a single PASS/FAIL line with the
measured quantity and its bound (run with -s to see the lines). The heavy
training-based criteria are computed once per session and reused; the
determinism criterion recomputes them from scratch and compares bytes.

The column-sum check inside the rank-distribution criterion is expected to
fail and is marked strict-xfail: independent pairwise contests make every
row of the rank matrix a distribution, but not the columns. Three equal
scores give rows of [1/4, 1/2, 1/4], so the middle column sums to 3/2.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from sirank.data import fit_standardization, split_holdout
from sirank.generator import GeneratorConfig, generate
from sirank.losses import (
    loss_by_name,
    pairwise_win_prob,
    rank_distribution,
    softrank_objective,
)
from sirank.metrics import bonferroni, mean_ndcg, ndcg, random_ranker_mean_ndcg, two_sample_t_test
from sirank.perturb import PerturbationCase, apply_case
from sirank.scoring import Ranking, backward, build_model, forward, rank, scale_query, score_query
from sirank.trainer import TrainConfig, train

ACCEPT_SEED = 7
SCALES = (0.01, 0.5, 7.0, 1200.0)


def _line(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------------------------
# criterion 1: exact invariance of pairwise score differences and rankings


def _criterion1_report() -> dict:
    ds = generate(GeneratorConfig(num_queries=100, seed=3))
    stats = fit_standardization(ds, ds.schema)
    width_menu = [(64, 32, 16), (32, 16), (48, 24, 12)]
    per_model_worst = []
    mismatches = 0
    checks = 0
    for mi in range(100):
        model = build_model(ds.schema, mode="sir",
                            widths=width_menu[mi % len(width_menu)],
                            compressor_dim=(2, 4)[mi % 2],
                            seed=1000 + mi, stats=stats)
        worst = 0.0
        for q in ds.queries:
            base = score_query(model, q)
            base_order = rank(base).order
            for c in SCALES:
                s = score_query(model, scale_query(q, c))
                dev = float(np.max(np.abs((s - s[0]) - (base - base[0]))))
                worst = max(worst, dev)
                checks += 1
                if not np.array_equal(rank(s).order, base_order):
                    mismatches += 1
        per_model_worst.append(worst)
    return {
        "n_models": 100, "n_queries": 100, "scales": list(SCALES),
        "checks": checks, "rank_mismatches": mismatches,
        "worst_deviation": max(per_model_worst),
        "per_model_worst": per_model_worst,
    }


@pytest.fixture(scope="module")
def crit1():
    t0 = time.time()
    report = _criterion1_report()
    return report, time.time() - t0


def test_criterion_1_exact_invariance(crit1):
    report, elapsed = crit1
    ok = (report["worst_deviation"] < 1e-9 and report["rank_mismatches"] == 0
          and elapsed < 30.0)
    _line("1", ok,
          f"worst pairwise score-difference deviation {report['worst_deviation']:.3e} < 1e-9, "
          f"{report['rank_mismatches']}/{report['checks']} ranking changes across "
          f"{report['n_models']} models x {report['n_queries']} queries x {len(SCALES)} scales, "
          f"{elapsed:.1f}s < 30s")
    assert report["worst_deviation"] < 1e-9
    assert report["rank_mismatches"] == 0
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# criterion 2: trained deep-only baseline is not invariant, and degrades
# monotonically from nights-only through fixed large-rate rescaling


def _criterion2_report() -> dict:
    ds = generate(GeneratorConfig(num_queries=2000, seed=ACCEPT_SEED))
    tr, va, te = split_holdout(ds, seed=ACCEPT_SEED)
    model, hist = train(tr, va, TrainConfig(loss="ranknet", mode="deep_only",
                                            seed=ACCEPT_SEED))
    clean = mean_ndcg(model, te)
    deltas = {}
    changed = 0
    for cid in (1, 2, 3, 4):
        case_ds = apply_case(te, PerturbationCase(cid))
        deltas[str(cid)] = mean_ndcg(model, case_ds).mean - clean.mean
        if cid == 4:
            changed = sum(
                not np.array_equal(rank(score_query(model, a)).order,
                                   rank(score_query(model, b)).order)
                for a, b in zip(te.queries, case_ds.queries))
    return {
        "epochs": len(hist.val_ndcg),
        "stopping_reason": hist.stopping_reason,
        "clean_test_ndcg": clean.mean,
        "deltas": deltas,
        "case4_changed_fraction": changed / len(te.queries),
        "n_test_queries": len(te.queries),
    }


@pytest.fixture(scope="module")
def crit2():
    t0 = time.time()
    report = _criterion2_report()
    return report, time.time() - t0


def test_criterion_2_baseline_non_invariance(crit2):
    report, elapsed = crit2
    d = {int(k): v for k, v in report["deltas"].items()}
    frac = report["case4_changed_fraction"]
    ordered = abs(d[1]) <= abs(d[3]) <= abs(d[4])
    sign_consistent = all(d[c] < 0 for c in (1, 3, 4))
    ok = frac >= 0.01 and ordered and sign_consistent and elapsed < 600.0
    _line("2", ok,
          f"deep_only ranknet on 2000 queries: case 4 changes rankings on "
          f"{frac:.1%} of test queries (>= 1%), NDCG deltas "
          f"{d[1]:+.4f} / {d[3]:+.4f} / {d[4]:+.4f} for cases 1/3/4 "
          f"(|d1| <= |d3| <= |d4|, all negative), {elapsed:.1f}s < 600s")
    assert frac >= 0.01
    assert ordered
    assert sign_consistent
    assert elapsed < 600.0


# --------------------------------------------------------------------------
# criterion 3: analytic gradients of every loss through the full model
# match central finite differences


def _fd_value(model, q, booked, loss_fn) -> float:
    return loss_fn(score_query(model, q), booked).value


def test_criterion_3_gradient_correctness():
    t0 = time.time()
    ds = generate(GeneratorConfig(num_queries=12, items_min=5, items_max=5, seed=21))
    stats = fit_standardization(ds, ds.schema)
    h = 1e-5
    worst = {}
    for loss_name in ("ranknet", "lambdarank", "listnet", "listmle", "softrank"):
        loss_fn = loss_by_name(loss_name)
        model = build_model(ds.schema, mode="sir", widths=(16, 8), compressor_dim=2,
                            seed=77, stats=stats)
        coords = []
        for name, value in model.params.items():
            for idx in range(value.size):
                coords.append((name, idx))
        rng = np.random.default_rng(5)
        rng.shuffle(coords)

        checked = 0
        worst_rel = 0.0
        for q in ds.queries:
            base_scores = score_query(model, q)
            gaps = np.diff(np.sort(base_scores))
            if loss_name == "lambdarank" and np.min(gaps) < 1e-3:
                continue  # keep the current ranking stable under the probe
            booked = q.booked_index
            scores, cache = forward(model, q)
            out = loss_fn(scores, booked)
            analytic = backward(model, cache, out.score_gradients)
            for name, idx in coords:
                if checked >= 60:
                    break
                flat = model.params[name].reshape(-1)
                keep = flat[idx]
                flat[idx] = keep + h
                up = _fd_value(model, q, booked, loss_fn)
                flat[idx] = keep - h
                down = _fd_value(model, q, booked, loss_fn)
                flat[idx] = keep
                fd = (up - down) / (2 * h)
                a = analytic[name].reshape(-1)[idx]
                if max(abs(a), abs(fd)) < 1e-7:
                    continue  # both effectively zero at this coordinate
                rel = abs(a - fd) / max(abs(a), abs(fd))
                worst_rel = max(worst_rel, rel)
                checked += 1
            if checked >= 60:
                break
        worst[loss_name] = (worst_rel, checked)

    elapsed = time.time() - t0
    ok = all(rel < 1e-4 and n >= 50 for rel, n in worst.values()) and elapsed < 60.0
    summary = ", ".join(f"{k} {rel:.2e} ({n} coords)" for k, (rel, n) in worst.items())
    _line("3", ok, f"worst relative gradient error per loss: {summary}; "
                   f"all < 1e-4 on >= 50 coordinates, {elapsed:.1f}s < 60s")
    for loss_name, (rel, n) in worst.items():
        assert n >= 50, f"{loss_name}: only {n} informative coordinates"
        assert rel < 1e-4, f"{loss_name}: relative error {rel:.3e}"
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# criterion 4: smoothed-rank distribution structure


def test_criterion_4_rank_distribution_rows_and_moments():
    rng = np.random.default_rng(8)
    worst_row = 0.0
    for n in range(2, 10):
        for trial in range(6):
            scores = rng.normal(size=n)
            if trial % 3 == 0 and n >= 3:
                scores[1] = scores[0]  # exercise ties
            dist = rank_distribution(scores, sigma=0.15)
            sums = dist.probs.sum(axis=1)
            worst_row = max(worst_row, float(np.max(np.abs(sums - 1.0))))

    # n = 3 against a 10^6-draw simulation of the same independent contests
    scores3 = np.array([0.12, 0.0, -0.07])
    dist3 = rank_distribution(scores3, sigma=0.15).probs
    n_draws = 1_000_000
    mc_rng = np.random.default_rng(42)
    pairs = [(0, 1), (0, 2), (1, 2)]
    wins = {}
    for k, j in pairs:
        p = pairwise_win_prob(scores3[k], scores3[j], sigma=0.15)
        wins[(k, j)] = mc_rng.random(n_draws) < p
    ranks = np.zeros((3, n_draws), dtype=np.int64)
    for k in range(3):
        losses = np.zeros(n_draws, dtype=np.int64)
        for j in range(3):
            if j == k:
                continue
            beat = wins[(k, j)] if (k, j) in wins else ~wins[(j, k)]
            losses += ~beat
        ranks[k] = losses  # 0-based rank
    worst_se = 0.0
    for k in range(3):
        for r in range(3):
            p_hat = np.mean(ranks[k] == r)
            p_true = dist3[k, r]
            se = math.sqrt(max(p_true * (1 - p_true), 1e-12) / n_draws)
            worst_se = max(worst_se, abs(p_hat - p_true) / se)

    # all-equal two-item list: smoothed NDCG has a closed form
    out = softrank_objective(np.array([0.3, 0.3]), 0, sigma=0.15)
    expected = 0.5 * (1.0 + 1.0 / math.log2(3.0))
    ndcg_err = abs(-out.value - expected)

    ok = worst_row < 1e-9 and worst_se <= 3.0 and ndcg_err < 1e-9
    _line("4", ok,
          f"row sums off by {worst_row:.2e} (< 1e-9) for n in 2..9; n=3 matches a "
          f"10^6-draw simulation within {worst_se:.2f} standard errors (<= 3); "
          f"equal-score 2-item smoothed NDCG off by {ndcg_err:.2e} (< 1e-9)")
    assert worst_row < 1e-9
    assert worst_se <= 3.0
    assert ndcg_err < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="independent pairwise contests do not make the rank matrix doubly "
           "stochastic: with three equal scores every row is [1/4, 1/2, 1/4], "
           "so the middle column sums to 3/2. Rows are distributions, columns "
           "are not; the column half of the criterion is unattainable for "
           "this construction.")
def test_criterion_4_rank_distribution_columns():
    rng = np.random.default_rng(8)
    worst_col = 0.0
    for n in range(2, 10):
        for trial in range(6):
            scores = rng.normal(size=n)
            if trial % 3 == 0 and n >= 3:
                scores[1] = scores[0]
            dist = rank_distribution(scores, sigma=0.15)
            sums = dist.probs.sum(axis=0)
            worst_col = max(worst_col, float(np.max(np.abs(sums - 1.0))))
    _line("4-columns", worst_col < 1e-9,
          f"column sums off by {worst_col:.2e}; bound 1e-9 is unattainable "
          f"(three equal scores give a middle column of 3/2)")
    assert worst_col < 1e-9


# --------------------------------------------------------------------------
# criterion 5: NDCG against term-by-term evaluation on every permutation


def test_criterion_5_ndcg_oracle():
    labels_pool = [np.eye(5)[b].astype(np.float64) for b in range(5)]
    exact = 0
    total = 0
    for labels in labels_pool:
        gains = 2.0 ** labels - 1.0
        ideal = sorted(gains, reverse=True)
        ideal_dcg = sum(g / math.log2(1 + pos) for pos, g in enumerate(ideal, start=1))
        for perm in itertools.permutations(range(5)):
            order = np.array(perm, dtype=np.int64)
            dcg = sum(gains[order[pos - 1]] / math.log2(1 + pos) for pos in range(1, 6))
            total += 1
            if ndcg(Ranking(order=order), labels) == dcg / ideal_dcg:
                exact += 1
    booked_first = ndcg(Ranking(order=np.array([2, 0, 1, 3, 4])), labels_pool[2])
    booked_third = ndcg(Ranking(order=np.array([0, 1, 2, 3, 4])), labels_pool[2])
    ok = exact == total and booked_first == 1.0 and booked_third == 0.5
    _line("5", ok,
          f"{exact}/{total} permutations equal the term-by-term value exactly; "
          f"booked at rank 1 -> {booked_first}, booked at rank 3 -> {booked_third}")
    assert exact == total
    assert booked_first == 1.0
    assert booked_third == 0.5


# --------------------------------------------------------------------------
# criterion 6: statistical machinery


def test_criterion_6_statistics():
    x = np.array([0.41, 0.52, 0.63, 0.38, 0.57, 0.49, 0.61, 0.44])
    res = two_sample_t_test(x, x.copy())
    p_err = abs(res.p_value - 0.5)
    threshold = bonferroni(0.05, 25)
    ok = p_err < 1e-9 and threshold == 0.002
    _line("6", ok,
          f"identical samples give one-sided p = {res.p_value} (|p-0.5| = {p_err:.1e} < 1e-9); "
          f"bonferroni(0.05, 25) = {threshold} == 0.002 exactly")
    assert p_err < 1e-9
    assert threshold == 0.002


# --------------------------------------------------------------------------
# criterion 7: every loss trains an invariant model well past the random
# ranker within the epoch budget


def _criterion7_report() -> dict:
    ds = generate(GeneratorConfig(num_queries=2000, seed=ACCEPT_SEED))
    tr, va, te = split_holdout(ds, seed=ACCEPT_SEED)
    floor = random_ranker_mean_ndcg(te)
    rows = {}
    for loss in ("ranknet", "lambdarank", "listnet", "listmle", "softrank"):
        model, hist = train(tr, va, TrainConfig(loss=loss, mode="sir", seed=ACCEPT_SEED))
        test = mean_ndcg(model, te).mean
        rows[loss] = {
            "epochs": len(hist.val_ndcg),
            "stopping_reason": hist.stopping_reason,
            "test_ndcg": test,
            "margin_over_random": test - floor,
        }
    return {"random_ranker_ndcg": floor, "rows": rows}


@pytest.fixture(scope="module")
def crit7():
    t0 = time.time()
    report = _criterion7_report()
    return report, time.time() - t0


def test_criterion_7_end_to_end_learnability(crit7):
    report, elapsed = crit7
    rows = report["rows"]
    ok = (all(r["margin_over_random"] >= 0.05 and r["epochs"] <= 100 for r in rows.values())
          and elapsed < 900.0)
    summary = ", ".join(f"{k} +{v['margin_over_random']:.3f} ({v['epochs']} ep)"
                        for k, v in rows.items())
    _line("7", ok,
          f"margins over random ranker ({report['random_ranker_ndcg']:.4f}): {summary}; "
          f"all >= 0.05 within 100 epochs, {elapsed:.1f}s < 900s")
    for loss, r in rows.items():
        assert r["margin_over_random"] >= 0.05, f"{loss}: margin {r['margin_over_random']:.4f}"
        assert r["epochs"] <= 100
    assert elapsed < 900.0


# --------------------------------------------------------------------------
# criterion 8: repeating criteria 1, 2, and 7 reproduces identical reports


def test_criterion_8_determinism(crit1, crit2, crit7):
    first = {
        "criterion1": crit1[0],
        "criterion2": crit2[0],
        "criterion7": crit7[0],
    }
    second = {
        "criterion1": _criterion1_report(),
        "criterion2": _criterion2_report(),
        "criterion7": _criterion7_report(),
    }
    blob_a = json.dumps(first, sort_keys=True)
    blob_b = json.dumps(second, sort_keys=True)
    ok = blob_a == blob_b
    _line("8", ok, f"re-running criteria 1, 2, and 7 reproduced byte-identical "
                   f"reports ({len(blob_a)} bytes each)")
    assert blob_a == blob_b
