"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.special import expit

from hbayes import (
    Checkpoint,
    HyperParams,
    elbo,
    fit,
    jj_lower_bound,
    load_checkpoint,
    ndcg_at_k,
    precision_at_k,
    predict_prob,
    rank_top_k,
    recall_at_k,
    sample_dataset,
    save_checkpoint,
    sigmoid,
    stratified_user_folds,
)
from hbayes.inference import update_brands, update_styles, update_users, update_w, update_xi
from hbayes.model import Dataset, event_moments, family_moments, lambda_of_xi

from helpers import adjusted_rand_index, popularity_scorer_factory

SCALE_HP = dict(num_styles=3, feature_dim=10, max_iters=100, rel_tol=1e-5)
SCALE_DATA = dict(num_users=20, num_brands=15, num_events=2000)


@pytest.fixture(scope="module")
def reference_fit():
    """The seed-fixed synthetic instance shared by criteria 2, 3 and 8."""
    hp = HyperParams(**SCALE_HP)
    data, _ = sample_dataset(hp, seed=42, **SCALE_DATA)
    t0 = time.perf_counter()
    state, report = fit(data, hp, seed=0)
    elapsed = time.perf_counter() - t0
    return hp, data, state, report, elapsed


def _ok(name, detail):
    print(f"PASS  {name}: {detail}")


def test_criterion_1_bound_correctness():
    rng = np.random.default_rng(20240101)
    t0 = time.perf_counter()
    h = rng.uniform(-10.0, 10.0, size=10_000)
    xi = rng.uniform(1e-9, 10.0, size=10_000)
    bound = jj_lower_bound(h, xi)
    sig = sigmoid(h)
    assert np.all(bound <= sig + 1e-12)
    tight_pos = np.abs(jj_lower_bound(xi, xi) - sigmoid(xi))
    tight_neg = np.abs(jj_lower_bound(-xi, xi) - sigmoid(-xi))
    assert np.max(tight_pos) < 1e-9
    assert np.max(tight_neg) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok("criterion 1 (bound correctness)",
        f"10000 pairs below sigmoid, tangency error {max(tight_pos.max(), tight_neg.max()):.2e}, "
        f"{elapsed:.3f}s")


def test_criterion_2_elbo_monotonicity(reference_fit):
    hp, data, state, report, elapsed = reference_fit
    trace = np.array(report.elbo_trace)
    assert report.converged, "fit did not converge"
    assert report.iterations_run <= 100
    drops = np.diff(trace) + 1e-6 * np.abs(trace[:-1])
    assert np.all(drops >= 0), f"ELBO decreased at sweeps {np.flatnonzero(drops < 0)}"
    assert elapsed < 60.0
    _ok("criterion 2 (ELBO monotonicity)",
        f"converged in {report.iterations_run} sweeps, min margin "
        f"{drops.min():.3e}, {elapsed:.2f}s")


def test_criterion_3_coordinate_optimality(reference_fit):
    hp, data, state, _, _ = reference_fit
    xi = update_xi(*event_moments(state, data))  # the xi the fit ended with, bit for bit
    rng = np.random.default_rng(7)

    def perturbation():
        v = rng.standard_normal(hp.feature_dim)
        return 0.1 * v / np.linalg.norm(v)

    worst = -np.inf
    families = {  # family: (update, mean field, spread field)
        "user": (lambda st: update_users(
                     st, data, lambda_of_xi(xi),
                     family_moments(st.brand_mean, st.brand_cov, data.by_brand)[0]),
                 "user_mean", "user_cov"),
        "brand": (lambda st: update_brands(
                      st, data, lambda_of_xi(xi),
                      family_moments(st.user_mean, st.user_cov, data.by_user)[0]),
                  "brand_mean", "brand_cov"),
        "style": (update_styles, "style_mean", "style_var"),
        "w": (update_w, "w_mean", "w_var"),
    }
    for family, (update, mean_field, spread_field) in families.items():
        st = state.copy()
        mean, spread = update(st)
        setattr(st, mean_field, mean)
        setattr(st, spread_field, spread)
        base = elbo(st, data, hp, xi)
        for _ in range(20):
            pert = st.copy()
            if family == "user":
                k = int(rng.integers(st.num_users))
                pert.user_mean[k] = pert.user_mean[k] + perturbation()
            elif family == "brand":
                i = int(rng.integers(st.num_brands))
                pert.brand_mean[i] = pert.brand_mean[i] + perturbation()
            elif family == "style":
                j = int(rng.integers(st.num_styles))
                pert.style_mean[j] = pert.style_mean[j] + perturbation()
            else:
                pert.w_mean = pert.w_mean + perturbation()
            delta = (elbo(pert, data, hp, xi) - base) / abs(base)
            worst = max(worst, delta)
            assert delta <= 1e-9, f"{family} perturbation raised ELBO by {delta:.2e}"
    _ok("criterion 3 (coordinate optimality)",
        f"80 perturbations, worst relative change {worst:.3e}")


def test_criterion_4_style_recovery():
    true_precisions = (4.0, 100.0, 0.25, 1.0)
    min_separation = 5.0 / math.sqrt(true_precisions[1])
    gen_hp = HyperParams(num_styles=3, feature_dim=10, gamma0=np.full(3, 50.0))
    fit_hp = HyperParams(num_styles=3, feature_dim=10, max_iters=150, rel_tol=1e-5)
    scores = []
    for seed in range(5):
        data, truth = sample_dataset(gen_hp, num_users=10, num_brands=30,
                                     num_events=3000,
                                     true_precisions=true_precisions, seed=seed)
        separation = min(np.linalg.norm(truth.style_vectors[i] - truth.style_vectors[j])
                         for i, j in combinations(range(3), 2))
        assert separation >= min_separation, "instance not well-separated"
        state, _ = fit(data, fit_hp, seed=seed, restarts=3)
        fitted = state.resp.argmax(axis=1)
        score = adjusted_rand_index(truth.style_assignments, fitted)
        scores.append(score)
        assert score >= 0.9, f"seed {seed}: ARI {score:.3f} < 0.9"
    _ok("criterion 4 (style recovery)",
        "ARI per seed: " + ", ".join(f"{s:.3f}" for s in scores))


def test_criterion_5_prediction_approximation():
    rng = np.random.default_rng(555)
    draws = rng.standard_normal(100_000)
    worst = 0.0
    for mu in range(-4, 5):
        for s2 in (0.0, 1.0, 4.0, 9.0):
            mc = float(np.mean(expit(mu + math.sqrt(s2) * draws)))
            err = abs(predict_prob(float(mu), float(s2)) - mc)
            worst = max(worst, err)
            assert err < 0.02, f"mu={mu} s2={s2}: error {err:.4f}"
    _ok("criterion 5 (prediction approximation)",
        f"worst |probit - MC| = {worst:.4f} over the grid")


def test_criterion_6_metric_oracles():
    def brute_precision(ranked, relevant, k):
        top = ranked[:k]
        hits = len([r for r in top if r in relevant])
        return hits / min(k, len(ranked)) if ranked else 0.0

    def brute_recall(ranked, relevant, k):
        if not relevant:
            return 0.0
        hits = len([r for r in ranked[:k] if r in relevant])
        return hits / len(relevant)

    def brute_ndcg(gains, k):
        dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains[:k]))
        ideal = sum(g / math.log2(i + 2)
                    for i, g in enumerate(sorted(gains, reverse=True)[:k]))
        return dcg / ideal if ideal > 0 else 0.0

    rng = np.random.default_rng(606)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        ranked = list(rng.permutation(100)[:n])
        relevant = {int(i) for i in ranked if rng.random() < 0.5}
        k = int(rng.integers(1, 9))
        gains = [1 if i in relevant else 0 for i in ranked]
        assert precision_at_k(ranked, relevant, k) == brute_precision(ranked, relevant, k)
        assert recall_at_k(ranked, relevant, k) == brute_recall(ranked, relevant, k)
        assert ndcg_at_k(ranked, {i: 1 for i in relevant}, k) == pytest.approx(
            brute_ndcg(gains, k), abs=1e-12)

    hand = ndcg_at_k(["a", "b", "c"], {"a": 1, "c": 1}, 3)
    assert hand == pytest.approx(0.91972, abs=1e-5)
    _ok("criterion 6 (metric oracles)",
        f"1000 instances exact, NDCG hand case {hand:.5f}")


def test_criterion_7_ranking_lift():
    hp = HyperParams(**SCALE_HP)
    lifts = []
    for seed in range(5):
        data, _ = sample_dataset(hp, seed=seed, **SCALE_DATA)
        fold_of = stratified_user_folds(data, folds=5, seed=seed)
        train = Dataset(events=[data.events[t] for t in range(len(data))
                                if fold_of[t] != 0 and fold_of[t] >= 0],
                        num_users=data.num_users, num_brands=data.num_brands,
                        feature_dim=data.feature_dim)
        test_idx = np.flatnonzero(fold_of == 0)

        per_user = {}
        for t in test_idx:
            per_user.setdefault(int(data.users[t]), []).append(int(t))

        means = {}
        for name, factory in (("hbayes", None), ("popularity", popularity_scorer_factory)):
            if factory is None:
                state, _ = fit(train, hp, seed=seed)

                def score(user_id, cands, state=state):
                    ranked = rank_top_k(user_id, cands, state, k=len(cands))
                    probs = dict(ranked)
                    return np.array([probs[item] for item, _, _ in cands])
            else:
                score = factory(train, hp, seed)
            vals = []
            for user_id, items in sorted(per_user.items()):
                relevant = {t for t in items if data.y[t] == 1}
                if not relevant:
                    continue
                cands = [(t, data.X[t], int(data.brands[t])) for t in items]
                s = score(user_id, cands)
                order = sorted(range(len(items)), key=lambda i: (-s[i], items[i]))
                ranked = [items[i] for i in order]
                vals.append(ndcg_at_k(ranked, {t: 1 for t in relevant}, 10))
            means[name] = float(np.mean(vals))
        assert means["hbayes"] > means["popularity"], (
            f"seed {seed}: {means['hbayes']:.4f} <= {means['popularity']:.4f}")
        lifts.append(means["hbayes"] - means["popularity"])
    _ok("criterion 7 (ranking lift)",
        "NDCG@10 lift per seed: " + ", ".join(f"+{l:.3f}" for l in lifts))


def test_criterion_8_determinism_and_persistence(reference_fit, tmp_path):
    hp, data, state, report, _ = reference_fit
    _, report2 = fit(data, hp, seed=0)
    assert report2.elbo_trace == report.elbo_trace  # bit-identical floats

    path = tmp_path / "model.json"
    save_checkpoint(Checkpoint(hp, state, report), path)
    restored = load_checkpoint(path).state
    rng = np.random.default_rng(4)
    cands = [(i, rng.standard_normal(hp.feature_dim),
              int(rng.integers(data.num_brands))) for i in range(50)]
    before = rank_top_k(3, cands, state, k=20)
    after = rank_top_k(3, cands, restored, k=20)
    assert before == after
    _ok("criterion 8 (determinism and persistence)",
        f"traces bit-identical over {report.iterations_run} sweeps; "
        "ranking unchanged through checkpoint round-trip")
