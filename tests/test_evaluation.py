"""Tests for ranking metrics and the cross-validation harness."""

import math

import numpy as np
import pytest

from hbayes import (
    HyperParams,
    cross_validate,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    sample_dataset,
    stratified_user_folds,
)
from hbayes.evaluation import DEFAULT_K_VALUES

from helpers import make_dataset


# ---------------------------------------------------------------------------
# precision / recall
# ---------------------------------------------------------------------------


def test_precision_all_relevant():
    assert precision_at_k(["a", "b", "c"], {"a", "b", "c", "d"}, 3) == 1.0


def test_precision_counts_intersection():
    assert precision_at_k(["a", "b"], {"a", "c"}, 2) == 0.5


def test_precision_empty_cases():
    assert precision_at_k([], {"a"}, 3) == 0.0
    assert precision_at_k(["a", "b"], set(), 2) == 0.0


def test_precision_short_list_denominator():
    # denominator is the number of items actually ranked when < k
    assert precision_at_k(["a"], {"a"}, 5) == 1.0


def test_precision_rejects_bad_k():
    with pytest.raises(ValueError):
        precision_at_k(["a"], {"a"}, 0)


def test_recall_full_retrieval():
    assert recall_at_k(["a", "b", "c"], {"a", "c"}, 3) == 1.0


def test_recall_counts_intersection():
    assert recall_at_k(["a", "b", "c"], {"a", "c"}, 2) == 0.5


def test_recall_empty_relevant():
    assert recall_at_k(["a", "b"], set(), 2) == 0.0


def test_precision_recall_count_same_intersection():
    rng = np.random.default_rng(8)
    items = list("abcdefgh")
    for _ in range(300):
        n = int(rng.integers(1, 9))
        ranked = list(rng.permutation(items)[:n])
        relevant = set(rng.permutation(items)[: int(rng.integers(0, 9))])
        k = int(rng.integers(1, 10))
        hits_p = precision_at_k(ranked, relevant, k) * min(k, len(ranked))
        hits_r = recall_at_k(ranked, relevant, k) * len(relevant)
        assert hits_p == pytest.approx(round(hits_p), abs=1e-9)
        if relevant:
            assert hits_p == pytest.approx(hits_r, abs=1e-9)


# ---------------------------------------------------------------------------
# NDCG
# ---------------------------------------------------------------------------


def _ndcg_brute_force(gains, k):
    def dcg(seq):
        return sum(g / math.log2(i + 2) for i, g in enumerate(seq[:k]))

    ideal = dcg(sorted(gains, reverse=True))
    return dcg(gains) / ideal if ideal > 0 else 0.0


def test_ndcg_perfect_ranking():
    rel = {"a": 1, "b": 1, "c": 0, "d": 0}
    assert ndcg_at_k(["a", "b", "c", "d"], rel, 4) == 1.0


def test_ndcg_hand_case():
    rel = {"a": 1, "b": 0, "c": 1}
    val = ndcg_at_k(["a", "b", "c"], rel, 3)
    idcg = 1.0 + 1.0 / math.log2(3.0)
    assert val == pytest.approx(1.5 / idcg, rel=1e-12)
    assert val == pytest.approx(0.91972, abs=1e-5)


def test_ndcg_no_relevant_items():
    assert ndcg_at_k(["a", "b"], {}, 2) == 0.0


def test_ndcg_accepts_callable_relevance():
    assert ndcg_at_k([3, 1, 2], lambda item: 1 if item == 1 else 0, 3) == \
        pytest.approx(_ndcg_brute_force([0, 1, 0], 3), rel=1e-12)


def test_ndcg_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        gains = rng.integers(0, 2, size=n).tolist()
        k = int(rng.integers(1, 9))
        ranked = list(range(n))
        rel = {i: gains[i] for i in range(n)}
        assert ndcg_at_k(ranked, rel, k) == pytest.approx(
            _ndcg_brute_force(gains, k), rel=1e-12)


def test_metrics_invariant_under_item_relabeling():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        ranked = list(range(n))
        relevant = {i for i in range(n) if rng.random() < 0.4}
        k = int(rng.integers(1, 9))
        mapping = {i: f"item-{i * 13 + 7}" for i in range(n)}
        ranked2 = [mapping[i] for i in ranked]
        relevant2 = {mapping[i] for i in relevant}
        assert precision_at_k(ranked, relevant, k) == precision_at_k(ranked2, relevant2, k)
        assert recall_at_k(ranked, relevant, k) == recall_at_k(ranked2, relevant2, k)
        assert ndcg_at_k(ranked, {i: 1 for i in relevant}, k) == \
            ndcg_at_k(ranked2, {m: 1 for m in relevant2}, k)


# ---------------------------------------------------------------------------
# stratified folds
# ---------------------------------------------------------------------------


def _toy_dataset(num_users=6, events_per_user=10, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(num_users):
        for _ in range(events_per_user):
            rows.append((rng.standard_normal(3), int(rng.integers(4)), u,
                         int(rng.integers(2))))
    return make_dataset(rows, num_users=num_users, num_brands=4, feature_dim=3)


def test_stratified_folds_balanced_per_user():
    data = _toy_dataset(num_users=5, events_per_user=11)
    fold_of = stratified_user_folds(data, folds=4, seed=3)
    order, bounds = data.user_order
    for idx in np.split(order, bounds[1:-1]):
        counts = np.bincount(fold_of[idx], minlength=4)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 11


def test_stratified_folds_exclude_sparse_users():
    rows = [(np.zeros(2), 0, 0, 1)] * 2 + [(np.zeros(2), 0, 1, 1)] * 6
    data = make_dataset(rows, num_users=2, num_brands=1, feature_dim=2)
    fold_of = stratified_user_folds(data, folds=3, seed=0)
    assert np.all(fold_of[:2] == -1)
    assert np.all(fold_of[2:] >= 0)


def test_stratified_folds_reject_single_fold():
    with pytest.raises(ValueError):
        stratified_user_folds(_toy_dataset(), folds=1, seed=0)


# ---------------------------------------------------------------------------
# cross_validate
# ---------------------------------------------------------------------------


def test_cross_validate_rejects_single_fold():
    data = _toy_dataset()
    hp = HyperParams(num_styles=2, feature_dim=3)
    with pytest.raises(ValueError):
        cross_validate(data, hp, folds=1)


def test_cross_validate_rejects_too_small_dataset():
    rows = [(np.zeros(2), 0, 0, 1)] * 3
    data = make_dataset(rows, num_users=1, num_brands=1, feature_dim=2)
    hp = HyperParams(num_styles=1, feature_dim=2)
    with pytest.raises(ValueError, match="too small"):
        cross_validate(data, hp, folds=5)


def test_cross_validate_perfect_oracle_scores_one():
    data = _toy_dataset(num_users=8, events_per_user=12, seed=4)

    def oracle_factory(train, hp, seed):
        def score(user_id, candidates):
            return np.array([data.y[item] for item, _, _ in candidates])
        return score

    hp = HyperParams(num_styles=2, feature_dim=3)
    result = cross_validate(data, hp, folds=3, seed=0, k_values=(2, 5),
                            scorer_factory=oracle_factory)
    for fold in result.fold_reports:
        for report in fold:
            assert report.ndcg == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= report.precision <= 1.0
            assert 0.0 <= report.recall <= 1.0


def test_cross_validate_ties_rank_by_ascending_event_index():
    data = _toy_dataset(num_users=8, events_per_user=12, seed=4)
    folds, k = 3, 2  # 4 held-out events per user, so the order within them matters

    def constant_factory(train, hp, seed):
        return lambda user_id, candidates: np.zeros(len(candidates))

    hp = HyperParams(num_styles=2, feature_dim=3)
    result = cross_validate(data, hp, folds=folds, seed=0, k_values=(k,),
                            scorer_factory=constant_factory)
    fold_of = stratified_user_folds(data, folds, 0)
    for f in range(folds):
        expected = []
        for u in range(data.num_users):
            held = np.flatnonzero((fold_of == f) & (data.users == u))
            if data.y[held].any():
                expected.append(precision_at_k(held.tolist(),
                                               set(held[data.y[held] == 1].tolist()), k))
        assert result.fold_reports[f][0].precision == pytest.approx(np.mean(expected), abs=1e-12)


def test_cross_validate_random_scores_match_permutation_null():
    data = _toy_dataset(num_users=30, events_per_user=10, seed=6)
    folds, k, seed = 2, 3, 1

    def random_factory(train, hp, fold_seed):
        rng = np.random.default_rng(fold_seed)

        def score(user_id, candidates):
            return rng.random(len(candidates))
        return score

    hp = HyperParams(num_styles=2, feature_dim=3)
    result = cross_validate(data, hp, folds=folds, seed=seed, k_values=(k,),
                            scorer_factory=random_factory)
    observed = np.mean([fold[0].ndcg for fold in result.fold_reports])

    # permutation-null oracle over the same evaluated cells
    fold_of = stratified_user_folds(data, folds, seed)
    rng = np.random.default_rng(777)
    fold_null_means = []
    fold_null_vars = []
    for f in range(folds):
        cell_means, cell_vars = [], []
        order, bounds = data.user_order
        for idx in np.split(order, bounds[1:-1]):
            held = idx[fold_of[idx] == f]
            gains = data.y[held]
            if gains.sum() == 0:
                continue
            perms = rng.permuted(np.tile(gains, (10_000, 1)), axis=1)
            top = perms[:, :k]
            discounts = 1.0 / np.log2(np.arange(2, top.shape[1] + 2))
            dcg = top @ discounts
            ideal = np.sort(gains)[::-1][:k]
            idcg = float(ideal @ (1.0 / np.log2(np.arange(2, len(ideal) + 2))))
            vals = dcg / idcg
            cell_means.append(vals.mean())
            cell_vars.append(vals.var(ddof=1))
        fold_null_means.append(np.mean(cell_means))
        fold_null_vars.append(np.sum(cell_vars) / len(cell_vars) ** 2)

    null_mean = np.mean(fold_null_means)
    # one random realization per cell; folds averaged
    sigma = math.sqrt(sum(fold_null_vars) / folds ** 2
                      + sum(v / 10_000 for v in fold_null_vars) / folds ** 2)
    assert abs(observed - null_mean) <= 3.0 * sigma


def test_cross_validate_deterministic_and_bounded():
    data = _toy_dataset(num_users=6, events_per_user=10, seed=2)
    hp = HyperParams(num_styles=2, feature_dim=3, max_iters=10)
    r1 = cross_validate(data, hp, folds=2, seed=5, k_values=(3, 5))
    r2 = cross_validate(data, hp, folds=2, seed=5, k_values=(3, 5))
    assert r1.summary() == r2.summary()
    for fold in r1.fold_reports:
        for report in fold:
            assert 0.0 <= report.precision <= 1.0
            assert 0.0 <= report.recall <= 1.0
            assert 0.0 <= report.ndcg <= 1.0
    mean5 = r1.mean_report(5)
    assert mean5.k == 5
    assert 0.0 <= mean5.ndcg <= 1.0
    summary = r1.summary()
    assert summary["k_values"] == [3, 5]
    assert set(summary["mean"]) == {"3", "5"}
    assert DEFAULT_K_VALUES == (5, 10, 25, 50)
