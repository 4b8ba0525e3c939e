"""Tests for the synthetic data generator."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from hbayes import HyperParams, sample_dataset


def test_same_seed_bit_identical():
    hp = HyperParams(num_styles=3, feature_dim=4)
    d1, t1 = sample_dataset(hp, num_users=5, num_brands=6, num_events=300, seed=42)
    d2, t2 = sample_dataset(hp, num_users=5, num_brands=6, num_events=300, seed=42)
    np.testing.assert_array_equal(d1.X, d2.X)
    np.testing.assert_array_equal(d1.y, d2.y)
    np.testing.assert_array_equal(d1.users, d2.users)
    np.testing.assert_array_equal(d1.brands, d2.brands)
    np.testing.assert_array_equal(t1.brand_vectors, t2.brand_vectors)
    np.testing.assert_array_equal(t1.style_assignments, t2.style_assignments)
    d3, _ = sample_dataset(hp, num_users=5, num_brands=6, num_events=300, seed=43)
    assert not np.array_equal(d1.X, d3.X)


def test_argument_validation():
    hp = HyperParams(num_styles=2, feature_dim=3)
    with pytest.raises(ValueError):
        sample_dataset(hp, num_users=0, num_brands=1, num_events=1)
    with pytest.raises(ValueError):
        sample_dataset(hp, num_users=1, num_brands=1, num_events=1,
                       true_precisions=(1.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        sample_dataset(hp, num_users=1, num_brands=1, num_events=1, feature_scale=-1.0)
    with pytest.raises(ValueError):
        sample_dataset(hp, num_users=1, num_brands=1, num_events=1,
                       true_precisions=(1.0, 1.0, float("inf"), 1.0))
    for scale in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            sample_dataset(hp, num_users=1, num_brands=1, num_events=1, feature_scale=scale)


def test_brands_concentrate_on_styles_at_high_precision():
    hp = HyperParams(num_styles=3, feature_dim=5)
    _, truth = sample_dataset(hp, num_users=2, num_brands=40, num_events=1,
                              true_precisions=(1.0, 1e8, 1.0, 1.0), seed=0)
    assigned = truth.style_vectors[truth.style_assignments]
    dists = np.linalg.norm(truth.brand_vectors - assigned, axis=1)
    assert np.all(dists < 1e-3)


def test_zero_feature_scale_gives_coin_flip_labels():
    hp = HyperParams(num_styles=2, feature_dim=3)
    n = 20_000
    data, _ = sample_dataset(hp, num_users=3, num_brands=3, num_events=n,
                             feature_scale=0.0, seed=1)
    rate = data.y.mean()
    assert abs(rate - 0.5) <= 3.0 * np.sqrt(0.25 / n)
    assert np.all(data.X == 0.0)


def test_style_assignment_marginals_match_theta():
    # balanced concentration so every expected count is large
    hp = HyperParams(num_styles=3, feature_dim=2, gamma0=np.full(3, 10.0))
    _, truth = sample_dataset(hp, num_users=1, num_brands=10_000, num_events=1,
                              seed=11)
    counts = np.bincount(truth.style_assignments, minlength=3)
    expected = truth.theta * 10_000
    _, pvalue = stats.chisquare(counts, expected)
    assert pvalue > 0.01


def test_truth_fields_consistent():
    hp = HyperParams(num_styles=4, feature_dim=6)
    data, truth = sample_dataset(hp, num_users=7, num_brands=9, num_events=50, seed=2)
    assert truth.style_vectors.shape == (4, 6)
    assert truth.brand_vectors.shape == (9, 6)
    assert truth.user_vectors.shape == (7, 6)
    assert truth.theta.shape == (4,)
    assert truth.theta.sum() == pytest.approx(1.0, abs=1e-12)
    assert data.feature_dim == 6
    assert len(data) == 50
    assert data.num_users == 7 and data.num_brands == 9


@pytest.mark.parametrize("field, value, message", [
    ("theta", np.array([0.5, 0.6]), "theta must be a probability vector"),
    ("theta", np.array([1.5, -0.5]), "theta must be a probability vector"),
    ("style_assignments", np.array([0, 2]), "style assignments out of range"),
    ("style_assignments", np.array([-1, 0]), "style assignments out of range"),
])
def test_truth_rejects_inconsistent_fields(field, value, message):
    _, truth = sample_dataset(HyperParams(num_styles=2, feature_dim=2), num_users=1,
                              num_brands=2, num_events=1, seed=0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(truth, **{field: value})


def test_click_rates_match_monte_carlo_per_cell():
    # empirical click rate per (user, brand) cell vs a Monte Carlo estimate
    # of E_x[sigmoid(x @ (B_b + U_u))] with the same fixed latents
    hp = HyperParams(num_styles=2, feature_dim=4)
    n = 50_000
    data, truth = sample_dataset(hp, num_users=2, num_brands=2, num_events=n,
                                 true_precisions=(2.0, 10.0, 1.0, 1.0),
                                 feature_scale=0.8, seed=9)
    rng = np.random.default_rng(1234)
    m = 200_000
    xs = 0.8 * rng.standard_normal((m, 4))
    for u in range(2):
        for b in range(2):
            mask = (data.users == u) & (data.brands == b)
            n_cell = int(mask.sum())
            assert n_cell > 1000
            emp = data.y[mask].mean()
            probs = expit(xs @ (truth.brand_vectors[b] + truth.user_vectors[u]))
            mc = probs.mean()
            se = np.sqrt(emp * (1 - emp) / n_cell + probs.var() / m)
            assert abs(emp - mc) <= 3.0 * se, (u, b, emp, mc, se)
