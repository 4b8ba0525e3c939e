"""Tests for the domain types and probability math."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import digamma

from hbayes import (
    Dataset,
    EventRecord,
    GammaPosterior,
    HyperParams,
    NumericalError,
    elbo,
    elbo_terms,
    event_log_likelihood,
    jj_lower_bound,
    lambda_of_xi,
    sample_dataset,
    sigmoid,
)
from hbayes.inference import cavi_sweep, initial_state

from helpers import (
    LOG2PI,
    make_dataset,
    mc_elbo_cross_terms,
    prior_matched_state,
    random_state,
)


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------


def test_sigmoid_symmetry_point():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_saturates_without_overflow():
    assert abs(sigmoid(500.0) - 1.0) < 1e-12
    assert sigmoid(-500.0) < 1e-12
    assert np.isfinite(sigmoid(-500.0))


def test_sigmoid_direct_value():
    assert sigmoid(2.0) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)


def test_sigmoid_accepts_arrays():
    out = sigmoid(np.array([-1.0, 0.0, 1.0]))
    assert out.shape == (3,)
    assert out[1] == 0.5


# ---------------------------------------------------------------------------
# lambda_of_xi
# ---------------------------------------------------------------------------


def test_lambda_limit_at_zero():
    assert lambda_of_xi(0.0) == 0.125


def test_lambda_direct_value():
    expected = (1.0 / (1.0 + math.exp(-2.0)) - 0.5) / 4.0
    assert lambda_of_xi(2.0) == pytest.approx(expected, abs=1e-15)


def test_lambda_is_even():
    assert lambda_of_xi(-3.0) == lambda_of_xi(3.0)
    xs = np.linspace(0.01, 20, 57)
    np.testing.assert_array_equal(lambda_of_xi(-xs), lambda_of_xi(xs))


def test_lambda_continuous_at_zero():
    assert abs(lambda_of_xi(1e-8) - 0.125) < 1e-8
    # the series branch agrees with direct evaluation at the same points
    for x in (1e-3, 5e-3, 0.99e-2):
        direct = (1.0 / (1.0 + math.exp(-x)) - 0.5) / (2.0 * x)
        assert abs(lambda_of_xi(x) - direct) < 1e-12


def test_lambda_positive_and_bounded():
    xs = np.linspace(0, 50, 1001)
    lam = lambda_of_xi(xs)
    assert np.all(lam > 0)
    assert np.all(lam <= 0.125)


# ---------------------------------------------------------------------------
# jj_lower_bound
# ---------------------------------------------------------------------------


def test_bound_tight_at_positive_xi():
    assert jj_lower_bound(1.0, 1.0) == pytest.approx(sigmoid(1.0), abs=1e-12)


def test_bound_tight_at_negative_h():
    for xi in (0.5, 1.0, 2.5, 7.0):
        assert jj_lower_bound(-xi, xi) == pytest.approx(sigmoid(-xi), abs=1e-12)


def test_bound_strict_off_tangent():
    val = jj_lower_bound(0.0, 2.0)
    lam = (1.0 / (1.0 + math.exp(-2.0)) - 0.5) / 4.0
    expected = (1.0 / (1.0 + math.exp(-2.0))) * math.exp(-1.0 + lam * 4.0)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val < 0.5


def test_bound_even_in_xi():
    rng = np.random.default_rng(0)
    h = rng.uniform(-5, 5, size=100)
    xi = rng.uniform(0.1, 5, size=100)
    np.testing.assert_allclose(jj_lower_bound(h, xi), jj_lower_bound(h, -xi), rtol=1e-14)


def test_bound_below_sigmoid_everywhere():
    rng = np.random.default_rng(1234)
    h = rng.uniform(-10, 10, size=10_000)
    xi = rng.uniform(1e-12, 10, size=10_000)
    bound = jj_lower_bound(h, xi)
    assert np.all(bound <= sigmoid(h) + 1e-12)
    # equality on the tangent lines
    assert np.max(np.abs(jj_lower_bound(xi, xi) - sigmoid(xi))) < 1e-9
    assert np.max(np.abs(jj_lower_bound(-xi, xi) - sigmoid(-xi))) < 1e-9


# ---------------------------------------------------------------------------
# event_log_likelihood
# ---------------------------------------------------------------------------


def test_event_ll_zero_features():
    e = EventRecord(x=np.zeros(3), brand=0, user=0, y=1)
    assert event_log_likelihood(e, np.ones(3), np.ones(3)) == pytest.approx(math.log(0.5))
    e0 = EventRecord(x=np.zeros(3), brand=0, user=0, y=0)
    assert event_log_likelihood(e0, np.ones(3), np.ones(3)) == pytest.approx(math.log(0.5))


def test_event_ll_direct_value():
    e = EventRecord(x=np.array([1.0, 0.0]), brand=0, user=0, y=1)
    ll = event_log_likelihood(e, np.array([2.0, 0.0]), np.zeros(2))
    assert ll == pytest.approx(math.log(1.0 / (1.0 + math.exp(-2.0))), abs=1e-12)


def test_event_ll_dimension_mismatch():
    e = EventRecord(x=np.zeros(3), brand=0, user=0, y=1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        event_log_likelihood(e, np.zeros(2), np.zeros(3))


def test_event_ll_is_log_probability():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = rng.integers(1, 5)
        e = EventRecord(x=rng.standard_normal(d), brand=0, user=0,
                        y=int(rng.integers(2)))
        ll = event_log_likelihood(e, rng.standard_normal(d), rng.standard_normal(d))
        assert ll < 0
        assert 0 < math.exp(ll) < 1


def test_event_ll_stable_for_extreme_scores():
    e = EventRecord(x=np.array([1.0]), brand=0, user=0, y=1)
    ll = event_log_likelihood(e, np.array([-800.0]), np.array([0.0]))
    assert np.isfinite(ll)
    assert ll == pytest.approx(-800.0, rel=1e-12)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


def test_hyperparams_defaults_and_validation():
    hp = HyperParams(num_styles=4, feature_dim=3)
    np.testing.assert_allclose(hp.gamma0, 0.25)
    with pytest.raises(ValueError):
        HyperParams(num_styles=0, feature_dim=3)
    with pytest.raises(ValueError):
        HyperParams(num_styles=2, feature_dim=0)
    with pytest.raises(ValueError):
        HyperParams(num_styles=2, feature_dim=3, gamma0=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        HyperParams(num_styles=2, feature_dim=3, alpha0=0.0)


def test_event_record_validation():
    with pytest.raises(ValueError):
        EventRecord(x=np.array([np.nan]), brand=0, user=0, y=1)
    with pytest.raises(ValueError):
        EventRecord(x=np.zeros(2), brand=0, user=0, y=2)


def test_dataset_validation():
    e = EventRecord(x=np.zeros(2), brand=1, user=0, y=0)
    with pytest.raises(ValueError):
        Dataset(events=[e], num_users=1, num_brands=1, feature_dim=2)
    with pytest.raises(ValueError):
        Dataset(events=[e], num_users=0, num_brands=2, feature_dim=2)
    with pytest.raises(ValueError):
        Dataset(events=[e], num_users=1, num_brands=2, feature_dim=3)


def _columns(n=6, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, d)), rng.integers(0, 3, n), rng.integers(0, 4, n),
            rng.integers(0, 2, n))


def test_dataset_from_arrays_holds_columns():
    X, users, brands, y = _columns()
    data = Dataset.from_arrays(X, users, brands, y, num_users=3, num_brands=4,
                               user_ids=["a", "b", "c"])
    assert len(data) == 6 and data.feature_dim == 3 and data.user_ids == ["a", "b", "c"]
    assert data.X.dtype == float and data.y.dtype == float
    np.testing.assert_array_equal(data.X, X)
    np.testing.assert_array_equal(data.users, users)
    np.testing.assert_array_equal(data.brands, brands)
    np.testing.assert_array_equal(data.y, y)
    # the record view and the record adapter both agree with the columns
    assert [(e.user, e.brand, e.y) for e in data.events] == list(zip(users, brands, y))
    assert all(e.x.base is data.X for e in data.events)
    again = Dataset(data.events, 3, 4, 3)
    for name in ("X", "users", "brands", "y"):
        np.testing.assert_array_equal(getattr(again, name), getattr(data, name))
    empty = Dataset.from_arrays(np.zeros((0, 2)), [], [], [], num_users=1, num_brands=1)
    assert len(empty) == 0 and empty.feature_dim == 2 and empty.events == []


def test_dataset_sorted_features_follow_the_orders():
    data = Dataset.from_arrays(*_columns(n=40, d=2, seed=3), num_users=3, num_brands=4)
    np.testing.assert_array_equal(data.X_by_user, data.X[data.user_order[0]])
    np.testing.assert_array_equal(data.X_by_brand, data.X[data.brand_order[0]])
    assert data.X_by_user is data.X_by_user  # sorted once


def test_dataset_subset_keeps_order_entities_and_ids():
    X, users, brands, y = _columns(n=8)
    data = Dataset.from_arrays(X, users, brands, y, 3, 4, brand_ids=list("pqrs"))
    idx = np.array([5, 1, 6])
    sub = data.subset(idx)
    np.testing.assert_array_equal(sub.X, X[idx])
    np.testing.assert_array_equal(sub.users, users[idx])
    np.testing.assert_array_equal(sub.y, y[idx])
    assert (sub.num_users, sub.num_brands, sub.brand_ids) == (3, 4, list("pqrs"))
    mask = np.arange(8) % 3 == 0
    np.testing.assert_array_equal(data.subset(mask).brands, brands[mask])


def test_dataset_validation_names_the_first_bad_event():
    X, users, brands, y = _columns(n=6)
    X[4, 1] = np.inf
    brands[2] = 9
    y[3] = 2
    with pytest.raises(ValueError, match=r"^event 2: brand index 9 out of range$"):
        Dataset.from_arrays(X, users, brands, y, num_users=3, num_brands=4)
    brands[2] = 0
    with pytest.raises(ValueError, match=r"^event 3: label must be 0 or 1, got 2$"):
        Dataset.from_arrays(X, users, brands, y, num_users=3, num_brands=4)
    y[3] = 1
    with pytest.raises(ValueError, match=r"^event 4: x must be finite in every coordinate$"):
        Dataset.from_arrays(X, users, brands, y, num_users=3, num_brands=4)
    X[4, 1] = 0.0
    users[5] = -1
    with pytest.raises(ValueError, match=r"^event 5: user index -1 out of range$"):
        Dataset.from_arrays(X, users, brands, y, num_users=3, num_brands=4)
    with pytest.raises(ValueError, match="integer indices"):
        Dataset.from_arrays(X, users + 0.5, brands, y, num_users=3, num_brands=4)
    with pytest.raises(ValueError, match="shape"):
        Dataset.from_arrays(X[0], users, brands, y, num_users=3, num_brands=4)
    with pytest.raises(ValueError, match="shape"):
        Dataset.from_arrays(X, users[:5], brands, y, num_users=3, num_brands=4)
    records = [EventRecord(x=np.zeros(2), brand=0, user=0, y=0),
               EventRecord(x=np.zeros(3), brand=0, user=0, y=0)]
    with pytest.raises(ValueError, match=r"^event 1: feature length 3 != 2$"):
        Dataset(records, num_users=1, num_brands=1, feature_dim=2)


def _valid_state():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 3, 3)
    state.validate()
    return state


def test_gaussian_posterior_validation():
    bad_covs = [np.array([[1.0, 0.5], [0.0, 1.0]]),  # asymmetric
                -np.eye(2)]  # indefinite
    for family in ("user_cov", "brand_cov"):
        for cov in bad_covs:
            state = _valid_state()
            getattr(state, family)[1] = cov  # one bad slice in a stack of three
            with pytest.raises(ValueError):
                state.validate()
    for var in (0.0, -0.5):
        state = _valid_state()
        state.style_var[1] = var
        with pytest.raises(ValueError):
            state.validate()
        state = _valid_state()
        state.w_var = var
        with pytest.raises(ValueError):
            state.validate()


def test_gamma_posterior_moments():
    g = GammaPosterior(3.0, 2.0)
    g.validate()
    assert g.mean == 1.5
    assert g.mean_log == pytest.approx(float(digamma(3.0)) - math.log(2.0))
    with pytest.raises(ValueError):
        GammaPosterior(0.0, 1.0).validate()


def test_responsibilities_validation():
    state = _valid_state()
    state.resp[0] = [0.5, 0.5]
    state.validate()
    for row in ([0.6, 0.6], [1.2, -0.2]):  # sums above 1; entries outside [0, 1]
        state = _valid_state()
        state.resp[0] = row
        with pytest.raises(ValueError):
            state.validate()


# ---------------------------------------------------------------------------
# ELBO
# ---------------------------------------------------------------------------


def _tiny_instance():
    hp = HyperParams(num_styles=2, feature_dim=2, alpha0=2.0, beta0=3.0)
    data, _ = sample_dataset(hp, num_users=2, num_brands=3, num_events=6, seed=7)
    state = initial_state(data, hp, seed=1)
    for _ in range(3):
        state = cavi_sweep(state, data, hp)
    return hp, data, state


def test_elbo_cross_terms_match_monte_carlo():
    hp, data, state = _tiny_instance()
    closed = elbo_terms(state, data, hp)
    est, se = mc_elbo_cross_terms(state, data, hp, n=100_000, seed=123)
    for key, mc_val in est.items():
        tol = 3.0 * se[key] + 1e-9
        assert abs(closed[key] - mc_val) < tol, (
            f"{key}: closed {closed[key]:.6f} vs MC {mc_val:.6f} +- {se[key]:.6f}"
        )


def test_elbo_entropies_match_scipy():
    hp, data, state = _tiny_instance()
    closed = elbo_terms(state, data, hp)
    eye = np.eye(state.dim)
    assert closed["entropy_users"] == pytest.approx(
        sum(stats.multivariate_normal(m, c).entropy()
            for m, c in zip(state.user_mean, state.user_cov)), rel=1e-10)
    assert closed["entropy_brands"] == pytest.approx(
        sum(stats.multivariate_normal(m, c).entropy()
            for m, c in zip(state.brand_mean, state.brand_cov)), rel=1e-10)
    assert closed["entropy_styles"] == pytest.approx(
        sum(stats.multivariate_normal(m, v * eye).entropy()
            for m, v in zip(state.style_mean, state.style_var)), rel=1e-10)
    assert closed["entropy_w"] == pytest.approx(
        stats.multivariate_normal(state.w_mean, state.w_var * eye).entropy(), rel=1e-10)
    assert closed["entropy_theta"] == pytest.approx(
        stats.dirichlet(state.theta_gamma).entropy(), rel=1e-10)
    assert closed["entropy_assignments"] == pytest.approx(
        sum(stats.entropy(row) for row in state.resp), rel=1e-10)
    assert closed["entropy_precisions"] == pytest.approx(
        sum(stats.gamma.entropy(p.shape, scale=1.0 / p.rate)
            for p in (state.prec_u, state.prec_b, state.prec_s, state.prec_w)),
        rel=1e-10)


def test_elbo_at_prior_state_equals_independent_closed_form():
    # With no events and every factor at its prior, the ELBO reduces to the
    # coupling gaps of the factorized family: each Gaussian edge contributes
    # (d/2)(psi(a0) - log a0), each child of a random parent an extra -d/2,
    # and each brand assignment the Dirichlet-vs-point-mass gap.  The value
    # is strictly negative, not zero: the factorized family cannot represent
    # the correlated prior.
    U, B = 2, 2
    hp = HyperParams(num_styles=2, feature_dim=2, alpha0=2.0, beta0=2.0)
    data = Dataset(events=[], num_users=U, num_brands=B, feature_dim=2)
    state = prior_matched_state(hp, U, B)

    d, S = hp.feature_dim, hp.num_styles
    a0 = hp.alpha0
    gaussian_gap = 0.5 * d * (float(digamma(a0)) - math.log(a0))
    mean_props = hp.gamma0 / hp.gamma0.sum()
    z_gap = float(np.sum(mean_props * (digamma(hp.gamma0) - digamma(hp.gamma0.sum())
                                       - np.log(mean_props))))
    expected = ((U + 1 + S + B) * gaussian_gap - (S + B) * 0.5 * d + B * z_gap)

    assert elbo(state, data, hp) == pytest.approx(expected, rel=1e-10)
    assert elbo(state, data, hp) < 0


def test_elbo_invariant_under_event_reordering():
    hp, data, state = _tiny_instance()
    rng = np.random.default_rng(5)
    perm = rng.permutation(len(data))
    shuffled = Dataset(events=[data.events[i] for i in perm],
                       num_users=data.num_users, num_brands=data.num_brands,
                       feature_dim=data.feature_dim)
    shuffled_state = state.copy()
    shuffled_state.xi = state.xi[perm]
    assert elbo(shuffled_state, shuffled, hp) == pytest.approx(
        elbo(state, data, hp), rel=1e-10)


def test_elbo_non_decreasing_over_one_sweep():
    hp = HyperParams(num_styles=3, feature_dim=4)
    data, _ = sample_dataset(hp, num_users=4, num_brands=5, num_events=100, seed=11)
    starts = [initial_state(data, hp, seed=2)]
    starts += [random_state(hp, num_users=4, num_brands=5, num_events=100, seed=s)
               for s in range(3)]
    for state in starts:
        before = elbo(state, data, hp)
        after = elbo(cavi_sweep(state, data, hp), data, hp)
        assert after >= before - 1e-6 * abs(before)


def test_elbo_likelihood_tight_for_deterministic_posteriors():
    # With near-point-mass posteriors and xi = |h|, the bounded likelihood
    # term equals the exact Bernoulli log-likelihood; isolate it as the
    # difference between the ELBO with and without the event.
    hp = HyperParams(num_styles=1, feature_dim=2, alpha0=2.0, beta0=2.0)
    x = np.array([1.5, -0.5])
    brand_mean = np.array([0.8, 0.3])
    user_mean = np.array([-0.2, 1.1])
    h = float(x @ (brand_mean + user_mean))
    for y in (0, 1):
        data1 = make_dataset([(x, 0, 0, y)], num_users=1, num_brands=1, feature_dim=2)
        data0 = Dataset(events=[], num_users=1, num_brands=1, feature_dim=2)
        state = prior_matched_state(hp, 1, 1)
        state.user_mean[0], state.user_cov[0] = user_mean, 1e-12 * np.eye(2)
        state.brand_mean[0], state.brand_cov[0] = brand_mean, 1e-12 * np.eye(2)
        state1 = state.copy()
        state1.xi = np.array([abs(h)])
        state0 = state.copy()
        state0.xi = np.zeros(0)
        diff = elbo(state1, data1, hp) - elbo(state0, data0, hp)
        e = EventRecord(x=x, brand=0, user=0, y=y)
        assert diff == pytest.approx(event_log_likelihood(e, brand_mean, user_mean),
                                     abs=1e-8)


def test_elbo_rejects_non_positive_definite_covariance():
    hp = HyperParams(num_styles=2, feature_dim=2)
    data = Dataset(events=[], num_users=1, num_brands=1, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.user_cov[0] = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NumericalError):
        elbo(state, data, hp)


def test_elbo_matches_monte_carlo_on_random_state():
    hp = HyperParams(num_styles=3, feature_dim=2, alpha0=1.5, beta0=2.5)
    data, _ = sample_dataset(hp, num_users=2, num_brands=2, num_events=5, seed=3)
    state = random_state(hp, num_users=2, num_brands=2, num_events=5, seed=21)
    closed = elbo_terms(state, data, hp)
    est, se = mc_elbo_cross_terms(state, data, hp, n=100_000, seed=77)
    for key, mc_val in est.items():
        assert abs(closed[key] - mc_val) < 3.0 * se[key] + 1e-9, key
