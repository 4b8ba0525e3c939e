"""Tests for the coordinate-ascent updates and the fitting loop."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbayes import (
    Checkpoint,
    Dataset,
    GammaPosterior,
    HyperParams,
    NumericalError,
    elbo,
    elbo_terms,
    lambda_of_xi,
    load_checkpoint,
    sample_dataset,
    save_checkpoint,
)
from hbayes import inference
from hbayes.inference import (
    cavi_sweep,
    fit,
    initial_state,
    update_brands,
    update_precisions,
    update_responsibilities,
    update_styles,
    update_theta,
    update_users,
    update_w,
    update_xi,
)
from hbayes.linalg import spd_inverse, spd_logdet

from helpers import (
    make_dataset,
    prior_matched_state,
    random_state,
    reference_event_moments,
    reference_update_brand,
    reference_update_user,
)


def _single_event_instance():
    """d=1, one event (x=1, y=1), xi=1, unit precisions, zero means."""
    hp = HyperParams(num_styles=1, feature_dim=1, alpha0=1.0, beta0=1.0)
    data = make_dataset([([1.0], 0, 0, 1)], num_users=1, num_brands=1, feature_dim=1)
    state = prior_matched_state(hp, 1, 1, num_events=1)
    state.prec_u = GammaPosterior(1.0, 1.0)
    state.prec_b = GammaPosterior(1.0, 1.0)
    state.xi = np.array([1.0])
    return hp, data, state


# ---------------------------------------------------------------------------
# responsibilities and theta
# ---------------------------------------------------------------------------


def test_responsibilities_single_style():
    hp = HyperParams(num_styles=1, feature_dim=2)
    state = prior_matched_state(hp, 1, 3)
    resp = update_responsibilities(state)
    np.testing.assert_array_equal(resp, np.ones((3, 1)))


def test_responsibilities_uniform_for_identical_styles():
    hp = HyperParams(num_styles=3, feature_dim=2)
    state = prior_matched_state(hp, 1, 4)
    state.theta_gamma = np.full(3, 2.0)
    state.style_mean[:] = [0.7, -0.2]
    state.style_var[:] = 0.5
    state.brand_mean = np.stack([np.random.default_rng(i).standard_normal(2)
                                 for i in range(4)])
    state.brand_cov[:] = np.eye(2)
    resp = update_responsibilities(state)
    np.testing.assert_allclose(resp, 1.0 / 3.0, atol=1e-12)


def test_responsibilities_two_style_softmax():
    # point-mass posteriors B=0, styles at 0 and 2, unit brand precision,
    # symmetric theta: membership odds are softmax(0, -2)
    hp = HyperParams(num_styles=2, feature_dim=1)
    state = prior_matched_state(hp, 1, 1)
    state.theta_gamma = np.array([3.0, 3.0])
    state.prec_b = GammaPosterior(4.0, 4.0)  # mean 1
    state.brand_mean[0], state.brand_cov[0] = [0.0], np.zeros((1, 1))
    state.style_mean[:], state.style_var[:] = [[0.0], [2.0]], 1e-300
    resp = update_responsibilities(state)
    expected = np.array([1.0, math.exp(-2.0)])
    expected /= expected.sum()
    np.testing.assert_allclose(resp[0], expected, atol=1e-9)


def test_responsibilities_rows_normalized_on_random_states():
    hp = HyperParams(num_styles=4, feature_dim=3)
    for seed in range(5):
        state = random_state(hp, num_users=2, num_brands=6, num_events=0, seed=seed)
        resp = update_responsibilities(state)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(resp >= 0) and np.all(resp <= 1)


def test_responsibilities_non_finite_raises():
    hp = HyperParams(num_styles=2, feature_dim=1)
    state = prior_matched_state(hp, 1, 1)
    state.brand_mean[0] = [np.inf]
    with pytest.raises(NumericalError):
        update_responsibilities(state)


def test_update_theta_no_brands():
    hp = HyperParams(num_styles=3, feature_dim=2)
    out = update_theta(np.zeros((0, 3)), hp)
    np.testing.assert_array_equal(out, hp.gamma0)


def test_update_theta_column_sums():
    hp = HyperParams(num_styles=3, feature_dim=2, gamma0=np.full(3, 1.0 / 3.0))
    resp = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    out = update_theta(resp, hp)
    np.testing.assert_allclose(out, [1.0 / 3.0 + 1.5, 1.0 / 3.0 + 0.5, 1.0 / 3.0],
                               atol=1e-12)


def test_update_theta_total_mass():
    hp = HyperParams(num_styles=4, feature_dim=2)
    rng = np.random.default_rng(3)
    resp = rng.dirichlet(np.ones(4), size=9)
    out = update_theta(resp, hp)
    assert out.sum() == pytest.approx(hp.gamma0.sum() + 9, abs=1e-9)


# ---------------------------------------------------------------------------
# Gaussian factor updates
# ---------------------------------------------------------------------------


def test_update_user_without_events_reverts_to_prior():
    hp = HyperParams(num_styles=1, feature_dim=2)
    data = make_dataset([([1.0, 0.0], 0, 1, 1)], num_users=2, num_brands=1,
                        feature_dim=2)
    state = prior_matched_state(hp, 2, 1, num_events=1)
    state.prec_u = GammaPosterior(6.0, 3.0)  # mean 2
    mean, cov = update_users(state, data)
    np.testing.assert_array_equal(mean[0], np.zeros(2))
    np.testing.assert_allclose(cov[0], np.eye(2) / 2.0, atol=1e-12)


def test_update_user_single_event_scalar_arithmetic():
    _, data, state = _single_event_instance()
    lam = (1.0 / (1.0 + math.exp(-1.0)) - 0.5) / 2.0
    expected_cov = 1.0 / (1.0 + 2.0 * lam)
    mean, cov = update_users(state, data)
    assert cov[0, 0, 0] == pytest.approx(expected_cov, rel=1e-12)
    assert mean[0, 0] == pytest.approx(expected_cov * 0.5, rel=1e-12)


def test_update_user_stronger_prior_shrinks_mean():
    hp = HyperParams(num_styles=1, feature_dim=3)
    rng = np.random.default_rng(4)
    rows = [(rng.standard_normal(3), 0, 0, int(rng.integers(2))) for _ in range(20)]
    data = make_dataset(rows, num_users=1, num_brands=1, feature_dim=3)
    state = prior_matched_state(hp, 1, 1, num_events=20)
    state.brand_mean[0], state.brand_cov[0] = rng.standard_normal(3), np.eye(3)
    state.prec_u = GammaPosterior(2.0, 2.0)  # mean 1
    loose = update_users(state, data)[0][0]
    state.prec_u = GammaPosterior(4.0, 2.0)  # mean 2
    tight = update_users(state, data)[0][0]
    assert np.linalg.norm(tight) < np.linalg.norm(loose)


def test_update_brand_without_events_uses_style_mixture():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.prec_b = GammaPosterior(4.0, 2.0)  # mean 2
    state.style_mean[:], state.style_var[:] = [[1.0, 0.0], [0.0, 2.0]], 0.3
    state.resp = np.array([[0.25, 0.75]])
    data = Dataset([], 1, 1, 2)
    mean, cov = update_brands(state, data)
    np.testing.assert_allclose(cov[0], np.eye(2) / 2.0, atol=1e-12)
    np.testing.assert_allclose(mean[0], 0.25 * np.array([1.0, 0.0])
                               + 0.75 * np.array([0.0, 2.0]), atol=1e-12)


def test_update_brand_one_hot_returns_style_mean():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.style_mean[:], state.style_var[:] = [[3.0, -1.0], [0.0, 2.0]], 0.3
    state.resp = np.array([[1.0, 0.0]])
    mean, _ = update_brands(state, Dataset([], 1, 1, 2))
    np.testing.assert_allclose(mean[0], [3.0, -1.0], atol=1e-12)


def test_update_brand_mirrors_update_user():
    _, data, state = _single_event_instance()
    user_mean, user_cov = update_users(state, data)
    brand_mean, brand_cov = update_brands(state, data)
    assert brand_cov[0, 0, 0] == pytest.approx(user_cov[0, 0, 0], rel=1e-12)
    assert brand_mean[0, 0] == pytest.approx(user_mean[0, 0], rel=1e-12)


# Family updates and the grouped event moments sum in another order than
# their references (the per-entity loop, the (N, d, d) formula), so they may
# differ from them in the last bits: max |got - want| <= 1e-12 * max |want|.
_FAMILY_RTOL = 1e-12


def _assert_factors_close(got, want):
    """got: (means, covs) of a family; want: one (mean, cov) per entity."""
    assert len(got[0]) == len(got[1]) == len(want)
    for g_mean, g_cov, (w_mean, w_cov) in zip(*got, want):
        for a, b in ((g_mean, w_mean), (g_cov, w_cov)):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= _FAMILY_RTOL * np.max(np.abs(b))


def _family_instance(d, seed):
    """Events in interleaved entity order; user 0 and brand 0 have no events,
    user 1 and brand 1 exactly one; responsibilities are random rows."""
    hp = HyperParams(num_styles=3, feature_dim=d)
    rng = np.random.default_rng(seed)
    rows = [(rng.standard_normal(d), int(rng.integers(2, 5)), int(rng.integers(2, 6)),
             int(rng.integers(2))) for _ in range(60)]
    rows.insert(17, (rng.standard_normal(d), 2, 1, 1))
    rows.insert(31, (rng.standard_normal(d), 1, 3, 0))
    data = make_dataset(rows, num_users=6, num_brands=5, feature_dim=d)
    state = random_state(hp, num_users=6, num_brands=5, num_events=len(rows), seed=seed)
    return data, state


@pytest.mark.parametrize("d, seed", [(1, 0), (3, 1), (10, 2)])
def test_family_updates_match_per_entity_loop(d, seed):
    data, state = _family_instance(d, seed)
    assert np.any(np.diff(data.users) < 0) and np.any(np.diff(data.brands) < 0)
    assert [np.sum(data.users == k) for k in (0, 1)] == [0, 1]
    assert [np.sum(data.brands == i) for i in (0, 1)] == [0, 1]
    assert np.ptp(state.resp) > 0.1
    _assert_factors_close(update_users(state, data),
                          [reference_update_user(k, state, data) for k in range(6)])
    _assert_factors_close(update_brands(state, data),
                          [reference_update_brand(i, state, data) for i in range(5)])


def test_stacked_spd_jitters_only_the_failing_slice():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 3, 3))
    singular = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular)
    stack = np.stack([a @ a.T + np.eye(3), singular, b @ b.T + np.eye(3)])
    inv, logdet = spd_inverse(stack), spd_logdet(stack)
    assert inv.shape == (3, 3, 3) and logdet.shape == (3,)
    for k in range(3):
        np.testing.assert_array_equal(inv[k], spd_inverse(stack[k]))
        assert logdet[k] == spd_logdet(stack[k])
    assert np.all(np.isfinite(inv[1])) and np.isfinite(logdet[1])


def test_stacked_spd_indefinite_slice_raises():
    stack = np.stack([np.eye(2), np.diag([1.0, -1.0]), 2.0 * np.eye(2)])
    with pytest.raises(NumericalError):
        spd_inverse(stack)
    with pytest.raises(NumericalError):
        spd_logdet(stack)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_stacked_spd_non_finite_entry_raises(bad):
    stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
    stack[1, 0, 0] = bad
    for op in (spd_inverse, spd_logdet):
        with pytest.raises(NumericalError, match="matrix has non-finite entries"):
            op(stack)


def test_update_style_direct_arithmetic():
    hp = HyperParams(num_styles=1, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.prec_s = GammaPosterior(2.0, 1.0)  # mean 2
    state.prec_b = GammaPosterior(1.0, 1.0)  # mean 1
    state.w_mean, state.w_var = np.array([1.0, 1.0]), 0.1
    state.brand_mean[0], state.brand_cov[0] = [4.0, 0.0], np.eye(2)
    state.resp = np.array([[1.0]])
    mean, var = update_styles(state)
    assert var.shape == (1,)
    assert var[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    np.testing.assert_allclose(mean[0], [2.0, 2.0 / 3.0], atol=1e-12)


def test_update_style_without_members_reverts_to_w():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 1, 3)
    state.prec_s = GammaPosterior(4.0, 2.0)  # mean 2
    state.w_mean, state.w_var = np.array([0.5, -0.5]), 0.2
    state.resp = np.tile([1.0, 0.0], (3, 1))
    mean, var = update_styles(state)
    assert var[1] == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(mean[1], [0.5, -0.5], atol=1e-12)


def test_update_w_direct_arithmetic():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.prec_w = GammaPosterior(1.0, 1.0)  # mean 1
    state.prec_s = GammaPosterior(2.0, 1.0)  # mean 2
    state.style_mean[:], state.style_var[:] = [[1.0, 0.0], [0.0, 1.0]], 0.3
    mean, var = update_w(state)
    assert var == pytest.approx(0.2, rel=1e-12)
    np.testing.assert_allclose(mean, [0.4, 0.4], atol=1e-12)


def test_update_w_is_shrunk_style_average():
    hp = HyperParams(num_styles=3, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.prec_w = GammaPosterior(3.0, 1.0)
    state.prec_s = GammaPosterior(5.0, 1.0)
    rng = np.random.default_rng(0)
    state.style_mean = np.stack([rng.standard_normal(2) for _ in range(3)])
    state.style_var[:] = 0.4
    mean, _ = update_w(state)
    e_dw, e_ds, s = 3.0, 5.0, 3
    factor = e_ds * s / (e_dw + e_ds * s)
    avg = np.mean(state.style_mean, axis=0)
    np.testing.assert_allclose(mean, factor * avg, atol=1e-12)


def test_update_w_vanishing_style_precision():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.prec_w = GammaPosterior(2.0, 1.0)  # mean 2
    state.prec_s = GammaPosterior(1e-12, 1.0)
    state.style_mean[:], state.style_var[:] = [5.0, 5.0], 0.3
    mean, var = update_w(state)
    np.testing.assert_allclose(mean, 0.0, atol=1e-10)
    assert var == pytest.approx(0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# precisions and xi
# ---------------------------------------------------------------------------


def test_update_precisions_point_masses_at_zero():
    hp = HyperParams(num_styles=2, feature_dim=3, alpha0=0.5, beta0=0.7)
    state = prior_matched_state(hp, 4, 5)
    for family in ("user_mean", "user_cov", "brand_mean", "brand_cov", "style_mean",
                   "style_var", "w_mean"):
        getattr(state, family)[:] = 0.0
    state.w_var = 0.0
    pu, pb, ps, pw = update_precisions(state, hp)
    d, U, B, S = 3, 4, 5, 2
    assert (pu.shape, pb.shape, ps.shape, pw.shape) == (
        0.5 + d * U / 2, 0.5 + d * B / 2, 0.5 + d * S / 2, 0.5 + d / 2)
    for p in (pu, pb, ps, pw):
        assert p.rate == pytest.approx(0.7, abs=1e-12)


def test_update_precisions_user_moment_expansion():
    hp = HyperParams(num_styles=1, feature_dim=2, alpha0=1.0, beta0=1.0)
    state = prior_matched_state(hp, 1, 1)
    state.user_mean[0], state.user_cov[0] = [1.0, 1.0], 0.25 * np.eye(2)
    pu, _, _, _ = update_precisions(state, hp)
    assert pu.rate == pytest.approx(1.0 + 0.5 * (2.0 + 0.5), abs=1e-12)
    assert pu.shape == pytest.approx(1.0 + 1.0, abs=1e-12)


def test_update_precisions_mean_decreases_with_spread():
    hp = HyperParams(num_styles=1, feature_dim=2, alpha0=1.0, beta0=1.0)
    state = prior_matched_state(hp, 1, 1)
    state.user_mean[0], state.user_cov[0] = [1.0, 1.0], 0.25 * np.eye(2)
    small, _, _, _ = update_precisions(state, hp)
    state.user_mean[0] = [3.0, 3.0]
    large, _, _, _ = update_precisions(state, hp)
    assert large.mean < small.mean


def test_update_xi_point_mass_posteriors():
    hp = HyperParams(num_styles=1, feature_dim=2)
    data = make_dataset([([1.0, -2.0], 0, 0, 1)], num_users=1, num_brands=1,
                        feature_dim=2)
    state = prior_matched_state(hp, 1, 1, num_events=1)
    state.user_mean[0], state.user_cov[0] = [0.5, 0.5], np.zeros((2, 2))
    state.brand_mean[0], state.brand_cov[0] = [0.5, 0.0], np.zeros((2, 2))
    out = update_xi(state, data)
    assert out[0] == pytest.approx(abs(1.0 * 1.0 + (-2.0) * 0.5), rel=1e-12)


def test_update_xi_zero_features():
    hp = HyperParams(num_styles=1, feature_dim=2)
    data = make_dataset([([0.0, 0.0], 0, 0, 0)], num_users=1, num_brands=1,
                        feature_dim=2)
    state = prior_matched_state(hp, 1, 1, num_events=1)
    assert update_xi(state, data)[0] == 0.0


def test_update_xi_direct_arithmetic():
    hp = HyperParams(num_styles=1, feature_dim=1)
    data = make_dataset([([2.0], 0, 0, 1)], num_users=1, num_brands=1, feature_dim=1)
    state = prior_matched_state(hp, 1, 1, num_events=1)
    state.user_mean[0], state.user_cov[0] = [0.4], 0.25 * np.eye(1)
    state.brand_mean[0], state.brand_cov[0] = [0.6], 0.25 * np.eye(1)
    assert update_xi(state, data)[0] == pytest.approx(math.sqrt(6.0), rel=1e-12)


def _assert_close(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= _FAMILY_RTOL * np.max(np.abs(want)))


@pytest.mark.parametrize("d, seed", [(1, 0), (10, 2)])
def test_grouped_moments_match_gathered_covariances(d, seed):
    """update_xi and the likelihood bound against the (N, d, d) formula, on
    interleaved events with an empty and a single-event user and brand."""
    data, state = _family_instance(d, seed)
    m, s2 = reference_event_moments(state, data)
    _assert_close(update_xi(state, data), np.sqrt(m * m + s2))
    xi, lam = state.xi, lambda_of_xi(state.xi)
    bound = np.sum(data.y * m - np.logaddexp(0.0, -xi) - 0.5 * (m + xi)
                   - lam * (m * m + s2 - xi * xi))
    hp = HyperParams(num_styles=3, feature_dim=d)
    _assert_close(elbo_terms(state, data, hp)["likelihood_bound"], bound)


def test_grouped_moments_without_events():
    hp = HyperParams(num_styles=2, feature_dim=3)
    data = Dataset(events=[], num_users=2, num_brands=3, feature_dim=3)
    state = random_state(hp, num_users=2, num_brands=3, num_events=0, seed=0)
    assert update_xi(state, data).shape == (0,)
    assert elbo_terms(state, data, hp)["likelihood_bound"] == 0.0


def test_update_xi_memory_is_linear_in_events():
    """Peak allocation at N = 20k, d = 20 stays below 4 N d doubles; one
    (N, d, d) covariance stack alone is d / 4 = 5 times that."""
    n, d = 20_000, 20
    hp = HyperParams(num_styles=2, feature_dim=d)
    rng = np.random.default_rng(0)
    rows = zip(rng.standard_normal((n, d)), rng.integers(100, size=n).tolist(),
               rng.integers(200, size=n).tolist(), rng.integers(2, size=n).tolist())
    data = make_dataset(rows, num_users=200, num_brands=100, feature_dim=d)
    state = random_state(hp, num_users=200, num_brands=100, num_events=n, seed=1)
    # Build the cached event arrays first, so that only update_xi is traced.
    _ = data.X, data.users, data.brands, data.user_order, data.brand_order
    tracemalloc.start()
    try:
        update_xi(state, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * d * 8


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _synthetic(num_users=6, num_brands=8, num_events=400, seed=5, **hp_kwargs):
    hp = HyperParams(num_styles=3, feature_dim=4, **hp_kwargs)
    data, _ = sample_dataset(hp, num_users=num_users, num_brands=num_brands,
                             num_events=num_events, seed=seed)
    return hp, data


def test_fit_zero_iterations_returns_initial_state():
    hp, data = _synthetic(max_iters=0)
    state, report = fit(data, hp, seed=9)
    init = initial_state(data, hp, seed=9)
    np.testing.assert_array_equal(state.user_mean, init.user_mean)
    np.testing.assert_array_equal(state.resp, init.resp)
    assert report.elbo_trace == []
    assert report.iterations_run == 0
    assert not report.converged


def test_fit_rejects_empty_dataset():
    hp = HyperParams(num_styles=2, feature_dim=2)
    with pytest.raises(ValueError):
        fit(Dataset([], 1, 1, 2), hp)


def test_fit_deterministic_traces():
    hp, data = _synthetic(max_iters=20)
    _, r1 = fit(data, hp, seed=3)
    _, r2 = fit(data, hp, seed=3)
    assert r1.elbo_trace == r2.elbo_trace


def test_fit_trace_non_decreasing_and_report_consistent():
    hp, data = _synthetic(max_iters=60, rel_tol=1e-6)
    state, report = fit(data, hp, seed=1)
    trace = np.array(report.elbo_trace)
    assert report.iterations_run == len(trace)
    drops = np.diff(trace) + 1e-6 * np.abs(trace[:-1])
    assert np.all(drops >= 0)
    state.validate()


def test_fit_initial_state_deterministic():
    hp, data = _synthetic()
    a = initial_state(data, hp, seed=17)
    b = initial_state(data, hp, seed=17)
    np.testing.assert_array_equal(a.user_mean, b.user_mean)
    np.testing.assert_array_equal(a.style_mean, b.style_mean)
    np.testing.assert_array_equal(a.resp, b.resp)


def test_fit_state_valid_after_each_sweep():
    hp, data = _synthetic()
    state = initial_state(data, hp, seed=0)
    for _ in range(5):
        state = cavi_sweep(state, data, hp)
        state.validate()
        np.testing.assert_allclose(state.resp.sum(axis=1), 1.0, atol=1e-9)


def test_fit_label_switching_symmetry():
    hp, data = _synthetic(max_iters=25)
    init = initial_state(data, hp, seed=8)
    perm = [2, 0, 1]
    permuted = init.copy()
    permuted.style_mean = init.style_mean[perm]
    permuted.style_var = init.style_var[perm]
    permuted.resp = init.resp[:, perm]
    permuted.theta_gamma = init.theta_gamma[perm]
    _, r1 = fit(data, hp, init=init)
    _, r2 = fit(data, hp, init=permuted)
    np.testing.assert_allclose(r1.elbo_trace, r2.elbo_trace, rtol=1e-6)


def test_fit_coordinate_updates_locally_optimal():
    hp, data = _synthetic(num_events=250)
    state = initial_state(data, hp, seed=0)
    for _ in range(4):
        state = cavi_sweep(state, data, hp)
    rng = np.random.default_rng(12)

    def perturbation():
        v = rng.standard_normal(hp.feature_dim)
        return 0.1 * v / np.linalg.norm(v)

    st = state.copy()
    st.user_mean, st.user_cov = update_users(st, data)
    base = elbo(st, data, hp)
    for _ in range(10):
        pert = st.copy()
        k = int(rng.integers(st.num_users))
        pert.user_mean[k] = pert.user_mean[k] + perturbation()
        assert elbo(pert, data, hp) <= base + 1e-9 * abs(base)

    st = state.copy()
    st.style_mean, st.style_var = update_styles(st)
    base = elbo(st, data, hp)
    for _ in range(10):
        pert = st.copy()
        j = int(rng.integers(st.num_styles))
        pert.style_mean[j] = pert.style_mean[j] + perturbation()
        assert elbo(pert, data, hp) <= base + 1e-9 * abs(base)


def _nudges(state, factor):
    """Copies of ``state`` with one non-Gaussian factor moved by 1%."""
    out = []
    if factor == "resp":
        for i, j in product(range(state.num_brands), range(state.num_styles)):
            pert = state.copy()  # brand i's row mixed 1% toward style j
            pert.resp[i] = 0.99 * pert.resp[i] + 0.01 * np.eye(state.num_styles)[j]
            out.append(pert)
    elif factor == "theta":
        for j, scale in product(range(state.num_styles), (0.99, 1.01)):
            pert = state.copy()
            pert.theta_gamma[j] *= scale
            out.append(pert)
    else:
        for r, field, scale in product(range(4), ("shape", "rate"), (0.99, 1.01)):
            pert = state.copy()
            gamma = pert.precisions[r]
            setattr(gamma, field, getattr(gamma, field) * scale)
            out.append(pert)
    return out


@pytest.mark.parametrize("factor", ["resp", "theta", "precisions"])
def test_fit_non_gaussian_updates_locally_optimal(factor):
    """Right after its update, nudging a resp row, theta_gamma or a Gamma
    shape or rate by 1% cannot raise the ELBO by more than 1e-9 relative."""
    hp, data = _synthetic(num_events=250)
    state = initial_state(data, hp, seed=0)
    for _ in range(4):
        state = cavi_sweep(state, data, hp)
    if factor == "resp":
        state.resp = update_responsibilities(state)
    elif factor == "theta":
        state.theta_gamma = update_theta(state.resp, hp)
    else:
        state.prec_u, state.prec_b, state.prec_s, state.prec_w = update_precisions(state, hp)
    base = elbo(state, data, hp)
    changes = [(elbo(pert, data, hp) - base) / abs(base) for pert in _nudges(state, factor)]
    assert len(changes) == {"resp": 8 * 3, "theta": 3 * 2, "precisions": 4 * 2 * 2}[factor]
    assert max(changes) <= 1e-9


def test_fit_error_carries_sweep_index(monkeypatch):
    hp, data = _synthetic(max_iters=5)

    def boom(state):
        raise NumericalError("boom")

    monkeypatch.setattr(inference, "update_responsibilities", boom)
    with pytest.raises(NumericalError, match=r"sweep 0: boom"):
        fit(data, hp, seed=0)


def _fake_elbo(monkeypatch, values):
    """Make ``fit`` see ``values`` as its ELBO trace, one per sweep."""
    values = iter(values)
    monkeypatch.setattr(inference, "elbo", lambda state, data, hp: next(values))


def test_fit_raises_when_the_elbo_falls(monkeypatch):
    hp, data = _synthetic(max_iters=5)
    _fake_elbo(monkeypatch, [-100.0, -50.0, -60.0, -40.0, -30.0])
    with pytest.raises(NumericalError, match=r"^sweep 2: ELBO fell from -50.0 to -60.0$"):
        fit(data, hp, seed=0)


def test_fit_tolerates_an_elbo_drop_below_1e_9_relative(monkeypatch):
    hp, data = _synthetic(max_iters=4, rel_tol=1e-12)
    trace = [-100.0, -50.0, -50.0 * (1 + 1e-10), -40.0]
    _fake_elbo(monkeypatch, trace)
    _, report = fit(data, hp, seed=0)
    assert report.elbo_trace == trace and not report.converged


def test_fit_restarts_pick_best_elbo():
    hp, data = _synthetic(max_iters=15)
    finals = []
    for r in range(3):
        _, rep = fit(data, hp, seed=5 + 100 * r)
        finals.append(rep.elbo_trace[-1])
    _, best = fit(data, hp, seed=5, restarts=3)
    assert best.elbo_trace[-1] == max(finals)


def test_fit_warm_start_on_other_events_rebuilds_xi():
    """A state fitted on 400 events warm-starts a fit on 300 of them: its xi
    has the wrong length, so the fit starts from update_xi(init, subset)."""
    hp, data = _synthetic(max_iters=10)
    state, _ = fit(data, hp, seed=2)
    subset = data.subset(np.flatnonzero(np.arange(len(data)) % 4 != 0))
    warm, report = fit(subset, hp, init=state)
    start = replace(state, xi=update_xi(state, subset))
    trace = np.array([elbo(start, subset, hp), *report.elbo_trace])
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
    assert warm.xi.shape == (len(subset),)
    assert state.xi.shape == (len(data),)  # init is not modified
    _, explicit = fit(subset, hp, init=start)
    assert report.elbo_trace == explicit.elbo_trace  # bit-identical


def test_fit_warm_start_from_checkpoint_without_xi(tmp_path):
    """A loaded checkpoint has no xi; warm-starting it on its training events
    rebuilds exactly the xi the fit ended with (the last update of a sweep),
    so the trace matches a warm start from the in-memory state."""
    hp, data = _synthetic(max_iters=10)
    state, report = fit(data, hp, seed=2)
    path = tmp_path / "model.json"
    save_checkpoint(Checkpoint(hp, state, report), path)
    loaded = load_checkpoint(path).state
    assert loaded.xi.shape == (0,)
    with pytest.raises(ValueError, match="xi entries"):
        elbo(loaded, data, hp)
    _, from_file = fit(data, hp, init=loaded)
    _, from_memory = fit(data, hp, init=state)
    assert from_file.elbo_trace == from_memory.elbo_trace


def test_fit_warm_start_on_as_many_other_events_rebuilds_xi():
    """An init fitted on 400 events, warm-started on 400 other events: its xi
    has the right length but belongs to the old events, so the fit starts
    from update_xi(init, other) all the same."""
    hp, data = _synthetic(max_iters=10)
    state, _ = fit(data, hp, seed=2)
    _, other = _synthetic(max_iters=10, seed=6)
    assert len(other) == len(data)
    _, warm = fit(other, hp, init=state)
    _, explicit = fit(other, hp, init=replace(state, xi=update_xi(state, other)))
    assert warm.elbo_trace == explicit.elbo_trace  # bit-identical


def _scaled(scale):
    """N=400, d=3 events with every feature multiplied by ``scale``."""
    hp = HyperParams(num_styles=2, feature_dim=3, max_iters=30, rel_tol=1e-300)
    data, _ = sample_dataset(hp, num_users=8, num_brands=6, num_events=400, seed=0)
    return hp, Dataset.from_arrays(scale * data.X, data.users, data.brands, data.y,
                                   data.num_users, data.num_brands)


@pytest.mark.filterwarnings("error")
def test_fit_features_near_1e150_are_clean():
    hp, data = _scaled(1e150)
    _, report = fit(data, hp, seed=0)
    trace = np.array(report.elbo_trace)
    assert len(trace) == 30 and np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[1:]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_features_near_1e200_raise_at_sweep_0():
    hp, data = _scaled(1e200)
    with pytest.raises(NumericalError, match=r"^sweep 0: "):
        fit(data, hp, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the precision sums overflow
def test_fit_features_near_1e154_raise_at_sweep_0():
    hp, data = _scaled(1e154)
    with pytest.raises(NumericalError, match=r"^sweep 0: matrix has non-finite entries$"):
        fit(data, hp, seed=0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), num_users=st.integers(1, 4), num_brands=st.integers(1, 4),
       num_styles=st.integers(1, 3), num_events=st.integers(1, 60),
       scale=st.sampled_from([0.1, 1.0, 3.0]), seed=st.integers(0, 2**32 - 1))
def test_elbo_never_decreases_on_random_small_datasets(d, num_users, num_brands, num_styles,
                                                       num_events, scale, seed):
    rng = np.random.default_rng(seed)
    data = Dataset.from_arrays(scale * rng.standard_normal((num_events, d)),
                               rng.integers(0, num_users, num_events),
                               rng.integers(0, num_brands, num_events),
                               rng.integers(0, 2, num_events), num_users, num_brands)
    hp = HyperParams(num_styles=num_styles, feature_dim=d, max_iters=10, rel_tol=1e-300)
    _, report = fit(data, hp, seed=seed)
    trace = np.array([elbo(initial_state(data, hp, seed), data, hp), *report.elbo_trace])
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[1:]))
