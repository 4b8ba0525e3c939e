"""Tests for the coordinate-ascent updates and the fitting loop."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

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
    VariationalState,
    elbo,
    elbo_terms,
    lambda_of_xi,
    load_checkpoint,
    load_events,
    sample_dataset,
    save_checkpoint,
)
from hbayes import cli, inference, model
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
from hbayes.model import event_moments, family_moments

from helpers import (
    make_dataset,
    prior_matched_state,
    random_state,
    random_xi,
    reference_event_moments,
    reference_update_brand,
    reference_update_user,
)


def _single_event_instance():
    """d=1, one event (x=1, y=1), unit precisions, zero means; its tests
    set the event's xi to 1."""
    hp = HyperParams(num_styles=1, feature_dim=1, alpha0=1.0, beta0=1.0)
    data = make_dataset([([1.0], 0, 0, 1)], num_users=1, num_brands=1, feature_dim=1)
    state = prior_matched_state(hp, 1, 1)
    state.prec_u = GammaPosterior(1.0, 1.0)
    state.prec_b = GammaPosterior(1.0, 1.0)
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
        state = random_state(hp, num_users=2, num_brands=6, seed=seed)
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
    state = prior_matched_state(hp, 2, 1)
    state.prec_u = GammaPosterior(6.0, 3.0)  # mean 2
    mean, cov = update_users(state, data, lambda_of_xi(np.ones(len(data))),
                             family_moments(state.brand_mean, state.brand_cov, data.by_brand)[0])
    np.testing.assert_array_equal(mean[0], np.zeros(2))
    np.testing.assert_allclose(cov[0], np.eye(2) / 2.0, atol=1e-12)


def test_update_user_single_event_scalar_arithmetic():
    _, data, state = _single_event_instance()
    lam = (1.0 / (1.0 + math.exp(-1.0)) - 0.5) / 2.0
    expected_cov = 1.0 / (1.0 + 2.0 * lam)
    mean, cov = update_users(state, data, lambda_of_xi(np.ones(len(data))),
                             family_moments(state.brand_mean, state.brand_cov, data.by_brand)[0])
    assert cov[0, 0, 0] == pytest.approx(expected_cov, rel=1e-12)
    assert mean[0, 0] == pytest.approx(expected_cov * 0.5, rel=1e-12)


def test_update_user_stronger_prior_shrinks_mean():
    hp = HyperParams(num_styles=1, feature_dim=3)
    rng = np.random.default_rng(4)
    rows = [(rng.standard_normal(3), 0, 0, int(rng.integers(2))) for _ in range(20)]
    data = make_dataset(rows, num_users=1, num_brands=1, feature_dim=3)
    state = prior_matched_state(hp, 1, 1)
    state.brand_mean[0], state.brand_cov[0] = rng.standard_normal(3), np.eye(3)
    state.prec_u = GammaPosterior(2.0, 2.0)  # mean 1
    loose = update_users(state, data, lambda_of_xi(np.ones(len(data))),
                         family_moments(state.brand_mean, state.brand_cov, data.by_brand)[0])[0][0]
    state.prec_u = GammaPosterior(4.0, 2.0)  # mean 2
    tight = update_users(state, data, lambda_of_xi(np.ones(len(data))),
                         family_moments(state.brand_mean, state.brand_cov, data.by_brand)[0])[0][0]
    assert np.linalg.norm(tight) < np.linalg.norm(loose)


def test_update_brand_without_events_uses_style_mixture():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.prec_b = GammaPosterior(4.0, 2.0)  # mean 2
    state.style_mean[:], state.style_var[:] = [[1.0, 0.0], [0.0, 2.0]], 0.3
    state.resp = np.array([[0.25, 0.75]])
    data = Dataset([], 1, 1, 2)
    mean, cov = update_brands(state, data, lambda_of_xi(np.ones(len(data))),
                              family_moments(state.user_mean, state.user_cov, data.by_user)[0])
    np.testing.assert_allclose(cov[0], np.eye(2) / 2.0, atol=1e-12)
    np.testing.assert_allclose(mean[0], 0.25 * np.array([1.0, 0.0])
                               + 0.75 * np.array([0.0, 2.0]), atol=1e-12)


def test_update_brand_one_hot_returns_style_mean():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    state.style_mean[:], state.style_var[:] = [[3.0, -1.0], [0.0, 2.0]], 0.3
    state.resp = np.array([[1.0, 0.0]])
    data = Dataset([], 1, 1, 2)
    mean, _ = update_brands(state, data, lambda_of_xi(np.ones(len(data))),
                            family_moments(state.user_mean, state.user_cov, data.by_user)[0])
    np.testing.assert_allclose(mean[0], [3.0, -1.0], atol=1e-12)


def test_update_brand_mirrors_update_user():
    _, data, state = _single_event_instance()
    user_mean, user_cov = update_users(
        state, data, lambda_of_xi(np.ones(len(data))),
        family_moments(state.brand_mean, state.brand_cov, data.by_brand)[0])
    brand_mean, brand_cov = update_brands(
        state, data, lambda_of_xi(np.ones(len(data))),
        family_moments(state.user_mean, state.user_cov, data.by_user)[0])
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
    state = random_state(hp, num_users=6, num_brands=5, seed=seed)
    return data, state, random_xi(len(rows), seed)


@pytest.mark.parametrize("d, seed", [(1, 0), (3, 1), (10, 2)])
def test_family_updates_match_per_entity_loop(d, seed):
    data, state, xi = _family_instance(d, seed)
    assert np.any(np.diff(data.users) < 0) and np.any(np.diff(data.brands) < 0)
    assert [np.sum(data.users == k) for k in (0, 1)] == [0, 1]
    assert [np.sum(data.brands == i) for i in (0, 1)] == [0, 1]
    assert np.ptp(state.resp) > 0.1
    _assert_factors_close(
        update_users(state, data, lambda_of_xi(xi),
                     family_moments(state.brand_mean, state.brand_cov, data.by_brand)[0]),
        [reference_update_user(k, state, data, xi) for k in range(6)])
    _assert_factors_close(
        update_brands(state, data, lambda_of_xi(xi),
                      family_moments(state.user_mean, state.user_cov, data.by_user)[0]),
        [reference_update_brand(i, state, data, xi) for i in range(5)])


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


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)], ids=["1-D", "non-square", "stack"])
def test_spd_helpers_refuse_a_shape_that_is_not_square(shape):
    for op in (spd_inverse, spd_logdet):
        with pytest.raises(ValueError, match="square matrix or a stack"):
            op(np.ones(shape))


def test_spd_jitter_climbs_to_the_third_rung():
    """diag(1, -5e-9) fails unjittered and at jitters 1e-10 and 1e-9; at
    1e-8 it factorizes, alone and as the middle slice of a stack."""
    m = np.diag([1.0, -5e-9])
    for jitter in (0.0, 1e-10, 1e-9):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(m + jitter * np.eye(2))
    jittered = m + 1e-8 * np.eye(2)
    stack = np.stack([np.eye(2), m, 2.0 * np.eye(2)])
    inv, logdet = spd_inverse(stack), spd_logdet(stack)
    for got_inv, got_logdet in ((spd_inverse(m), spd_logdet(m)), (inv[1], logdet[1])):
        np.testing.assert_array_equal(got_inv, spd_inverse(jittered))
        assert got_logdet == spd_logdet(jittered)
    for k in (0, 2):
        np.testing.assert_array_equal(inv[k], spd_inverse(stack[k]))
        assert logdet[k] == spd_logdet(stack[k])


def _bitwise_symmetric(mats):
    """True if each matrix of a stack equals its transpose bit for bit, so
    that a 0.0 mirrored by -0.0 counts as asymmetric."""
    bits = np.asarray(mats).view(np.uint64)
    return np.array_equal(bits, np.swapaxes(bits, -1, -2))


def test_spd_inverse_and_fitted_covariances_are_exactly_symmetric():
    """The checkpoint writer formats one triangle of a covariance that equals
    its transpose bit for bit.  spd_inverse promises that for one matrix, a
    stack and a stack with a jittered slice, and a fit on the S instance
    (criterion 4's, seed 0) keeps it for both dense families, as does the
    identity start."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 7, 7))
    stack = a @ np.swapaxes(a, 1, 2) + np.eye(7)
    jittered = stack.copy()
    jittered[3] = np.ones((7, 7))
    for mats in (stack[0], stack, jittered):
        assert _bitwise_symmetric(spd_inverse(mats))

    gen_hp = HyperParams(num_styles=3, feature_dim=10, gamma0=np.full(3, 50.0))
    data, _ = sample_dataset(gen_hp, num_users=10, num_brands=30, num_events=3000,
                             true_precisions=(4.0, 100.0, 0.25, 1.0), seed=0)
    hp = HyperParams(num_styles=3, feature_dim=10, max_iters=20)
    for state in (initial_state(data, hp, seed=0), fit(data, hp, seed=0)[0]):
        assert _bitwise_symmetric(state.user_cov) and _bitwise_symmetric(state.brand_cov)


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
    state = prior_matched_state(hp, 1, 1)
    state.user_mean[0], state.user_cov[0] = [0.5, 0.5], np.zeros((2, 2))
    state.brand_mean[0], state.brand_cov[0] = [0.5, 0.0], np.zeros((2, 2))
    out = update_xi(*event_moments(state, data))
    assert out[0] == pytest.approx(abs(1.0 * 1.0 + (-2.0) * 0.5), rel=1e-12)


def test_update_xi_zero_features():
    hp = HyperParams(num_styles=1, feature_dim=2)
    data = make_dataset([([0.0, 0.0], 0, 0, 0)], num_users=1, num_brands=1,
                        feature_dim=2)
    state = prior_matched_state(hp, 1, 1)
    assert update_xi(*event_moments(state, data))[0] == 0.0


def test_update_xi_direct_arithmetic():
    hp = HyperParams(num_styles=1, feature_dim=1)
    data = make_dataset([([2.0], 0, 0, 1)], num_users=1, num_brands=1, feature_dim=1)
    state = prior_matched_state(hp, 1, 1)
    state.user_mean[0], state.user_cov[0] = [0.4], 0.25 * np.eye(1)
    state.brand_mean[0], state.brand_cov[0] = [0.6], 0.25 * np.eye(1)
    assert update_xi(*event_moments(state, data))[0] == pytest.approx(math.sqrt(6.0), rel=1e-12)


def _assert_close(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= _FAMILY_RTOL * np.max(np.abs(want)))


@pytest.mark.parametrize("d, seed", [(1, 0), (10, 2)])
def test_grouped_moments_match_gathered_covariances(d, seed):
    """m, s2, update_xi and the likelihood bound against the (N, d, d)
    formula, on interleaved events with an empty and a single-event user and
    brand."""
    data, state, xi = _family_instance(d, seed)
    m, s2 = reference_event_moments(state, data)
    got_m, got_s2 = event_moments(state, data)
    _assert_close(got_m, m)
    _assert_close(got_s2, s2)
    _assert_close(update_xi(got_m, got_s2), np.sqrt(m * m + s2))
    lam = lambda_of_xi(xi)
    bound = np.sum(data.y * m - np.logaddexp(0.0, -xi) - 0.5 * (m + xi)
                   - lam * (m * m + s2 - xi * xi))
    hp = HyperParams(num_styles=3, feature_dim=d)
    _assert_close(elbo_terms(state, data, hp, xi)["likelihood_bound"], bound)


@pytest.mark.parametrize("d, seed", [(1, 0), (10, 2)])
def test_event_moments_are_the_sum_of_the_two_family_calls(d, seed):
    """Each family's call gives its own projection and variance, and
    event_moments is their sum, bit for bit."""
    data, state, _ = _family_instance(d, seed)
    users = family_moments(state.user_mean, state.user_cov, data.by_user)
    brands = family_moments(state.brand_mean, state.brand_cov, data.by_brand)
    for (mean, cov, index), (m, s2) in (((state.user_mean, state.user_cov, data.users), users),
                                        ((state.brand_mean, state.brand_cov, data.brands),
                                         brands)):
        _assert_close(m, np.einsum("nd,nd->n", data.X, mean[index]))
        _assert_close(s2, np.einsum("nd,nde,ne->n", data.X, cov[index], data.X))
    for got, user_part, brand_part in zip(event_moments(state, data), users, brands):
        np.testing.assert_array_equal(got, user_part + brand_part)


def test_grouped_moments_without_events():
    hp = HyperParams(num_styles=2, feature_dim=3)
    data = Dataset(events=[], num_users=2, num_brands=3, feature_dim=3)
    state = random_state(hp, num_users=2, num_brands=3, seed=0)
    assert update_xi(*event_moments(state, data)).shape == (0,)
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
    state = random_state(hp, num_users=200, num_brands=100, seed=1)
    # Build the cached event arrays first, so that only update_xi is traced.
    _ = data.X, data.users, data.brands, data.by_user, data.by_brand
    tracemalloc.start()
    try:
        update_xi(*event_moments(state, data))
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


def _public_sweep(state, data, hp, xi):
    """(state, xi) after the updates of ``cavi_sweep`` in its order, each
    through its public function on the state the sweep had reached."""
    work = state.copy()
    work.resp = update_responsibilities(work)
    work.theta_gamma = update_theta(work.resp, hp)
    work.user_mean, work.user_cov = update_users(
        work, data, lambda_of_xi(xi),
        family_moments(work.brand_mean, work.brand_cov, data.by_brand)[0])
    work.brand_mean, work.brand_cov = update_brands(
        work, data, lambda_of_xi(xi),
        family_moments(work.user_mean, work.user_cov, data.by_user)[0])
    work.style_mean, work.style_var = update_styles(work)
    work.w_mean, work.w_var = update_w(work)
    work.prec_u, work.prec_b, work.prec_s, work.prec_w = update_precisions(work, hp)
    return work, update_xi(*event_moments(work, data))


@pytest.mark.parametrize("users, brands, events, d", [(10, 30, 3_000, 10),
                                                      (200, 100, 20_000, 10)])
def test_cavi_sweep_terms_equal_the_independent_elbo(users, brands, events, d):
    """At sizes S and M, from a fitted state: each sweep's terms are
    ``elbo_terms`` of its new state and sum to ``elbo`` exactly, and every
    factor equals what the public updates give on the same inputs."""
    hp = HyperParams(num_styles=3, feature_dim=d, max_iters=3)
    data, _ = sample_dataset(hp, num_users=users, num_brands=brands, num_events=events, seed=4)
    state, _ = fit(data, hp, seed=4)
    xi = update_xi(*event_moments(state, data))
    for _ in range(2):
        new, new_xi, terms = cavi_sweep(state, data, hp, xi)
        assert sum(terms.values()) == elbo(new, data, hp)
        assert terms == elbo_terms(new, data, hp)
        public, public_xi = _public_sweep(state, data, hp, xi)
        for name in new._ARRAYS:
            np.testing.assert_array_equal(getattr(new, name), getattr(public, name), name)
        np.testing.assert_array_equal(new_xi, public_xi)
        assert new.precisions == public.precisions
        state, xi = new, new_xi


def test_fit_computes_each_per_event_pass_once_per_sweep(monkeypatch):
    """A k-sweep fit runs lambda(xi) 2k times: once for both family updates
    and once for the ELBO of the new xi.  It runs ``family_moments`` 3k
    times and ``event_moments`` never: once on the old brands, whose x'mu
    the user update reads; once on the new users, whose x'mu the brand
    update reads; and once on the new brands, whose moments the users' join
    to set xi and the ELBO.  The first call repeats the previous sweep's
    last, since a sweep carries nothing across its boundary."""
    sweeps = 5
    hp, data = _synthetic(max_iters=sweeps, rel_tol=1e-300)
    calls = {}
    for name in ("event_moments", "family_moments", "lambda_of_xi"):
        real = getattr(model, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        for module in (model, inference):
            monkeypatch.setattr(module, name, counted)
    _, report = fit(data, hp, seed=0)
    assert report.iterations_run == sweeps
    assert calls == {"family_moments": 3 * sweeps, "lambda_of_xi": 2 * sweeps}


def test_repeated_brand_pass_is_exact(monkeypatch):
    """Over two sweeps, the brand projection that the second sweep's user
    update receives equals, bit for bit, the brand x'mu of the first sweep's
    final moments, so carrying it across the boundary would change no bit."""
    hp, data = _synthetic()
    state = initial_state(data, hp, seed=0)
    brand_passes, user_inputs = [], []
    real_moments, real_users = inference.family_moments, inference.update_users

    def recorded_moments(mean, cov, grouping):
        out = real_moments(mean, cov, grouping)
        if grouping is data.by_brand:
            brand_passes.append(out[0].copy())
        return out

    def recorded_users(state, data, lam, brand_proj):
        user_inputs.append(brand_proj.copy())
        return real_users(state, data, lam, brand_proj)

    monkeypatch.setattr(inference, "family_moments", recorded_moments)
    monkeypatch.setattr(inference, "update_users", recorded_users)
    first, xi, _ = cavi_sweep(state, data, hp, np.ones(len(data)))
    cavi_sweep(first, data, hp, xi)
    assert len(brand_passes) == 4 and len(user_inputs) == 2
    np.testing.assert_array_equal(user_inputs[1], brand_passes[1])
    assert not np.array_equal(user_inputs[0], user_inputs[1])


def test_fit_runs_every_update_through_its_public_function(monkeypatch):
    """Each sweep looks up every ``update_*`` in the module globals and calls
    it once, so a wrapper installed there sees the code the fit runs."""
    sweeps = 4
    hp, data = _synthetic(max_iters=sweeps, rel_tol=1e-300)
    names = [name for name in inference.__all__ if name.startswith("update_")]
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(inference, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(inference, name, counted)
    _, report = fit(data, hp, seed=0)
    assert report.iterations_run == sweeps
    assert len(names) == 8
    assert calls == dict.fromkeys(names, sweeps)


def test_fit_working_set_stays_below_two_event_feature_arrays():
    """At the ``deep`` benchmark shape (N = 30k, d = 20), a 3-sweep fit
    allocates less than two (N, d) float64 arrays above where it starts."""
    n, d = 30_000, 20
    hp = HyperParams(num_styles=3, feature_dim=d, max_iters=3)
    data, _ = sample_dataset(hp, num_users=40, num_brands=15, num_events=n, seed=0)
    _ = data.by_user, data.by_brand
    fit(data, hp, seed=0)  # numpy's lazy imports happen outside the trace
    tracemalloc.start()
    try:
        fit(data, hp, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d * 8


def test_fit_initial_state_deterministic():
    hp, data = _synthetic()
    a = initial_state(data, hp, seed=17)
    b = initial_state(data, hp, seed=17)
    np.testing.assert_array_equal(a.user_mean, b.user_mean)
    np.testing.assert_array_equal(a.style_mean, b.style_mean)
    np.testing.assert_array_equal(a.resp, b.resp)


def test_fit_state_valid_after_each_sweep():
    hp, data = _synthetic()
    state, xi = initial_state(data, hp, seed=0), np.ones(len(data))
    for _ in range(5):
        state, xi, _ = cavi_sweep(state, data, hp, xi)
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
    state, xi = initial_state(data, hp, seed=0), np.ones(len(data))
    for _ in range(4):
        state, xi, _ = cavi_sweep(state, data, hp, xi)
    rng = np.random.default_rng(12)

    def perturbation():
        v = rng.standard_normal(hp.feature_dim)
        return 0.1 * v / np.linalg.norm(v)

    st = state.copy()
    st.user_mean, st.user_cov = update_users(
        st, data, lambda_of_xi(xi),
        family_moments(st.brand_mean, st.brand_cov, data.by_brand)[0])
    base = elbo(st, data, hp, xi)
    for _ in range(10):
        pert = st.copy()
        k = int(rng.integers(st.num_users))
        pert.user_mean[k] = pert.user_mean[k] + perturbation()
        assert elbo(pert, data, hp, xi) <= base + 1e-9 * abs(base)

    st = state.copy()
    st.style_mean, st.style_var = update_styles(st)
    base = elbo(st, data, hp, xi)
    for _ in range(10):
        pert = st.copy()
        j = int(rng.integers(st.num_styles))
        pert.style_mean[j] = pert.style_mean[j] + perturbation()
        assert elbo(pert, data, hp, xi) <= base + 1e-9 * abs(base)


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
    state, xi = initial_state(data, hp, seed=0), np.ones(len(data))
    for _ in range(4):
        state, xi, _ = cavi_sweep(state, data, hp, xi)
    if factor == "resp":
        state.resp = update_responsibilities(state)
    elif factor == "theta":
        state.theta_gamma = update_theta(state.resp, hp)
    else:
        state.prec_u, state.prec_b, state.prec_s, state.prec_w = update_precisions(state, hp)
    base = elbo(state, data, hp, xi)
    changes = [(elbo(pert, data, hp, xi) - base) / abs(base) for pert in _nudges(state, factor)]
    assert len(changes) == {"resp": 8 * 3, "theta": 3 * 2, "precisions": 4 * 2 * 2}[factor]
    assert max(changes) <= 1e-9


def test_fit_error_carries_sweep_index(monkeypatch):
    hp, data = _synthetic(max_iters=5)

    def boom(state):
        raise NumericalError("boom")

    monkeypatch.setattr(inference, "update_responsibilities", boom)
    with pytest.raises(NumericalError, match=r"sweep 0: boom"):
        fit(data, hp, seed=0)


@pytest.mark.parametrize("update", ["update_styles", "update_w"])
def test_fit_raises_when_a_factor_turns_non_finite(monkeypatch, update):
    """A style or w update that returns NaN means makes the sweep's ELBO
    non-finite, and fit stops at that sweep."""
    hp, data = _synthetic(max_iters=5)
    real = getattr(inference, update)

    def nan_means(state):
        mean, var = real(state)
        return np.full_like(mean, np.nan), var

    monkeypatch.setattr(inference, update, nan_means)
    with pytest.raises(NumericalError,
                       match=r"^sweep 0: ELBO evaluated to a non-finite value$"):
        fit(data, hp, seed=0)


def _fake_elbo(monkeypatch, values):
    """Make ``fit`` see ``values`` as its ELBO trace, one per sweep."""
    values = iter(values)
    sweep = inference.cavi_sweep
    monkeypatch.setattr(inference, "cavi_sweep", lambda state, data, hp, xi: (
        *sweep(state, data, hp, xi)[:2], {"elbo": next(values)}))


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


@pytest.mark.parametrize("restarts, warm", [(0, False), (-3, False), (3, True), (0, True)],
                         ids=["zero", "negative", "several-with-init", "zero-with-init"])
def test_fit_rejects_restarts_it_would_ignore(restarts, warm):
    """Fewer than one restart runs nothing, and an init gives one start state."""
    hp, data = _synthetic(max_iters=2)
    init = initial_state(data, hp, seed=1) if warm else None
    with pytest.raises(ValueError, match="restarts"):
        fit(data, hp, init=init, restarts=restarts)


def test_fit_warm_start_returns_a_copy():
    """At zero sweeps the warm start is returned as its start state: the
    init's factors, in arrays it does not share."""
    hp, data = _synthetic(max_iters=0)
    init = initial_state(data, hp, seed=1)
    state, report = fit(data, hp, init=init)
    assert report.elbo_trace == [] and report.iterations_run == 0
    for name in VariationalState._ARRAYS:
        assert not np.shares_memory(getattr(state, name), getattr(init, name)), name
        np.testing.assert_array_equal(getattr(state, name), getattr(init, name))


def test_fit_refuses_a_feature_dim_other_than_the_data():
    hp, data = _synthetic()
    with pytest.raises(ValueError, match="hp.feature_dim is 5 but the data has dimension 4"):
        fit(data, replace(hp, feature_dim=5))


@pytest.mark.parametrize("init_kwargs, message", [
    ({"num_users": 6, "num_brands": 8}, "init has 6 users but the data has 8"),
    ({"num_users": 8, "num_brands": 6}, "init has 6 brands but the data has 8"),
    ({"num_users": 12, "num_brands": 8}, "init has 12 users but the data has 8"),
    ({"num_styles": 2}, "init has 2 styles but hp.num_styles is 3"),
    ({"feature_dim": 3}, "init has dimension 3 but hp.feature_dim is 4"),
], ids=["fewer-users", "fewer-brands", "more-users", "styles", "dim"])
def test_fit_refuses_an_init_of_other_sizes(init_kwargs, message):
    hp, data = _synthetic(num_users=8)
    sizes = {"num_users": 8, "num_brands": 8, "num_styles": 3, "feature_dim": 4} | init_kwargs
    init_hp = HyperParams(num_styles=sizes["num_styles"], feature_dim=sizes["feature_dim"])
    init_data, _ = sample_dataset(init_hp, num_users=sizes["num_users"],
                                  num_brands=sizes["num_brands"], num_events=50, seed=1)
    init = initial_state(init_data, init_hp, seed=0)
    with pytest.raises(ValueError, match=message):
        fit(data, hp, init=init)


def _sweeps_from_best_xi(state, data, hp, sweeps):
    """The ELBO of each of ``sweeps`` public sweeps from ``state``, starting
    at xi = update_xi(*event_moments(state, data))."""
    xi, trace = update_xi(*event_moments(state, data)), []
    for _ in range(sweeps):
        state, xi, terms = cavi_sweep(state, data, hp, xi)
        trace.append(sum(terms.values()))
    return trace


def test_fit_warm_start_on_other_events_rebuilds_xi():
    """A state fitted on 400 events warm-starts a fit on 300 of them: the fit
    starts from update_xi(*event_moments(init, subset))."""
    hp, data = _synthetic(max_iters=10)
    state, _ = fit(data, hp, seed=2)
    subset = data.subset(np.flatnonzero(np.arange(len(data)) % 4 != 0))
    _, report = fit(subset, hp, init=state)
    trace = np.array([elbo(state, subset, hp), *report.elbo_trace])
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
    explicit = _sweeps_from_best_xi(state, subset, hp, report.iterations_run)
    assert report.elbo_trace == explicit  # bit-identical


def test_fit_warm_start_from_checkpoint_without_xi(tmp_path):
    """A checkpoint stores no xi; warm-starting it on its training events
    rebuilds exactly the xi the fit ended with (the last update of a sweep),
    so the trace matches a warm start from the in-memory state."""
    hp, data = _synthetic(max_iters=10)
    state, report = fit(data, hp, seed=2)
    path = tmp_path / "model.json"
    save_checkpoint(Checkpoint(hp, state, report), path)
    loaded = load_checkpoint(path).state
    _, from_file = fit(data, hp, init=loaded)
    _, from_memory = fit(data, hp, init=state)
    assert from_file.elbo_trace == from_memory.elbo_trace


def test_elbo_of_a_loaded_checkpoint_is_its_final_trace_entry(tmp_path):
    """``elbo`` of a loaded checkpoint on its training events is exactly the
    last ELBO its fit reported: for a v2 file written here, and for the
    committed v1 file on the events its CLI command line generates."""
    hp, data = _synthetic(max_iters=10)
    state, report = fit(data, hp, seed=2)
    path = tmp_path / "model.json"
    save_checkpoint(Checkpoint(hp, state, report), path)
    events_path = tmp_path / "events.jsonl"
    assert cli.main(["generate", "--users", "6", "--brands", "4", "--styles", "2", "--events",
                     "300", "--dim", "3", "--seed", "1", "--out", str(events_path)]) == 0
    v1 = load_checkpoint(Path(__file__).parent / "data" / "checkpoint_v1.json")
    for ckpt, events in ((load_checkpoint(path), data), (v1, load_events(events_path))):
        assert elbo(ckpt.state, events, ckpt.hyperparams) == ckpt.fit_report.elbo_trace[-1]


def test_fit_warm_start_on_as_many_other_events_rebuilds_xi():
    """An init fitted on 400 events, warm-started on 400 other events: the
    fit starts from update_xi(*event_moments(init, other)), whatever xi the
    init's own fit ended with on the old events."""
    hp, data = _synthetic(max_iters=10)
    state, _ = fit(data, hp, seed=2)
    _, other = _synthetic(max_iters=10, seed=6)
    assert len(other) == len(data)
    _, warm = fit(other, hp, init=state)
    explicit = _sweeps_from_best_xi(state, other, hp, warm.iterations_run)
    assert warm.elbo_trace == explicit  # bit-identical


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
