"""Tests for predictive moments, the probit shortcut, and ranking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from hbayes import (
    GammaPosterior,
    HyperParams,
    brand_prior,
    predict_prob,
    predictive_moments,
    rank_top_k,
    score_candidates,
    user_prior,
)
from hbayes.predictor import by_score

from helpers import prior_matched_state, random_state, reference_scores


# ---------------------------------------------------------------------------
# predictive moments
# ---------------------------------------------------------------------------


def test_moments_zero_features():
    b = (np.ones(3), np.eye(3))
    u = (np.ones(3), 0.5 * np.eye(3))
    assert predictive_moments(np.zeros(3), *b, *u) == (0.0, 0.0)


def test_moments_point_mass():
    b = (np.array([1.0, -1.0]), np.zeros((2, 2)))
    u = (np.array([0.5, 0.5]), np.zeros((2, 2)))
    mu, s2 = predictive_moments(np.array([2.0, 2.0]), *b, *u)
    assert s2 == 0.0
    assert mu == pytest.approx(2.0 * 1.5 + 2.0 * (-0.5))


def test_moments_direct_arithmetic():
    x = np.array([1.0, 1.0])
    b = (np.array([1.0, 0.0]), 0.5 * np.eye(2))
    u = (np.array([0.0, 1.0]), 0.5 * np.eye(2))
    mu, s2 = predictive_moments(x, *b, *u)
    assert mu == pytest.approx(2.0)
    assert s2 == pytest.approx(2.0)


def test_moments_dimension_mismatch():
    b = (np.zeros(2), np.eye(2))
    u = (np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        predictive_moments(np.zeros(3), *b, *u)


# ---------------------------------------------------------------------------
# predict_prob
# ---------------------------------------------------------------------------


def test_predict_prob_symmetry():
    for s2 in (0.0, 1.0, 7.3):
        assert predict_prob(0.0, s2) == 0.5


def test_predict_prob_degenerate_gaussian():
    for mu in (-3.0, -0.5, 1.7):
        assert predict_prob(mu, 0.0) == pytest.approx(1.0 / (1.0 + math.exp(-mu)),
                                                      abs=1e-15)


def test_predict_prob_direct_value():
    val = predict_prob(1.0, 8.0 / math.pi)
    assert val == pytest.approx(1.0 / (1.0 + math.exp(-1.0 / math.sqrt(2.0))),
                                abs=1e-12)
    assert val == pytest.approx(0.6698, abs=5e-5)


def test_predict_prob_rejects_negative_variance():
    with pytest.raises(ValueError):
        predict_prob(0.0, -1.0)


def test_predict_prob_against_monte_carlo():
    rng = np.random.default_rng(2024)
    draws = rng.standard_normal(100_000)
    for mu in range(-4, 5):
        for s2 in (0.0, 1.0, 4.0, 9.0):
            mc = float(np.mean(expit(mu + math.sqrt(s2) * draws)))
            assert abs(predict_prob(float(mu), float(s2)) - mc) < 0.02, (mu, s2)


def test_predict_prob_monotone_in_mu():
    mus = np.linspace(-6, 6, 121)
    for s2 in (0.0, 2.0, 10.0):
        probs = [predict_prob(float(m), s2) for m in mus]
        assert np.all(np.diff(probs) > 0)


def test_predict_prob_shrinks_toward_half_with_variance():
    for mu in (-2.0, 1.0, 4.0):
        probs = [predict_prob(mu, s2) for s2 in (0.0, 1.0, 4.0, 16.0)]
        gaps = [abs(p - 0.5) for p in probs]
        assert np.all(np.diff(gaps) < 0)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def _ranking_state():
    hp = HyperParams(num_styles=2, feature_dim=2)
    state = prior_matched_state(hp, 2, 2)
    state.user_mean, state.user_cov = np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2, 2))
    state.brand_mean, state.brand_cov = np.array([[0.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2, 2))
    state.style_mean = np.array([[0.5, 0.5], [-0.5, 0.5]])
    state.style_var = np.array([0.2, 0.4])
    state.theta_gamma = np.array([3.0, 1.0])
    state.prec_b = GammaPosterior(2.0, 1.0)  # mean 2
    state.prec_u = GammaPosterior(4.0, 1.0)  # mean 4
    return state


def test_rank_returns_all_when_k_large():
    state = _ranking_state()
    cands = [(i, np.array([0.1 * i, 0.0]), 0) for i in range(4)]
    out = rank_top_k(0, cands, state, k=10)
    assert [i for i, _ in out] == [3, 2, 1, 0]
    probs = [p for _, p in out]
    assert probs == sorted(probs, reverse=True)


def test_rank_breaks_ties_by_item_id():
    state = _ranking_state()
    x = np.array([0.3, 0.3])
    cands = [(7, x, 0), (2, x, 0), (5, x, 0)]
    out = rank_top_k(0, cands, state, k=3)
    assert [i for i, _ in out] == [2, 5, 7]


def test_rank_dominant_item_first():
    state = _ranking_state()
    cands = [(0, np.array([0.0, 0.0]), 0), (1, np.array([5.0, 0.0]), 0),
             (2, np.array([0.0, 0.0]), 0)]
    out = rank_top_k(0, cands, state, k=1)
    assert out[0][0] == 1
    assert out[0][1] == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-12)


def test_rank_invariant_to_candidate_order():
    state = _ranking_state()
    rng = np.random.default_rng(0)
    cands = [(i, rng.standard_normal(2), int(rng.integers(2))) for i in range(20)]
    out1 = rank_top_k(0, cands, state, k=5)
    shuffled = list(cands)
    rng.shuffle(shuffled)
    out2 = rank_top_k(0, shuffled, state, k=5)
    assert out1 == out2


def test_rank_requires_positive_k():
    with pytest.raises(ValueError):
        rank_top_k(0, [], _ranking_state(), k=0)


def test_cold_start_brand_uses_mixture_prior():
    state = _ranking_state()
    prior_mean, prior_cov = brand_prior(state)
    weights = state.theta_gamma / state.theta_gamma.sum()
    np.testing.assert_allclose(
        prior_mean, weights[0] * state.style_mean[0] + weights[1] * state.style_mean[1])
    np.testing.assert_allclose(
        prior_cov, (1.0 / 2.0 + weights[0] * 0.2 + weights[1] * 0.4) * np.eye(2))

    x = np.array([1.0, 1.0])
    _, (known_sigma2,), _ = score_candidates(0, [(None, x, 0)], state)
    (unknown_mu,), (unknown_sigma2,), _ = score_candidates(0, [(None, x, None)], state)
    expected_mu = float(x @ (prior_mean + state.user_mean[0]))
    assert unknown_mu == pytest.approx(expected_mu)
    assert unknown_sigma2 > known_sigma2
    (out_of_range_mu,), _, _ = score_candidates(0, [(None, x, 99)], state)
    assert out_of_range_mu == unknown_mu


@pytest.mark.parametrize("bad", [1.5, 1.999, -0.5, math.inf, -math.inf])
def test_fractional_or_infinite_brand_id_is_rejected(bad):
    state = _ranking_state()
    cands = [(0, [1.0, 0.0], 0), (1, [0.5, 0.5], None), (2, [1.0, 1.0], bad), (3, [0.0, 1.0], 0.5)]
    with pytest.raises(ValueError, match=f"candidate 2: brand id {bad!r} is not an integer"):
        score_candidates(0, cands, state)
    with pytest.raises(ValueError, match="candidate 2: brand id"):
        rank_top_k(0, cands, state, k=1)


def test_whole_number_brand_ids_score_like_ints():
    state = _ranking_state()
    x = [1.0, 1.0]
    as_int = score_candidates(0, [(0, x, 1), (1, x, 7), (2, x, -1), (3, x, None)], state)
    as_other = score_candidates(0, [(0, x, 1.0), (1, x, np.int64(7)), (2, x, -1.0),
                                    (3, x, math.nan)], state)
    for want, got in zip(as_int, as_other):
        np.testing.assert_array_equal(got, want)


def test_cold_start_user_uses_prior_moments():
    state = _ranking_state()
    prior_mean, prior_cov = user_prior(state)
    np.testing.assert_array_equal(prior_mean, np.zeros(2))
    np.testing.assert_allclose(prior_cov, 0.25 * np.eye(2))
    x = np.array([2.0, 0.0])
    (mu,), (sigma2,), (prob,) = score_candidates(None, [(None, x, 0)], state)
    assert mu == pytest.approx(0.0)
    assert sigma2 == pytest.approx(4.0 * 0.25)
    assert prob == 0.5


# The batched scorer sums in another order than the per-candidate loop, so
# it may differ from it in the last bits: |got - want| <= 1e-12 * |want|.
_BATCH_RTOL = 1e-12


@pytest.mark.parametrize("d", [1, 4])
def test_batched_scores_match_per_candidate_loop(d):
    hp = HyperParams(num_styles=3, feature_dim=d)
    state = random_state(hp, num_users=3, num_brands=4, num_events=0, seed=d)
    rng = np.random.default_rng(d)
    brand_ids = [0, 3, None, 4, -1, 99, 2, 1, None, 3]  # known and cold brands mixed
    cands = [(i, rng.standard_normal(d), b) for i, b in enumerate(brand_ids)]
    for user_id in (0, 2, None, 3, -1):  # known users, unseen and out of range
        got = score_candidates(user_id, cands, state)
        want = reference_scores(user_id, cands, state)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=_BATCH_RTOL, atol=0.0)
        ranked = rank_top_k(user_id, cands, state, k=len(cands))
        np.testing.assert_allclose(sorted(p for _, p in ranked), sorted(want[2]),
                                   rtol=_BATCH_RTOL, atol=0.0)
        for item, x, b in cands:
            one = score_candidates(user_id, [(None, x, b)], state)
            np.testing.assert_allclose([col[0] for col in one],
                                       [w[item] for w in want], rtol=_BATCH_RTOL, atol=0.0)


def test_cold_brand_prior_only_for_requests_with_a_cold_id(monkeypatch):
    """The prior is computed only when a request holds a cold brand id, the
    state's brand table is left as it was, and with no brands at all every
    candidate takes the prior."""
    from hbayes import predictor

    hp = HyperParams(num_styles=3, feature_dim=3)
    calls = []
    monkeypatch.setattr(predictor, "brand_prior",
                        lambda state: calls.append(1) or brand_prior(state))
    rng = np.random.default_rng(4)
    for B, brand_ids, want_calls in ((4, [0, 3, 1, 1], 0), (4, [0, None, 7, -2], 1),
                                     (0, [None, 0, -1], 1)):
        state = random_state(hp, num_users=2, num_brands=B, num_events=0, seed=B)
        table = state.brand_mean.copy(), state.brand_cov.copy()
        cands = [(i, rng.standard_normal(3), b) for i, b in enumerate(brand_ids)]
        calls.clear()
        got = score_candidates(0, cands, state)
        assert len(calls) == want_calls
        for g, w in zip(got, reference_scores(0, cands, state)):
            np.testing.assert_allclose(g, w, rtol=_BATCH_RTOL, atol=0.0)
        np.testing.assert_array_equal(state.brand_mean, table[0])
        np.testing.assert_array_equal(state.brand_cov, table[1])


def test_rank_empty_candidate_list():
    assert rank_top_k(0, [], _ranking_state(), k=3) == []
    assert rank_top_k(None, iter([]), _ranking_state(), k=1) == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_top_k_equals_full_sort_of_reference_scores(data):
    d = data.draw(st.integers(1, 4), label="d")
    U, B = data.draw(st.integers(1, 3), label="U"), data.draw(st.integers(1, 3), label="B")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    state = random_state(HyperParams(num_styles=2, feature_dim=d), U, B, 0, seed)
    # Few distinct rows, so that candidates repeat them and tie exactly.
    rows = np.random.default_rng(seed).standard_normal((3, d))
    n = data.draw(st.integers(1, 12), label="n")
    picks = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="rows")
    brands = data.draw(st.lists(st.sampled_from([None, -1, B, B + 7, *range(B)]),
                                min_size=n, max_size=n), label="brands")
    items = data.draw(st.permutations(range(n)), label="items")
    user = data.draw(st.sampled_from([None, -1, U, *range(U)]), label="user")
    cands = [(item, rows[p], b) for item, p, b in zip(items, picks, brands)]
    want = by_score(items, reference_scores(user, cands, state)[2])
    for k in range(1, n + 3):
        got = rank_top_k(user, cands, state, k)
        assert [item for item, _ in got] == [item for item, _ in want[:k]]
        np.testing.assert_allclose([p for _, p in got], [p for _, p in want[:k]],
                                   rtol=_BATCH_RTOL, atol=0.0)


# The last row is finite, but x @ mean and x'Cx overflow to inf: inf / inf is NaN.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [[math.inf, 0.0], [0.0, -math.inf], [math.nan, 0.0],
                                 [1.7e308, 1.7e308]])
def test_candidate_that_cannot_be_scored_is_rejected(bad):
    state = _ranking_state()
    cands = [(0, [1.0, 0.0], 0), (1, [0.5, 0.5], None), (2, bad, None), (3, bad, 0)]
    with pytest.raises(ValueError, match="candidate 2: x is not finite or too large to score"):
        rank_top_k(0, cands, state, k=2)
    with pytest.raises(ValueError, match="candidate 0: x is not finite"):
        score_candidates(0, [(None, bad, None)], state)


def test_rank_rejects_ragged_and_wrong_width_features():
    state = _ranking_state()
    with pytest.raises(ValueError):
        rank_top_k(0, [(0, [1.0, 0.0], 0), (1, [1.0], 0)], state, k=1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        rank_top_k(0, [(0, [1.0, 0.0, 2.0], 0), (1, [1.0, 0.0, 0.0], 1)], state, k=1)
