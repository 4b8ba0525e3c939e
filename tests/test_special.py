"""The package's own special functions, checked against scipy, and the
properties of the logistic bound that rest on them."""

import subprocess
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hbayes import jj_lower_bound, lambda_of_xi, sigmoid
from hbayes.model import _LAMBDA_TAYLOR_CUTOFF, digamma, expit, gammaln, logsumexp

# |error| <= _TOL * max(1, |f(x)|), fixed before measuring; the worst case
# seen is ~2e-15 (digamma near its root, gammaln near 3).
_TOL = 1e-14

_X = np.unique(np.concatenate([np.geomspace(1e-3, 1e6, 4001), np.linspace(1e-3, 25.0, 4001),
                               [1.0, 2.0, 1.4616321449683622, 10.0]]))


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= _TOL


@pytest.mark.parametrize("name", ["digamma", "gammaln"])
def test_gamma_functions_match_scipy(name):
    ours, ref = {"digamma": digamma, "gammaln": gammaln}[name], getattr(scipy.special, name)
    _assert_close(ours(_X), ref(_X))
    grid = _X[:8000].reshape(2, -1)
    _assert_close(ours(grid), ref(grid))
    for x in (1e-3, 0.01, 1.0, 3.25, 1e6):
        assert isinstance(ours(x), float)
        _assert_close(ours(np.float64(x)), ref(x))


def test_expit_matches_scipy():
    x = np.concatenate([-_X[::-1], [0.0], _X])
    _assert_close(expit(x), scipy.special.expit(x))
    with np.errstate(over="raise"):
        assert expit(-1e6) == 0.0 and expit(1e6) == 1.0


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_matches_scipy(axis):
    rng = np.random.default_rng(0)
    for scale in (1e-3, 1.0, 1e3, 1e6):
        a = scale * rng.uniform(1e-3, 1.0, (50, 7)) * rng.choice([-1.0, 1.0], (50, 7))
        _assert_close(logsumexp(a, axis), scipy.special.logsumexp(a, axis=axis, keepdims=True))


def test_logsumexp_infinite_rows():
    a = np.array([[-np.inf, -np.inf], [np.inf, 1.0], [0.0, -np.inf]])
    with np.errstate(all="raise"):
        got = logsumexp(a, axis=1)
    np.testing.assert_array_equal(got, [[-np.inf], [np.inf], [0.0]])


# ---------------------------------------------------------------------------
# properties of the logistic bound
# ---------------------------------------------------------------------------

_FINITE = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(h=st.floats(-30.0, 30.0, **_FINITE), xi=st.floats(-30.0, 30.0, **_FINITE))
def test_bound_never_exceeds_sigmoid(h, xi):
    assert jj_lower_bound(h, xi) <= sigmoid(h) * (1.0 + 1e-12)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(delta=st.floats(0.0, 1e-3, **_FINITE))
def test_lambda_continuous_across_taylor_cutoff(delta):
    # |lambda'(x)| < x / 24 < 1e-3 near the cutoff, so a jump between the
    # series and the direct formula would show as a larger difference.
    below = np.nextafter(_LAMBDA_TAYLOR_CUTOFF - delta, 0.0)
    above = _LAMBDA_TAYLOR_CUTOFF + delta
    assert abs(lambda_of_xi(below) - lambda_of_xi(above)) <= 1e-3 * (above - below) + 1e-14


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------


def test_cli_import_loads_no_scipy():
    code = ("import sys, hbayes.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
