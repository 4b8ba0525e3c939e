"""Coordinate-ascent variational inference for the hierarchical click model.

One sweep updates, in order: responsibilities, style proportions, users,
brands, styles, the style-prior mean w, the four precisions, and the
per-event bound locations xi.  Every update is the exact conditional
maximizer of the bounded objective in ``model.elbo``, so the ELBO trace is
non-decreasing.  All updates are pure; ``fit`` owns the only mutable copy.
"""

from dataclasses import dataclass, replace
from itertools import pairwise

import numpy as np

from .linalg import NumericalError, spd_inverse
from .model import (
    _LOG_2PI,
    Dataset,
    GammaPosterior,
    HyperParams,
    VariationalState,
    elbo,
    event_moments,
    lambda_of_xi,
    logsumexp,
)

__all__ = [
    "FitReport",
    "initial_state",
    "update_responsibilities",
    "update_theta",
    "update_users",
    "update_brands",
    "update_styles",
    "update_w",
    "update_precisions",
    "update_xi",
    "cavi_sweep",
    "fit",
]

@dataclass
class FitReport:
    """Diagnostics from one fitting run."""

    elbo_trace: list
    iterations_run: int
    converged: bool


def initial_state(data: Dataset, hp: HyperParams, seed: int) -> VariationalState:
    """Seeded starting point for the coordinate-ascent loop.

    User and brand means start as small random vectors (scale 0.01), style
    means slightly larger (scale 0.1) to break the style symmetry, all
    covariances at identity scale, responsibilities near-uniform with
    Dirichlet jitter, Dirichlet parameters at 1/S, xi at 1, and Gamma
    posteriors at their priors.
    """
    rng = np.random.default_rng(seed)
    d = hp.feature_dim
    U, B, S = data.num_users, data.num_brands, hp.num_styles

    user_mean = 0.01 * rng.standard_normal((U, d))
    brand_mean = 0.01 * rng.standard_normal((B, d))
    style_mean = 0.1 * rng.standard_normal((S, d))
    resp = (np.full((B, S), 1.0 / S) + rng.dirichlet(np.ones(S), size=B)) / 2.0

    return VariationalState(
        user_mean=user_mean,
        user_cov=np.tile(np.eye(d), (U, 1, 1)),
        brand_mean=brand_mean,
        brand_cov=np.tile(np.eye(d), (B, 1, 1)),
        style_mean=style_mean,
        style_var=np.ones(S),
        w_mean=np.zeros(d),
        w_var=1.0,
        theta_gamma=np.full(S, 1.0 / S),
        resp=resp,
        prec_u=GammaPosterior(hp.alpha0, hp.beta0),
        prec_b=GammaPosterior(hp.alpha0, hp.beta0),
        prec_s=GammaPosterior(hp.alpha0, hp.beta0),
        prec_w=GammaPosterior(hp.alpha0, hp.beta0),
        xi=np.ones(len(data)),
    )


def update_responsibilities(state: VariationalState) -> np.ndarray:
    """Brand-to-style membership probabilities (the E-step).

    log rho_{ij} = E[log theta_j] + (d/2) E[log delta_b] - (d/2) log 2pi
    - (1/2) E[delta_b] * E[(B_i - S_j)'(B_i - S_j)]; rows are normalized
    with log-sum-exp.
    """
    log_rho = (state.theta_mean_log[None, :]
               + 0.5 * state.dim * (state.prec_b.mean_log - _LOG_2PI)
               - 0.5 * state.prec_b.mean * state.brand_style_sq())
    with np.errstate(invalid="ignore"):
        mu = np.exp(log_rho - logsumexp(log_rho, axis=1))
    if not np.all(np.isfinite(mu)):
        raise NumericalError("responsibilities are not finite after normalization")
    return mu


def update_theta(resp: np.ndarray, hp: HyperParams) -> np.ndarray:
    """Dirichlet parameters: prior concentration plus responsibility column sums."""
    return hp.gamma0 + resp.sum(axis=0)


def update_users(state: VariationalState, data: Dataset):
    """(mean (U, d), cov (U, d, d)) of every user given current brands,
    precisions and xi."""
    return _update_family(np.full(state.num_users, state.prec_u.mean), 0.0,
                          state.brand_mean[data.brands],
                          (*data.user_order, data.X_by_user), state, data)


def update_brands(state: VariationalState, data: Dataset):
    """(mean (B, d), cov (B, d, d)) of every brand; the style mixture acts
    as their prior."""
    e_db = state.prec_b.mean
    mu = state.resp
    return _update_family(e_db * mu.sum(axis=1),  # rows sum to 1, so this is e_db
                          e_db * (mu @ state.style_mean),
                          state.user_mean[data.users],
                          (*data.brand_order, data.X_by_brand), state, data)


def _update_family(prior_prec, prior_pull, other_means, grouping, state, data):
    """Joint update of all users or all brands: entity k gets precision
    prior_prec[k] I + 2 sum lam x x' and mean cov (prior_pull[k] + sum x c)
    over its events, with c = y - 1/2 - 2 lam x'm and m the event's mean in
    the other family.  ``grouping`` is (order, bounds, X sorted by order)."""
    order, bounds, X = grouping
    d = data.feature_dim
    lam = lambda_of_xi(state.xi)
    coef = data.y - 0.5 - 2.0 * lam * np.einsum("nd,nd->n", data.X, other_means)
    # One product per entity gives [2 sum lam x x' | sum x c] with no (N, d, d) buffer.
    Z = np.empty((len(order), d + 1))
    np.multiply(X, 2.0 * lam[order, None], out=Z[:, :d])
    Z[:, d] = coef[order]
    sums = np.zeros((len(prior_prec), d, d + 1))
    for k, (lo, hi) in enumerate(pairwise(bounds.tolist())):
        np.matmul(X[lo:hi].T, Z[lo:hi], out=sums[k])
    cov = spd_inverse(prior_prec[:, None, None] * np.eye(d) + sums[:, :, :d])
    mean = np.einsum("kde,ke->kd", cov, prior_pull + sums[:, :, d])
    return mean, cov


def update_styles(state: VariationalState):
    """(mean (S, d), isotropic variance (S,)) of every style from its member
    brands and w."""
    e_ds = state.prec_s.mean
    e_db = state.prec_b.mean
    var = 1.0 / (e_ds + e_db * state.resp.sum(axis=0))
    mean = var[:, None] * (e_ds * state.w_mean + e_db * (state.resp.T @ state.brand_mean))
    return mean, var


def update_w(state: VariationalState):
    """(mean (d,), isotropic variance) of the style-prior mean."""
    e_dw = state.prec_w.mean
    e_ds = state.prec_s.mean
    var = 1.0 / (e_dw + e_ds * state.num_styles)
    mean = var * e_ds * state.style_mean.sum(axis=0)
    return mean, var


def update_precisions(state: VariationalState, hp: HyperParams):
    """Gamma factors for the four precisions, recomputed from the prior.

    Each edge of ``state.edge_sq_norms()`` governs n d-vectors with summed
    expected squared distance sq to their prior means; its precision gets
    shape alpha0 + d n / 2 and rate beta0 + sq / 2.
    """
    d, a0, b0 = state.dim, hp.alpha0, hp.beta0
    return tuple(GammaPosterior(a0 + 0.5 * d * n, b0 + 0.5 * sq)
                 for n, sq in state.edge_sq_norms())


def update_xi(state: VariationalState, data: Dataset) -> np.ndarray:
    """Per-event bound locations: xi_t = sqrt(E[(x'(B + U))^2]) = sqrt(m_t^2 + s2_t)."""
    m, s2 = event_moments(state, data)
    return np.sqrt(np.maximum(m * m + s2, 0.0))


def cavi_sweep(state: VariationalState, data: Dataset, hp: HyperParams) -> VariationalState:
    """One full coordinate-ascent sweep; returns a new state.

    Later updates within the sweep see the values produced by earlier ones.
    Members of one family (all users, all brands, ...) are mutually
    independent given the rest, so each family is updated in one pass.
    No update writes into its input, so a shallow copy is enough: by the end
    of the sweep every field holds a fresh value.
    """
    work = replace(state)
    work.resp = update_responsibilities(work)
    work.theta_gamma = update_theta(work.resp, hp)
    work.user_mean, work.user_cov = update_users(work, data)
    work.brand_mean, work.brand_cov = update_brands(work, data)
    work.style_mean, work.style_var = update_styles(work)
    work.w_mean, work.w_var = update_w(work)
    work.prec_u, work.prec_b, work.prec_s, work.prec_w = update_precisions(work, hp)
    work.xi = update_xi(work, data)
    return work


def fit(data: Dataset, hp: HyperParams, seed: int = 0,
        init: VariationalState | None = None, restarts: int = 1):
    """Run coordinate ascent until the ELBO stabilizes.

    Returns (state, FitReport).  Deterministic given the seed; passing an
    explicit ``init`` state bypasses the seeded initialization.  An ``init``
    whose xi does not have one entry per event of ``data`` (one fitted on
    other events, or loaded from a checkpoint without xi) starts from
    ``update_xi(init, data)``.  Stops when
    |ELBO change| / (|ELBO| + 1e-12) < hp.rel_tol or after hp.max_iters
    sweeps.  With ``restarts`` > 1 the loop is run from that many seeded
    initializations (seeds seed, seed + 100, ...) and the run with the
    highest final ELBO wins; mixture-style models converge to local optima,
    so a few restarts are cheap insurance.
    """
    if restarts > 1 and init is None:
        runs = [_fit_once(data, hp, seed + 100 * r, None) for r in range(restarts)]
        return max(runs, key=lambda run: run[1].elbo_trace[-1] if run[1].elbo_trace
                   else -np.inf)
    return _fit_once(data, hp, seed, init)


def _fit_once(data: Dataset, hp: HyperParams, seed: int,
              init: VariationalState | None):
    if len(data) == 0:
        raise ValueError("training data must contain at least one event")
    state = init.copy() if init is not None else initial_state(data, hp, seed)
    if state.xi.size != len(data):
        # An init fitted on other events, or loaded from a checkpoint that does
        # not store xi: start from the exact xi-maximizer for its factors.
        state.xi = update_xi(state, data)

    trace = []
    converged = False
    previous = None
    for sweep_idx in range(hp.max_iters):
        try:
            state = cavi_sweep(state, data, hp)
            value = elbo(state, data, hp)
        except NumericalError as err:
            raise NumericalError(f"sweep {sweep_idx}: {err}") from err
        trace.append(value)
        if previous is not None:
            if abs(value - previous) / (abs(value) + 1e-12) < hp.rel_tol:
                converged = True
                break
        previous = value

    return state, FitReport(elbo_trace=trace, iterations_run=len(trace), converged=converged)
