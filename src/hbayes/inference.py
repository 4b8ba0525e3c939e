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
    _elbo_sum,
    _elbo_terms,
    event_moments,
    family_moments,
    lambda_of_xi,
    update_xi,
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
    converged: bool

    @property
    def iterations_run(self) -> int:
        """Sweeps run: one ELBO per sweep."""
        return len(self.elbo_trace)


def initial_state(data: Dataset, hp: HyperParams, seed: int) -> VariationalState:
    """Seeded starting point for the coordinate-ascent loop.

    User and brand means start as small random vectors (scale 0.01), style
    means slightly larger (scale 0.1) to break the style symmetry, all
    covariances at identity scale, responsibilities and Dirichlet
    parameters at 1/S, and Gamma posteriors at their priors.
    """
    rng = np.random.default_rng(seed)
    d = hp.feature_dim
    U, B, S = data.num_users, data.num_brands, hp.num_styles

    user_mean = 0.01 * rng.standard_normal((U, d))
    brand_mean = 0.01 * rng.standard_normal((B, d))
    style_mean = 0.1 * rng.standard_normal((S, d))

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
        resp=np.full((B, S), 1.0 / S),
        prec_u=GammaPosterior(hp.alpha0, hp.beta0),
        prec_b=GammaPosterior(hp.alpha0, hp.beta0),
        prec_s=GammaPosterior(hp.alpha0, hp.beta0),
        prec_w=GammaPosterior(hp.alpha0, hp.beta0),
    )


def update_responsibilities(state: VariationalState) -> np.ndarray:
    """Brand-to-style membership probabilities (the E-step).

    log rho_{ij} = E[log theta_j] + (d/2) E[log delta_b] - (d/2) log 2pi
    - (1/2) E[delta_b] * E[(B_i - S_j)'(B_i - S_j)]; each row is normalized
    with a softmax shifted by its maximum.
    """
    log_rho = (state.theta_mean_log[None, :]
               + 0.5 * state.dim * (state.prec_b.mean_log - _LOG_2PI)
               - 0.5 * state.prec_b.mean * state.brand_style_sq())
    with np.errstate(invalid="ignore"):
        rho = np.exp(log_rho - log_rho.max(axis=1, keepdims=True))
        mu = rho / rho.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(mu)):
        raise NumericalError("responsibilities are not finite after normalization")
    return mu


def update_theta(resp: np.ndarray, hp: HyperParams) -> np.ndarray:
    """Dirichlet parameters: prior concentration plus responsibility column sums."""
    return hp.gamma0 + resp.sum(axis=0)


def update_users(state: VariationalState, data: Dataset, lam, brand_proj):
    """(mean (U, d), cov (U, d, d)) of every user given current brands,
    precisions and xi: ``lam`` is lambda_of_xi(xi) and ``brand_proj``
    each event's x'mu of its brand, ``family_moments(state.brand_mean,
    state.brand_cov, data.by_brand)[0]``."""
    return _update_family(np.full(state.num_users, state.prec_u.mean), 0.0, lam, brand_proj,
                          data.by_user, data)


def update_brands(state: VariationalState, data: Dataset, lam, user_proj):
    """(mean (B, d), cov (B, d, d)) of every brand; the style mixture acts
    as their prior.  ``lam`` is as in ``update_users`` and ``user_proj``
    each event's x'mu of its user, ``family_moments(state.user_mean,
    state.user_cov, data.by_user)[0]``."""
    e_db, mu = state.prec_b.mean, state.resp
    return _update_family(e_db * mu.sum(axis=1),  # rows sum to 1, so this is e_db
                          e_db * (mu @ state.style_mean), lam, user_proj, data.by_brand, data)


def _update_family(prior_prec, prior_pull, lam, other_proj, grouping, data):
    """Joint update of all users or all brands: entity k gets precision
    prior_prec[k] I + 2 sum lam x x' and mean cov (prior_pull[k] + sum x c)
    over its events, with c = y - 1/2 - 2 lam x'm and x'm = ``other_proj``
    the event's projection on its other family's mean.  ``grouping`` is
    ``data.by_user`` or ``data.by_brand``: (order, bounds, X sorted by order)."""
    order, bounds, X = grouping
    d = data.feature_dim
    coef = data.y - 0.5 - 2.0 * lam * other_proj
    # One product per entity gives [2 sum lam x x' | sum x c] with no (N, d, d) buffer.
    Z = np.empty((len(order), d + 1))
    np.multiply(X, 2.0 * lam[order, None], out=Z[:, :d])
    Z[:, d] = coef[order]
    sums = np.zeros((len(prior_prec), d, d + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # spd_inverse refuses non-finite sums
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


def cavi_sweep(state: VariationalState, data: Dataset, hp: HyperParams, xi: np.ndarray):
    """One full coordinate-ascent sweep from ``state`` and the bound locations
    ``xi`` (N,); returns (new state, its xi, their ELBO terms).

    Later updates within the sweep see the values produced by earlier ones.
    Members of one family (all users, all brands, ...) are mutually
    independent given the rest, so each family is updated in one pass.
    No update writes into its input, so a shallow copy is enough: by the end
    of the sweep every field holds a fresh value.  Every per-event pass is a
    ``family_moments`` call, each family's right after its update; their sum,
    as in ``event_moments``, sets the new xi and the returned ``elbo_terms``.  The
    brand call that feeds the user update repeats the previous sweep's last.
    """
    work = replace(state)
    work.resp = update_responsibilities(work)
    work.theta_gamma = update_theta(work.resp, hp)
    lam = lambda_of_xi(xi)
    work.user_mean, work.user_cov = update_users(
        work, data, lam, family_moments(work.brand_mean, work.brand_cov, data.by_brand)[0])
    m, s2 = family_moments(work.user_mean, work.user_cov, data.by_user)
    work.brand_mean, work.brand_cov = update_brands(work, data, lam, m)
    brand_m, brand_s2 = family_moments(work.brand_mean, work.brand_cov, data.by_brand)
    work.style_mean, work.style_var = update_styles(work)
    work.w_mean, work.w_var = update_w(work)
    work.prec_u, work.prec_b, work.prec_s, work.prec_w = update_precisions(work, hp)
    m += brand_m
    s2 += brand_s2
    xi = update_xi(m, s2)
    return work, xi, _elbo_terms(work, data, hp, m, s2, xi)


def fit(data: Dataset, hp: HyperParams, seed: int = 0,
        init: VariationalState | None = None, restarts: int = 1):
    """Run coordinate ascent until the ELBO stabilizes.

    Returns (state, FitReport).  The ascent runs from each start state and
    the one with the highest final ELBO wins.  Without ``init`` the start
    states are ``restarts`` >= 1 seeded initializations (seeds seed, seed +
    100, ...): mixture-style models converge to local optima, so a few
    restarts are cheap insurance.  With ``init`` the one start state is a
    copy of its factors, whether fitted on other events or loaded from a
    checkpoint.  Each start's bound locations xi go to the ascent beside
    it: 1 for a seeded start, ``update_xi(*event_moments(init, data))``
    for an ``init``.
    ``restarts`` < 1, or > 1 with an ``init``, raises ValueError, as does
    an ``hp.feature_dim`` other than the data's, or an ``init`` whose user,
    brand or style count or dimension differs from ``data`` and ``hp``.
    Deterministic given the seed.
    Stops when |ELBO change| / (|ELBO| + 1e-12) < hp.rel_tol or after
    hp.max_iters sweeps; a sweep that lowers the ELBO by more than
    1e-9 |ELBO| raises NumericalError.
    """
    if len(data) == 0:
        raise ValueError("training data must contain at least one event")
    if restarts < 1 or (init is not None and restarts > 1):
        raise ValueError(f"restarts must be >= 1, and 1 with an init state; got {restarts}")
    sizes = [(hp.feature_dim, data.feature_dim, "hp.feature_dim is {} but the data has dimension {}")]
    if init is not None:
        sizes += [(init.num_users, data.num_users, "init has {} users but the data has {}"),
                  (init.num_brands, data.num_brands, "init has {} brands but the data has {}"),
                  (init.num_styles, hp.num_styles, "init has {} styles but hp.num_styles is {}"),
                  (init.dim, hp.feature_dim, "init has dimension {} but hp.feature_dim is {}")]
    for got, want, message in sizes:
        if got != want:
            raise ValueError(message.format(got, want))
    if init is None:
        starts = [(initial_state(data, hp, seed + 100 * r), np.ones(len(data)))
                  for r in range(restarts)]
    else:  # xi starts at the exact maximizer for the init's factors on these events
        starts = [(init.copy(), update_xi(*event_moments(init, data)))]
    runs = []
    while starts:  # popped, so that no start state outlives its first sweep
        runs.append(_ascend(*starts.pop(0), data, hp))
    return max(runs, key=lambda run: run[1].elbo_trace[-1] if run[1].elbo_trace else -np.inf)


def _ascend(state: VariationalState, xi: np.ndarray, data: Dataset, hp: HyperParams):
    """(final state, FitReport) of the sweeps from ``state`` and ``xi`` as ``fit`` stops them."""
    trace = []
    converged = False
    previous = None
    for sweep_idx in range(hp.max_iters):
        try:
            state, xi, terms = cavi_sweep(state, data, hp, xi)
            value = _elbo_sum(terms)
        except NumericalError as err:
            raise NumericalError(f"sweep {sweep_idx}: {err}") from err
        trace.append(value)
        if previous is not None:
            if value < previous - 1e-9 * abs(previous):  # every update is a maximizer
                raise NumericalError(f"sweep {sweep_idx}: ELBO fell from {previous} "
                                     f"to {value}")
            if abs(value - previous) / (abs(value) + 1e-12) < hp.rel_tol:
                converged = True
                break
        previous = value
    return state, FitReport(elbo_trace=trace, converged=converged)
