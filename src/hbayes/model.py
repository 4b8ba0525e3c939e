"""Domain types and probability math for the hierarchical click model.

The generative story: each latent style is a Gaussian vector centered on a
shared mean ``w``; each brand is a Gaussian vector centered on the style it
belongs to (membership drawn from a Dirichlet-distributed proportion vector);
each user is a Gaussian vector centered at zero.  A click on an item with
features ``x``, brand ``b`` and user ``u`` is Bernoulli with probability
``sigmoid(x @ (B_b + U_u))``.  All four precision parameters carry Gamma
priors.

Everything here is a pure function of its inputs.  The evidence lower bound
(``elbo``) is the exact mean-field objective under the quadratic logistic
bound; its term-by-term derivation lives in ``docs/elbo.md``.
"""

import math
from copy import deepcopy
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import pairwise

import numpy as np

from .linalg import NumericalError, spd_logdet

__all__ = [
    "HyperParams",
    "EventRecord",
    "Dataset",
    "GammaPosterior",
    "VariationalState",
    "NumericalError",
    "sigmoid",
    "lambda_of_xi",
    "jj_lower_bound",
    "elbo",
    "elbo_terms",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

# elbo_terms keys of the four Gaussian prior edges, in the order of
# VariationalState.precisions.
_EDGE_TERMS = ("users_prior", "brands_given_styles", "styles_given_w", "w_prior")


# ---------------------------------------------------------------------------
# scalar math
# ---------------------------------------------------------------------------

# digamma and gammaln serve this package only (they are not in __all__), so
# that starting a process does not import scipy.


def _elementwise(scalar_fn):
    """Lift a float -> float function to scalars (giving a float) and arrays."""

    @wraps(scalar_fn)
    def fn(x):
        if np.ndim(x) == 0:
            return scalar_fn(float(x))
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(scalar_fn, x.ravel().tolist()), float, x.size).reshape(x.shape)

    return fn


@_elementwise
def digamma(x):
    """psi(x) for x > 0 (nan otherwise): the recurrence psi(x) = psi(x + 1) - 1/x
    up to x >= 10, then the asymptotic series in 1/x^2 through B_12."""
    if not x > 0:
        return math.nan
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (
        1 / 132 - r * 691 / 32760)))))
    return acc + math.log(x) - 0.5 / x - series


gammaln = _elementwise(math.lgamma)


def sigmoid(v):
    """Logistic function 1 / (1 + exp(-v)); exp(-v) overflows to inf for
    v < -709, giving 0.  Accepts scalars (giving a float) or arrays."""
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))
    return float(out) if np.ndim(v) == 0 else out


def lambda_of_xi(xi):
    """Curvature coefficient of the quadratic logistic bound.

    Equals (sigmoid(xi) - 1/2) / (2 xi) = tanh(xi/2) / (4 xi), a form with
    no cancellation.  Below xi = 1e-8, where 1/8 - xi^2/96 rounds to 1/8,
    it is that limit; the cutoff also keeps subnormal xi, whose half
    underflows to 0, out of the division.  The function is even, so
    negative inputs are folded to |xi|.  Accepts scalars or arrays.
    """
    x = np.abs(np.asarray(xi, dtype=float))
    tiny = x < 1e-8
    safe = np.where(tiny, 1.0, x)
    lam = np.where(tiny, 0.125, np.tanh(0.5 * safe) / (4.0 * safe))
    return float(lam) if np.ndim(xi) == 0 else lam


def _log_bound(h, h2, xi):
    """log of the quadratic lower bound on sigmoid(h) at xi >= 0, given h
    and h^2 (or their expectations): log sigmoid(xi) + (h - xi)/2
    - lambda(xi) (h^2 - xi^2)."""
    return -np.logaddexp(0.0, -xi) + 0.5 * (h - xi) - lambda_of_xi(xi) * (h2 - xi * xi)


def jj_lower_bound(h, xi):
    """Quadratic-exponential lower bound on sigmoid(h), tight at h = +/-xi.

    Returns sigmoid(xi) * exp((h - xi)/2 - lambda(xi) * (h^2 - xi^2)),
    computed in log space.  Even in xi; always <= sigmoid(h).
    """
    h = np.asarray(h, dtype=float)
    out = np.exp(_log_bound(h, h * h, np.abs(np.asarray(xi, dtype=float))))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class HyperParams:
    """Fixed hyper-parameters of the model and the fitting loop.

    gamma0 is the Dirichlet concentration over styles (defaults to 1/S per
    entry); alpha0/beta0 are the shared Gamma shape/rate for the four
    precisions.
    """

    num_styles: int
    feature_dim: int
    gamma0: np.ndarray | None = None
    alpha0: float = 1e-2
    beta0: float = 1e-2
    max_iters: int = 200
    rel_tol: float = 1e-5

    def __post_init__(self):
        if self.num_styles < 1:
            raise ValueError("num_styles must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.gamma0 is None:
            self.gamma0 = np.full(self.num_styles, 1.0 / self.num_styles)
        self.gamma0 = np.asarray(self.gamma0, dtype=float)
        if self.gamma0.shape != (self.num_styles,):
            raise ValueError("gamma0 must have one entry per style")
        if not np.all((self.gamma0 > 0) & (self.gamma0 < math.inf)):
            raise ValueError("gamma0 entries must be positive and finite")
        if not (0 < self.alpha0 < math.inf and 0 < self.beta0 < math.inf):
            raise ValueError("alpha0 and beta0 must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


@dataclass
class EventRecord:
    """One observation: item features, brand index, user index, click label."""

    x: np.ndarray
    brand: int
    user: int
    y: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 1:
            raise ValueError("x must be a 1-d vector")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("x must be finite in every coordinate")
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y!r}")


class Dataset:
    """Events as columns: features ``X`` (N, d), user and brand indices
    ``users`` and ``brands`` (N,) and click labels ``y`` (N,) as floats,
    plus the entity universe sizes.

    Build one with ``Dataset.from_arrays``.  ``Dataset(events, num_users,
    num_brands, feature_dim)`` converts a list of EventRecord to columns
    once, and ``events`` is the reverse view, built on first access.
    ``user_ids`` / ``brand_ids`` optionally record the original string ids
    (index -> id, one distinct string per entity) when the data came from a
    file.  Validation is vectorized and names the first bad event.
    """

    def __init__(self, events, num_users: int, num_brands: int, feature_dim: int,
                 user_ids: list | None = None, brand_ids: list | None = None):
        events = list(events)
        sizes = np.array([e.x.size for e in events], dtype=int)
        _check_events([(sizes != feature_dim,
                        lambda t: f"event {t}: feature length {sizes[t]} != {feature_dim}")])
        X = np.stack([e.x for e in events]) if events else np.zeros((0, feature_dim))
        self._set_columns(X, [e.user for e in events], [e.brand for e in events],
                          [e.y for e in events], num_users, num_brands, user_ids, brand_ids)

    @classmethod
    def from_arrays(cls, X, users, brands, y, num_users: int, num_brands: int,
                    user_ids: list | None = None, brand_ids: list | None = None) -> "Dataset":
        """A dataset over the columns X (N, d), users, brands and y (N,);
        the feature dimension is X.shape[1]."""
        data = cls.__new__(cls)
        data._set_columns(X, users, brands, y, num_users, num_brands, user_ids, brand_ids)
        return data

    def _set_columns(self, X, users, brands, y, num_users, num_brands, user_ids, brand_ids):
        X = np.ascontiguousarray(X, dtype=float)
        users, brands = np.asarray(users), np.asarray(brands)
        if any(a.size and a.dtype.kind not in "iu" for a in (users, brands)):
            raise ValueError("users and brands must be integer indices")
        users, brands = users.astype(int, copy=False), brands.astype(int, copy=False)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or any(a.shape != (len(X),) for a in (users, brands, y)):
            raise ValueError("X must have shape (N, d) and users, brands and y shape (N,)")
        _check_events([
            (~np.isfinite(X).all(axis=1),
             lambda t: f"event {t}: x must be finite in every coordinate"),
            ((y != 0) & (y != 1), lambda t: f"event {t}: label must be 0 or 1, got {y[t]:g}"),
            ((brands < 0) | (brands >= num_brands),
             lambda t: f"event {t}: brand index {brands[t]} out of range"),
            ((users < 0) | (users >= num_users),
             lambda t: f"event {t}: user index {users[t]} out of range"),
        ])
        _check_id_lists(user_ids, brand_ids, num_users, num_brands)
        self.X, self.users, self.brands, self.y = X, users, brands, y
        self.num_users, self.num_brands = num_users, num_brands
        self.feature_dim = X.shape[1]
        self.user_ids, self.brand_ids = user_ids, brand_ids

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, idx) -> "Dataset":
        """The events at ``idx`` (indices or a boolean mask), in that order,
        over the same entities and ids."""
        return Dataset.from_arrays(self.X[idx], self.users[idx], self.brands[idx], self.y[idx],
                                   self.num_users, self.num_brands,
                                   self.user_ids, self.brand_ids)

    @cached_property
    def events(self) -> list:
        """One EventRecord per event; each x is a row view of X."""
        return [EventRecord(x=x, brand=b, user=u, y=y) for x, b, u, y in
                zip(self.X, self.brands.tolist(), self.users.tolist(),
                    self.y.astype(int).tolist())]

    @cached_property
    def user_order(self) -> tuple:
        """(order, bounds): event indices sorted stably by user; user k's
        events are order[bounds[k]:bounds[k + 1]]."""
        return _sort_by_entity(self.users, self.num_users)

    @cached_property
    def brand_order(self) -> tuple:
        """(order, bounds) as in ``user_order``, by brand."""
        return _sort_by_entity(self.brands, self.num_brands)

    @cached_property
    def X_by_user(self) -> np.ndarray:
        """X with its rows in ``user_order``, sorted once."""
        return self.X[self.user_order[0]]

    @cached_property
    def X_by_brand(self) -> np.ndarray:
        """X with its rows in ``brand_order``, sorted once."""
        return self.X[self.brand_order[0]]


def _check_events(checks):
    """Raise ValueError for the first event that fails any of ``checks``,
    (bad mask (N,), message for event t) pairs; at that event the earliest
    failing check in the list gives the message."""
    bad = np.array([mask for mask, _ in checks], dtype=bool).reshape(len(checks), -1)
    failing = np.flatnonzero(bad.any(axis=0))
    if failing.size:
        t = int(failing[0])
        raise ValueError(next(message(t) for mask, message in checks if mask[t]))


def _check_id_lists(user_ids, brand_ids, num_users, num_brands, error=ValueError):
    """Raise ``error`` naming the first id list that is neither None nor one
    distinct string id per entity."""
    for name, ids, count in (("user_ids", user_ids, num_users),
                             ("brand_ids", brand_ids, num_brands)):
        if ids is not None and not (isinstance(ids, list) and len(ids) == count
                                    and all(isinstance(i, str) for i in ids)
                                    and len(set(ids)) == count):
            raise error(f"{name} must be null or a list of {count} distinct string ids")


def _sort_by_entity(keys, num_entities):
    order = np.argsort(keys, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=num_entities))))
    return order, bounds


@dataclass
class GammaPosterior:
    """Gamma factor over a precision, in shape/rate parameterization."""

    shape: float
    rate: float

    def __post_init__(self):
        self.shape = float(self.shape)
        self.rate = float(self.rate)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def mean_log(self) -> float:
        """E[log delta] = digamma(shape) - log(rate)."""
        return float(digamma(self.shape) - np.log(self.rate))

    def entropy(self) -> float:
        a, b = self.shape, self.rate
        return float(a - np.log(b) + gammaln(a) + (1.0 - a) * digamma(a))

    def validate(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ValueError("Gamma shape and rate must be positive and finite")


@dataclass
class VariationalState:
    """All factor parameters of the mean-field posterior, one array set per
    family.  Users and brands carry dense covariances; every style and w
    carries one isotropic variance v standing for v * I."""

    user_mean: np.ndarray  # (U, d)
    user_cov: np.ndarray  # (U, d, d)
    brand_mean: np.ndarray  # (B, d)
    brand_cov: np.ndarray  # (B, d, d)
    style_mean: np.ndarray  # (S, d)
    style_var: np.ndarray  # (S,)
    w_mean: np.ndarray  # (d,)
    w_var: float
    theta_gamma: np.ndarray  # (S,) Dirichlet parameters
    resp: np.ndarray  # (B, S) brand-to-style membership probabilities
    prec_u: GammaPosterior
    prec_b: GammaPosterior
    prec_s: GammaPosterior
    prec_w: GammaPosterior
    xi: np.ndarray  # (N,) per-event bound locations, >= 0

    _ARRAYS = ("user_mean", "user_cov", "brand_mean", "brand_cov", "style_mean", "style_var",
               "w_mean", "theta_gamma", "resp", "xi")

    def __post_init__(self):
        for name in self._ARRAYS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.w_var = float(self.w_var)

    @property
    def num_users(self) -> int:
        return self.user_mean.shape[0]

    @property
    def num_brands(self) -> int:
        return self.brand_mean.shape[0]

    @property
    def num_styles(self) -> int:
        return self.style_mean.shape[0]

    @property
    def dim(self) -> int:
        return self.w_mean.size

    @property
    def precisions(self) -> tuple:
        """The four Gamma factors in edge order: users, brands, styles, w."""
        return self.prec_u, self.prec_b, self.prec_s, self.prec_w

    @property
    def theta_mean_log(self) -> np.ndarray:
        """E[log theta_j] = digamma(gamma_j) - digamma(sum_p gamma_p), shape (S,)."""
        return digamma(self.theta_gamma) - digamma(self.theta_gamma.sum())

    def edge_sq_norms(self) -> list:
        """(n, sq) for each Gaussian edge, in the order of ``precisions``: the
        number n of d-vectors the edge's precision governs and the summed
        E||v - prior mean||^2 over them, the brand terms weighted by resp."""
        d, S = self.dim, self.num_styles
        user_sq = (np.einsum("ud,ud->", self.user_mean, self.user_mean)
                   + np.einsum("kii->", self.user_cov))
        brand_sq = np.sum(self.resp * self.brand_style_sq())
        sw = self.style_mean - self.w_mean[None, :]
        style_sq = np.einsum("sd,sd->", sw, sw) + d * self.style_var.sum() + d * self.w_var * S
        w_sq = self.w_mean @ self.w_mean + d * self.w_var
        return [(self.num_users, float(user_sq)), (self.num_brands, float(brand_sq)),
                (S, float(style_sq)), (1, float(w_sq))]

    def brand_style_sq(self) -> np.ndarray:
        """E[(B_i - S_j)'(B_i - S_j)] for every brand i and style j, shape (B, S)."""
        diff = self.brand_mean[:, None, :] - self.style_mean[None, :, :]
        brand_traces = np.einsum("kii->k", self.brand_cov)
        return (np.einsum("bsd,bsd->bs", diff, diff) + brand_traces[:, None]
                + self.dim * self.style_var[None, :])

    def copy(self) -> "VariationalState":
        return deepcopy(self)

    def validate(self):
        U, B, S, d = self.num_users, self.num_brands, self.num_styles, self.dim
        shapes = {"user_mean": (U, d), "user_cov": (U, d, d), "brand_mean": (B, d),
                  "brand_cov": (B, d, d), "style_mean": (S, d), "style_var": (S,),
                  "theta_gamma": (S,), "resp": (B, S)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        for name in (*self._ARRAYS, "w_var"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for cov in (self.user_cov, self.brand_cov):
            if not np.allclose(cov, np.swapaxes(cov, -1, -2), atol=1e-8, rtol=1e-8):
                raise ValueError("covariance must be symmetric")
            if not np.all(np.linalg.eigvalsh(cov) > 0):
                raise ValueError("covariance must be positive definite")
        if not (np.all(self.style_var > 0) and self.w_var > 0):
            raise ValueError("isotropic variances must be positive")
        if not np.all(self.theta_gamma > 0):
            raise ValueError("theta_gamma entries must be positive")
        if np.any(self.resp < -1e-12) or np.any(self.resp > 1.0 + 1e-12):
            raise ValueError("responsibilities must lie in [0, 1]")
        if B > 0 and not np.allclose(self.resp.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("responsibility rows must sum to 1")
        for p in self.precisions:
            p.validate()
        if np.any(self.xi < 0):
            raise ValueError("xi entries must be non-negative")


# ---------------------------------------------------------------------------
# evidence lower bound
# ---------------------------------------------------------------------------


def event_moments(state: VariationalState, data: Dataset):
    """(m, s2): mean and variance of h_t = x_t'(B + U) under q for every event,
    m_t = x_t'(mu^b + mu^u) and s2_t = x_t' Sigma^b x_t + x_t' Sigma^u x_t.

    Each quadratic form is summed one entity at a time over X sorted by that
    entity (cached on the dataset), so no (N, d, d) covariance stack is built: memory is O(N d).
    """
    X = data.X
    m = (np.einsum("nd,nd->n", X, state.brand_mean[data.brands])
         + np.einsum("nd,nd->n", X, state.user_mean[data.users]))
    s2 = np.zeros(len(data))
    XC = np.empty_like(X)
    for cov, (order, bounds), Xs in ((state.user_cov, data.user_order, data.X_by_user),
                                     (state.brand_cov, data.brand_order, data.X_by_brand)):
        for k, (lo, hi) in enumerate(pairwise(bounds.tolist())):
            np.matmul(Xs[lo:hi], cov[k], out=XC[lo:hi])
        s2[order] += np.einsum("nd,nd->n", XC, Xs)
    return m, s2


def _dirichlet_entropy(gamma: np.ndarray) -> float:
    total = gamma.sum()
    log_b = float(np.sum(gammaln(gamma)) - gammaln(total))
    return log_b + float((total - gamma.size) * digamma(total)) - float(
        np.sum((gamma - 1.0) * digamma(gamma))
    )


def _gaussian_entropy(logdet, d: int):
    return 0.5 * (d * (1.0 + _LOG_2PI) + logdet)


def elbo_terms(state: VariationalState, data: Dataset, hp: HyperParams) -> dict:
    """Named additive pieces of the evidence lower bound.

    Keys cover the bounded likelihood, one cross-entropy per prior edge of
    the hierarchy, and the entropy of every posterior factor; ``elbo`` is
    their sum.  See docs/elbo.md for the derivation of each expectation.
    """
    d = hp.feature_dim
    mu = state.resp
    eln_theta = state.theta_mean_log
    terms = {}

    # Bounded Bernoulli likelihood, expectation under q with xi fixed.
    if len(data) != state.xi.size:
        raise ValueError(f"state has {state.xi.size} xi entries for {len(data)} events")
    # p(y | h) = sigmoid((2y - 1) h); the bound is linear in (2y - 1) h and in
    # its square h^2, whose expectations are (2y - 1) m and m^2 + s2.
    m, s2 = event_moments(state, data)
    terms["likelihood_bound"] = float(np.sum(_log_bound((2.0 * data.y - 1.0) * m,
                                                        m * m + s2, state.xi)))

    # E[log N(v; prior mean, I / delta)] summed over each edge's n d-vectors.
    for name, p, (n, sq) in zip(_EDGE_TERMS, state.precisions, state.edge_sq_norms()):
        terms[name] = 0.5 * d * n * (p.mean_log - _LOG_2PI) - 0.5 * p.mean * sq

    # E[log p(z_i | theta)]
    terms["assignments_given_theta"] = float(np.sum(mu * eln_theta[None, :]))

    # E[log p(theta | gamma0)]
    g0 = hp.gamma0
    terms["theta_prior"] = float(
        gammaln(g0.sum()) - np.sum(gammaln(g0)) + np.sum((g0 - 1.0) * eln_theta)
    )

    # E[log p(delta_* | alpha0, beta0)] for the four precisions.
    a0, b0 = hp.alpha0, hp.beta0
    terms["precision_priors"] = float(sum(
        a0 * np.log(b0) - gammaln(a0) + (a0 - 1.0) * p.mean_log - b0 * p.mean
        for p in state.precisions
    ))

    # Entropies of every q factor.
    terms["entropy_users"] = float(np.sum(_gaussian_entropy(spd_logdet(state.user_cov), d)))
    terms["entropy_brands"] = float(np.sum(_gaussian_entropy(spd_logdet(state.brand_cov), d)))
    terms["entropy_styles"] = float(np.sum(_gaussian_entropy(d * np.log(state.style_var), d)))
    terms["entropy_w"] = _gaussian_entropy(d * np.log(state.w_var), d)
    terms["entropy_theta"] = _dirichlet_entropy(state.theta_gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(mu > 0, mu * np.log(np.where(mu > 0, mu, 1.0)), 0.0)
    terms["entropy_assignments"] = -float(np.sum(plogp))
    terms["entropy_precisions"] = float(sum(p.entropy() for p in state.precisions))

    return terms


def elbo(state: VariationalState, data: Dataset, hp: HyperParams) -> float:
    """Evidence lower bound of the variational posterior on the data.

    Exact expectation of the bounded joint log-density minus the entropy of
    q; the quantity the coordinate-ascent sweep monotonically increases.
    """
    value = float(sum(elbo_terms(state, data, hp).values()))
    if not np.isfinite(value):
        raise NumericalError("ELBO evaluated to a non-finite value")
    return value
