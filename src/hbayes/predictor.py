"""Click-probability prediction and top-K ranking from a fitted state."""

from dataclasses import dataclass

import numpy as np

from .model import VariationalState, sigmoid

__all__ = [
    "PredictionScore",
    "predictive_moments",
    "predict_prob",
    "score_candidate",
    "score_candidates",
    "rank_top_k",
    "by_score",
    "brand_prior",
    "user_prior",
]


@dataclass
class PredictionScore:
    """Predictive mean/variance of the linear score and the click probability."""

    mu: float
    sigma2: float
    prob: float

    def validate(self):
        if self.sigma2 < 0:
            raise ValueError("predictive variance must be non-negative")
        if not 0.0 < self.prob < 1.0:
            raise ValueError("click probability must lie strictly inside (0, 1)")
        if (self.prob == 0.5) != (self.mu == 0.0):
            raise ValueError("probability 0.5 must coincide with zero mean")


def predictive_moments(X, brand_mean, brand_cov, user_mean, user_cov):
    """Mean and variance of x @ (B + U) under independent Gaussian factors.

    X and ``brand_mean`` are (..., d) and ``brand_cov`` is (..., d, d), one
    brand per row of X; the user moments are one user's, (d,) and (d, d).
    The variance is x'C_b x + x'C_u x: one batched vector-matrix product
    for the brand term and one matrix product for the user term, so no
    (..., d, d) sum of covariances is formed.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[-1]
    if (np.shape(brand_mean) != X.shape or np.shape(brand_cov) != X.shape + (d,)
            or np.shape(user_mean) != (d,) or np.shape(user_cov) != (d, d)):
        raise ValueError(
            f"dimension mismatch: x has shape {X.shape}, brand moments have shapes "
            f"{np.shape(brand_mean)} and {np.shape(brand_cov)}, user moments "
            f"{np.shape(user_mean)} and {np.shape(user_cov)}"
        )
    mu = np.einsum("...d,...d->...", X, brand_mean + user_mean)
    XC = (X[..., None, :] @ brand_cov)[..., 0, :] + X @ user_cov
    return mu, np.einsum("...d,...d->...", XC, X)


def predict_prob(mu, sigma2):
    """Expected sigmoid of a Gaussian score via the probit-style shortcut.

    Returns sigmoid(mu / sqrt(1 + pi * sigma2 / 8)); exact at sigma2 = 0.
    Accepts scalars or arrays.
    """
    if np.any(np.asarray(sigma2) < 0):
        raise ValueError("sigma2 must be non-negative")
    return sigmoid(mu / np.sqrt(1.0 + np.pi * sigma2 / 8.0))


def brand_prior(state: VariationalState):
    """(mean (d,), cov (d, d)) used to score an item from a brand unseen in
    training.

    Mean is the proportion-weighted style mean; covariance is the brand
    noise 1/E[delta_b] * I plus the proportion-weighted style covariances.
    """
    weights = state.theta_gamma / state.theta_gamma.sum()
    var = 1.0 / state.prec_b.mean + float(weights @ state.style_var)
    return weights @ state.style_mean, var * np.eye(state.dim)


def user_prior(state: VariationalState):
    """(mean, cov) for a user unseen in training: zero mean, prior spread."""
    return np.zeros(state.dim), np.eye(state.dim) / state.prec_u.mean


def score_candidates(user_id, candidates, state: VariationalState):
    """Score a batch of items for one user; returns (mu, sigma2, prob) arrays.

    ``candidates`` is a sequence of (item_id, x, brand_id).  Unknown brand
    or user ids (None or out of range) are scored with prior moments.  Every
    candidate takes its brand moments from one gather; only when a request
    holds a cold id is the cold-brand prior computed and appended to the
    brand table as row B.  Raises ValueError naming the first candidate
    whose x is not finite or so large that its score overflows.
    """
    B = state.num_brands
    _, xs, brands = zip(*candidates) if candidates else ((), np.zeros((0, state.dim)), ())
    X = np.array(xs, dtype=float)
    ids = np.array(brands, dtype=float)  # None -> NaN, which fails both bounds
    cold = ~((ids >= 0) & (ids < B))
    brand_mean, brand_cov = state.brand_mean, state.brand_cov
    if cold.any():
        # Gathering from the table plus a prior row B is cheaper than writing
        # the prior over the gathered cold rows when lists are long.
        prior_mean, prior_cov = brand_prior(state)
        brand_mean = np.concatenate([brand_mean, prior_mean[None]])
        brand_cov = np.concatenate([brand_cov, prior_cov[None]])
    rows = np.where(cold, B, ids).astype(np.intp)
    brand_mean, brand_cov = brand_mean[rows], brand_cov[rows]
    if user_id is not None and 0 <= user_id < state.num_users:
        user_mean, user_cov = state.user_mean[user_id], state.user_cov[user_id]
    else:
        user_mean, user_cov = user_prior(state)
    mu, sigma2 = predictive_moments(X, brand_mean, brand_cov, user_mean, user_cov)
    prob = predict_prob(mu, sigma2)
    # A non-finite x, or one whose moments overflow, gives a NaN probability.
    finite = np.isfinite(prob)
    if not finite.all():
        raise ValueError(f"candidate {int(np.argmin(finite))}: x is not finite "
                         f"or too large to score")
    return mu, sigma2, prob


def score_candidate(user_id, x, brand_id, state: VariationalState) -> PredictionScore:
    """Score one (user, item) pair; unknown ids fall back to prior moments."""
    mu, sigma2, prob = score_candidates(user_id, [(None, x, brand_id)], state)
    return PredictionScore(mu=float(mu[0]), sigma2=float(sigma2[0]), prob=float(prob[0]))


def rank_top_k(user_id, candidates, state: VariationalState, k: int):
    """Top-K candidates for a user by click probability.

    ``candidates`` is an iterable of (item_id, x, brand_id).  Unknown brand
    or user ids (None or out of range) are scored with prior moments.  Ties
    are broken by ascending item id, so the output is independent of the
    candidate input order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = list(candidates)
    prob = score_candidates(user_id, candidates, state)[2]
    # Every member of the top k scores at least the k-th largest value, so
    # sorting only those candidates gives the same k pairs, ties included.
    keep = (np.flatnonzero(prob >= np.partition(prob, -k)[-k]) if k < len(prob)
            else np.arange(len(prob)))
    return by_score([candidates[i][0] for i in keep], prob[keep].tolist())[:k]


def by_score(items, scores) -> list:
    """(item, score) pairs by descending score, ties broken by ascending item
    id, so the order does not depend on the input order."""
    return sorted(zip(items, scores), key=lambda pair: (-pair[1], pair[0]))
