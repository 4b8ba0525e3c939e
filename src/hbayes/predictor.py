"""Click-probability prediction and top-K ranking from a fitted state."""

import math

import numpy as np

from .model import VariationalState, _is_integer, _sort_by_entity, family_moments, sigmoid

__all__ = [
    "predictive_moments",
    "predict_prob",
    "score_candidates",
    "rank_top_k",
    "brand_prior",
    "user_prior",
]

# Text, which float() and numpy parse as a number ("1"), but which is no id.
_TEXT = (str, bytes, bytearray, np.str_, np.bytes_)
# c: a request whose gathered (n, d, d) covariances would hold at least c
# entries per row of the brand table (n d^2 >= c rows) is scored one product
# per brand instead.  Measured, that path starts to win at 1,850-2,470
# entries per row for d = 10 and at 4,000-4,670 for d = 20.
_GROUPED_ENTRIES_PER_ROW = 3_000


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
    if np.asarray(sigma2).min(initial=0) < 0:  # NaN passes, as does an empty array
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
    or user ids (None, NaN or a whole number out of range) are scored with
    prior moments; a whole number of another type (2.0, np.int64, True)
    indexes the table like the int it equals.  The brand ids are screened
    with one mask, a whole number in [0, B); only a request with some other
    id is searched for fractions and gets the cold-brand prior, appended to
    the brand table as row B.  A short request gathers one brand row per
    candidate with ``take`` for ``predictive_moments``.  From n d^2 >= c
    rows of the brand table on (c = ``_GROUPED_ENTRIES_PER_ROW``), the
    candidates are sorted by brand row, their x are stacked once in that
    order, and ``family_moments`` scores them with one product
    X_b [C_b + C_u | m_b + m_u] per brand present; the two paths agree to
    rounding.  Raises ValueError, checking in this order on both paths, if
    the user id, or the brand id of a candidate (the first one is named),
    is none of these, ±inf and strings ("1" too) included; if the x are
    ragged or not of the state's width ("dimension mismatch"); or if a
    candidate's x is not finite or so large that its score overflows (the
    first one in input order is named).
    """
    B = state.num_brands
    # None reads as NaN, which fails both bounds; text reads as 0.5, no integer.
    uid = math.nan if user_id is None else 0.5 if isinstance(user_id, _TEXT) else float(user_id)
    if not (uid.is_integer() or math.isnan(uid)):
        raise ValueError(f"user id {user_id!r} is not an integer")
    _, xs, brands = zip(*candidates) if candidates else ((), np.zeros((0, state.dim)), ())
    text = not set(_TEXT).isdisjoint(map(type, brands))  # read as for the user id
    ids = np.fromiter((0.5 if isinstance(b, _TEXT) else b for b in brands) if text else brands,
                      float, len(brands))
    known = (ids >= 0) & (ids < B) & (np.floor(ids) == ids)
    brand_mean, brand_cov = state.brand_mean, state.brand_cov
    if known.all():
        rows = ids.astype(np.intp)
    else:
        whole = np.isnan(ids) | np.isfinite(ids) & (np.floor(ids) == ids)
        if not whole.all():  # a fraction would be truncated to a brand row
            i = int(np.argmin(whole))
            raise ValueError(f"candidate {i}: brand id {brands[i]!r} is not an integer")
        # Some id is cold: gathering from the table plus a prior row B is
        # cheaper than writing the prior over the gathered cold rows.
        prior_mean, prior_cov = brand_prior(state)
        brand_mean = np.concatenate([brand_mean, prior_mean[None]])
        brand_cov = np.concatenate([brand_cov, prior_cov[None]])
        rows = np.where(known, ids, B).astype(np.intp)
    if 0 <= uid < state.num_users:
        user_mean, user_cov = state.user_mean[int(uid)], state.user_cov[int(uid)]
    else:
        user_mean, user_cov = user_prior(state)
    n, d = len(rows), state.dim
    grouped = n * d * d >= _GROUPED_ENTRIES_PER_ROW * len(brand_mean)
    if grouped:  # x stacked once, in brand order; any other shape takes the gather
        order, bounds = _sort_by_entity(rows, len(brand_mean))
        X = np.array([xs[i] for i in order.tolist()], dtype=float)
        grouped = X.shape == (n, d)
    if grouped:
        with np.errstate(over="ignore", invalid="ignore"):  # NaN is refused below
            mu, sigma2 = family_moments(brand_mean + user_mean, brand_cov + user_cov,
                                        (order, bounds, X))
            prob = predict_prob(mu, sigma2)
    else:
        mu, sigma2 = predictive_moments(np.array(xs, dtype=float), brand_mean.take(rows, 0),
                                        brand_cov.take(rows, 0), user_mean, user_cov)
        prob = predict_prob(mu, sigma2)
    # A non-finite x, or one whose moments overflow, gives a NaN probability.
    finite = np.isfinite(prob)
    if not finite.all():
        raise ValueError(f"candidate {int(np.argmin(finite))}: x is not finite "
                         f"or too large to score")
    return mu, sigma2, prob


def rank_top_k(user_id, candidates, state: VariationalState, k: int):
    """Top-K candidates for a user by click probability.

    ``candidates`` is an iterable of (item_id, x, brand_id).  Ids follow
    ``score_candidates``: unknown ones (None, NaN or out of range) are
    scored with prior moments, and one that is not a whole number, or is a
    string, raises ValueError, as does a ``k`` that is not an integer >= 1
    (2.0 and True included).  Ties are broken by ascending item id, so the
    output is independent of the candidate input order.
    """
    if not _is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = list(candidates)
    prob = score_candidates(user_id, candidates, state)[2]
    if k >= len(prob):
        return by_score([c[0] for c in candidates], prob.tolist())[:k]
    # Every member of the top k scores at least the k-th largest value, so
    # sorting only those candidates gives the same k pairs, ties included.
    keep = np.nonzero(prob >= np.partition(prob, -k)[-k])[0]
    return by_score([candidates[i][0] for i in keep.tolist()], prob[keep].tolist())[:k]


def by_score(items, scores) -> list:
    """(item, score) pairs by descending score, ties broken by ascending item
    id, so the order does not depend on the input order."""
    return sorted(zip(items, scores), key=lambda pair: (-pair[1], pair[0]))
