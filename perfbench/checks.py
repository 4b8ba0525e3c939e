"""Correctness checks computed apart from hbayes.

Checkpoints are read as plain JSON and every probability is recomputed
with numpy here, so a fault in hbayes cannot hide itself.  Each check
returns a list of error strings; an empty list means the output passed.
"""

import math

import numpy as np

# Relative tolerance for a returned probability against the recomputed one.
PROB_RTOL = 1e-9
# Largest ELBO drop between sweeps, relative to |ELBO|, that CAVI allows.
ELBO_DROP_RTOL = 1e-9


def probit_sigmoid(mu, sigma2):
    """sigmoid(mu / sqrt(1 + pi sigma2 / 8))."""
    return 1.0 / (1.0 + np.exp(-mu / np.sqrt(1.0 + np.pi * sigma2 / 8.0)))


def check_trace(elbos, budget):
    """The ELBO trace has 1..budget entries, all finite, and never falls."""
    errors = []
    if not 1 <= len(elbos) <= budget:
        errors.append(f"ELBO trace has {len(elbos)} entries, budget {budget}")
    if not all(math.isfinite(v) for v in elbos):
        errors.append("ELBO trace has a non-finite entry")
    for t in range(1, len(elbos)):
        drop = elbos[t - 1] - elbos[t]
        if drop > ELBO_DROP_RTOL * abs(elbos[t]):
            errors.append(f"ELBO falls by {drop:.6g} at sweep {t}")
    return errors


class Model:
    """The parts of a checkpoint that ranking uses, as numpy arrays."""

    def __init__(self, doc):
        s = doc["state"]
        self.user_mean = np.array([g["mean"] for g in s["users"]], dtype=float)
        self.user_cov = np.array([g["cov"] for g in s["users"]], dtype=float)
        self.brand_mean = np.array([g["mean"] for g in s["brands"]], dtype=float)
        self.brand_cov = np.array([g["cov"] for g in s["brands"]], dtype=float)
        style_mean = np.array([g["mean"] for g in s["styles"]], dtype=float)
        theta = np.asarray(s["theta_gamma"], dtype=float)
        self.mixture_mean = (theta / theta.sum()) @ style_mean
        self.user_index = {u: i for i, u in enumerate(doc["user_ids"])}
        self.brand_index = {b: i for i, b in enumerate(doc["brand_ids"])}


def check_checkpoint(doc):
    """Every mean is finite and every dense covariance has a Cholesky factor."""
    errors = []
    s = doc["state"]
    factors = [("user", g) for g in s["users"]] + [("brand", g) for g in s["brands"]] \
        + [("style", g) for g in s["styles"]] + [("w", s["w"])]
    for kind, g in factors:
        if not np.all(np.isfinite(np.asarray(g["mean"], dtype=float))):
            errors.append(f"{kind} mean is not finite")
        if "cov" in g:
            try:
                np.linalg.cholesky(np.asarray(g["cov"], dtype=float))
            except np.linalg.LinAlgError:
                errors.append(f"{kind} covariance is not positive definite")
    return errors


def check_shape(ranking, items, k):
    """min(k, C) distinct candidates, probabilities non-increasing, ties by id."""
    errors = []
    if len(ranking) != min(k, len(items)):
        errors.append(f"{len(ranking)} items returned, expected {min(k, len(items))}")
    ids = [item for item, _ in ranking]
    if len(set(ids)) != len(ids) or not set(ids) <= set(items):
        errors.append("ranking holds an item twice or one not among the candidates")
    for (a, pa), (b, pb) in zip(ranking, ranking[1:]):
        if pb > pa or (pb == pa and b < a):
            errors.append(f"items {a} and {b} are out of order")
    return errors


def check_scores(model, req, ranking, pool_x, pool_brand):
    """Returned probabilities against the checkpoint.

    Known user and known brand: equal to the probit shortcut within
    PROB_RTOL, and no such candidate left out scores above the k-th item.
    Unseen user or cold brand: only what holds for any prior variance, a
    probability strictly inside (0, 1) that exceeds 1/2 exactly when
    x . (brand mean + user mean) > 0, with the theta-weighted style mean
    standing in for a cold brand and 0 for an unseen user.
    """
    errors = []
    u = model.user_index.get(req["user"])
    user_mean = model.user_mean[u] if u is not None else np.zeros(pool_x.shape[1])
    items = np.asarray(req["items"])
    b = np.array([model.brand_index.get(pool_brand[i], -1) for i in items])
    X = pool_x[items]
    known = b >= 0
    brand_mean = np.where(known[:, None], model.brand_mean[b], model.mixture_mean)
    mu = np.einsum("nd,nd->n", X, brand_mean + user_mean)

    exact = {}
    if u is not None and known.any():
        cov = model.brand_cov[b[known]] + model.user_cov[u]
        sigma2 = np.einsum("nd,nde,ne->n", X[known], cov, X[known])
        exact = dict(zip(items[known].tolist(), probit_sigmoid(mu[known], sigma2)))
    sign = dict(zip(items.tolist(), mu > 0))

    for item, p in ranking:
        if item in exact:
            if abs(p - exact[item]) > PROB_RTOL * abs(exact[item]):
                errors.append(f"item {item}: probability {p!r}, recomputed {exact[item]!r}")
        elif not 0.0 < p < 1.0:
            errors.append(f"item {item}: probability {p!r} outside (0, 1)")
        elif (p > 0.5) != sign.get(item, p > 0.5):
            errors.append(f"item {item}: probability {p!r} disagrees with the mean's sign")
    if ranking and exact:
        returned = {item for item, _ in ranking}
        floor = ranking[-1][1]
        for item, p in exact.items():
            if item not in returned and p > floor * (1.0 + PROB_RTOL):
                errors.append(f"item {item} left out with {p!r} above the k-th {floor!r}")
    return errors


def ndcg(ranked, gain, k):
    """NDCG@k of a ranked id list, gains taken from ``gain`` (id -> value)."""
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    dcg = sum(gain[i] * discounts[r] for r, i in enumerate(ranked[:k]))
    ideal = sorted(gain.values(), reverse=True)[:k]
    best = float(np.dot(ideal, discounts[:len(ideal)]))
    return dcg / best if best > 0 else 0.0
