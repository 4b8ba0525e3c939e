"""Shared test fixtures and independent oracles."""

import array
import json
import math
import sys
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from hbayes import (
    Dataset,
    EventRecord,
    GammaPosterior,
    HyperParams,
    VariationalState,
    lambda_of_xi,
    sigmoid,
)
from hbayes.io import CHECKPOINT_SCHEMA_VERSION, EventParseError
from hbayes.linalg import spd_inverse
from hbayes.model import _PRECISION_FIELDS

LOG2PI = float(np.log(2.0 * np.pi))


def make_dataset(rows, num_users, num_brands, feature_dim):
    """rows: iterable of (x, brand, user, y)."""
    events = [EventRecord(x=np.asarray(x, dtype=float), brand=b, user=u, y=y)
              for x, b, u, y in rows]
    return Dataset(events=events, num_users=num_users, num_brands=num_brands,
                   feature_dim=feature_dim)


def event_log_likelihood(e: "EventRecord", brand_mean, user_mean) -> float:
    """Bernoulli log-likelihood of one event at point estimates of the factors.

    h = x @ (brand_mean + user_mean); returns y*log(sigmoid(h)) +
    (1-y)*log(1 - sigmoid(h)) via log1p-style formulas.
    """
    brand_mean = np.asarray(brand_mean, dtype=float)
    user_mean = np.asarray(user_mean, dtype=float)
    if brand_mean.shape != e.x.shape or user_mean.shape != e.x.shape:
        raise ValueError(
            f"dimension mismatch: x has shape {e.x.shape}, means have shapes "
            f"{brand_mean.shape} and {user_mean.shape}"
        )
    h = float(e.x @ (brand_mean + user_mean))
    # log sigmoid(h) = -softplus(-h); log(1 - sigmoid(h)) = -softplus(h)
    return -float(np.logaddexp(0.0, -h)) if e.y == 1 else -float(np.logaddexp(0.0, h))


def random_state(hp, num_users, num_brands, seed):
    """A valid, non-degenerate variational state with random parameters."""
    rng = np.random.default_rng(seed)
    d = hp.feature_dim
    S = hp.num_styles

    def dense_family(n):
        means, covs = np.zeros((n, d)), np.zeros((n, d, d))
        for k in range(n):
            a = rng.standard_normal((d, d))
            covs[k] = a @ a.T + np.eye(d)
            means[k] = rng.standard_normal(d)
        return means, covs

    resp = rng.dirichlet(np.ones(S), size=num_brands)
    user_mean, user_cov = dense_family(num_users)
    brand_mean, brand_cov = dense_family(num_brands)
    style_mean, style_var = np.zeros((S, d)), np.zeros(S)
    for j in range(S):
        style_mean[j] = rng.standard_normal(d)
        style_var[j] = rng.uniform(0.2, 2.0)
    w_mean = rng.standard_normal(d)
    return VariationalState(
        user_mean=user_mean, user_cov=user_cov,
        brand_mean=brand_mean, brand_cov=brand_cov,
        style_mean=style_mean, style_var=style_var,
        w_mean=w_mean, w_var=rng.uniform(0.2, 2.0),
        theta_gamma=rng.uniform(0.5, 3.0, size=S),
        resp=resp,
        prec_u=GammaPosterior(rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)),
        prec_b=GammaPosterior(rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)),
        prec_s=GammaPosterior(rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)),
        prec_w=GammaPosterior(rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)),
    )


def random_xi(num_events, seed):
    """Per-event bound locations drawn uniformly from [0.1, 3), for checks of
    the bound at a fixed xi."""
    return np.random.default_rng(seed).uniform(0.1, 3.0, size=num_events)


def assert_identical(got, want):
    """Assert that two texts (str or bytes) are equal.  On a failure name the
    first differing offset with some context: pytest's own diff of two long
    lines, such as two checkpoints, would take minutes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo = max(at - 30, 0)
    pytest.fail(f"first difference at offset {at} (lengths {len(got)} and {len(want)}): "
                f"{got[lo:at + 30]!r} != {want[lo:at + 30]!r}")


def _json_lines(path):
    """(line number, parsed object) for every non-blank line of a JSON Lines file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise EventParseError(f"line {lineno}: invalid JSON ({err.msg})") from None
            except ValueError:
                raise EventParseError(f"line {lineno}: invalid JSON (an integer has more than "
                                      f"{sys.get_int_max_str_digits()} digits)") from None
            except RecursionError:
                raise EventParseError(f"line {lineno}: invalid JSON (nested too deeply)") from None
            yield lineno, obj


def _all_finite(numbers):
    """True if every JSON number in ``numbers`` is a finite float."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:  # an integer past float range
        return False


def check_columns(path, require_label):
    """Parse an event-format file line by line: each line is checked in full,
    in the order docs/file_formats.md gives, before the next one is read, so
    the first faulty line raises EventParseError.  The reference for
    ``io._read_columns``: the same columns, the same messages.  Reads UTF-8
    only; bytes that are not raise UnicodeDecodeError."""
    users, brands, labels = [], [], []
    buf, d = array.array("d"), 0
    for lineno, obj in _json_lines(path):
        if not isinstance(obj, dict):
            raise EventParseError(f"line {lineno}: expected a JSON object")
        for key in ("user", "brand", "x") + (("y",) if require_label else ()):
            if key not in obj:
                raise EventParseError(f"line {lineno}: missing field {key!r}")
        user, brand, x = obj["user"], obj["brand"], obj["x"]
        if not isinstance(user, str) or not isinstance(brand, str):
            raise EventParseError(f"line {lineno}: user and brand must be strings")
        if not isinstance(x, list) or not {int, float}.issuperset(map(type, x)):
            raise EventParseError(f"line {lineno}: x must be an array of numbers")
        if not x:
            raise EventParseError(f"line {lineno}: x must not be empty")
        if not _all_finite(x):
            raise EventParseError(f"line {lineno}: x contains non-finite values")
        d = d or len(x)
        if len(x) != d:
            raise EventParseError(f"line {lineno}: feature length {len(x)} != {d}")
        y = obj.get("y")
        if y is not None or require_label:
            if isinstance(y, bool) or y not in (0, 1):
                raise EventParseError(f"line {lineno}: label y must be 0 or 1, got {y!r}")
        users.append(user)
        brands.append(brand)
        labels.append(y)
        buf.fromlist(x)
    return users, brands, np.frombuffer(buf).reshape(len(users), d), labels


def _factor_objs(means, spreads, spread):
    """One object per Gaussian factor of a family: its mean and, under the
    key ``spread``, a dense covariance ("cov") or an isotropic variance v
    standing for v * I ("iso_var")."""
    return [{"mean": m, spread: v} for m, v in zip(means.tolist(), spreads.tolist())]


def checkpoint_document(ckpt):
    """The checkpoint as one nested document of Python lists and numbers: the
    reference for ``save_checkpoint``, whose file holds json.dumps of it with
    sorted keys, compact separators and no NaN, plus a newline."""
    state, hp, report = ckpt.state, ckpt.hyperparams, ckpt.fit_report
    return {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "hyperparams": asdict(hp) | {"gamma0": hp.gamma0.tolist()},
        "num_users": state.num_users,
        "num_brands": state.num_brands,
        "state": {
            "users": _factor_objs(state.user_mean, state.user_cov, "cov"),
            "brands": _factor_objs(state.brand_mean, state.brand_cov, "cov"),
            "styles": _factor_objs(state.style_mean, state.style_var, "iso_var"),
            "w": {"mean": state.w_mean.tolist(), "iso_var": float(state.w_var)},
            "theta_gamma": state.theta_gamma.tolist(),
            "resp": state.resp.tolist(),
            **{name: asdict(p) for name, p in zip(_PRECISION_FIELDS, state.precisions)},
        },
        "fit_report": {
            "elbo_trace": [float(v) for v in report.elbo_trace],
            "iterations_run": report.iterations_run,
            "converged": bool(report.converged),
        },
        "user_ids": ckpt.user_ids,
        "brand_ids": ckpt.brand_ids,
    }


def prior_matched_state(hp, num_users, num_brands):
    """Every q factor set to its prior (precisions at the prior mean)."""
    d = hp.feature_dim
    S = hp.num_styles
    prior_var = hp.beta0 / hp.alpha0
    return VariationalState(
        user_mean=np.zeros((num_users, d)),
        user_cov=np.tile(prior_var * np.eye(d), (num_users, 1, 1)),
        brand_mean=np.zeros((num_brands, d)),
        brand_cov=np.tile(prior_var * np.eye(d), (num_brands, 1, 1)),
        style_mean=np.zeros((S, d)),
        style_var=np.full(S, prior_var),
        w_mean=np.zeros(d),
        w_var=prior_var,
        theta_gamma=hp.gamma0.copy(),
        resp=np.tile(hp.gamma0 / hp.gamma0.sum(), (num_brands, 1)),
        prec_u=GammaPosterior(hp.alpha0, hp.beta0),
        prec_b=GammaPosterior(hp.alpha0, hp.beta0),
        prec_s=GammaPosterior(hp.alpha0, hp.beta0),
        prec_w=GammaPosterior(hp.alpha0, hp.beta0),
    )


def reference_update_user(k, state, data, xi):
    """Per-entity user update, (mean, cov), at the bound locations ``xi``: the
    loop reference for ``update_users``."""
    d = data.feature_dim
    e_du = state.prec_u.mean
    idx = np.flatnonzero(data.users == k)
    if idx.size == 0:
        return np.zeros(d), np.eye(d) / e_du

    X = data.X[idx]
    lam = lambda_of_xi(xi[idx])
    precision = e_du * np.eye(d) + 2.0 * (X.T * lam) @ X

    brand_means = state.brand_mean[data.brands[idx]]
    xb = np.einsum("nd,nd->n", X, brand_means)
    coef = data.y[idx] - 0.5 - 2.0 * lam * xb

    cov = spd_inverse(precision)
    return cov @ (X.T @ coef), cov


def reference_update_brand(i, state, data, xi):
    """Per-entity brand update, (mean, cov), at the bound locations ``xi``: the
    loop reference for ``update_brands``."""
    d = data.feature_dim
    e_db = state.prec_b.mean
    mu_row = state.resp[i]
    prior_precision = e_db * mu_row.sum()  # row sums to 1, so this is e_db
    prior_pull = e_db * (mu_row @ state.style_mean)

    idx = np.flatnonzero(data.brands == i)
    if idx.size == 0:
        return prior_pull / prior_precision, np.eye(d) / prior_precision

    X = data.X[idx]
    lam = lambda_of_xi(xi[idx])
    precision = prior_precision * np.eye(d) + 2.0 * (X.T * lam) @ X

    user_means = state.user_mean[data.users[idx]]
    xu = np.einsum("nd,nd->n", X, user_means)
    coef = data.y[idx] - 0.5 - 2.0 * lam * xu

    cov = spd_inverse(precision)
    return cov @ (prior_pull + X.T @ coef), cov


def reference_event_moments(state, data):
    """(m, s2) of every event from gathered (N, d, d) covariance stacks: the
    reference for ``event_moments``."""
    X = data.X
    m = np.einsum("nd,nd->n", X, state.brand_mean[data.brands] + state.user_mean[data.users])
    s2 = (np.einsum("nd,nde,ne->n", X, state.brand_cov[data.brands], X)
          + np.einsum("nd,nde,ne->n", X, state.user_cov[data.users], X))
    return m, s2


def reference_scores(user_id, candidates, state):
    """Per-candidate scoring loop: the reference for the batched scorer.

    Returns (mu, sigma2, prob) lists.  Unknown ids (None or out of range)
    take prior moments: for a user zero mean and variance 1/E[delta_u],
    for a brand the theta-weighted style mean and variance
    1/E[delta_b] + sum_j theta_j var_j, each times the identity.
    """
    d = state.dim
    if user_id is not None and 0 <= user_id < state.num_users:
        user_mean, user_cov = state.user_mean[user_id], state.user_cov[user_id]
    else:
        user_mean, user_cov = np.zeros(d), np.eye(d) / state.prec_u.mean
    weights = state.theta_gamma / state.theta_gamma.sum()
    cold_mean = weights @ state.style_mean
    cold_var = 1.0 / state.prec_b.mean + weights @ state.style_var
    out = ([], [], [])
    for _, x, b in candidates:
        if b is not None and 0 <= b < state.num_brands:
            mu = x @ (state.brand_mean[b] + user_mean)
            s2 = x @ state.brand_cov[b] @ x + x @ user_cov @ x
        else:
            mu = x @ (cold_mean + user_mean)
            s2 = cold_var * (x @ x) + x @ user_cov @ x
        for col, v in zip(out, (mu, s2, sigmoid(mu / np.sqrt(1.0 + np.pi * s2 / 8.0)))):
            col.append(float(v))
    return out


def mc_elbo_cross_terms(state, data, hp, xi, n=100_000, seed=123):
    """Monte Carlo estimates of the expectation terms of the ELBO at the
    bound locations ``xi``.

    Samples all factors from q and averages each log-density group; an
    oracle that is independent of the closed forms in hbayes.model.
    Returns ({term: mean}, {term: standard error}).
    """
    rng = np.random.default_rng(seed)
    d = hp.feature_dim
    U, B, S = state.num_users, state.num_brands, state.num_styles

    theta = rng.dirichlet(state.theta_gamma, size=n)  # (n, S)
    z = np.stack([rng.choice(S, size=n, p=state.resp[i]) for i in range(B)],
                 axis=1) if B else np.zeros((n, 0), dtype=int)
    users = (np.stack([rng.multivariate_normal(m, c, size=n)
                       for m, c in zip(state.user_mean, state.user_cov)], axis=1)
             if U else np.zeros((n, 0, d)))
    brands = (np.stack([rng.multivariate_normal(m, c, size=n)
                        for m, c in zip(state.brand_mean, state.brand_cov)], axis=1)
              if B else np.zeros((n, 0, d)))
    styles = np.stack([m + np.sqrt(v) * rng.standard_normal((n, d))
                       for m, v in zip(state.style_mean, state.style_var)], axis=1)
    w = state.w_mean + np.sqrt(state.w_var) * rng.standard_normal((n, d))
    precs = {name: rng.gamma(p.shape, 1.0 / p.rate, size=n)
             for name, p in (("u", state.prec_u), ("b", state.prec_b),
                             ("s", state.prec_s), ("w", state.prec_w))}

    samples = {}

    if len(data):
        X, bs, us, y = data.X, data.brands, data.users, data.y
        lam = lambda_of_xi(xi)
        logsig = -np.logaddexp(0.0, -xi)
        h = np.einsum("td,ntd->nt", X, brands[:, bs, :] + users[:, us, :])
        samples["likelihood_bound"] = np.sum(
            y[None, :] * h + logsig[None, :] - 0.5 * (h + xi[None, :])
            - lam[None, :] * (h * h - (xi * xi)[None, :]), axis=1)
    else:
        samples["likelihood_bound"] = np.zeros(n)

    db = precs["b"]
    sel = styles[np.arange(n)[:, None], z, :]
    sq = np.sum((brands - sel) ** 2, axis=2)
    samples["brands_given_styles"] = np.sum(
        0.5 * d * (np.log(db)[:, None] - LOG2PI) - 0.5 * db[:, None] * sq, axis=1)

    samples["assignments_given_theta"] = np.sum(
        np.log(theta[np.arange(n)[:, None], z]), axis=1) if B else np.zeros(n)

    ds = precs["s"]
    sq = np.sum((styles - w[:, None, :]) ** 2, axis=2)
    samples["styles_given_w"] = np.sum(
        0.5 * d * (np.log(ds)[:, None] - LOG2PI) - 0.5 * ds[:, None] * sq, axis=1)

    g0 = hp.gamma0
    samples["theta_prior"] = (gammaln(g0.sum()) - gammaln(g0).sum()
                              + np.sum((g0 - 1) * np.log(theta), axis=1))

    du = precs["u"]
    samples["users_prior"] = (0.5 * d * U * (np.log(du) - LOG2PI)
                              - 0.5 * du * np.sum(users ** 2, axis=(1, 2)))

    dw = precs["w"]
    samples["w_prior"] = (0.5 * d * (np.log(dw) - LOG2PI)
                          - 0.5 * dw * np.sum(w ** 2, axis=1))

    samples["precision_priors"] = sum(
        stats.gamma.logpdf(precs[name], hp.alpha0, scale=1.0 / hp.beta0)
        for name in "ubsw")

    means = {k: float(v.mean()) for k, v in samples.items()}
    ses = {k: float(v.std(ddof=1) / np.sqrt(n)) for k, v in samples.items()}
    return means, ses


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Pair-counting adjusted Rand index."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = len(a)
    table = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1

    def choose2(v):
        return v * (v - 1) // 2

    sum_cells = sum(choose2(v) for v in table.values())
    row_tot, col_tot = {}, {}
    for (x, y), v in table.items():
        row_tot[x] = row_tot.get(x, 0) + v
        col_tot[y] = col_tot.get(y, 0) + v
    sum_rows = sum(choose2(v) for v in row_tot.values())
    sum_cols = sum(choose2(v) for v in col_tot.values())
    expected = sum_rows * sum_cols / choose2(n)
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def popularity_scorer_factory(train, hp, seed):
    """Baseline: score a candidate by its brand's training click rate."""
    clicks = np.zeros(train.num_brands)
    counts = np.zeros(train.num_brands)
    for e in train.events:
        counts[e.brand] += 1
        clicks[e.brand] += e.y
    global_rate = clicks.sum() / max(counts.sum(), 1.0)
    rates = np.where(counts > 0, clicks / np.maximum(counts, 1.0), global_rate)

    def score(user_id, candidates):
        return np.array([rates[brand] for _, _, brand in candidates])

    return score
