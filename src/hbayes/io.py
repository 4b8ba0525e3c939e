"""File formats, feature hashing, and model persistence.

Formats (documented with examples in docs/file_formats.md):

* events: JSON Lines, one object per line with string ``user`` and
  ``brand`` ids, a binary ``y`` label, and a feature array ``x``;
* ground truth sidecar: single JSON document of true latents;
* checkpoint: single canonical JSON document, schema version 2 (version 1
  files, which also store the per-event ``xi``, are still read);
* metrics report: JSON summary of a cross-validation run;
* ELBO trace: two-column CSV ``iteration,elbo``.

All writers emit canonical JSON (sorted keys, compact separators, full
round-trip float precision), so identical inputs produce byte-identical
files.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .inference import FitReport
from .model import (
    Dataset,
    GammaPosterior,
    HyperParams,
    VariationalState,
)

__all__ = [
    "EventParseError",
    "CheckpointError",
    "Checkpoint",
    "CHECKPOINT_SCHEMA_VERSION",
    "load_events",
    "save_events",
    "load_candidates",
    "hash_features",
    "save_checkpoint",
    "load_checkpoint",
    "save_ground_truth",
    "save_json",
    "save_trace_csv",
]

CHECKPOINT_SCHEMA_VERSION = 2
# Version 1 is version 2 plus the per-event bound locations under "state.xi".
_READABLE_SCHEMA_VERSIONS = (1, 2)


class EventParseError(ValueError):
    """Raised when an event file cannot be parsed."""


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or violates invariants."""


def save_json(obj, path):
    """Write ``obj`` as canonical JSON: sorted keys, compact separators, no
    NaN or infinity, one trailing newline."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


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
            yield lineno, obj


# json.loads gives exactly these types for JSON numbers; bool is excluded.
_NUMBER_TYPES = frozenset((int, float))


def _read_columns(path, require_label=True):
    """Parse an event-format file into columns: (user ids, brand ids, X (N, d),
    labels), one entry per non-blank line.

    Each line is checked in turn; the finiteness of x is checked once over
    all rows, and before any later failure is reported, so the first bad
    line is named with the same message as a line-by-line reader would give.
    """
    lines, users, brands, rows, labels = [], [], [], [], []
    try:
        for lineno, obj in _json_lines(path):
            if not isinstance(obj, dict):
                raise EventParseError(f"line {lineno}: expected a JSON object")
            for key in ("user", "brand", "x") + (("y",) if require_label else ()):
                if key not in obj:
                    raise EventParseError(f"line {lineno}: missing field {key!r}")
            user, brand, x = obj["user"], obj["brand"], obj["x"]
            if not isinstance(user, str) or not isinstance(brand, str):
                raise EventParseError(f"line {lineno}: user and brand must be strings")
            if not isinstance(x, list) or not _NUMBER_TYPES.issuperset(map(type, x)):
                raise EventParseError(f"line {lineno}: x must be an array of numbers")
            if not x:
                raise EventParseError(f"line {lineno}: x must not be empty")
            lines.append(lineno)
            rows.append(x)
            if len(x) != len(rows[0]):
                raise EventParseError(
                    f"line {lineno}: feature length {len(x)} != {len(rows[0])}")
            y = obj.get("y")
            if y is not None or require_label:
                if isinstance(y, bool) or y not in (0, 1):
                    raise EventParseError(f"line {lineno}: label y must be 0 or 1, got {y!r}")
            users.append(user)
            brands.append(brand)
            labels.append(y)
    except EventParseError:
        _raise_first_non_finite(rows, lines)  # an earlier non-finite x comes first
        raise
    try:
        X = np.array(rows, dtype=float)
    except OverflowError:  # an integer past float range
        X = None
    if X is None or not np.isfinite(X).all():
        _raise_first_non_finite(rows, lines)
    return users, brands, X, labels


def _raise_first_non_finite(rows, lines):
    """Raise EventParseError for the first row of x that holds a non-finite
    value or an integer too large for a float."""
    for lineno, x in zip(lines, rows):
        try:
            finite = np.isfinite(np.array(x, dtype=float)).all()
        except OverflowError:
            finite = False
        if not finite:
            raise EventParseError(f"line {lineno}: x contains non-finite values")


def load_events(path) -> Dataset:
    """Read a JSON-Lines event file into a Dataset.

    String ids are dictionary-encoded to dense indices in first-seen order;
    the feature dimension is inferred from the first record and enforced on
    the rest.  Malformed input raises EventParseError with the line number.
    """
    users, brands, X, labels = _read_columns(path)
    if not labels:
        raise EventParseError("empty dataset")
    user_index, brand_index = {}, {}
    users = [user_index.setdefault(u, len(user_index)) for u in users]
    brands = [brand_index.setdefault(b, len(brand_index)) for b in brands]
    return Dataset.from_arrays(X, users, brands, labels, len(user_index), len(brand_index),
                               user_ids=list(user_index), brand_ids=list(brand_index))


def save_events(data: Dataset, path):
    """Write a Dataset as JSON Lines; indices become "u<k>"/"b<i>" ids unless
    the dataset carries original string ids."""
    user_ids = data.user_ids or [f"u{k}" for k in range(data.num_users)]
    brand_ids = data.brand_ids or [f"b{i}" for i in range(data.num_brands)]
    with open(path, "w", encoding="utf-8") as fh:
        for x, b, u, y in zip(data.X, data.brands.tolist(), data.users.tolist(),
                              data.y.tolist()):
            obj = {"brand": brand_ids[b], "user": user_ids[u], "x": x.tolist(), "y": int(y)}
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def load_candidates(path):
    """Read candidate items for ranking: same line format as events, ``y``
    optional.  Returns (item, ...) tuples of (index, x, brand_id, user_id),
    each x a row view of one (N, d) array."""
    users, brands, X, _ = _read_columns(path, require_label=False)
    if not users:
        raise EventParseError("empty candidate file")
    return list(zip(range(len(users)), X, brands, users))


# ---------------------------------------------------------------------------
# feature hashing
# ---------------------------------------------------------------------------


def hash_features(tokens, width: int) -> np.ndarray:
    """Signed feature hashing of (name, value) token pairs.

    Each token is rendered as ``name \\x1f value`` and digested with
    BLAKE2b (16-byte digest): bytes 0-7 little-endian pick the bucket
    (mod width), the low bit of byte 8 picks the sign.  Token order does
    not matter; the result is identical across runs and platforms.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    vec = np.zeros(width)
    for name, value in tokens:
        digest = hashlib.blake2b(f"{name}\x1f{value}".encode("utf-8"),
                                 digest_size=16).digest()
        bucket = int.from_bytes(digest[:8], "little") % width
        sign = 1.0 if digest[8] & 1 else -1.0
        vec[bucket] += sign
    return vec


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """A fitted model with everything needed to rank: state, hyper-parameters,
    dataset dimensions, fit diagnostics, and the id dictionaries."""

    schema_version: int
    hyperparams: HyperParams
    state: VariationalState
    num_users: int
    num_brands: int
    fit_report: FitReport
    user_ids: list | None = None
    brand_ids: list | None = None


def _factor_objs(means, spreads, spread):
    """One object per Gaussian factor of a family: its mean and, under the
    key ``spread``, a dense covariance ("cov") or an isotropic variance v
    standing for v * I ("iso_var")."""
    return [{"mean": m, spread: v} for m, v in zip(means.tolist(), spreads.tolist())]


def _factors_from_objs(objs, spread, d):
    """Stack a family of factor objects that all store ``spread``."""
    if not all(spread in o for o in objs):
        raise CheckpointError(f"every factor of this family must store {spread!r}")
    if not objs:
        return np.zeros((0, d)), np.zeros((0, d, d) if spread == "cov" else (0,))
    return (np.asarray([o["mean"] for o in objs], dtype=float),
            np.asarray([o[spread] for o in objs], dtype=float))


def save_checkpoint(state: VariationalState, meta: dict, path):
    """Persist a fitted state as canonical JSON, schema version 2.

    The per-event bound locations ``state.xi`` are not written: they are
    working state of the fit, and ``fit(init=...)`` rebuilds them with
    ``update_xi``, so the file grows with users and brands, not events.
    ``meta`` must provide "hyperparams" (HyperParams), "num_users",
    "num_brands" and "fit_report" (FitReport); "user_ids"/"brand_ids" are
    optional.  Saving, loading and saving again produces a byte-identical
    file.
    """
    hp: HyperParams = meta["hyperparams"]
    report: FitReport = meta["fit_report"]
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "hyperparams": {
            "num_styles": hp.num_styles,
            "feature_dim": hp.feature_dim,
            "gamma0": hp.gamma0.tolist(),
            "alpha0": float(hp.alpha0),
            "beta0": float(hp.beta0),
            "max_iters": hp.max_iters,
            "rel_tol": float(hp.rel_tol),
        },
        "num_users": int(meta["num_users"]),
        "num_brands": int(meta["num_brands"]),
        "state": {
            "users": _factor_objs(state.user_mean, state.user_cov, "cov"),
            "brands": _factor_objs(state.brand_mean, state.brand_cov, "cov"),
            "styles": _factor_objs(state.style_mean, state.style_var, "iso_var"),
            "w": {"mean": state.w_mean.tolist(), "iso_var": float(state.w_var)},
            "theta_gamma": state.theta_gamma.tolist(),
            "resp": state.resp.tolist(),
            "prec_u": {"shape": state.prec_u.shape, "rate": state.prec_u.rate},
            "prec_b": {"shape": state.prec_b.shape, "rate": state.prec_b.rate},
            "prec_s": {"shape": state.prec_s.shape, "rate": state.prec_s.rate},
            "prec_w": {"shape": state.prec_w.shape, "rate": state.prec_w.rate},
        },
        "fit_report": {
            "elbo_trace": [float(v) for v in report.elbo_trace],
            "iterations_run": report.iterations_run,
            "converged": bool(report.converged),
        },
        "user_ids": meta.get("user_ids"),
        "brand_ids": meta.get("brand_ids"),
    }
    save_json(doc, path)


def load_checkpoint(path) -> Checkpoint:
    """Load and validate a checkpoint; any invariant violation raises
    CheckpointError.

    Reads schema versions 1 and 2.  A version-1 file's ``xi`` is checked
    and kept on the state; a version-2 file has none, so the loaded
    ``state.xi`` is empty, shape (0,), and ``fit(init=state)`` rebuilds it.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CheckpointError(f"invalid JSON: {err.msg}") from None
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version not in _READABLE_SCHEMA_VERSIONS:
        raise CheckpointError(
            f"unsupported schema_version {version!r} (expected 1 or 2)"
        )
    try:
        hp_obj = doc["hyperparams"]
        hp = HyperParams(
            num_styles=hp_obj["num_styles"],
            feature_dim=hp_obj["feature_dim"],
            gamma0=np.asarray(hp_obj["gamma0"], dtype=float),
            alpha0=hp_obj["alpha0"],
            beta0=hp_obj["beta0"],
            max_iters=hp_obj["max_iters"],
            rel_tol=hp_obj["rel_tol"],
        )
        s = doc["state"]
        d = hp.feature_dim
        user_mean, user_cov = _factors_from_objs(s["users"], "cov", d)
        brand_mean, brand_cov = _factors_from_objs(s["brands"], "cov", d)
        style_mean, style_var = _factors_from_objs(s["styles"], "iso_var", d)
        (w_mean,), (w_var,) = _factors_from_objs([s["w"]], "iso_var", d)
        state = VariationalState(
            user_mean=user_mean, user_cov=user_cov,
            brand_mean=brand_mean, brand_cov=brand_cov,
            style_mean=style_mean, style_var=style_var,
            w_mean=w_mean, w_var=w_var,
            theta_gamma=np.asarray(s["theta_gamma"], dtype=float),
            resp=np.asarray(s["resp"], dtype=float),
            prec_u=GammaPosterior(**s["prec_u"]),
            prec_b=GammaPosterior(**s["prec_b"]),
            prec_s=GammaPosterior(**s["prec_s"]),
            prec_w=GammaPosterior(**s["prec_w"]),
            xi=np.asarray(s["xi"] if version == 1 else (), dtype=float),
        )
        report = FitReport(
            elbo_trace=list(doc["fit_report"]["elbo_trace"]),
            iterations_run=doc["fit_report"]["iterations_run"],
            converged=doc["fit_report"]["converged"],
        )
        num_users = doc["num_users"]
        num_brands = doc["num_brands"]
        user_ids = doc.get("user_ids")
        brand_ids = doc.get("brand_ids")
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"malformed checkpoint: {err}") from None

    try:
        state.validate()
    except ValueError as err:
        raise CheckpointError(f"invariant violation: {err}") from None
    if state.num_users != num_users or state.num_brands != num_brands:
        raise CheckpointError("state dimensions disagree with recorded dimensions")
    if state.num_styles != hp.num_styles or state.dim != hp.feature_dim:
        raise CheckpointError("state dimensions disagree with hyperparams")

    return Checkpoint(schema_version=version, hyperparams=hp, state=state,
                      num_users=num_users, num_brands=num_brands, fit_report=report,
                      user_ids=user_ids, brand_ids=brand_ids)


# ---------------------------------------------------------------------------
# other artifacts
# ---------------------------------------------------------------------------


def save_ground_truth(truth, true_precisions, feature_scale, path):
    """Write the generator's ground-truth sidecar JSON."""
    prec_u, prec_b, prec_s, prec_w = (float(p) for p in true_precisions)
    doc = {
        "style_vectors": [[float(v) for v in row] for row in truth.style_vectors],
        "brand_vectors": [[float(v) for v in row] for row in truth.brand_vectors],
        "user_vectors": [[float(v) for v in row] for row in truth.user_vectors],
        "style_assignments": [int(v) for v in truth.style_assignments],
        "theta": [float(v) for v in truth.theta],
        "w": [float(v) for v in truth.w],
        "true_precisions": {"user": prec_u, "brand": prec_b, "style": prec_s, "w": prec_w},
        "feature_scale": float(feature_scale),
    }
    save_json(doc, path)


def save_trace_csv(trace, path):
    """Write the ELBO trace as ``iteration,elbo`` CSV."""
    lines = ["iteration,elbo"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(trace)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
