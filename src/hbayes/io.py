"""File formats, feature hashing, and model persistence.

Formats (documented with examples in docs/file_formats.md):

* events: JSON Lines, one object per line with string ``user`` and
  ``brand`` ids, a binary ``y`` label, and a feature array ``x``;
* ground truth sidecar: single JSON document of true latents;
* checkpoint: single canonical JSON document, schema version 2 (version 1
  files, which also store the per-event ``xi``, are still read, without it);
* metrics report: JSON summary of a cross-validation run;
* ELBO trace: two-column CSV ``iteration,elbo``.

All writers emit canonical JSON (sorted keys, compact separators, full
round-trip float precision), so identical inputs produce byte-identical
files.
"""

import array
import itertools
import json
import math
import re
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .inference import FitReport
from .model import (
    _PRECISION_FIELDS,
    Dataset,
    GammaPosterior,
    HyperParams,
    VariationalState,
    _check_id_lists,
    _is_integer,
)

__all__ = [
    "EventParseError",
    "CheckpointError",
    "Checkpoint",
    "load_events",
    "save_events",
    "hash_features",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA_VERSION = 2
# Version 1 is version 2 plus the per-event bound locations under "state.xi".
_READABLE_SCHEMA_VERSIONS = (1, 2)


class EventParseError(ValueError):
    """Raised when an event file cannot be parsed."""


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or violates invariants."""


def _canonical(obj):
    """The canonical JSON text of one value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _pieces(obj):
    """The canonical JSON text of ``obj`` in pieces: strings, and each
    iterator in the document as itself, to be written as it yields."""
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        # json.dumps sorts and converts other keys its own way: such a dict is a leaf.
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + _canonical(key) + ":"
            yield from _pieces(obj[key])
        yield "}"
    elif isinstance(obj, Iterator):
        yield obj
    else:
        yield _canonical(obj)


def save_json(obj, path):
    """Write ``obj`` as canonical JSON: the text of ``json.dumps(obj,
    sort_keys=True, separators=(",", ":"), allow_nan=False)`` and one
    trailing newline.

    The text is streamed to the file: dict keys are written sorted, every
    other value by json.dumps, and an iterator of text (a checkpoint's
    dense factor families) as it yields.  Everything else is encoded before
    the file is opened, so a value json.dumps refuses leaves no file behind.
    """
    pieces = list(_pieces(obj))
    with open(path, "w", encoding="utf-8") as fh:
        for piece in pieces:
            fh.writelines((piece,) if isinstance(piece, str) else piece)
        fh.write("\n")


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


# The one other ValueError json.loads raises for a str: an integer literal past
# Python's limit on integer-string conversion (4300 digits by default).
_TOO_MANY_DIGITS = f"an integer has more than {sys.get_int_max_str_digits()} digits"
# json.loads raises RecursionError for arrays or objects nested past the
# interpreter's recursion limit.
_TOO_DEEP = "nested too deeply"
# json.loads gives exactly these types for JSON numbers; bool is excluded.
_NUMBER_TYPES = frozenset((int, float))
# Event files are decoded with errors="surrogateescape", which turns each byte
# that is not UTF-8 into one of these lone surrogates; UTF-8 text holds none.
_not_utf8 = re.compile("[\udc80-\udcff]").search
# What json.loads skips around a document; str.strip() skips more, so a line
# it blanks may still not be JSON whitespace.
_json_space = re.compile(r"[ \t\n\r]*").match
# What the per-line pass can meet on a line _check_event refuses: a failed decode
# (StopIteration, JSONDecodeError), no object or a missing field (TypeError,
# KeyError), an x array.fromlist refuses (TypeError, OverflowError), deep nesting.
_DOUBT = (StopIteration, ValueError, TypeError, KeyError, OverflowError, RecursionError)


def _all_finite(numbers):
    """True if every JSON number in ``numbers`` is a finite float."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:  # an integer past float range
        return False


def _check_event(lineno, event, d, require_label):
    """Check one event line in full, in the order docs/file_formats.md gives,
    and return its (user, brand, x, y).  ``event`` is the line's text or the
    object it decoded to, ``d`` the length of x on the lines before it (None
    if none).  The first check that fails raises EventParseError naming line
    ``lineno``: every event error is written here."""
    if isinstance(event, str):
        if byte := _not_utf8(event):
            raise EventParseError(f"line {lineno}: invalid UTF-8 (byte {hex(ord(byte[0]) & 0xFF)})")
        try:
            event = json.loads(event)
        except json.JSONDecodeError as err:
            raise EventParseError(f"line {lineno}: invalid JSON ({err.msg})") from None
        except ValueError:
            raise EventParseError(f"line {lineno}: invalid JSON ({_TOO_MANY_DIGITS})") from None
        except RecursionError:
            raise EventParseError(f"line {lineno}: invalid JSON ({_TOO_DEEP})") from None
    if not isinstance(event, dict):
        raise EventParseError(f"line {lineno}: expected a JSON object")
    for key in ("user", "brand", "x") + (("y",) if require_label else ()):
        if key not in event:
            raise EventParseError(f"line {lineno}: missing field {key!r}")
    user, brand, x, y = event["user"], event["brand"], event["x"], event.get("y")
    if not isinstance(user, str) or not isinstance(brand, str):
        raise EventParseError(f"line {lineno}: user and brand must be strings")
    if not isinstance(x, list) or not _NUMBER_TYPES.issuperset(map(type, x)):
        raise EventParseError(f"line {lineno}: x must be an array of numbers")
    if not x:
        raise EventParseError(f"line {lineno}: x must not be empty")
    if not _all_finite(x):
        raise EventParseError(f"line {lineno}: x contains non-finite values")
    if d and len(x) != d:
        raise EventParseError(f"line {lineno}: feature length {len(x)} != {d}")
    if (y is not None or require_label) and (isinstance(y, bool) or y not in (0, 1)):
        raise EventParseError(f"line {lineno}: label y must be 0 or 1, got {y!r}")
    return user, brand, x, y


def _check_rows(users, brands, X, labels, require_label, blanks):
    """Check the columns read at once: string ids, labels 0 or 1 (or None
    for candidates) and a finite x.  On a failure each row goes through
    ``_check_event`` in turn, numbered past the blank lines in ``blanks``."""
    try:
        if ({str}.issuperset(map(type, users)) and {str}.issuperset(map(type, brands))
                and ({0, 1} if require_label else {0, 1, None}).issuperset(labels)
                and np.isfinite([X.min(initial=0.0), X.max(initial=0.0)]).all()):
            return
    except TypeError:  # an unhashable label
        pass
    linenos = (n for n in itertools.count(1) if n not in blanks)
    for lineno, user, brand, x, y in zip(linenos, users, brands, X, labels):
        _check_event(lineno, {"user": user, "brand": brand, "x": x.tolist(), "y": y}, len(x),
                     require_label)


def _read_columns(path, require_label=True):
    """Parse an event-format file into columns: (user ids, brand ids, X (N, d),
    labels), one entry per non-blank line; EventParseError names the first
    faulty line.

    The file is read once, each line decoded once by the scanner behind
    json.loads, and x go into one float64 buffer that becomes X without a
    copy.  Per line only the cheap checks run: the JSON whitespace after the
    object, UTF-8, the length of x, and booleans in x or y (screened by the
    text "true" / "false").  A line that fails one, or raises, goes to
    ``_check_event``.  The rest run over the rows read when the file ends or
    a line is refused, so a row that fails them is named before that line.
    """
    users, brands, labels, blanks = [], [], [], set()
    buf, d, fault = array.array("d"), None, None
    scan = json.JSONDecoder().scan_once
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            try:
                obj, end = scan(line, 0 if line[0] == "{" else _json_space(line).end())
                user, brand, x = obj["user"], obj["brand"], obj["x"]
                y = obj["y"] if require_label else obj.get("y")
                if (line[end:] != "\n" and _json_space(line, end).end() != len(line)
                        or not line.isascii() and _not_utf8(line)
                        or ("true" in line or "false" in line)
                        and (type(y) is bool or bool in map(type, x))):
                    raise ValueError  # hand the line to _check_event
                if len(x) != d:
                    if d is not None or not x:
                        raise ValueError
                    d = len(x)
                buf.fromlist(x)
            except _DOUBT:
                lineno = len(users) + len(blanks) + 1
                if not line.strip():
                    blanks.add(lineno)
                    continue
                # d is this line's own length if it is the first event.
                try:
                    user, brand, x, y = _check_event(lineno, line, d if users else None,
                                                     require_label)
                except EventParseError as err:
                    fault = err
                    break
                buf.fromlist(x)
                d = len(x)
            users.append(user)
            brands.append(brand)
            labels.append(y)
    X = np.frombuffer(buf).reshape(len(users), d or 0)
    _check_rows(users, brands, X, labels, require_label, blanks)
    if fault is not None:
        raise fault
    return users, brands, X, labels


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
    if not (_is_integer(width) and width >= 1):
        raise ValueError(f"width must be an integer >= 1, got {width!r}")
    import hashlib  # here, so that importing hbayes does not load OpenSSL
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
    """A fitted model with everything needed to rank: hyper-parameters,
    state, fit diagnostics and the id dictionaries.  The entity counts are
    the state's.  ``schema_version`` is the version of the file a loaded
    checkpoint came from; saving always writes the current version."""

    hyperparams: HyperParams
    state: VariationalState
    fit_report: FitReport
    user_ids: list | None = None
    brand_ids: list | None = None
    schema_version: int = CHECKPOINT_SCHEMA_VERSION


def _check_checkpoint(ckpt: Checkpoint, num_users, num_brands):
    """Raise CheckpointError unless the state passes its own invariants,
    agrees with the hyper-parameters and with the recorded entity counts,
    and each id list (if any) holds one distinct string id per entity."""
    state, hp = ckpt.state, ckpt.hyperparams
    try:
        state.validate()
    except ValueError as err:
        raise CheckpointError(f"invariant violation: {err}") from None
    if state.num_styles != hp.num_styles or state.dim != hp.feature_dim:
        raise CheckpointError("state dimensions disagree with hyperparams")
    if state.num_users != num_users or state.num_brands != num_brands:
        raise CheckpointError("state dimensions disagree with recorded dimensions")
    _check_id_lists(ckpt.user_ids, ckpt.brand_ids, num_users, num_brands, CheckpointError)


# Covariance entries formatted per slice of factors: this bounds the strings
# alive at once while a dense family is written.
_SLICE_ENTRIES = 4096


def _dense_factor_text(means, covs):
    """The JSON text of a family of factors with dense covariances,
    ``[{"cov": [[...], ...], "mean": [...]}, ...]``, slice by slice from the
    arrays, which must be finite.

    json.dumps writes each float as its repr.  Every fitted covariance equals
    its transpose bit for bit (``spd_inverse`` returns (A + A^T) / 2), so in
    a slice where that holds each upper-triangle entry is formatted once and
    its string stands for the mirror entry too; any other slice formats every
    entry.  The strings of a slice are laid between fixed separators and
    joined once.
    """
    n, d = means.shape
    # Where covariance entry (i, j), row by row, and then mean entry i are
    # found in the upper triangle followed by the mean.
    upper = np.triu_indices(d)
    tri = np.zeros((d, d), dtype=np.intp)
    tri[upper] = np.arange(len(upper[0]))
    from_upper = np.concatenate([np.maximum(tri, tri.T).ravel(), len(upper[0]) + np.arange(d)])
    # The separator before each covariance entry and each mean entry, then "]}".
    seps = np.array([',{"cov":[['] + ["," if e % d else "],[" for e in range(1, d * d)]
                    + [']],"mean":['] + [","] * (d - 1) + ["]}"], dtype=object)
    step = max(1, _SLICE_ENTRIES // (d * d))
    yield "["
    for lo in range(0, n, step):
        cov, mean = covs[lo:lo + step], means[lo:lo + step]
        bits = cov.view(np.uint64)  # bit for bit: -0.0 and 0.0 are written differently
        if np.array_equal(bits, bits.swapaxes(1, 2)):
            cov, take = cov[:, upper[0], upper[1]], from_upper
        else:
            cov, take = cov.reshape(len(cov), d * d), slice(None)
        values = np.concatenate([cov, mean], axis=1)
        strings = np.fromiter(map(repr, values.ravel().tolist()), dtype=object,
                              count=values.size).reshape(values.shape)
        tokens = np.empty((len(mean), 2 * len(seps) - 1), dtype=object)
        tokens[:, 0::2] = seps
        tokens[:, 1::2] = strings[:, take]
        if lo == 0:
            tokens[0, 0] = seps[0][1:]  # no comma before the first factor
        yield "".join(tokens.ravel().tolist())
    yield "]"


def _factors_from_objs(objs, spread, d):
    """Stack a family of factor objects that all store ``spread``."""
    if not all(spread in o for o in objs):
        raise CheckpointError(f"every factor of this family must store {spread!r}")
    if not objs:
        return np.zeros((0, d)), np.zeros((0, d, d) if spread == "cov" else (0,))
    return (np.asarray([o["mean"] for o in objs], dtype=float),
            np.asarray([o[spread] for o in objs], dtype=float))


def _fit_report(obj) -> FitReport:
    """The FitReport a checkpoint's ``fit_report`` object stores, as ``fit``
    writes it: a trace of finite numbers, one sweep per entry, and a boolean
    ``converged``; ValueError otherwise."""
    elbo_trace, iterations_run, converged = (obj["elbo_trace"], obj["iterations_run"],
                                             obj["converged"])
    if not (isinstance(elbo_trace, list) and _NUMBER_TYPES.issuperset(map(type, elbo_trace))
            and _all_finite(elbo_trace)):
        raise ValueError("fit_report.elbo_trace must be a list of finite numbers")
    if type(iterations_run) is not int or iterations_run != len(elbo_trace):
        raise ValueError("fit_report.iterations_run must be the length of elbo_trace")
    if type(converged) is not bool:
        raise ValueError("fit_report.converged must be true or false")
    return FitReport(elbo_trace, converged)


def save_checkpoint(ckpt: Checkpoint, path):
    """Persist a checkpoint as canonical JSON, schema version 2, whatever
    version it was loaded from.

    The state holds q's factors only, no per-event bound locations xi, so
    the file grows with users and brands, not events.  It holds json.dumps
    of the nested document; users and brands are written from their arrays.
    A checkpoint that ``load_checkpoint`` would reject (state invariants,
    dimensions or id lists) raises CheckpointError and nothing is written.
    Saving, loading and saving again produces a byte-identical file.
    """
    state, hp, report = ckpt.state, ckpt.hyperparams, ckpt.fit_report
    _check_checkpoint(ckpt, state.num_users, state.num_brands)
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "hyperparams": asdict(hp) | {"gamma0": hp.gamma0.tolist()},
        "num_users": state.num_users,
        "num_brands": state.num_brands,
        "state": {
            "users": _dense_factor_text(state.user_mean, state.user_cov),
            "brands": _dense_factor_text(state.brand_mean, state.brand_cov),
            "styles": [{"mean": m, "iso_var": v}
                       for m, v in zip(state.style_mean.tolist(), state.style_var.tolist())],
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
    save_json(doc, path)


def load_checkpoint(path) -> Checkpoint:
    """Load and validate a checkpoint; any invariant violation raises
    CheckpointError.

    Reads schema versions 1 and 2.  A version-1 file's ``xi`` is checked
    and dropped: the loaded state is q's factors only, as saved.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CheckpointError(f"invalid JSON: {err.msg}") from None
    except UnicodeDecodeError as err:  # read_text decodes the whole file at once
        raise CheckpointError(f"invalid UTF-8: byte 0x{err.object[err.start]:02x} "
                              f"at offset {err.start}") from None
    except ValueError:
        raise CheckpointError(f"invalid JSON: {_TOO_MANY_DIGITS}") from None
    except RecursionError:
        raise CheckpointError(f"invalid JSON: {_TOO_DEEP}") from None
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version not in _READABLE_SCHEMA_VERSIONS:
        raise CheckpointError(
            f"unsupported schema_version {version!r} (expected 1 or 2)"
        )
    try:
        # Every field is required: a missing or null one is never the default.
        hp_obj = {f.name: doc["hyperparams"][f.name] for f in fields(HyperParams)}
        hp = HyperParams(**hp_obj | {"gamma0": np.asarray(hp_obj["gamma0"], dtype=float)})
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
            resp=np.asarray(s["resp"] if s["resp"] != [] else np.zeros((0, hp.num_styles)),
                            dtype=float),  # no brands: shape (0, S), as for their factors
            **{name: GammaPosterior(**s[name]) for name in _PRECISION_FIELDS},
        )
        if version == 1:  # the per-event xi is checked, then dropped
            xi = np.asarray(s["xi"], dtype=float)
            if not np.all(np.isfinite(xi) & (xi >= 0)):
                raise ValueError("xi entries must be finite and non-negative")
        report = _fit_report(doc["fit_report"])
        ckpt = Checkpoint(hyperparams=hp, state=state, fit_report=report,
                          user_ids=doc.get("user_ids"), brand_ids=doc.get("brand_ids"),
                          schema_version=version)
        num_users, num_brands = doc["num_users"], doc["num_brands"]
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CheckpointError(f"malformed checkpoint: {err}") from None

    _check_checkpoint(ckpt, num_users, num_brands)
    return ckpt


# ---------------------------------------------------------------------------
# other artifacts
# ---------------------------------------------------------------------------


def save_ground_truth(truth, true_precisions, feature_scale, path):
    """Write the generator's ground-truth sidecar JSON: every GroundTruth
    field, the true precisions and the feature scale."""
    doc = {f.name: getattr(truth, f.name).tolist() for f in fields(truth)}
    doc["true_precisions"] = dict(zip(("user", "brand", "style", "w"),
                                      map(float, true_precisions)))
    doc["feature_scale"] = float(feature_scale)
    save_json(doc, path)


def save_trace_csv(trace, path):
    """Write the ELBO trace as ``iteration,elbo`` CSV."""
    lines = ["iteration,elbo"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(trace)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
