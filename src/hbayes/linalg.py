"""Symmetric positive-definite helpers with diagonal-jitter fallback.

Each helper takes a matrix (d, d) or a stack (..., d, d) and runs one
batched Cholesky.  If that fails, the jitter ladder runs slice by slice,
so only the failing slices are jittered.
"""

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a numerical operation cannot be completed reliably."""


# Jitter escalation: start at 1e-10, multiply by 10 until 1e-6, then give up.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


def _with_jitter(mat, op):
    jitter = 0.0
    while True:
        try:
            return op(mat if jitter == 0.0 else mat + jitter * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_MAX:
                raise NumericalError(
                    "matrix is not positive definite (jitter up to "
                    f"{_JITTER_MAX:g} did not help)"
                ) from None


def _stacked(mat, op):
    mat = np.asarray(mat, dtype=float)
    try:
        return op(mat)
    except np.linalg.LinAlgError:
        out = np.stack([_with_jitter(m, op) for m in mat.reshape(-1, *mat.shape[-2:])])
        return out.reshape(mat.shape[:-2] + out.shape[1:])


def spd_inverse(mat: np.ndarray) -> np.ndarray:
    """Invert an SPD matrix or stack via Cholesky; results are exactly symmetric."""

    def op(m):
        inv_low = np.linalg.inv(np.linalg.cholesky(m))
        inv = np.swapaxes(inv_low, -1, -2) @ inv_low
        return (inv + np.swapaxes(inv, -1, -2)) / 2.0

    return _stacked(mat, op)


def spd_logdet(mat: np.ndarray):
    """Log-determinant of an SPD matrix (a float) or of each slice of a stack."""

    def op(m):
        diag = np.diagonal(np.linalg.cholesky(m), axis1=-2, axis2=-1)
        return 2.0 * np.sum(np.log(diag), axis=-1)

    out = _stacked(mat, op)
    return float(out) if out.ndim == 0 else out
