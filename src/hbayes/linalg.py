"""Symmetric positive-definite helpers with diagonal-jitter fallback.

Each helper takes a matrix (d, d) or a stack (..., d, d) and reads one
Cholesky factor from ``_cholesky``: a batched factorization, and only if
that fails a per-slice one, where only the failing slices are jittered.
"""

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a numerical operation cannot be completed reliably."""


# Jitter escalation: start at 1e-10, multiply by 10 until 1e-6, then give up.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


def _cholesky(mat) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix or of each slice of a stack."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {mat.shape}")
    if not np.isfinite(mat).all():  # Cholesky passes inf and NaN on without a LinAlgError
        raise NumericalError("matrix has non-finite entries")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        slices = mat.reshape(-1, *mat.shape[-2:])
        return np.stack([_jittered_cholesky(m) for m in slices]).reshape(mat.shape)


def _jittered_cholesky(m):
    """Factor of one matrix plus the first jitter of the ladder that factorizes."""
    jitter = 0.0
    while jitter <= _JITTER_MAX:
        try:
            return np.linalg.cholesky(m if jitter == 0.0 else m + jitter * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            jitter = jitter * 10.0 if jitter else _JITTER_START
    raise NumericalError(f"matrix is not positive definite (jitter up to {_JITTER_MAX:g} "
                         "did not help)")


def spd_inverse(mat: np.ndarray) -> np.ndarray:
    """Invert an SPD matrix or stack via Cholesky; results are exactly symmetric."""
    inv_low = np.linalg.inv(_cholesky(mat))
    inv = np.swapaxes(inv_low, -1, -2) @ inv_low
    return (inv + np.swapaxes(inv, -1, -2)) / 2.0


def spd_logdet(mat: np.ndarray):
    """Log-determinant of an SPD matrix (a float) or of each slice of a stack."""
    diag = np.diagonal(_cholesky(mat), axis1=-2, axis2=-1)
    out = 2.0 * np.sum(np.log(diag), axis=-1)
    return float(out) if out.ndim == 0 else out
