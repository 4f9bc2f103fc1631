"""Integer-forcing receiver formulas: Gram matrix, MMSE filter, rates.

Rates are in bits per channel use (base-2 logs).  The SMP solver returns a
matrix whose COLUMNS are the successive-minima vectors; the rate functions
here consume coefficient ROWS, so callers pass the solver output transposed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InvalidPower, PreconditionViolated, SingularCoefficientMatrix, ZeroVector
from .matrixcore import int_det


def _covariance_solve(h, p: float, a=None) -> tuple[np.ndarray, np.ndarray]:
    """H as floats and (H H^T + I/P)^{-1} H A^T (A = I when omitted), by a
    Cholesky solve; the inverse is never formed.

    Raises InvalidPower unless 0 < P < inf and 1/P is finite, and
    PreconditionViolated unless H is a 2-D matrix of finite entries and
    H H^T + I/P is finite.
    """
    # NaN fails the comparisons; 1/P is taken in Python floats, where a
    # subnormal P overflows it to inf without a warning
    if not 0 < p < math.inf or 1 / float(p) == math.inf:
        raise InvalidPower(f"power must be positive, finite and not subnormal, got {p}")
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or not np.isfinite(h).all():
        raise PreconditionViolated(f"expected a 2-D channel of finite entries, shape {h.shape}")
    b = h if a is None else h @ np.asarray(a, dtype=float).T
    m = h @ h.T + np.eye(h.shape[0]) / p
    # m is PSD, so a finite diagonal bounds every entry and cho_factor
    # need not scan m again
    if not np.isfinite(m.diagonal()).all():
        raise PreconditionViolated("H H^T + I/P overflows")
    return h, cho_solve(cho_factor(m, check_finite=False), b)


def gram_matrix(h, p: float) -> np.ndarray:
    """G = I - H^T (H H^T + I/P)^{-1} H, symmetrized.

    Positive definite with eigenvalues in (0, 1] for any finite H and
    0 < P < inf.
    """
    h, x = _covariance_solve(h, p)
    g = np.eye(h.shape[1]) - h.T @ x
    return (g + g.T) / 2


def filter_matrix(a, h, p: float) -> np.ndarray:
    """MMSE filter B with rows b_m^T = a_m^T H^T (H H^T + I/P)^{-1}."""
    return _covariance_solve(h, p, a)[1].T


def rate_m(a_m, g) -> float:
    """Per-stream achievable rate max(0, log2(1 / a^T G a) / 2)."""
    a_m = np.asarray(a_m)
    if not np.any(a_m):
        raise ZeroVector("coefficient vector must be nonzero")
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise PreconditionViolated("G has a NaN or infinite entry")
    quad = float(a_m.astype(float) @ g @ a_m.astype(float))
    if not quad > 0:
        raise PreconditionViolated(f"a^T G a = {quad} is not positive")
    return max(0.0, -0.5 * math.log2(quad))


def total_rate(a, g) -> float:
    """Total rate N_t * min_m rate_m over the rows of an invertible a."""
    a = np.asarray(a)
    if int_det(a) == 0:
        raise SingularCoefficientMatrix("coefficient matrix must be invertible")
    n = a.shape[0]
    return n * min(rate_m(a[m], g) for m in range(n))

