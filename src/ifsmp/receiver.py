"""Integer-forcing receiver formulas: the Gram matrix and the rates.

Rates are in bits per channel use (base-2 logs).  The SMP solver returns a
matrix whose COLUMNS are the successive-minima vectors; the rate functions
here consume coefficient ROWS, so callers pass the solver output transposed.

The Cholesky solve in `gram_matrix` is one call of LAPACK dposv as loaded
by `matrixcore._load_flapack`, the library's one LAPACK loader.  DPOSV is
DPOTRF followed by DPOTRS, the very routines `cho_factor`/`cho_solve` run
through `scipy.linalg.lapack`, on the same triangle, so G has their bits,
without the wrappers' per-call checks, which cost more than LAPACK here.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidPower,
    NotPositiveDefinite,
    PreconditionViolated,
    SingularCoefficientMatrix,
    ZeroVector,
)
from .matrixcore import _float_array, _real, _real_array, _to_int_rows, dposv, int_det


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only, as the cache
    hands every caller the same array."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _check_power(p) -> float:
    """The power rule of `gram_matrix`: P as a Python float; raises
    InvalidPower unless P is a real scalar (`matrixcore._real`) with
    0 < P < inf and 1/P finite (a Python float division, which a subnormal
    P overflows to inf without a warning)."""
    x = _real(p)
    if not (0 < x < math.inf and 1 / x < math.inf):
        raise InvalidPower(f"power must be a positive, finite real scalar and not subnormal, "
                           f"got {p!r}")
    return x


def gram_matrix(h, p: float) -> np.ndarray:
    """G = I - H^T (H H^T + I/P)^{-1} H, symmetrized; X = (H H^T + I/P)^{-1} H
    comes from a Cholesky solve, and the inverse is never formed.

    Positive definite with eigenvalues in (0, 1] for any finite H and
    0 < P < inf.  Raises InvalidPower unless P is a real scalar, read by
    `matrixcore._real`, with 0 < P < inf and 1/P finite,
    PreconditionViolated unless H is a nonempty 2-D real matrix, read by
    `matrixcore._real_array`, whose sum of squares s gives a finite
    2 (s + 1/P), and NotPositiveDefinite when H H^T + I/P is numerically
    singular.
    """
    p = _check_power(p)
    h, squares = _real_array(h, 2)
    # |(H H^T + I/P)_ij| <= s + 1/P, and the 2 covers rounding: m is finite
    if not 2 * (squares + 1 / p) < math.inf:
        raise PreconditionViolated("H has a NaN or infinite entry, or H H^T + I/P may overflow")
    m = h @ h.T + _identity(h.shape[0]) / p
    _, x, info = dposv(m, h, lower=0)
    if info > 0:
        raise NotPositiveDefinite("H H^T + I/P is numerically singular")
    if info:
        raise ValueError(f"LAPACK rejected argument {-info}")
    g = _identity(h.shape[1]) - h.T @ x
    return (g + g.T) / 2


def _checked_gram(g, n: int) -> tuple[np.ndarray, float]:
    """G and the sum of its squares, read by `matrixcore._real_array`;
    raises PreconditionViolated unless G is an n x n real matrix whose
    squares sum to a finite float."""
    g, squares = _real_array(g, 2)
    if g.shape != (n, n):
        raise PreconditionViolated(f"expected a square G as wide as a, got shape {g.shape}")
    if not squares < math.inf:
        raise PreconditionViolated("G has a NaN or infinite entry, or squares that overflow")
    return g, squares


def _rate(quad: float) -> float:
    """max(0, log2(1 / q) / 2) for q = a^T G a; raises PreconditionViolated
    unless q > 0."""
    if not quad > 0:
        raise PreconditionViolated(f"a^T G a = {quad} is not positive")
    return max(0.0, -0.5 * math.log2(quad))


def rate_m(a_m, g) -> float:
    """Per-stream achievable rate max(0, log2(1 / a^T G a) / 2).

    a and G are read by `matrixcore._real_array`.  Raises
    PreconditionViolated unless a is a nonempty real 1-D vector whose
    squares sum to a finite float, ZeroVector for an all-zero a, and
    PreconditionViolated unless G is a square real matrix as wide as a
    whose squares sum to a finite float, unless
    2 max(||a||, ||a||^2) ||G||_F is finite, and unless a^T G a > 0.  By
    Cauchy-Schwarz every entry of a^T G is at most ||a|| ||G||_F and
    a^T G a at most ||a||^2 ||G||_F, and the 2 covers rounding, so the
    product cannot overflow.
    """
    a_m, squares = _real_array(a_m, 1)
    if not squares < math.inf:
        raise PreconditionViolated("a has a NaN or infinite entry, or squares that overflow")
    if not np.any(a_m):
        raise ZeroVector("coefficient vector must be nonzero")
    g, g_squares = _checked_gram(g, a_m.size)
    if not 2 * max(squares, math.sqrt(squares)) * math.sqrt(g_squares) < math.inf:
        raise PreconditionViolated("a^T G a may overflow")
    return _rate(float(a_m @ g @ a_m))


def total_rate(a, g) -> float:
    """Total rate N_t * min_m rate_m over the rows of an invertible a;
    raises what `int_det` and `rate_m` raise on a and G.  G is read once,
    by `matrixcore._real_array`, and each row's a^T G a is the product
    `rate_m` forms."""
    rows = _to_int_rows(a)
    if int_det(rows) == 0:
        raise SingularCoefficientMatrix("coefficient matrix must be invertible")
    floats = _float_array(rows)
    g, _ = _checked_gram(g, len(rows))
    return len(rows) * min(_rate(float(a_m @ g @ a_m)) for a_m in floats)
