"""Integer-forcing receiver formulas: the Gram matrix and the rates.

Rates are in bits per channel use (base-2 logs).  The SMP solver returns a
matrix whose COLUMNS are the successive-minima vectors; the rate functions
here consume coefficient ROWS, so callers pass the solver output transposed.

The Cholesky solve in `gram_matrix` is one call of LAPACK dposv as loaded
by `matrixcore._load_flapack`, the library's one LAPACK loader.  DPOSV is
DPOTRF followed by DPOTRS, the very routines `cho_factor`/`cho_solve` run
through `scipy.linalg.lapack`, on the same triangle, so G has their bits.
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
from .matrixcore import _float_array, _to_int_rows, dposv, int_det


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only, as the cache
    hands every caller the same array."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a float array is finite, tested on Python
    floats: the same decision as numpy's, and cheaper at these sizes."""
    return all(map(math.isfinite, a.ravel().tolist()))


def _check_power(p: float) -> None:
    """The power rule of `gram_matrix`: raises InvalidPower unless P is a
    real scalar with 0 < P < inf and 1/P finite."""
    # a numpy array has an ndim, 0 for a numpy scalar; NaN fails the
    # comparisons, and a str, None or complex P raises in them.  1/P is
    # taken in Python floats, where a subnormal P overflows it to inf
    # without a warning and an int too large for a float raises
    try:
        ok = not getattr(p, "ndim", 0) and 0 < p < math.inf and 1 / float(p) < math.inf
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise InvalidPower(f"power must be a positive, finite real scalar and not subnormal, "
                           f"got {p!r}")


def gram_matrix(h, p: float) -> np.ndarray:
    """G = I - H^T (H H^T + I/P)^{-1} H, symmetrized; X = (H H^T + I/P)^{-1} H
    comes from a Cholesky solve, and the inverse is never formed.

    Positive definite with eigenvalues in (0, 1] for any finite H and
    0 < P < inf.  Raises InvalidPower unless P is a real scalar (not a
    string, None, a complex number or an array with ndim > 0) with
    0 < P < inf and 1/P finite,
    PreconditionViolated unless H is a nonempty 2-D matrix of finite real
    entries and H H^T + I/P is finite, and NotPositiveDefinite when
    H H^T + I/P is numerically singular.
    """
    _check_power(p)
    h = _float_array(h)
    if h.ndim != 2 or not h.size or not _finite(h):
        raise PreconditionViolated(f"expected a nonempty finite 2-D channel, shape {h.shape}")
    m = h @ h.T + _identity(h.shape[0]) / p
    # m is PSD, so a finite diagonal bounds every entry.  dposv factors and
    # solves as cho_factor/cho_solve do, without their costly per-call checks.
    if not _finite(m.diagonal()):
        raise PreconditionViolated("H H^T + I/P overflows")
    _, x, info = dposv(m, h, lower=0)
    if info > 0:
        raise NotPositiveDefinite("H H^T + I/P is numerically singular")
    if info:
        raise ValueError(f"LAPACK rejected argument {-info}")
    g = _identity(h.shape[1]) - h.T @ x
    return (g + g.T) / 2


def _checked_gram(g, n: int) -> np.ndarray:
    """G as a float array; raises PreconditionViolated unless it is a real,
    finite n x n matrix."""
    g = _float_array(g)
    if g.shape != (n, n):
        raise PreconditionViolated(f"expected a square G as wide as a, got shape {g.shape}")
    if not _finite(g):
        raise PreconditionViolated("G has a NaN or infinite entry")
    return g


def _rate(quad: float) -> float:
    """max(0, log2(1 / q) / 2) for q = a^T G a; raises PreconditionViolated
    unless q > 0."""
    if not quad > 0:
        raise PreconditionViolated(f"a^T G a = {quad} is not positive")
    return max(0.0, -0.5 * math.log2(quad))


def rate_m(a_m, g) -> float:
    """Per-stream achievable rate max(0, log2(1 / a^T G a) / 2).

    Raises ZeroVector for an all-zero a, and PreconditionViolated unless a
    is a real 1-D vector and G a real, finite, square matrix as wide as a
    with a^T G a > 0.
    """
    a_m = _float_array(a_m)
    if not np.any(a_m):
        raise ZeroVector("coefficient vector must be nonzero")
    if a_m.ndim != 1:
        raise PreconditionViolated(f"expected a 1-D coefficient vector, got shape {a_m.shape}")
    g = _checked_gram(g, a_m.size)
    return _rate(float(a_m @ g @ a_m))


def total_rate(a, g) -> float:
    """Total rate N_t * min_m rate_m over the rows of an invertible a;
    raises what `int_det` and `rate_m` raise on a and G.  G is checked
    once, and each row's a^T G a is the product `rate_m` forms."""
    rows = _to_int_rows(a)
    if int_det(rows) == 0:
        raise SingularCoefficientMatrix("coefficient matrix must be invertible")
    floats = _float_array(rows)
    g = _checked_gram(g, len(rows))
    return len(rows) * min(_rate(float(a_m @ g @ a_m)) for a_m in floats)
