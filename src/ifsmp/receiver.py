"""Integer-forcing receiver formulas: the Gram matrix and the rates.

Rates are in bits per channel use (base-2 logs).  The SMP solver returns a
matrix whose COLUMNS are the successive-minima vectors; the rate functions
here consume coefficient ROWS, so callers pass the solver output transposed.
As in the paper, a coefficient vector is an integer vector: `rate_m` and
`total_rate` read it as `int_det` does (`matrixcore._to_int_rows`), write G
as Python ints over one power of two (`matrixcore._exact_form`), and form
each a^T G a exactly, so a rate rounds once, in `_rate`'s one division.

`gram_matrix` factors H H^T + I/P = U^T U with `matrixcore._factor`, the
library's one Cholesky (numpy's LAPACK ``dpotrf``), inverts U with numpy's
``inv`` gufunc and forms G = I - W^T W with W = U^{-T} H, a difference of
I and an exactly symmetric product.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.linalg._umath_linalg import inv

from .errors import (
    InvalidPower,
    PreconditionViolated,
    SingularCoefficientMatrix,
    ZeroVector,
)
from .matrixcore import _exact_form, _factor, _quad, _real, _real_array, _to_int_rows, int_det


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
    """G = I - H^T (H H^T + I/P)^{-1} H, formed as I - W^T W with
    W = U^{-T} H for the Cholesky factor U of H H^T + I/P = U^T U
    (`matrixcore._factor`) and U^{-1} from numpy's ``inv``: W^T W is
    exactly symmetric, and so is G.

    The exact G is positive definite, with eigenvalues in (0, 1]; its
    smallest is 1 / (1 + P sigma_max^2) for H's largest singular value
    sigma_max.  The computed G is I minus a computed W^T W of norm up to 1,
    so once that eigenvalue falls to the rounding error of that product and
    subtraction, the computed G can be indefinite, and `solve_smp` then
    raises NotPositiveDefinite on it.  None of 200 near-rank 4 x 4
    channels (column 1 = column 0 + 1e-4 N(0, 1)) at 120 dB, nor of 200
    Gaussian 4 x 4 channels at 140 dB, gave an indefinite G.  G is not
    exact there: on 30 near-rank channels, the worst relative error of a
    lambda against the exact a^T G a of its column is 8.6e-7 at 80 dB and
    2.8e-4 at 100 dB.  ROADMAP item 9 factors from H without forming G.

    Raises InvalidPower unless P is a real scalar, read by
    `matrixcore._real`, with 0 < P < inf and 1/P finite,
    PreconditionViolated unless H is a nonempty 2-D real matrix, read by
    `matrixcore._real_array`, whose finite sum of squares s gives a finite
    2 (s + 1/P), and NotPositiveDefinite when H H^T + I/P is numerically
    singular, that is when ``dpotrf`` fails on it (`matrixcore._factor`
    raises it).
    """
    p = _check_power(p)
    h, _, squares = _real_array(h)
    # |(H H^T + I/P)_ij| <= s + 1/P, and the 2 covers rounding: m is finite
    if not 2 * (squares + 1 / p) < math.inf:
        raise PreconditionViolated("H H^T + I/P may overflow")
    m = h @ h.T + _identity(h.shape[0]) / p
    u = _factor(m, "H H^T + I/P is numerically singular")
    w = inv(u).T @ h
    return _identity(h.shape[1]) - w.T @ w


def _checked_gram(g, n: int) -> tuple[list[list[int]], int]:
    """G's exact form (M, d) of `matrixcore._exact_form`, G read by
    `matrixcore._real_array`, whose finite rule it passes; raises
    PreconditionViolated unless G is n x n too."""
    g, rows, _ = _real_array(g)
    if g.shape != (n, n):
        raise PreconditionViolated(f"expected a square G as wide as a, got shape {g.shape}")
    return _exact_form(rows)


def _rate(num, den=1) -> float:
    """max(0, log2(1 / q) / 2) for q = a^T G a = num / den: 0.0 when
    num >= den, else -log2(num / den) / 2 with num / den rounded once.  For
    ints that division is correctly rounded, cannot overflow (q < 1) and
    cannot round to 0 (q >= 1 / den, and den is at most 2^1074, the
    denominator of the smallest subnormal).  Raises PreconditionViolated
    unless num > 0; the message holds no value of q, which as a float
    may overflow."""
    if not num > 0:
        raise PreconditionViolated("a^T G a is not positive")
    return 0.0 if num >= den else -0.5 * math.log2(num / den)


def rate_m(a_m, g) -> float:
    """Per-stream achievable rate max(0, log2(1 / a^T G a) / 2), for an
    integer vector a, with a^T G a exact and divided once (`_rate`).

    a is read as one row by `matrixcore._to_int_rows`, as in `int_det`,
    and G by `matrixcore._real_array`.  Raises PreconditionViolated unless
    a is a nonempty 1-D vector of integers (2.0 and ints beyond 64 bits
    are, 0.5, NaN and 1j are not), ZeroVector for an all-zero a, and
    PreconditionViolated unless G is a square real matrix as wide as a
    whose squares sum to a finite float, and unless a^T G a > 0.
    """
    (a,) = _to_int_rows(a_m, 1)
    if not any(a):
        raise ZeroVector("coefficient vector must be nonzero")
    m, d = _checked_gram(g, len(a))
    return _rate(_quad(m, a), d)


def total_rate(a, g) -> float:
    """Total rate N_t * min_m rate_m over the rows of an invertible integer
    a; raises what `int_det` and `rate_m` raise on a and G.  G is read
    once, and each row's rate is the one `rate_m` gives, from its exact
    a^T G a; every row is checked, so any row with a^T G a <= 0 raises."""
    rows = _to_int_rows(a)
    if int_det(rows) == 0:
        raise SingularCoefficientMatrix("coefficient matrix must be invertible")
    m, d = _checked_gram(g, len(rows))
    return len(rows) * min(_rate(_quad(m, row), d) for row in rows)
