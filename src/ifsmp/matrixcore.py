"""Dense real linear algebra and exact integer matrix utilities.

Real matrices enter as ``numpy.ndarray`` (float64).  There are exactly
two ways into the solve tail (`smp._tail`), and both are here:

- G goes through `cholesky`, which returns only an R that
  `checked_columns` accepts; `smp._pipeline` reads R's columns once.
- A triangular input (`lll_reduce`, `enumerate_below` and the three
  public reduced solvers) goes through `checked_columns`, which returns
  the columns of its upper triangle with negative-diagonal rows flipped.

Every real array (H, G, a triangular input) is 2-D and read once, by
`_real_array`: it hands its caller the float64 array and its rows as
Python floats, so no caller converts it again, and its one finite rule
rejects a NaN or infinite entry and squares that overflow.  No stage
after the two ways in checks its input again.
`_units(n)`, the n unit columns as tuples of ints, is built once per n
and shared by every solve that starts from an identity.

`cholesky` and `receiver.gram_matrix` factor with LAPACK ``dpotrf`` through
`_factor`, which calls numpy's own gufunc ``cholesky_up`` (what
``np.linalg.cholesky(a, upper=True)`` calls, without the wrapper's
per-call cost) and alone decides that a factor failed, and `gram_matrix`
inverts the factor with numpy's ``inv`` gufunc: the process maps numpy's
one BLAS and LAPACK, and `import ifsmp` needs no scipy.  R has the bits
of ``scipy.linalg.lapack.dpotrf`` for the same G.

Integer matrices are handled with native Python ints internally, so every
rank / determinant decision is exact: no tolerance, no overflow (Python
ints are unbounded, which subsumes a 64->128 bit widening scheme).
`_exact_form` writes a float matrix G as Python ints M over one power of
two d, so that a^T G a = `_quad`(M, a) / d is exact for integer a.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from operator import mul, sub

import numpy as np
from numpy.linalg._umath_linalg import cholesky_up

from .errors import (
    CoefficientOverflow,
    NotPositiveDefinite,
    NotSymmetric,
    PreconditionViolated,
    SingularInput,
)

SYMMETRY_RTOL = 1e-12
SINGULAR_RTOL = 1e-14


def _factor(a: np.ndarray, failed: str) -> np.ndarray:
    """numpy's LAPACK ``dpotrf`` on a's upper triangle, with the lower one
    zeroed; raises NotPositiveDefinite(failed) when it fails.  numpy
    signals a failed factor as an invalid value: under
    ``np.errstate(invalid="raise")`` or with warnings as errors that
    raises, which is caught here, and under Python's default filters numpy
    prints "invalid value encountered in cholesky_up" once, the first time
    a factor fails in the process, and returns a factor whose r_00 is not
    positive, as a ``dpotrf`` that succeeds never does.  No
    ``np.errstate`` wraps the call, as it costs more than the factor."""
    try:
        r = cholesky_up(a)
    except (RuntimeWarning, FloatingPointError):
        raise NotPositiveDefinite(failed) from None
    if not r[0, 0] > 0.0:
        raise NotPositiveDefinite(failed)
    return r


def _float_array(x) -> np.ndarray:
    """x as a float64 ndarray; raises PreconditionViolated unless numpy reads
    it as an array of real numbers (bool, integer or float dtype), so that a
    complex, string or ragged input is not cast silently or failed untyped.
    A long double beyond the float64 range reads as +-inf, which the
    finite rule of `_real_array` and the range test of each scalar site
    reject."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nested sequence
        raise PreconditionViolated("expected an array of real numbers") from None
    if a.dtype.kind not in "biuf":
        raise PreconditionViolated(f"expected an array of real numbers, got dtype {a.dtype}")
    if a.dtype.itemsize > 8:  # a long double; float64 input skips the errstate cost
        with np.errstate(over="ignore"):
            return a.astype(float)
    return a.astype(float, copy=False)


def _real_array(x) -> tuple[np.ndarray, list[list[float]], float]:
    """The one reader of a real array (H, G, a triangular input) and its one
    finite rule: (a, rows, squares) with a the array `_float_array` reads,
    rows its one ``tolist`` (Python floats: same decisions, cheaper than
    numpy here), and squares the sum of its squared entries in row-major
    order, as a Python float.  Raises PreconditionViolated unless x is a
    nonempty 2-D array whose squares sum to a finite float, which a NaN,
    an infinite entry or an overflow prevents."""
    a = _float_array(x)
    if a.ndim != 2 or not a.size:
        raise PreconditionViolated(f"expected a nonempty 2-D array, got shape {a.shape}")
    rows = a.tolist()
    squares = sum([v * v for v in sum(rows, [])])
    if not squares < math.inf:
        raise PreconditionViolated("array has a NaN or infinite entry, or squares that overflow")
    return a, rows, squares


def _real(x) -> float:
    """The one reader of a real scalar (P, delta, beta, a basis norm): x as
    a Python float when `_float_array` reads it as a 0-d array, that is a
    bool, int or float, Python or numpy, or a 0-d array of one; otherwise
    NaN, which fails every range test.  A str, None, a complex number, an
    array with ndim > 0, and a Fraction, a Decimal or an int beyond 64 bits
    (numpy's object dtype) are no real scalar.  A Python float is returned
    as it is, with no numpy call."""
    if type(x) is float:
        return x
    try:
        a = _float_array(x)
    except PreconditionViolated:
        return math.nan
    return float(a) if a.ndim == 0 else math.nan


def cholesky(g: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor R of a symmetric positive definite
    matrix, with R^T R = g and positive diagonal: LAPACK ``dpotrf`` on the
    upper triangle, with the lower one zeroed (`_factor`).

    g is read by `_real_array`.  Raises PreconditionViolated (not a
    nonempty 2-D real array, or squares that are not finite),
    NotSymmetric (not square, or asymmetric), NotPositiveDefinite or
    SingularInput.  When ``dpotrf`` fails, `_factor` raises
    NotPositiveDefinite, saying so.  ``dpotrf`` reports success on some
    finite g whose pivots overflow to NaN, so a diagonal entry that is not
    positive fails too, naming the pivot; the diagonal then passes
    `_check_diagonal`.  A returned R is finite, as every entry above the
    diagonal enters the pivot of its column, which a NaN or infinite one
    would make NaN or -inf, and its squares sum to g's trace up to
    rounding, so `checked_columns` accepts it and returns its columns as
    they are.
    """
    g, rows, _ = _real_array(g)
    if g.shape[0] != g.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {g.shape}")
    flat = sum(rows, [])
    transposed = sum(zip(*rows), ())
    if tuple(flat) != transposed:  # gram_matrix's G is exactly symmetric
        asym = max(map(abs, map(sub, flat, transposed)))
        if not asym <= SYMMETRY_RTOL * (max(map(abs, flat)) or 1.0):
            raise NotSymmetric("matrix is not symmetric within 1e-12 relative tolerance")
    r = _factor(g, "dpotrf failed: the matrix is not positive definite")
    diag = r.diagonal().tolist()
    if not all(map((0.0).__lt__, diag)):
        j = next(i for i, d in enumerate(diag) if not d > 0.0)
        raise NotPositiveDefinite(f"pivot {diag[j]} at index {j}")
    _check_diagonal(diag)
    return r


def checked_columns(m) -> list[list[float]]:
    """The one gate of a triangular input: the columns of m's upper
    triangle as lists of Python floats, with every row whose diagonal entry
    is negative flipped (sign flips live in Q).  Entries below the diagonal
    count only in the finite rule; the columns hold 0.0 there.

    m is read by `_real_array`, which raises PreconditionViolated unless m
    is a nonempty 2-D real array whose squares sum to a finite float.
    Raises PreconditionViolated unless m is square too, and SingularInput
    unless its flipped diagonal passes `_check_diagonal`.
    """
    m, rows, _ = _real_array(m)
    if m.shape[0] != m.shape[1]:
        raise PreconditionViolated(f"expected a nonempty square 2-D matrix, got shape {m.shape}")
    for i, row in enumerate(rows):
        if row[i] < 0:
            row[i:] = [-v for v in row[i:]]
    _check_diagonal([row[i] for i, row in enumerate(rows)])
    return [list(col[:k + 1]) + [0.0] * (len(col) - k - 1) for k, col in enumerate(zip(*rows))]


def _check_diagonal(diag: list[float]) -> None:
    """The diagonal rule on a triangular diagonal with no negative entry:
    raises SingularInput unless every r_ii >= 1e-14 max r_ii (false on a
    NaN) and min r_ii squared (by ``*``: ``**`` raises on overflow) is at
    least ``sys.float_info.min``, so that no square the walk compares
    underflows."""
    bound = SINGULAR_RTOL * max(diag)
    low = min(diag)
    if not (low * low >= sys.float_info.min and all(map(bound.__le__, diag))):
        raise SingularInput("diagonal entry below 1e-14 of the largest, or its square not normal")


@lru_cache(maxsize=64)
def _units(n: int) -> tuple[tuple[int, ...], ...]:
    """The n unit vectors e_0 .. e_{n-1} as tuples of ints, built once per n;
    the tuples keep the shared columns from being changed in place."""
    return tuple(tuple(int(r == k) for r in range(n)) for k in range(n))


def _to_int_rows(m, ndim: int = 2) -> list[list[int]]:
    """m as rows of Python ints, a vector as one row; raises
    PreconditionViolated unless m is a nonempty ndim-D array (1 or 2) of
    integral entries (2.0 is one, 0.5, NaN and 1j are not; ragged rows
    are no array), naming m's own shape."""
    try:
        a = np.asarray(m)
    except ValueError:  # a ragged nested sequence
        raise PreconditionViolated("expected an array of integers") from None
    if a.ndim != ndim or not a.size:
        raise PreconditionViolated(f"expected a nonempty {ndim}-D array, got shape {a.shape}")
    entries = a.reshape(-1, a.shape[-1]).tolist()
    try:
        rows = [[int(v) for v in row] for row in entries]
    except (TypeError, ValueError, OverflowError):
        raise PreconditionViolated("expected an array of integers") from None
    if rows != entries:  # int() truncated an entry, or parsed a string
        raise PreconditionViolated("array has an entry that is not an integer")
    return rows


def _exact_form(rows: list[list[float]]) -> tuple[list[list[int]], int]:
    """Rows of finite Python floats as Python ints over one power of two:
    (m, d) with m_ij / d == rows[i][j] exactly, where d is the largest
    denominator `float.as_integer_ratio` gives an entry."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    d = max(den for row in ratios for _, den in row)
    return [[num * (d // den) for num, den in row] for row in ratios], d


def _quad(m: list[list[int]], a: list[int]) -> int:
    """a^T m a in Python ints, exact."""
    return sum(x * sum(map(mul, row, a)) for x, row in zip(a, m))


def _int64(rows: list[list[int]]) -> np.ndarray:
    """Exact integer rows as an int64 ndarray; raises CoefficientOverflow
    (an OverflowError) when an entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError as exc:
        bits = max(abs(v) for row in rows for v in row).bit_length()
        raise CoefficientOverflow(f"an integer entry of {bits} bits does not fit int64") from exc


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of ``rows`` in place; returns the
    pivot columns in order and the sign of the row swaps made."""
    n_rows, n_cols = len(rows), len(rows[0])
    piv_r = 0
    prev = 1
    sign = 1
    pivot_cols: list[int] = []
    for col in range(n_cols):
        pr = next((r for r in range(piv_r, n_rows) if rows[r][col] != 0), None)
        if pr is None:
            continue
        if pr != piv_r:
            rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
            sign = -sign
        pivot_cols.append(col)
        p = rows[piv_r][col]
        for r in range(piv_r + 1, n_rows):
            factor = rows[r][col]
            row_r = rows[r]
            row_p = rows[piv_r]
            for c in range(col + 1, n_cols):
                row_r[c] = (p * row_r[c] - factor * row_p[c]) // prev
            row_r[col] = 0
        prev = p
        piv_r += 1
        if piv_r == n_rows:
            break
    return pivot_cols, sign


def int_rank(m) -> int:
    """Exact rank of an integer matrix: its number of Bareiss pivots."""
    return len(_bareiss(_to_int_rows(m))[0])


def int_det(m) -> int:
    """Exact determinant of a square integer matrix: the signed last Bareiss
    pivot when every column has a pivot, else 0."""
    rows = _to_int_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PreconditionViolated("determinant requires a square matrix")
    pivot_cols, sign = _bareiss(rows)
    return sign * rows[-1][-1] if len(pivot_cols) == n else 0
