"""Dense real linear algebra and exact integer matrix utilities.

Real matrices enter as ``numpy.ndarray`` (float64); the triangular inputs
of the reduction and enumeration stages pass one gate, `checked_rows`,
which returns them as lists of rows of Python floats.  Integer matrices
are handled with native Python ints internally, so every rank / determinant
decision is exact: no tolerance, no overflow (Python ints are unbounded,
which subsumes a 64->128 bit widening scheme).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric, PreconditionViolated, SingularInput

SYMMETRY_RTOL = 1e-12
SINGULAR_RTOL = 1e-14


def cholesky(g: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor R of a symmetric positive definite
    matrix, with R^T R = g and positive diagonal.

    Raises PreconditionViolated (empty, or a NaN / infinite entry),
    NotSymmetric or NotPositiveDefinite; each test fails on a NaN.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {g.shape}")
    if not g.size:
        raise PreconditionViolated("matrix is empty")
    scale = np.max(np.abs(g))  # NaN or inf if any entry is
    if not math.isfinite(scale):
        raise PreconditionViolated("matrix has a NaN or infinite entry")
    if not np.max(np.abs(g - g.T)) <= SYMMETRY_RTOL * (scale or 1.0):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative tolerance")

    n = g.shape[0]
    r = np.zeros((n, n))
    for j in range(n):
        pivot = g[j, j] - r[:j, j] @ r[:j, j]
        if not pivot > 0.0:
            raise NotPositiveDefinite(f"pivot {pivot} at index {j}")
        r[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            r[j, j + 1:] = (g[j, j + 1:] - r[:j, j] @ r[:j, j + 1:]) / r[j, j]
    return r


def checked_rows(m) -> list[list[float]]:
    """The one gate of a triangular input: m (an ndarray, converted by one
    ``tolist``, or a sequence of rows, converted entry by entry with no
    numpy round trip) as a list of rows of Python floats.

    Raises PreconditionViolated unless m is a nonempty square 2-D matrix,
    SingularInput unless every |r_ii| >= 1e-14 max |r_ii| (false on a NaN),
    and PreconditionViolated if any entry is NaN or infinite.
    """
    if isinstance(m, np.ndarray):
        if m.ndim != 2:
            raise PreconditionViolated(f"expected a 2-D matrix, got shape {m.shape}")
        rows = m.astype(float, copy=False).tolist()
    else:
        try:
            rows = [[float(v) for v in row] for row in m]
        except TypeError:
            raise PreconditionViolated("expected a 2-D matrix of numbers") from None
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise PreconditionViolated(f"expected a nonempty square matrix, got {n} rows")
    diag = [abs(rows[i][i]) for i in range(n)]
    bound = SINGULAR_RTOL * max(diag)
    if not all(v >= bound for v in diag):
        raise SingularInput("diagonal entry below 1e-14 of the largest")
    if not all(map(math.isfinite, sum(rows, []))):
        raise PreconditionViolated("matrix has a NaN or infinite entry")
    return rows


def nearest_integer(x: float) -> int:
    """Round to the nearest integer; a half-way tie goes to the candidate of
    smaller magnitude (0.5 -> 0, -0.5 -> 0, 1.5 -> 1).

    Note this differs from both round-half-even and round-half-up.
    """
    f = math.floor(x)
    frac = x - f
    if frac < 0.5:
        return f
    if frac > 0.5:
        return f + 1
    # tie: f and f+1 straddle zero or share a sign; pick the smaller |.|
    return f if f >= 0 else f + 1


def _to_int_rows(m) -> list[list[int]]:
    a = np.asarray(m)
    if a.ndim != 2 or not a.size:
        raise PreconditionViolated(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    return [[int(v) for v in row] for row in a]


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
