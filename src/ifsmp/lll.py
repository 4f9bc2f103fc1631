"""LLL reduction of a nonsingular upper-triangular matrix.

The reduction works directly on the triangular factor: size reduction is a
column operation, a Lovasz swap is followed by a 2x2 Givens rotation that
restores upper-triangularity, and all column operations are mirrored on an
integer unimodular matrix Z so that ``r_bar = Q^T R Z`` for some orthogonal
Q (never materialized).  Diagonal entries are kept positive throughout.
The input passes the same gate, `matrixcore.checked_rows`, as every
enumeration entry point.

The one implementation, `_lll`, runs on Python lists: the columns of
r_bar as floats and the columns of Z as exact Python ints, so a step costs
no numpy scalar access or fancy indexing and Z cannot overflow.  It takes R
as an ndarray (converted by one ``tolist``) or as a list of rows and returns
lists of rows, which `smp._pipeline` hands straight to the reduced solver;
`lll_reduce` is the ndarray wrapper around it and the one place delta is
checked (the pipeline always runs at DEFAULT_DELTA).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated
from .matrixcore import checked_rows, nearest_integer

DEFAULT_DELTA = 0.75


@dataclass(frozen=True)
class LllResult:
    """Reduced factor r_bar and the unimodular transform z.

    Column k of r_bar spans the same lattice point as R @ z[:, k]:
    ``norm(r_bar[:, k]) == norm(r @ z[:, k])`` up to rounding.
    """

    r_bar: np.ndarray
    z: np.ndarray


def lll_reduce(r, delta: float = DEFAULT_DELTA) -> LllResult:
    """LLL-reduce an upper-triangular matrix.

    Output satisfies |r_ik| <= |r_ii|/2 for i < k and the Lovasz condition
    delta*r_{k-1,k-1}^2 <= r_{k-1,k}^2 + r_kk^2.  delta = 1 is accepted but
    may take superpolynomially many swaps.  z is int64; converting it
    raises OverflowError if an entry does not fit.  Checks delta first, then
    the input (`checked_rows`).
    """
    if not 0.25 < delta <= 1.0:
        raise PreconditionViolated(f"delta must be in (1/4, 1], got {delta}")
    r_bar, z = _lll(r, delta)
    return LllResult(r_bar=np.array(r_bar), z=np.array(z, dtype=np.int64))


def _lll(r, delta: float) -> tuple[list[list[float]], list[list[int]]]:
    """`lll_reduce` on lists, for a delta in (1/4, 1]: returns the rows of
    r_bar (floats) and of z (Python ints)."""
    rows = checked_rows(r)
    n = len(rows)

    # normalize diagonal signs up front (sign flips live in Q)
    for i, row in enumerate(rows):
        if row[i] < 0:
            row[i:] = [-v for v in row[i:]]
    cols = [list(col) for col in zip(*rows)]
    z = [[int(i == k) for i in range(n)] for k in range(n)]  # columns

    max_sweeps = max(1000, 10 * n * n * 64)
    sweeps = 0
    k = 1
    while k < n:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("LLL iteration cap exceeded")
        col, prev = cols[k], cols[k - 1]
        mu = nearest_integer(col[k - 1] / prev[k - 1])
        if mu:
            col[:k] = [x - mu * y for x, y in zip(col[:k], prev)]
            z[k] = [x - mu * y for x, y in zip(z[k], z[k - 1])]
        if delta * prev[k - 1] ** 2 > col[k - 1] ** 2 + col[k] ** 2:
            cols[k - 1], cols[k] = col, prev
            z[k - 1], z[k] = z[k], z[k - 1]
            # Givens rotation on rows k-1, k restores triangularity
            a, b = col[k - 1], col[k]
            h = math.hypot(a, b)
            c, s = a / h, b / h
            for v in cols[k - 1:]:
                x, y = v[k - 1], v[k]
                v[k - 1] = c * x + s * y
                v[k] = -s * x + c * y
            col[k] = 0.0
            if prev[k] < 0:
                for v in cols[k:]:
                    v[k] = -v[k]
            k = max(k - 1, 1)
        else:
            for i in range(k - 2, -1, -1):
                mu = nearest_integer(col[i] / cols[i][i])
                if mu:
                    col[: i + 1] = [x - mu * y for x, y in zip(col[: i + 1], cols[i])]
                    z[k] = [x - mu * y for x, y in zip(z[k], z[i])]
            k += 1
    return [list(row) for row in zip(*cols)], [list(row) for row in zip(*z)]
