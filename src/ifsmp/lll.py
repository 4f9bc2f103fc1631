"""LLL reduction of a nonsingular upper-triangular matrix.

The reduction works directly on the triangular factor: size reduction is a
column operation, a Lovasz swap is followed by a 2x2 Givens rotation that
restores upper-triangularity, and all column operations are mirrored on an
integer unimodular matrix Z so that ``r_bar = Q^T R Z`` for some orthogonal
Q (never materialized).  Diagonal entries are kept positive throughout.
Size reduction rounds with the builtin ``round`` (halves to even): any
nearest integer gives |r_ik| <= r_ii / 2, whatever the tie rule.

The one implementation, the kernel `_lll`, runs on Python lists: the
columns of r_bar as floats and the columns of Z as exact Python ints, so a
step costs no numpy scalar access or fancy indexing and Z cannot overflow.
It takes the columns of R, which it reduces in place, and trusts them to
have passed one of the two ways in (`matrixcore`).  Z starts as the
shared unit columns `matrixcore._units(n)`, tuples that a step replaces
and never writes to.  r_bar, z and c_star travel as columns; only the
walk reads rows, and `_int64` builds a_star's rows.  `lll_reduce` is the
public ndarray wrapper: it checks delta (the pipeline always runs at
DEFAULT_DELTA), takes R's columns from `matrixcore.checked_columns`, and
transposes r_bar and z once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, SearchBudgetExceeded
from .matrixcore import _int64, _real, _units, checked_columns

DEFAULT_DELTA = 0.75


def _sweep_cap(n: int) -> int:
    """The most loop steps `_lll` takes at dimension n before it raises
    SearchBudgetExceeded."""
    return max(1000, 640 * n * n)


@dataclass(frozen=True, eq=False)
class LllResult:
    """Reduced factor r_bar and the unimodular transform z.

    Column k of r_bar is the lattice point R @ z[:, k] up to an orthogonal
    factor.  In floats, ``norm(r_bar[:, k])`` agrees with ``norm(r @ z[:, k])``
    within about 1.7e-14 relative on R from ``cholesky(gram_matrix(H, P))``;
    on skewed triangular inputs (diagonal spread 1e4 and more) it can drift
    far from it (ROADMAP item 5).  ``==`` is identity and ``hash`` the
    object's own (``eq=False``), as a generated ``__eq__`` would compare the
    arrays and raise; compare two results with ``np.array_equal`` on each
    field.
    """

    r_bar: np.ndarray
    z: np.ndarray


def lll_reduce(r, delta: float = DEFAULT_DELTA) -> LllResult:
    """LLL-reduce an upper-triangular matrix.

    Output satisfies |r_ik| <= |r_ii|/2 for i < k and the Lovasz condition
    delta*r_{k-1,k-1}^2 <= r_{k-1,k}^2 + r_kk^2.  delta = 1 is accepted but
    may take superpolynomially many swaps.  z is int64; converting it
    raises CoefficientOverflow (an OverflowError) if an entry does not fit.
    Checks delta first (a real scalar, read by `matrixcore._real`, in
    (1/4, 1]; the Lovasz tests run on it as a Python float), then the input
    (`matrixcore.checked_columns`).
    """
    d = _real(delta)
    if not 0.25 < d <= 1.0:
        raise PreconditionViolated(f"delta must be a real scalar in (1/4, 1], got {delta!r}")
    cols, z = _lll(checked_columns(r), d)
    return LllResult(r_bar=np.array(list(zip(*cols))), z=_int64(list(zip(*z))))


def _lll(cols: list[list[float]], delta: float) -> tuple[list[list[float]], list]:
    """The LLL kernel: `lll_reduce` on the columns of an R that came
    through one of the two ways in (`matrixcore`), for a delta in
    (1/4, 1].  The columns are reduced in place.  Returns them, the
    columns of r_bar, and the columns of z as sequences of Python ints:
    z starts from the shared `_units(n)`, whose tuples a step replaces with
    lists and never writes to.  Raises SearchBudgetExceeded after
    `_sweep_cap(n)` steps."""
    n = len(cols)
    z = list(_units(n))  # columns, replaced on change, never written to

    max_sweeps = _sweep_cap(n)
    sweeps = 0
    k = 1
    while k < n:
        sweeps += 1
        if sweeps > max_sweeps:
            raise SearchBudgetExceeded(f"LLL took more than {max_sweeps} steps")
        col, prev = cols[k], cols[k - 1]
        mu = round(col[k - 1] / prev[k - 1])
        if mu:
            col[:k] = [x - mu * y for x, y in zip(col[:k], prev)]
            z[k] = [x - mu * y for x, y in zip(z[k], z[k - 1])]
        if delta * prev[k - 1] ** 2 > col[k - 1] ** 2 + col[k] ** 2:
            cols[k - 1], cols[k] = col, prev
            z[k - 1], z[k] = z[k], z[k - 1]
            # Givens rotation on rows k-1, k restores triangularity; row k
            # is negated with it, as the new r_kk = -s * r_{k-1,k-1} < 0
            a, b = col[k - 1], col[k]
            h = math.hypot(a, b)
            c, s = a / h, b / h
            for v in cols[k - 1:]:
                x, y = v[k - 1], v[k]
                v[k - 1] = c * x + s * y
                v[k] = s * x - c * y
            col[k] = 0.0
            if k > 1:
                k -= 1
        else:
            for i in range(k - 2, -1, -1):
                mu = round(col[i] / cols[i][i])
                if mu:
                    col[: i + 1] = [x - mu * y for x, y in zip(col[: i + 1], cols[i])]
                    z[k] = [x - mu * y for x, y in zip(z[k], z[i])]
            k += 1
    return cols, z
