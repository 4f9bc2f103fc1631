"""LLL reduction of a nonsingular upper-triangular matrix.

The reduction works directly on the triangular factor: size reduction is a
column operation, a Lovasz swap is followed by a 2x2 Givens rotation that
restores upper-triangularity, and all column operations are mirrored on an
integer unimodular matrix Z so that ``r_bar = Q^T R Z`` for some orthogonal
Q (never materialized).  Diagonal entries are kept positive throughout.
The input passes the same `matrixcore.check_nonsingular` test as every
enumeration entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated
from .matrixcore import check_nonsingular, nearest_integer

DEFAULT_DELTA = 0.75


@dataclass(frozen=True)
class LllResult:
    """Reduced factor r_bar, the unimodular transform z, and the delta used.

    Column k of r_bar spans the same lattice point as R @ z[:, k]:
    ``norm(r_bar[:, k]) == norm(r @ z[:, k])`` up to rounding.
    """

    r_bar: np.ndarray
    z: np.ndarray
    delta: float


def lll_reduce(r: np.ndarray, delta: float = DEFAULT_DELTA) -> LllResult:
    """LLL-reduce an upper-triangular matrix.

    Output satisfies |r_ik| <= |r_ii|/2 for i < k and the Lovasz condition
    delta*r_{k-1,k-1}^2 <= r_{k-1,k}^2 + r_kk^2.  delta = 1 is accepted but
    may take superpolynomially many swaps.
    """
    if not 0.25 < delta <= 1.0:
        raise PreconditionViolated(f"delta must be in (1/4, 1], got {delta}")
    r = np.array(r, dtype=float)
    check_nonsingular(r)
    n = r.shape[0]

    z = np.eye(n, dtype=np.int64)
    # normalize diagonal signs up front (sign flips live in Q)
    for i in range(n):
        if r[i, i] < 0:
            r[i, i:] = -r[i, i:]

    max_sweeps = max(1000, 10 * n * n * 64)
    sweeps = 0
    k = 1
    while k < n:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("LLL iteration cap exceeded")
        mu = nearest_integer(r[k - 1, k] / r[k - 1, k - 1])
        if mu:
            r[: k, k] -= mu * r[: k, k - 1]
            z[:, k] -= mu * z[:, k - 1]
        if delta * r[k - 1, k - 1] ** 2 > r[k - 1, k] ** 2 + r[k, k] ** 2:
            r[:, [k - 1, k]] = r[:, [k, k - 1]]
            z[:, [k - 1, k]] = z[:, [k, k - 1]]
            # Givens rotation on rows k-1, k restores triangularity
            a, b = r[k - 1, k - 1], r[k, k - 1]
            h = math.hypot(a, b)
            c, s = a / h, b / h
            upper = c * r[k - 1, k - 1:] + s * r[k, k - 1:]
            lower = -s * r[k - 1, k - 1:] + c * r[k, k - 1:]
            r[k - 1, k - 1:] = upper
            r[k, k - 1:] = lower
            r[k, k - 1] = 0.0
            if r[k, k] < 0:
                r[k, k:] = -r[k, k:]
            k = max(k - 1, 1)
        else:
            for i in range(k - 2, -1, -1):
                mu = nearest_integer(r[i, k] / r[i, i])
                if mu:
                    r[: i + 1, k] -= mu * r[: i + 1, i]
                    z[:, k] -= mu * z[:, i]
            k += 1
    return LllResult(r_bar=r, z=z, delta=delta)
