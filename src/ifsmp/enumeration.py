"""Schnorr-Euchner sphere enumeration over an upper-triangular basis.

One depth-first engine, `_search`, is the only tree walk in the library:
the bounded enumerator `enumerate_below` and every successive-minima
solver in :mod:`ifsmp.smp` (the single pass, the baseline and the oracle)
run on it.  Candidates are restricted to sign-canonical vectors
(last nonzero entry positive); each nonzero vector then stands for the
pair {c, -c}, halving the tree without losing solutions.

Per level i the engine keeps the projection center d_i, the zig-zag step
sign s_i, and the accumulated squared distance of the fixed coordinates
above i, so one node costs O(n) operations.  Radius comparisons are raw
strict ``<`` comparisons: vectors at exactly the radius are excluded.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import PreconditionViolated
from .matrixcore import checked_rows, nearest_integer


def _search(
    rows: list[list[float]],
    beta_sq: float,
    on_leaf: Callable[[list[int], float], Optional[float]],
) -> int:
    """Depth-first search of sign-canonical c with ||R c||^2 < beta_sq.

    ``on_leaf(c, norm_sq)`` is called for every nonzero leaf and may return
    a new squared radius (taking effect immediately).  After a leaf the
    search keeps stepping the lowest coordinate in zig-zag order, so every
    in-radius vector is reached even when the radius just shrank.  Returns
    the number of nonzero leaves visited.
    """
    n = len(rows)
    c = [0] * n
    d = [0.0] * n
    s = [1] * n
    dist = [0.0] * n  # dist[k] = sum_{j>k} r_jj^2 (c_j - d_j)^2
    visits = 0
    k = n - 1  # d_{top} = 0 always; start at c_top = 0
    while True:
        rkk = rows[k][k]
        t = rkk * (c[k] - d[k])
        lhs = t * t
        if lhs < beta_sq - dist[k]:
            if k > 0:
                dist[k - 1] = dist[k] + lhs
                k -= 1
                row = rows[k]
                dk = -sum(row[j] * c[j] for j in range(k + 1, n)) / row[k]
                d[k] = dk
                c[k] = nearest_integer(dk)
                s[k] = 1 if dk - c[k] >= 0 else -1
                continue
            if any(c):
                visits += 1
                new_beta_sq = on_leaf(c, dist[0] + lhs)
                if new_beta_sq is not None:
                    beta_sq = new_beta_sq
        else:
            if k == n - 1:
                return visits
            k += 1
        # step the current coordinate; +1 only where canonical sign pins it
        if k == n - 1 or not any(c[k + 1:]):
            c[k] += 1
        else:
            sk = s[k]
            c[k] += sk
            s[k] = -sk - (1 if sk >= 0 else -1)


def enumerate_below(r_bar, beta: float, visit) -> int:
    """Visit every nonzero sign-canonical c with ||r_bar c|| < beta.

    ``visit(c)`` receives the candidate as an int ndarray and may return a
    new (smaller) radius; updates take effect immediately.  Returns the
    number of vectors visited.
    """
    if not beta > 0:
        raise PreconditionViolated("beta must be positive")
    rows = checked_rows(r_bar)

    def on_leaf(c: list[int], norm_sq: float) -> Optional[float]:
        new_beta = visit(np.array(c, dtype=np.int64))
        return None if new_beta is None else float(new_beta) ** 2

    return _search(rows, float(beta) ** 2, on_leaf)

