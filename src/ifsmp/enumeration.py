"""Schnorr-Euchner sphere enumeration over an upper-triangular basis.

One depth-first engine, `_search`, is the only tree walk in the library:
the bounded enumerator `enumerate_below` and every successive-minima
solver in :mod:`ifsmp.smp` (the single pass, the baseline and the oracle)
run on it.  Candidates are restricted to sign-canonical vectors
(last nonzero entry positive); each nonzero vector then stands for the
pair {c, -c}, halving the tree without losing solutions.

Per level i the engine keeps the projection center d_i, the zig-zag step
sign s_i, and the accumulated squared distance of the fixed coordinates
above i, so one node costs O(n) operations.  The first child is
``round(d_i)``; at a half-way tie both neighbours lie 1/2 away, so the
zig-zag still visits siblings in nondecreasing distance under any tie
rule.  Radius comparisons are raw strict ``<`` comparisons: vectors at
exactly the radius are excluded.

The walk starts at its first real node, level 0 with c = 0.  Descending
to it from level n-1, as the textbook walk does, follows the all-zero
path: every centre there is +-0.0, every partial distance 0.0, and every
caller's radii are positive, so each descent passes and ends in the state
the walk is initialised with.  The one difference, d_k = +0.0 where the
descent computes -0.0, never shows: c_k - d_k is the same float either
way.  Starting at level 0 saves n-1 descents per walk and changes no leaf,
no norm bit and no visit count; with a radius <= 0 or NaN both walks
return 0 visits.

The radius is per subspace: the caller passes one squared radius per
"highest nonzero coordinate" h, nondecreasing in h, and a vector whose
last nonzero entry is c_h is a candidate only below radii[h].  The walk
tracks ``top``, the highest nonzero index of the fixed coordinates c[k:],
and tests a node at level k against radii[top]: every leaf below it ends
at c_top.  `enumerate_below`, the oracle and the baseline pass a flat list,
which is the ordinary sphere; `smp.solve_rsmp` derives tighter radii for
the low subspaces from its basis, so it never enters a region where every
leaf would be rejected, and closes a run of c_0 siblings once a rejection
shows that every later one is rejected too.  The walk trusts its columns
to have come through one of the two ways in (`matrixcore`), which keep
every square it compares a normal float: no radius or distance underflows
to zero or overflows.  r_bar, z and c_star travel as columns; only the walk reads
rows, and `_int64` builds a_star's rows.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, Optional

from .errors import PreconditionViolated
from .matrixcore import _int64, _real, checked_columns


def _search(
    cols: list[list[float]],
    radii: list[float],
    on_leaf: Callable[[list[int], float], Optional[list[float]]],
) -> int:
    """Depth-first search of sign-canonical c with ||R c||^2 < radii[top(c)],
    for the columns of an upper-triangular R, read as rows once, on entry.

    ``radii`` holds one squared radius per highest nonzero index: a vector
    whose last nonzero coordinate is h is a candidate only below radii[h].
    It must be nondecreasing; a flat list is the plain sphere search.
    ``on_leaf(c, norm_sq)`` is called for every nonzero leaf and returns
    None, a new list of squared radii (taking effect immediately), or an
    empty list, which closes the run of c_0 siblings: the walk leaves
    level 0 as after a failed radius test there, so no later sibling of c
    is visited.  After any other leaf the search keeps stepping the lowest
    coordinate in zig-zag order, so every in-radius vector is reached even
    when the radii just shrank.  Returns the number of nonzero leaves
    visited.
    """
    rows = list(zip(*cols))
    n = len(rows)
    c = [0] * n
    d = [0.0] * n
    s = [1] * n
    dist = [0.0] * n  # dist[k] = sum_{j>k} r_jj^2 (c_j - d_j)^2
    visits = 0
    # start at level 0 on the all-zero path: the descent to it from level
    # n-1 passes every test (lhs = 0, dist = 0, positive radii) and ends in
    # this state, up to centres of -0.0 where d holds +0.0, which no step
    # can tell apart (module docstring)
    k = 0
    top = -1  # highest nonzero index of c[k:]; any value below k: c[k:] == 0
    while True:
        rkk = rows[k][k]
        t = rkk * (c[k] - d[k])
        lhs = t * t
        # while c[k:] is zero, lhs = dist[k] = 0 and any radius passes
        if lhs < radii[top] - dist[k]:
            if k > 0:
                dist[k - 1] = dist[k] + lhs
                k -= 1
                row = rows[k]
                dk = -sum(map(mul, row[k + 1:], c[k + 1:])) / row[k]
                d[k] = dk
                c[k] = round(dk)
                s[k] = 1 if dk - c[k] >= 0 else -1
                continue
            if top >= 0:
                visits += 1
                new_radii = on_leaf(c, dist[0] + lhs)
                if new_radii:
                    radii = new_radii
                elif new_radii is not None:  # [] closes the c_0 run
                    if n == 1:
                        return visits
                    k = 1
        else:
            if k == n - 1:
                return visits
            k += 1
        # step the current coordinate; +1 only where canonical sign pins it,
        # that is where c[k+1:] is zero, and then top becomes k.  Siblings
        # share top, except the first one under a zero c[k+1:]: c_k = 0 has
        # lhs = 0 there and always passes, so the zig-zag exit on the first
        # failing sibling stays exact.
        if top <= k:
            c[k] += 1
            top = k
        else:
            sk = s[k]
            c[k] += sk
            s[k] = -sk - (1 if sk >= 0 else -1)


def enumerate_below(r_bar, beta: float, visit) -> int:
    """Visit every nonzero sign-canonical c with ||r_bar c|| < beta.

    ``visit(c)`` receives the candidate as an int64 ndarray (a candidate
    that does not fit raises CoefficientOverflow); its return value is
    ignored, so the radius stays beta for the whole walk.  Returns the
    number of vectors visited.  Raises PreconditionViolated unless beta is
    a positive real scalar (`matrixcore._real`) whose square is finite (an
    infinite radius would never end the walk), then what
    `matrixcore.checked_columns` raises on r_bar.
    """
    b = _real(beta)
    try:
        beta_sq = b ** 2 if b > 0 else math.nan
    except OverflowError:  # a Python float square overflows with an error
        beta_sq = math.inf
    if not beta_sq < math.inf:
        raise PreconditionViolated(f"beta must be positive with a finite square, got {beta!r}")
    cols = checked_columns(r_bar)

    def on_leaf(c: list[int], norm_sq: float) -> None:
        visit(_int64([c])[0])

    return _search(cols, [beta_sq] * len(cols), on_leaf)
