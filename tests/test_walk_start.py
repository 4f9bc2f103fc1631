"""The tree walk starts at level 0, and the unit columns are shared.

`_search` used to descend the all-zero path from level n-1 before its first
real node; it now starts where that descent ends.  `parent_search` below is
the walk as it was, on rows where `_search` takes columns, and every test
here holds the two to the same leaves, bit for bit, in the same order.
"""

import math
from operator import mul

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gram
from ifsmp import (
    Candidate,
    WorkingBasis,
    cholesky,
    gram_matrix,
    lll_reduce,
    solve_smp,
    update_basis,
)
from ifsmp.enumeration import _search
from ifsmp.matrixcore import _units, checked_columns
from ifsmp.smp import _identity_norms


def parent_search(rows, radii, on_leaf):
    """`_search` as it was before it started at level 0: the walk descends
    from k = n - 1 along c = 0."""
    n = len(rows)
    c = [0] * n
    d = [0.0] * n
    s = [1] * n
    dist = [0.0] * n
    visits = 0
    k = n - 1
    top = -1
    while True:
        rkk = rows[k][k]
        t = rkk * (c[k] - d[k])
        lhs = t * t
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
                if new_radii is not None:
                    radii = new_radii
        else:
            if k == n - 1:
                return visits
            k += 1
        if top <= k:
            c[k] += 1
            top = k
        else:
            sk = s[k]
            c[k] += sk
            s[k] = -sk - (1 if sk >= 0 else -1)


class Stop(Exception):
    pass


MAX_LEAVES = 3000


def walk(search, r, radii, shrink):
    """(leaves as (c, norm_sq.hex()), return value or None if stopped at
    MAX_LEAVES, node tests) of one walk on r, the columns or rows that
    ``search`` takes; with ``shrink`` every third leaf caps each radius at
    its squared norm, as the solvers' updates do.  A walk reads
    radii[top] once per node test, and nowhere else."""
    tests = [0]

    class CountingRadii(list):
        def __getitem__(self, k):
            tests[0] += 1
            return super().__getitem__(k)

    leaves = []

    def on_leaf(c, norm_sq):
        leaves.append((tuple(c), norm_sq.hex()))
        if len(leaves) > MAX_LEAVES:
            raise Stop
        if shrink and len(leaves) % 3 == 0:
            return CountingRadii(min(v, norm_sq) for v in radii)
        return None

    try:
        visits = search(r, CountingRadii(radii), on_leaf)
    except Stop:
        visits = None
    return leaves, visits, tests[0]


@st.composite
def reduced_rows(draw):
    """An LLL-reduced Cholesky factor of a Gram matrix, n 1-8, as rows;
    some channels have a duplicated column."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((n, n))
    if n > 1 and draw(st.booleans()):
        h[:, 1] = h[:, 0]
    p = 10.0 ** (draw(st.sampled_from([0.0, 10.0, 20.0, 30.0])) / 10.0)
    return lll_reduce(cholesky(gram_matrix(h, p))).r_bar.tolist()


@st.composite
def raw_rows(draw):
    """An upper-triangular matrix, not reduced, n 1-5, that passes the gate;
    its rows are walked unflipped, so the walk meets negative diagonals."""
    n = draw(st.integers(1, 5))
    entry = st.floats(-1.0, 1.0, allow_subnormal=False)
    diag = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
    r = [[draw(diag) if j == i else draw(entry) if j > i else 0.0 for j in range(n)]
         for i in range(n)]
    checked_columns(r)
    return r


@st.composite
def walks(draw):
    """Rows, nondecreasing squared radii (flat or one per subspace) and
    whether the leaves shrink them."""
    rows = draw(reduced_rows() | raw_rows())
    n = len(rows)
    # a ball that reaches the shortest identity column, and up to past the
    # longest one
    norms_sq = sorted(v * v for v in _identity_norms(list(zip(*rows))))
    scale = draw(st.floats(0.7, 1.3))
    if draw(st.booleans()):
        radii = [scale * norms_sq[-1]] * n
    else:
        fractions = sorted(draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n)))
        radii = [scale * norms_sq[-1] * f for f in fractions]
    return rows, radii, draw(st.booleans())


@settings(derandomize=True, deadline=None, max_examples=400)
@given(walks())
def test_walk_matches_the_walk_from_level_n_minus_1(case):
    rows, radii, shrink = case
    n = len(rows)
    leaves, visits, tests = walk(_search, list(zip(*rows)), radii, shrink)
    ref_leaves, ref_visits, ref_tests = walk(parent_search, rows, radii, shrink)
    assert leaves == ref_leaves
    assert visits == ref_visits
    if visits is not None:
        assert visits == len(leaves)
        # the n - 1 descents along c = 0 are gone, each one node test
        assert ref_tests - tests == n - 1


@settings(derandomize=True, deadline=None, max_examples=60)
@given(reduced_rows() | raw_rows(), st.sampled_from([0.0, -1.0, -math.inf, math.nan]))
def test_no_leaf_below_a_radius_that_is_not_positive(rows, radius):
    # the old walk fails at level n - 1, the new one at each level on its
    # way up from level 0; neither reaches a leaf
    for search, r in ((_search, list(zip(*rows))), (parent_search, rows)):
        assert search(r, [radius] * len(rows), lambda c, norm_sq: 1 / 0) == 0


def test_shared_unit_columns_stay_the_identity(rng):
    expected = {n: tuple(tuple(int(r == k) for r in range(n)) for k in range(n))
                for n in range(1, 9)}
    for n in range(1, 9):
        for p in (1.0, 100.0):
            h = rng.standard_normal((n, n))
            if n > 1:
                h[:, 1] = h[:, 0]
            for g in (random_gram(rng, n, p), gram_matrix(h, p)):
                sol = solve_smp(g)
                lll_reduce(cholesky(g))
                cols = tuple(map(tuple, sol.a_star.T.tolist()))
                norms = sol.lambdas
                # chains of updates that start from the identity basis
                basis = WorkingBasis(cols=expected[n], norms=(norms[-1] + 1.0,) * n)
                for col, norm in zip(cols, norms):
                    basis = update_basis(basis, Candidate(coeffs=col, norm=norm))
                assert sorted(basis.cols) == sorted(cols)
    for n, identity in expected.items():
        units = _units(n)
        assert units == identity
        assert all(type(col) is tuple for col in units)
