"""Known-answer lattices: root lattices under unimodular changes of basis.

The Cartan (Gram) matrices of A_n, D_n, E_6, E_7 and E_8 are integer and
positive definite, and every successive minimum of each is sqrt(2) (Conway
& Sloane, "Sphere Packings, Lattices and Groups", ch. 4).  The answer key
is built here from the Dynkin diagrams and shares nothing with the solver.
Each lattice is solved in its Cartan basis and under random unimodular
U = products of 2n elementary column operations u_i <- u_i +- u_j, as
G' = U^T G U, an integer matrix that float64 holds exactly.

The corpus checks exactness and scaling, not the walk: A* must be
invertible and attain the minima exactly (a^T G' a == 2 in Python ints),
and solve_smp(4^k G') must give the same A* and lambda * 2^k bit for bit.
At 2n steps the LLL start basis alone already holds the minima on every
case (a kernel that returned LLL's sorted start basis without walking
failed none of them), so a wrong walk can pass here.  Every lambda is the
float sqrt(2) on 1 of the 242 cases, so the assertion lambda ==
math.sqrt(2) waits for a canonical lambda (ROADMAP items 7, 20).
"""

import numpy as np
import pytest

from ifsmp import int_det, solve_smp

SCALES = (-20, 1, 20)  # solve_smp(4**k * G') is checked against k = 0


def cartan(n, edges):
    """The Cartan matrix of the simply laced Dynkin diagram on n nodes with
    the given edges: 2 on the diagonal, -1 for each edge."""
    g = 2 * np.eye(n, dtype=np.int64)
    for i, j in edges:
        g[i, j] = g[j, i] = -1
    return g


def chain(n):
    return [(i, i + 1) for i in range(n - 1)]


def a_n(n):
    return cartan(n, chain(n))


def d_n(n):
    # A_n with its last node re-attached to node n - 3
    return cartan(n, chain(n - 1) + [(n - 3, n - 1)])


def e_n(n):
    # a chain of n - 1 nodes plus one node on its third node
    return cartan(n, chain(n - 1) + [(2, n - 1)])


# (name, Gram matrix, number of transforms after the identity); fewer at
# n >= 16 keep the suite's share of this file under 2 s
LATTICES = [
    ("A4", a_n(4), 29), ("D4", d_n(4), 29), ("A8", a_n(8), 29), ("D8", d_n(8), 29),
    ("E6", e_n(6), 29), ("E7", e_n(7), 29), ("E8", e_n(8), 29),
    ("A16", a_n(16), 11), ("D16", d_n(16), 11), ("A24", a_n(24), 3), ("D24", d_n(24), 3),
]


def transformed(gram, count, rng):
    """gram itself, then count matrices U^T gram U, each U a product of
    2n random elementary column operations.  The product is formed in
    Python ints, so no int64 sum can wrap unseen."""
    n = len(gram)
    out = [gram]
    for _ in range(count):
        u = np.eye(n, dtype=np.int64)
        for _ in range(2 * n):
            i, j = rng.choice(n, size=2, replace=False)
            u[:, i] += rng.choice((-1, 1)) * u[:, j]
        g = u.astype(object).T @ gram.astype(object) @ u.astype(object)
        assert max(abs(x) for x in g.flat) < 2**52  # exact in float64
        out.append(g.astype(np.int64))
    return out


_rng = np.random.default_rng(5)
CORPUS = {name: transformed(gram, count, _rng) for name, gram, count in LATTICES}


@pytest.mark.parametrize("name", list(CORPUS))
def test_minima_are_attained_exactly(name):
    # det A_n = n + 1, det D_n = 4 and det E_n = 9 - n, the root lattices'
    # discriminants, so the diagrams above are the ones meant
    n = len(CORPUS[name][0])
    assert int_det(CORPUS[name][0].tolist()) == {"A": n + 1, "D": 4, "E": 9 - n}[name[0]]
    for g in CORPUS[name]:
        sol = solve_smp(g.astype(float))
        a = sol.a_star.tolist()
        assert int_det(a) != 0
        rows = g.tolist()
        for col in zip(*a):
            assert sum(x * r * y for x, row in zip(col, rows) for r, y in zip(row, col)) == 2
        for k in SCALES:
            scaled = solve_smp(4.0**k * g)
            assert scaled.a_star.tobytes() == sol.a_star.tobytes()
            assert [x.hex() for x in scaled.lambdas] == [(x * 2.0**k).hex() for x in sol.lambdas]
