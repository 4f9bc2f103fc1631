import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from ifsmp import cholesky, gram_matrix, lll_reduce


def random_gram(rng, nt, p=10.0):
    h = rng.standard_normal((nt, nt))
    return gram_matrix(h, p)


def random_reduced_basis(rng, nt, p=10.0, delta=0.75):
    return lll_reduce(cholesky(random_gram(rng, nt, p)), delta).r_bar


def exact_gram(h, p):
    """The exact G = (I + P H^T H)^-1 of a float channel H and power P, the
    G that `gram_matrix` rounds, as rows of Fractions: Gauss-Jordan
    elimination in rationals on H's and P's float values as they are.
    I + P H^T H is positive definite, so no pivot is zero and no row is
    swapped."""
    hq = [[Fraction(v) for v in row] for row in np.asarray(h, dtype=float).tolist()]
    pq = Fraction(p)
    n = len(hq[0])
    m = [[int(i == j) + pq * sum(r[i] * r[j] for r in hq) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        m[k] = [v / m[k][k] for v in m[k]]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return [row[n:] for row in m]


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the enclosed block once ``seconds`` of wall
    time have passed, so that a call that used to run without bound fails
    in seconds instead of holding the run until faulthandler_timeout (which
    prints stacks and fails nothing).  Skips the test where the platform
    has no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("no SIGALRM on this platform")

    def expire(signum, frame):
        raise TimeoutError(f"call ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
