import signal
from contextlib import contextmanager

import numpy as np
import pytest

from ifsmp import cholesky, gram_matrix, lll_reduce


def random_gram(rng, nt, p=10.0):
    h = rng.standard_normal((nt, nt))
    return gram_matrix(h, p)


def random_reduced_basis(rng, nt, p=10.0, delta=0.75):
    return lll_reduce(cholesky(random_gram(rng, nt, p)), delta).r_bar


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
