import itertools
import math

import numpy as np
import pytest

from conftest import random_reduced_basis
from ifsmp import PreconditionViolated, brute_force_smp, enumerate_below, int_rank


def box_oracle(r_bar, beta, strict=True, canonical=True):
    """Exhaustive box search; independent of the tree enumeration."""
    r = np.asarray(r_bar, dtype=float)
    n = r.shape[0]
    bounds = [0] * n
    for i in range(n - 1, -1, -1):
        slack = beta + sum(abs(r[i, j]) * bounds[j] for j in range(i + 1, n))
        bounds[i] = int(math.floor(slack / abs(r[i, i]))) + 1
    out = []
    for c in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if not any(c):
            continue
        if canonical:
            last = next(v for v in reversed(c) if v != 0)
            if last < 0:
                continue
        norm = np.linalg.norm(r @ np.array(c))
        if (norm < beta) if strict else (norm <= beta):
            out.append(tuple(c))
    return set(out)


def collect(r_bar, beta):
    seen = []
    count = enumerate_below(r_bar, beta, lambda c: seen.append(tuple(int(v) for v in c)))
    return seen, count


class TestEnumerateBelow:
    def test_unit_lattice_radius_1_5(self):
        seen, count = collect(np.eye(2), 1.5)
        assert set(seen) == {(1, 0), (0, 1), (1, 1), (-1, 1)}
        assert count == 4

    def test_strict_radius_excludes_boundary(self):
        _, count = collect(np.eye(2), 1.0)
        assert count == 0

    def test_diagonal_lattice(self):
        seen, count = collect(np.diag([1.0, 3.0]), 2.5)
        assert set(seen) == {(1, 0), (2, 0)}
        assert count == 2

    def test_nonpositive_beta_rejected(self):
        # beta must be positive with a finite square: an infinite one would
        # never end the walk, and 1e308 ** 2 overflows.  What is a real
        # scalar is pinned in test_matrixcore.py's table
        for beta in (0.0, -1.0, np.nan, np.inf, 1e308):
            with pytest.raises(PreconditionViolated):
                enumerate_below(np.eye(2), beta, lambda c: None)

    def test_matches_box_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 6))
            r_bar = random_reduced_basis(rng, n)
            lam1 = min(np.linalg.norm(r_bar @ np.array(c))
                       for c in box_oracle(r_bar, 1.0001 * min(np.linalg.norm(r_bar, axis=0)),
                                           strict=False))
            beta = 1.5 * lam1
            seen, _ = collect(r_bar, beta)
            assert set(seen) == box_oracle(r_bar, beta)

    def test_exact_half_centres_match_box_oracle(self, rng):
        # integer r with diagonal 2 puts many centres exactly half-way
        # between two integers; every squared norm is an integer, so a
        # radius sqrt(m + 1/2) keeps every vector off the boundary
        for _ in range(40):
            n = int(rng.integers(2, 5))
            r_bar = np.triu(rng.integers(-1, 2, (n, n)), 1) + 2 * np.eye(n)
            beta = math.sqrt(int(rng.integers(4, 20)) + 0.5)
            seen, _ = collect(r_bar, beta)
            assert set(seen) == box_oracle(r_bar, beta)

    def test_half_of_unsigned_count(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            r_bar = random_reduced_basis(rng, n)
            beta = 1.5 * float(np.min(np.linalg.norm(r_bar, axis=0)))
            _, count = collect(r_bar, beta)
            unsigned = box_oracle(r_bar, beta, canonical=False)
            assert 2 * count == len(unsigned)

    def test_visitor_return_value_ignored(self):
        # the radius stays beta whatever the visitor returns: an infinite
        # one never ends the walk, and 1e308 ** 2 overflows
        for ret in (math.inf, 1e308):
            assert enumerate_below(np.eye(2), 1.5, lambda c: ret) == 4


class TestBruteForceReference:
    def test_matches_box_oracle_selection(self, rng):
        # an oracle independent of the tree walk: the box at the same radius,
        # sorted by numpy norm, then the same exact greedy selection
        for _ in range(60):
            n = int(rng.integers(2, 6))
            r_bar = random_reduced_basis(rng, n, p=float(rng.choice([1.0, 10.0, 100.0])))
            beta = float(np.max(np.linalg.norm(r_bar, axis=0))) * (1 + 1e-9)
            ball = sorted((float(np.linalg.norm(r_bar @ np.array(c))), c)
                          for c in box_oracle(r_bar, beta))
            chosen, expected = [], []
            for norm, c in ball:
                if int_rank(chosen + [c]) > len(chosen):
                    chosen.append(c)
                    expected.append(norm)
            assert len(chosen) == n
            _, lambdas = brute_force_smp(r_bar)
            assert lambdas == pytest.approx(expected, rel=1e-12)
