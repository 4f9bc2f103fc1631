import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifsmp import (
    NotPositiveDefinite,
    NotSymmetric,
    PreconditionViolated,
    cholesky,
    int_det,
    int_rank,
    nearest_integer,
)


def rational_pivot_cols(m):
    """Independent oracle: greedy column scan with exact rational elimination."""
    m = [[Fraction(int(v)) for v in row] for row in m]
    n_rows = len(m)
    pivots = []
    piv_r = 0
    for col in range(len(m[0])):
        pr = next((r for r in range(piv_r, n_rows) if m[r][col] != 0), None)
        if pr is None:
            continue
        m[piv_r], m[pr] = m[pr], m[piv_r]
        for r in range(piv_r + 1, n_rows):
            f = m[r][col] / m[piv_r][col]
            for c in range(col, len(m[0])):
                m[r][c] -= f * m[piv_r][c]
        pivots.append(col)
        piv_r += 1
    return pivots


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_2x2_closed_form(self):
        r = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(r, [[2.0, 1.0], [0.0, math.sqrt(2)]])

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        # empty, or a NaN / infinite entry anywhere (cholesky reads only
        # the upper triangle, and NaN compares false)
        bad = [np.zeros((0, 0))]
        for pos, value in [((1, 0), np.nan), ((2, 2), np.nan), ((0, 1), np.nan),
                           ((0, 2), np.nan), ((1, 0), np.inf), ((1, 0), -np.inf)]:
            g = np.eye(3) + 0.1
            g[pos] = value
            bad.append(g)
        for g in bad:
            with pytest.raises(PreconditionViolated):
                cholesky(g)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            cholesky(np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_random_spd_reconstruction(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n))
            g = m.T @ m + 0.01 * np.eye(n)
            r = cholesky(g)
            err = np.linalg.norm(r.T @ r - g) / np.linalg.norm(g)
            assert err < 1e-10
            assert np.all(np.diag(r) > 0)


class TestRounding:
    def test_half_ties_to_smaller_magnitude(self):
        assert nearest_integer(0.5) == 0
        assert nearest_integer(-0.5) == 0
        assert nearest_integer(1.5) == 1
        assert nearest_integer(-1.5) == -1

    def test_plain_rounding(self):
        assert nearest_integer(1.3) == 1
        assert nearest_integer(-2.7) == -3
        assert nearest_integer(2.0) == 2

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_odd_symmetry(self, x):
        assert nearest_integer(-x) == -nearest_integer(x)

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_nearest(self, x):
        z = nearest_integer(x)
        assert abs(x - z) <= 0.5


class TestIntEchelon:
    def test_identity(self):
        assert int_rank(np.eye(4, dtype=int)) == 4

    def test_empty_rejected(self):
        for m in (np.zeros((0, 0), dtype=int), np.zeros((0, 3), dtype=int),
                  np.zeros((3, 0), dtype=int), []):
            with pytest.raises(PreconditionViolated):
                int_rank(m)

    def test_rank_one(self):
        assert int_rank([[1, 2], [2, 4]]) == 1
        assert int_rank([[0, 0], [0, 0]]) == 0

    def test_random_vs_rational_oracle(self, rng):
        for _ in range(200):
            m = rng.integers(-9, 10, size=(5, 6))
            assert int_rank(m) == len(rational_pivot_cols(m))
            # column j is independent of columns 0..j-1 exactly when the
            # rank of the prefix grows there
            ranks = [0] + [int_rank(m[:, :j + 1]) for j in range(m.shape[1])]
            grows = [j for j in range(m.shape[1]) if ranks[j + 1] > ranks[j]]
            assert grows == rational_pivot_cols(m)

    def test_rank_permutation_invariant(self, rng):
        for _ in range(50):
            m = rng.integers(-5, 6, size=(4, 5))
            perm = rng.permutation(4)
            assert int_rank(m) == int_rank(m[perm])


class TestIntDet:
    def test_known_values(self):
        assert int_det([[2, 1], [1, 1]]) == 1
        assert int_det([[1, 2], [2, 4]]) == 0
        assert int_det(np.eye(5, dtype=int)) == 1

    def test_empty_and_non_square_rejected(self):
        for m in (np.zeros((0, 0), dtype=int), np.zeros((0, 3), dtype=int), [], [[1, 2]]):
            with pytest.raises(PreconditionViolated):
                int_det(m)

    def test_random_vs_numpy(self, rng):
        for trial in range(360):
            n, kind = trial // 3 % 6 + 1, trial % 3
            m = rng.integers(-4, 5, size=(n, n))
            if kind == 1 and n > 1:  # duplicated row
                m[int(rng.integers(1, n))] = m[0]
            elif kind == 2:  # zero leading column
                m[:, 0] = 0
            assert int_det(m) == round(np.linalg.det(m))
            assert (int_rank(m) == n) == (int_det(m) != 0)
