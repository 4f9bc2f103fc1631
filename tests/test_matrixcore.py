import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from ifsmp import (
    BenchConfig,
    Candidate,
    ConfigError,
    InvalidPower,
    NotPositiveDefinite,
    NotSymmetric,
    PreconditionViolated,
    WorkingBasis,
    cholesky,
    enumerate_below,
    gram_matrix,
    int_det,
    int_rank,
    lll_reduce,
    run_benchmark,
    total_rate,
    update_basis,
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
        # finite, but the last pivot overflows: dpotrf reports success with
        # a NaN on the diagonal
        with pytest.raises(NotPositiveDefinite, match="pivot nan at index 2"):
            cholesky(np.array([[1e-300, 0.0, 1e200], [0.0, 1.0, 0.5], [1e200, 0.5, 1.0]]))
        # empty, not real, or a NaN / infinite entry anywhere (cholesky
        # reads only the upper triangle, and NaN compares false)
        bad = [np.zeros((0, 0)), 1j * np.eye(2), [["x"]], [[1.0, 0.0], [0.0]]]
        for pos, value in [((1, 0), np.nan), ((2, 2), np.nan), ((0, 1), np.nan),
                           ((0, 2), np.nan), ((1, 0), np.inf), ((1, 0), -np.inf)]:
            g = np.eye(3) + 0.1
            g[pos] = value
            bad.append(g)
            # the finite test comes before the symmetry test
            asymmetric = g.copy()
            asymmetric[2, 0] = 5.0
            bad.append(asymmetric)
        for g in bad:
            with pytest.raises(PreconditionViolated):
                cholesky(g)

    def test_asymmetric_rejected(self):
        # non-square comes first, before the empty and finite tests; a pair
        # whose difference overflows is asymmetric, not a float error
        for g in ([[1.0, 0.5], [0.4, 1.0]], [[1.0, 1e308], [-1e308, 1.0]], np.ones(3),
                  np.ones((2, 3)), np.zeros((0, 2)), [[np.nan, 0.0, 1.0]]):
            with pytest.raises(NotSymmetric):
                cholesky(g)
        # asymmetry within 1e-12 of the largest entry is accepted
        r = cholesky(np.array([[4.0, 2.0], [2.0 + 2e-12, 3.0]]))
        np.testing.assert_allclose(r, [[2.0, 1.0], [0.0, math.sqrt(2)]])

    def test_bytes_match_dpotrf_reference(self, rng):
        # R is LAPACK dpotrf's upper factor with the lower triangle zeroed,
        # byte for byte, as scipy.linalg.lapack exports it
        grams = []
        for nt in range(1, 9):
            for p_db in (0.0, 10.0, 20.0):
                p = 10.0 ** (p_db / 10.0)
                grams.append(gram_matrix(rng.standard_normal((nt, nt)), p))
                grams.append(gram_matrix(rng.standard_normal((nt + 2, nt)), p))
                grams.append(gram_matrix(rng.standard_normal((max(nt - 2, 1), nt)), p))
                if nt > 1:
                    h = rng.standard_normal((nt, nt))
                    h[:, 1] = h[:, 0]
                    grams.append(gram_matrix(h, p))
        # integer b^T b with zero entries: exact pivots and zero dots
        while len(grams) < 200:
            n = int(rng.integers(1, 7))
            b = rng.integers(-1, 2, (n, n)) * (rng.random((n, n)) < 0.6)
            if int_det(b) != 0:
                grams.append((b.T @ b).astype(float))
        for g in grams:
            r = cholesky(g)
            assert r.dtype == np.float64 and r.tobytes() == dpotrf(g, lower=0, clean=1)[0].tobytes()

    def test_random_spd_reconstruction(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n))
            g = m.T @ m + 0.01 * np.eye(n)
            r = cholesky(g)
            err = np.linalg.norm(r.T @ r - g) / np.linalg.norm(g)
            assert err < 1e-10
            assert np.all(np.diag(r) > 0)


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

    def test_non_integral_rejected(self):
        # int() would truncate 0.5 to 0 and call an invertible matrix singular
        for m in ([[0.5, 0], [0, 2]], [[1, 0], [0, np.nan]], [[np.inf, 0], [0, 1]],
                  [[1j, 0], [0, 1]], [["1", "0"], ["0", "1"]],
                  # ragged rows, which numpy fails with a bare ValueError
                  [[1, 0, 0], [0, 1]], [[1], [0, 1]]):
            for f in (int_det, int_rank):
                with pytest.raises(PreconditionViolated):
                    f(m)
        for a in ([[0.5, 0], [0, 2]], [[1, 0, 0], [0, 1]]):
            with pytest.raises(PreconditionViolated):
                total_rate(a, 0.25 * np.eye(2))
        # integral floats and Python ints beyond int64 stay exact
        assert int_det([[2.0, 0.0], [0.0, 2.0]]) == 4
        assert int_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
        assert int_det([[2**70, 1], [0, 1]]) == 2**70

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


def _gram_bytes(p):
    return gram_matrix(np.array([[1.0, 0.5], [0.2, 2.0]]), p).tobytes()


def _lll_bytes(delta):
    res = lll_reduce(np.array([[1.0, 0.9], [0.0, 0.5]]), delta)
    return res.z.tobytes(), res.r_bar.tobytes()


def _visits(beta):
    seen = []
    count = enumerate_below(np.diag([1.0, 1.5]), beta, lambda c: seen.append(tuple(c)))
    return count, seen


def _updated(norms, cand_norm):
    out = update_basis(WorkingBasis(cols=((1, 0), (0, 1)), norms=norms),
                       Candidate(coeffs=(1, 1), norm=cand_norm))
    return out.cols, [float.hex(v) for v in out.norms]  # float.hex: Python floats only


def _bench_rates(p_db):
    records, _ = run_benchmark(BenchConfig(nt_list=(2,), p_list_db=(p_db,), trials=1,
                                           algorithms=("new",)))
    return [(r.p_db.hex(), r.rate_total.hex()) for r in records]


# Every site that reads a real scalar, through matrixcore._real: the call,
# its typed error, a valid value that is not an integer and a valid integer.
SCALAR_SITES = {
    "power": (_gram_bytes, InvalidPower, 3.3, 10),
    "delta": (_lll_bytes, PreconditionViolated, 0.99, 1),
    "beta": (_visits, PreconditionViolated, 1.7, 2),
    "candidate-norm": (lambda v: _updated((1.0, 3.0), v), PreconditionViolated, 2.5, 2),
    "basis-norm": (lambda v: _updated((v, 3.0), 2.5), PreconditionViolated, 0.7, 1),
    "p_list_db": (_bench_rates, ConfigError, 3.3, 10),
}


def _not_real(x):
    """No real scalar, whatever the range: a string, None, complex numbers,
    sequences and arrays with ndim > 0, and the object-dtype numbers (an int
    beyond 64 bits, a Fraction) that a real matrix may not hold."""
    return {"str": "10", "None": None, "complex": 1j, "complex128": np.complex128(10),
            "complex-0d": np.array(0.5 + 0j), "list": [x], "array-1d": np.array([x]),
            "huge-int": 10**400, "Fraction": Fraction(1, 2)}


def _reals(x, k):
    """Real scalars of other types than a Python float."""
    return {"float32": np.float32(x), "array-0d": np.array(x), "int64": np.int64(k), "int": k}


@pytest.mark.parametrize("site, kind", [(site, kind) for site in SCALAR_SITES
                                        for kind in _not_real(0.0)])
def test_not_real_scalar_rejected(site, kind):
    run, error, x, _ = SCALAR_SITES[site]
    with pytest.raises(error):
        run(_not_real(x)[kind])


@pytest.mark.parametrize("site, kind", [(site, kind) for site in SCALAR_SITES
                                        for kind in _reals(0.0, 0)])
def test_real_scalar_read_as_float(site, kind):
    run, _, x, k = SCALAR_SITES[site]
    value = _reals(x, k)[kind]
    assert run(value) == run(float(value))
