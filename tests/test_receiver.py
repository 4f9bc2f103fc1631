import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import exact_gram

from ifsmp import (
    InvalidPower,
    NotPositiveDefinite,
    PreconditionViolated,
    SingularCoefficientMatrix,
    ZeroVector,
    cholesky,
    gram_matrix,
    rate_m,
    solve_smp,
    total_rate,
)
from ifsmp.receiver import _rate


SRC = Path(__file__).resolve().parent.parent / "src"

# complex, string and ragged matrices: numpy would cast the first with only
# a ComplexWarning and fail the others with a bare ValueError
NOT_REAL = (1j * np.eye(2), [["x"]], [[1.0, 2.0], [3.0]])


class TestGramMatrix:
    def test_zero_channel(self):
        np.testing.assert_allclose(gram_matrix(np.zeros((2, 2)), 5.0), np.eye(2))

    def test_identity_channel_unit_power(self):
        np.testing.assert_allclose(gram_matrix(np.eye(2), 1.0), 0.5 * np.eye(2))

    def test_identity_channel_closed_form(self):
        # for H = I the Gram matrix is I/(1+P)
        np.testing.assert_allclose(gram_matrix(np.eye(2), 9.0), 0.1 * np.eye(2))

    def test_invalid_power(self):
        # out of range; 1/P overflows for a subnormal P.  What is a real
        # scalar is pinned in test_matrixcore.py's table
        for p in (0.0, -1.0, np.nan, np.inf, 1e-320, np.float64(1e-320)):
            with pytest.raises(InvalidPower):
                gram_matrix(np.eye(2), p)

    def test_invalid_channel(self):
        for h in (np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 0.0]]),
                  np.array([[1.0], [-np.inf]]), np.ones(3), *NOT_REAL, np.zeros((0, 2)),
                  np.zeros((2, 0))):
            with pytest.raises(PreconditionViolated):
                gram_matrix(h, 10.0)
        # finite H whose H H^T would overflow: rejected before the product,
        # with no warning (warnings are errors in this suite)
        with pytest.raises(PreconditionViolated):
            gram_matrix(np.full((2, 2), 1e200), 1.0)
        # a normal P whose 1/P is finite and 2/P is not fails the same bound
        with pytest.raises(PreconditionViolated):
            gram_matrix(np.eye(2), 1e-308)
        # finite H H^T + I/P that is singular in floating point
        for h, p in ((np.ones((3, 3)), 1e20), (np.ones((4, 4)), 1e16)):
            with pytest.raises(NotPositiveDefinite):
                gram_matrix(h, p)

    def test_matches_numpy_linalg_reference(self, rng):
        # gram_matrix factors M = H H^T + I/P = U^T U with numpy's LAPACK and
        # returns G = I - W^T W, W = U^-T H: G must be the bytes that
        # np.linalg.cholesky(upper=True) and np.linalg.inv give, and exactly
        # symmetric (numpy's A^T A product)
        for trial in range(500):
            nt = trial % 6 + 1
            nr = nt if trial % 3 else int(rng.integers(1, 7))
            h = rng.standard_normal((nr, nt))
            if trial % 4 == 0 and nt > 1:
                h[:, 1] = h[:, 0]
            p = 10.0 ** rng.uniform(-1.0, 4.0)
            m = h @ h.T + np.eye(nr) / p
            w = np.linalg.inv(np.linalg.cholesky(m, upper=True)).T @ h
            ref = np.eye(nt) - w.T @ w
            g = gram_matrix(h, p)
            assert g.dtype == np.float64 and g.tobytes() == ref.tobytes()
            assert g.tobytes() == g.T.tobytes()

    def test_close_to_exact_gram(self):
        # G = I - W^T W with W = U^-T H from the Cholesky factor U of
        # M = H H^T + I/P, whose condition number is 1 + P sigma_max^2
        # (sigma_max: H's largest singular value); to first order the error
        # relative to max|G| is c eps (1 + P sigma_max^2).  c = 4 (n) holds
        # a 5x margin over the worst measured error / (eps (1 + P sigma_max^2)),
        # 0.75 (Gaussian, 10 dB); near-rank channels (column 1 = column 0
        # + 1e-4 N(0, 1)) stay below 0.18.  ROADMAP item 9 tabulates the
        # errors
        rng = np.random.default_rng(11)
        for near_rank in (False, True):
            for p_db in (0, 10, 20, 30, 40):
                p = 10.0 ** (p_db / 10)
                for _ in range(30):
                    h = rng.standard_normal((4, 4))
                    if near_rank:
                        h[:, 1] = h[:, 0] + 1e-4 * rng.standard_normal(4)
                    g, exact = gram_matrix(h, p).tolist(), exact_gram(h, p)
                    err = max(abs(Fraction(x) - e)
                              for row, ex in zip(g, exact) for x, e in zip(row, ex))
                    scale = max(abs(e) for row in exact for e in row)
                    sigma_max = np.linalg.norm(h, 2)
                    assert err <= 4 * 2.0**-52 * (1 + p * sigma_max**2) * scale

    @pytest.mark.parametrize("linalg_first", [False, True])
    def test_fresh_interpreter_lapack(self, linalg_first):
        # the library needs no scipy: with scipy blocked, import ifsmp and a
        # solve run warning-free and load no scipy module and, on Linux, map
        # no scipy library; G's bytes do not depend on whether scipy.linalg
        # (and its own OpenBLAS) was loaded first.  A solve loads no part of
        # the benchmark harness either: not ifsmp.bench, nor (where
        # scipy.linalg has not loaded it) the csv module the harness writes
        # with
        rng = np.random.default_rng(3)
        hs = [rng.standard_normal((nr, 3)) for nr in (2, 3, 5)]
        script = f"""
import sys
if {linalg_first}:
    import scipy.linalg
else:
    sys.modules["scipy"] = None
import numpy as np
from ifsmp import gram_matrix, solve_smp
rng = np.random.default_rng(3)
gs = [gram_matrix(rng.standard_normal((nr, 3)), 10.0) for nr in (2, 3, 5)]
solve_smp(gs[0])
assert "ifsmp.bench" not in sys.modules
if not {linalg_first}:
    assert "csv" not in sys.modules
    assert [m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m]] == []
    if sys.platform.startswith("linux"):
        with open("/proc/self/maps") as maps:
            mapped = maps.read()
        assert "scipy.libs" not in mapped and "_flapack" not in mapped, mapped
print("".join(g.tobytes().hex() for g in gs))
"""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "".join(gram_matrix(h, 10.0).tobytes().hex() for h in hs)

    def test_spd_and_eigen_range(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            h = rng.standard_normal((int(rng.integers(1, 7)), n))
            p = float(rng.uniform(0.1, 100.0))
            g = gram_matrix(h, p)
            np.testing.assert_allclose(g, g.T)
            r = cholesky(g)  # raises if any pivot <= 0
            assert np.all(np.diag(r) > 0)
            assert np.max(np.linalg.eigvalsh(g)) <= 1.0 + 1e-12


def _perfbench_channels(configs, rank_deficient, seed, count):
    """The first count (H, P) channels of a perfbench workload: per config k,
    draws from default_rng([seed, k]), interleaved round-robin, with column
    0 of H copied into column 1 when rank_deficient."""
    blocks = []
    for k, (nt, p_db) in enumerate(configs):
        hs = np.random.default_rng([seed, k]).standard_normal((-(-count // len(configs)), nt, nt))
        if rank_deficient:
            hs[:, :, 1] = hs[:, :, 0]
        blocks.append([(h, 10.0 ** (p_db / 10.0)) for h in hs])
    return [channel for group in zip(*blocks) for channel in group][:count]


class TestRates:
    def test_unit_quadratic_form_clamps(self):
        assert rate_m(np.array([1, 0]), np.eye(2)) == 0.0

    def test_quarter_identity(self):
        assert rate_m(np.array([1, 0]), 0.25 * np.eye(2)) == pytest.approx(1.0)

    def test_clamp_above_one(self):
        assert rate_m(np.array([1, 0]), 4.0 * np.eye(2)) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            rate_m(np.zeros(2, dtype=int), np.eye(2))

    def test_invalid_gram_rejected(self):
        # a NaN or infinite entry, a^T G a <= 0 for the first row, or a G
        # that is not square or not as wide as a
        for g in ([[np.nan, 0.0], [0.0, 0.25]], [[np.inf, 0.0], [0.0, 0.25]],
                  [[0.25, -np.inf], [-np.inf, 0.25]], [[-1.0, 0.0], [0.0, 1.0]],
                  [[0.0, 0.0], [0.0, 1.0]], 0.25 * np.eye(3), np.ones((2, 3)),
                  np.ones((3, 2)), [0.25, 0.25], 0.25):
            with pytest.raises(PreconditionViolated):
                rate_m([1, 0], g)
            with pytest.raises(PreconditionViolated):
                total_rate(np.eye(2, dtype=int), g)
        # a must be 1-D and as wide as G; a shape error names a's own shape
        for a, match in (([1, 0, 0], "as wide as a"), ([[1, 0]], r"shape \(1, 2\)"),
                         (1, r"shape \(\)")):
            with pytest.raises(PreconditionViolated, match=match):
                rate_m(a, np.eye(2))
        # a 3x3 or a ragged coefficient matrix for a 2x2 G
        for a in (np.eye(3, dtype=int), [[1, 0, 0], [0, 1]]):
            with pytest.raises(PreconditionViolated):
                total_rate(a, 0.25 * np.eye(2))

    def test_large_product_is_exact(self):
        # a^T G a beyond the float range is an exact int, so q >= 1 gives
        # 0.0 with no overflow and no warning
        cases = [([1e100, 0], 1e150 * np.eye(2)),
                 ([1e100, -1e100], 1e150 * np.array([[1.0, 0.9], [0.9, 1.0]]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, g in cases:
                assert rate_m(a, g) == 0.0

    def test_cancelling_rows_are_exact(self):
        # in floats each row's a^T G a cancels to 0.0; exactly it is 2^-10
        a = [[2**53 + 1, 2**53], [0, 1]]
        assert total_rate(a, 2.0**-10 * np.array([[1, -1], [-1, 1]])) == 10.0

    def test_non_real_rejected(self):
        # checked before the cast to float, which would drop 1j silently
        for a in ([1j, 0], ["1", "0"]):
            with pytest.raises(PreconditionViolated):
                rate_m(a, 0.25 * np.eye(2))
        for g in NOT_REAL:
            with pytest.raises(PreconditionViolated):
                rate_m([1, 0], g)

    def test_total_rate_checks_g_once(self):
        # G is checked before any row's product: a NaN or infinite entry, a
        # non-real or misshapen G raises whichever rows a holds, and a later
        # row with a^T G a <= 0 raises too
        for a in (np.eye(2, dtype=int), [[1, 1], [0, 1]], [[0, 1], [1, 0]]):
            for g in ([[0.25, 0.0], [0.0, np.nan]], [[0.25, np.inf], [np.inf, 0.25]],
                      *NOT_REAL, 0.25 * np.eye(3), np.ones((2, 3)), [0.25, 0.25], 0.25):
                with pytest.raises(PreconditionViolated):
                    total_rate(a, g)
        with pytest.raises(PreconditionViolated, match="not positive"):
            total_rate(np.eye(2, dtype=int), [[0.25, 0.0], [0.0, -1.0]])

    def test_total_rate_is_the_row_minimum_bit_for_bit(self, rng):
        # one G check, then each row's a^T G a as rate_m forms it
        cases = []
        for nt in range(1, 9):
            for p_db in (0.0, 10.0, 20.0, 30.0):
                h = rng.standard_normal((nt, nt))
                if nt > 1 and p_db > 10.0:
                    h[:, 1] = h[:, 0]
                g = gram_matrix(h, 10.0 ** (p_db / 10.0))
                cases.append((solve_smp(g).a_star.T, g))
                a = rng.integers(-3, 4, size=(nt, nt))
                if round(np.linalg.det(a)) != 0:
                    cases.append((a, g))
        for a, g in cases:
            expected = len(a) * min(rate_m(row, g) for row in a)
            assert total_rate(a, g).hex() == expected.hex()
            assert total_rate(a.tolist(), g.tolist()).hex() == expected.hex()

    def test_total_rate_is_exact_on_perfbench_channels(self):
        # the first 500 channels of perfbench's workloads, drawn as it draws
        # them: total_rate is N_t * _rate of the largest exact q over the
        # rows, rounded once
        workloads = (([(nt, p_db) for nt in (2, 4) for p_db in (0.0, 10.0, 20.0)], False),
                     ([(4, 12.0)], True))
        for configs, rank_deficient in workloads:
            for seed in (1, 7919):
                for h, p in _perfbench_channels(configs, rank_deficient, seed, 500):
                    g = gram_matrix(h, p)
                    a = solve_smp(g).a_star.T.tolist()
                    exact = [[Fraction(x) for x in row] for row in g.tolist()]
                    q = max(sum(u * x * v for u, row in zip(a_m, exact) for x, v in zip(row, a_m))
                            for a_m in a)
                    assert total_rate(a, g).hex() == (len(a) * _rate(float(q))).hex()

    def test_total_rate(self):
        assert total_rate(np.eye(2, dtype=int), 0.25 * np.eye(2)) == pytest.approx(2.0)
        assert total_rate(np.eye(2, dtype=int), np.eye(2)) == 0.0

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularCoefficientMatrix):
            total_rate(np.array([[1, 2], [2, 4]]), 0.25 * np.eye(2))

    def test_optimum_beats_random_matrices(self, rng):
        h = rng.standard_normal((3, 3))
        g = gram_matrix(h, 10.0)
        best = total_rate(solve_smp(g).a_star.T, g)
        tried = 0
        while tried < 100:
            a = rng.integers(-3, 4, size=(3, 3))
            if round(np.linalg.det(a)) == 0:
                continue
            tried += 1
            assert best >= total_rate(a, g) - 1e-12

    def test_rate_nondecreasing_in_power(self, rng):
        h = rng.standard_normal((3, 3))
        rates = []
        for p_db in range(0, 21, 4):
            p = 10.0 ** (p_db / 10.0)
            g = gram_matrix(h, p)
            rates.append(total_rate(solve_smp(g).a_star.T, g))
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_rows_columns_round_trip(self, rng):
        # solver objective (columns) must equal the worst row quadratic form
        # after transposing for the rate side
        h = rng.standard_normal((3, 3))
        g = gram_matrix(h, 10.0)
        sol = solve_smp(g)
        rows = sol.a_star.T
        worst = max(float(rows[m].astype(float) @ g @ rows[m].astype(float))
                    for m in range(3))
        assert worst == pytest.approx(sol.objective, rel=1e-9)
        assert total_rate(rows, g) == pytest.approx(sol.rate_total, rel=1e-9, abs=1e-12)

