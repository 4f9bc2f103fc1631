import os
import subprocess
import sys
from importlib.machinery import ExtensionFileLoader
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

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
from ifsmp import matrixcore


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
        # finite H whose H H^T overflows: numpy warns in the product itself
        with pytest.raises(PreconditionViolated), pytest.warns(RuntimeWarning, match="overflow"):
            gram_matrix(np.full((2, 2), 1e200), 1.0)
        # finite H H^T + I/P that is singular in floating point
        for h, p in ((np.ones((3, 3)), 1e20), (np.ones((4, 4)), 1e16)):
            with pytest.raises(NotPositiveDefinite):
                gram_matrix(h, p)

    def test_matches_cho_solve_reference(self, rng):
        # gram_matrix calls LAPACK dposv (dpotrf then dpotrs) directly; G
        # must be the bytes cho_factor/cho_solve give
        for trial in range(500):
            nt = trial % 6 + 1
            nr = nt if trial % 3 else int(rng.integers(1, 7))
            h = rng.standard_normal((nr, nt))
            if trial % 4 == 0 and nt > 1:
                h[:, 1] = h[:, 0]
            p = 10.0 ** rng.uniform(-1.0, 4.0)
            m = h @ h.T + np.eye(nr) / p
            x = cho_solve(cho_factor(m, check_finite=False), h, check_finite=False)
            ref = np.eye(nt) - h.T @ x
            g = gram_matrix(h, p)
            assert g.dtype == np.float64 and g.tobytes() == ((ref + ref.T) / 2).tobytes()

    @pytest.mark.parametrize("linalg_first", [False, True])
    def test_fresh_interpreter_lapack(self, linalg_first):
        # receiver loads scipy's compiled LAPACK extension on its own: a solve
        # must leave scipy itself unimported, and G must keep the bytes of
        # cho_factor/cho_solve when scipy.linalg was imported before ifsmp
        script = f"""
import sys
if {linalg_first}:
    import scipy.linalg
import numpy as np
from ifsmp import gram_matrix, solve_smp
rng = np.random.default_rng(3)
hs = [rng.standard_normal((nr, 3)) for nr in (2, 3, 5)]
gs = [gram_matrix(h, 10.0) for h in hs]
solve_smp(gs[0])
if not {linalg_first}:
    assert "scipy.linalg" not in sys.modules, "import ifsmp imported scipy.linalg"
    assert "scipy" not in sys.modules, "import ifsmp ran scipy's package init"
from scipy.linalg import cho_factor, cho_solve
for h, g in zip(hs, gs):
    m = h @ h.T + np.eye(len(h)) / 10.0
    ref = np.eye(3) - h.T @ cho_solve(cho_factor(m, check_finite=False), h, check_finite=False)
    assert g.tobytes() == ((ref + ref.T) / 2).tobytes()
"""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_missing_flapack_names_the_file(self, tmp_path):
        # a scipy without linalg/_flapack fails the import, naming the file
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("__version__ = '0.0'\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(SRC)])}
        done = subprocess.run([sys.executable, "-c", "import ifsmp"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert "ImportError" in done.stderr
        assert os.path.join(str(tmp_path), "scipy", "linalg", "_flapack") in done.stderr

    def test_flapack_load_falls_back_to_importing_scipy(self, monkeypatch):
        # a failed first load (on Windows: the DLL directory that scipy's
        # __init__ registers) is retried once after importing scipy
        calls = []
        exec_module = ExtensionFileLoader.exec_module

        def failing_once(loader, module):
            calls.append(loader.name)
            if len(calls) == 1:
                raise ImportError("DLL load failed")
            exec_module(loader, module)

        monkeypatch.setattr(ExtensionFileLoader, "exec_module", failing_once)
        flapack = matrixcore._load_flapack()
        assert calls == ["_flapack", "_flapack"]
        r, info = flapack.dpotrf(np.eye(2), lower=0, clean=1)
        assert info == 0 and r.tobytes() == np.eye(2).tobytes()

    def test_missing_scipy_is_module_not_found(self, monkeypatch):
        monkeypatch.setattr(matrixcore, "find_spec", lambda name: None)
        with pytest.raises(ModuleNotFoundError, match="scipy"):
            matrixcore._load_flapack()

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
        # a must be 1-D and as wide as G
        for a in ([1, 0, 0], [[1, 0]], 1):
            with pytest.raises(PreconditionViolated):
                rate_m(a, np.eye(2))
        # a 3x3 or a ragged coefficient matrix for a 2x2 G
        for a in (np.eye(3, dtype=int), [[1, 0, 0], [0, 1]]):
            with pytest.raises(PreconditionViolated):
                total_rate(a, 0.25 * np.eye(2))

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

