import numpy as np
import pytest

from ifsmp import (
    InvalidPower,
    PreconditionViolated,
    SingularCoefficientMatrix,
    ZeroVector,
    cholesky,
    filter_matrix,
    gram_matrix,
    rate_m,
    solve_smp,
    total_rate,
)


class TestGramMatrix:
    def test_zero_channel(self):
        np.testing.assert_allclose(gram_matrix(np.zeros((2, 2)), 5.0), np.eye(2))

    def test_identity_channel_unit_power(self):
        np.testing.assert_allclose(gram_matrix(np.eye(2), 1.0), 0.5 * np.eye(2))

    def test_identity_channel_closed_form(self):
        # for H = I the Gram matrix is I/(1+P)
        np.testing.assert_allclose(gram_matrix(np.eye(2), 9.0), 0.1 * np.eye(2))

    def test_invalid_power(self):
        # 1/P overflows for a subnormal P
        for p in (0.0, -1.0, np.nan, np.inf, 1e-320, np.float64(1e-320)):
            with pytest.raises(InvalidPower):
                gram_matrix(np.eye(2), p)

    def test_invalid_channel(self):
        for h in (np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 0.0]]),
                  np.array([[1.0], [-np.inf]]), np.ones(3)):
            with pytest.raises(PreconditionViolated):
                gram_matrix(h, 10.0)
        # finite H whose H H^T overflows: numpy warns in the product itself
        with pytest.raises(PreconditionViolated), pytest.warns(RuntimeWarning, match="overflow"):
            gram_matrix(np.full((2, 2), 1e200), 1.0)

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


class TestFilterMatrix:
    def test_zero_channel(self):
        b = filter_matrix(np.eye(2, dtype=int), np.zeros((2, 2)), 4.0)
        np.testing.assert_allclose(b, np.zeros((2, 2)))

    def test_identity_scalar_cases(self):
        np.testing.assert_allclose(filter_matrix(np.eye(2, dtype=int), np.eye(2), 1.0),
                                   0.5 * np.eye(2))
        np.testing.assert_allclose(filter_matrix(np.eye(2, dtype=int), np.eye(2), 9.0),
                                   0.9 * np.eye(2))

    def test_invalid_power(self):
        for p in (0.0, -1.0, np.nan, np.inf, 1e-320, np.float64(1e-320)):
            with pytest.raises(InvalidPower):
                filter_matrix(np.eye(2, dtype=int), np.eye(2), p)

    def test_invalid_channel(self):
        a = np.eye(2, dtype=int)
        for h in (np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 0.0]]),
                  np.ones(3), np.ones(2)):
            with pytest.raises(PreconditionViolated):
                filter_matrix(a, h, 10.0)
        with pytest.raises(PreconditionViolated), pytest.warns(RuntimeWarning, match="overflow"):
            filter_matrix(a, np.full((2, 2), 1e200), 1.0)


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
        # a NaN or infinite entry, or a^T G a <= 0 for the first row
        for g in ([[np.nan, 0.0], [0.0, 0.25]], [[np.inf, 0.0], [0.0, 0.25]],
                  [[0.25, -np.inf], [-np.inf, 0.25]], [[-1.0, 0.0], [0.0, 1.0]],
                  [[0.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(PreconditionViolated):
                rate_m([1, 0], g)
            with pytest.raises(PreconditionViolated):
                total_rate(np.eye(2, dtype=int), g)

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

