import math

import numpy as np
import pytest

from conftest import random_gram, random_reduced_basis
from ifsmp import (
    Candidate,
    DimensionTooLarge,
    PreconditionViolated,
    SingularCoefficientMatrix,
    WorkingBasis,
    baseline_smp,
    brute_force_smp,
    cholesky,
    gram_matrix,
    int_det,
    lll_reduce,
    solve_rsmp,
    solve_smp,
    update_basis,
)
from ifsmp.bench import REDUCED_SOLVERS
from ifsmp.smp import _adjugate, _exchange, _int_matmul, _pipeline


def largest_removable(cols, norms, cand, cand_norm):
    """Expected update_basis result, by exhaustive determinants: insert the
    candidate after every column of norm <= its own, then drop the largest
    index whose removal leaves an invertible matrix."""
    n = len(cols)
    i = sum(1 for v in norms if v <= cand_norm)
    tilde = list(cols[:i]) + [tuple(cand)] + list(cols[i:])
    tilde_norms = list(norms[:i]) + [cand_norm] + list(norms[i:])
    for j in range(n, i - 1, -1):
        trimmed = [c for idx, c in enumerate(tilde) if idx != j]
        if int_det(np.array(trimmed).T) != 0:
            return trimmed, [v for idx, v in enumerate(tilde_norms) if idx != j]
    raise AssertionError("no removable column")


def basis_of(r_bar, cols):
    r = np.asarray(r_bar, dtype=float)
    norms = tuple(float(np.linalg.norm(r @ np.array(c))) for c in cols)
    return WorkingBasis(cols=tuple(tuple(c) for c in cols), norms=norms)


class TestUpdateBasis:
    def test_norm_precondition(self):
        basis = basis_of(np.diag([1.0, 2.0]), [(1, 0), (0, 1)])
        with pytest.raises(PreconditionViolated):
            update_basis(basis, Candidate(coeffs=(3, 0), norm=3.0))

    def test_zero_candidate_rejected(self):
        basis = basis_of(np.diag([1.0, 2.0]), [(1, 0), (0, 1)])
        with pytest.raises(PreconditionViolated):
            update_basis(basis, Candidate(coeffs=(0, 0), norm=0.0))

    def test_singular_basis_rejected(self):
        basis = WorkingBasis(cols=((1, 1), (2, 2)), norms=(1.0, 2.0))
        with pytest.raises(SingularCoefficientMatrix):
            update_basis(basis, Candidate(coeffs=(1, 0), norm=1.0))

    def test_replaces_longest_dependent_prefix(self):
        # basis {(1,0),(1,1)} under diag(1,2); candidate (0,1) lands in the
        # middle and the old long column is the one dropped
        r = np.diag([1.0, 2.0])
        basis = basis_of(r, [(1, 0), (1, 1)])
        cand = Candidate(coeffs=(0, 1), norm=2.0)
        out = update_basis(basis, cand)
        assert out.cols == ((1, 0), (0, 1))
        assert out.norms == pytest.approx((1.0, 2.0))

    def test_dependent_candidate_dropped(self):
        r = np.diag([1.0, 2.0])
        basis = basis_of(r, [(1, 0), (0, 1)])
        out = update_basis(basis, Candidate(coeffs=(1, 0), norm=1.0))
        assert out == basis

    def test_always_full_rank_and_monotone(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            r_bar = random_reduced_basis(rng, n)
            while True:
                c_mat = rng.integers(-3, 4, size=(n, n))
                if int_det(c_mat) != 0:
                    break
            cols = sorted(
                (tuple(int(v) for v in c_mat[:, k]) for k in range(n)),
                key=lambda c: np.linalg.norm(r_bar @ np.array(c)),
            )
            basis = basis_of(r_bar, cols)
            for _ in range(40):
                cand = tuple(int(v) for v in rng.integers(-2, 3, size=n))
                norm = float(np.linalg.norm(r_bar @ np.array(cand)))
                if any(cand) and norm < basis.norms[-1]:
                    break
            else:
                continue
            out = update_basis(basis, Candidate(coeffs=cand, norm=norm))
            assert int_det(out.matrix()) != 0
            assert list(out.norms) == sorted(out.norms)
            assert all(a <= b + 1e-12 for a, b in zip(out.norms, basis.norms))

    def test_equal_norm_newcomer_goes_last(self):
        # norm tie with (1,0): the candidate lands after it and replaces (0,1)
        basis = WorkingBasis(cols=((1, 0), (0, 1)), norms=(1.0, 2.0))
        out = update_basis(basis, Candidate(coeffs=(1, 1), norm=1.0))
        assert out.cols == ((1, 0), (1, 1))
        # tie with (1,0) again, but (2,0) lies in its span: rejected
        basis = WorkingBasis(cols=((1, 0), (0, 1)), norms=(2.0, 3.0))
        assert update_basis(basis, Candidate(coeffs=(2, 0), norm=2.0)) == basis

    def test_exchange_keeps_exact_inverse(self, rng):
        # chains of updates on random invertible bases; small integer norms
        # make equal-norm ties common
        accepted = rejected = 0
        for _ in range(150):
            n = int(rng.integers(1, 6))
            while True:
                c_mat = rng.integers(-3, 4, size=(n, n))
                if int_det(c_mat) != 0:
                    break
            cols = [tuple(int(v) for v in c_mat[:, k]) for k in range(n)]
            norms = sorted(float(v) for v in rng.integers(1, 6, size=n))
            adj, d = _adjugate(cols), int_det(cols)
            for _ in range(10):
                if norms[-1] == 1.0:
                    break
                if rng.random() < 0.5:
                    cand = tuple(int(v) for v in rng.integers(-2, 3, size=n))
                else:  # a combination of leading columns, often rejected
                    mix = rng.integers(-1, 2, size=int(rng.integers(1, n + 1)))
                    cand = tuple(
                        sum(int(w) * col[r] for w, col in zip(mix, cols)) for r in range(n)
                    )
                cand_norm = float(rng.integers(1, int(norms[-1])))
                if not any(cand):
                    continue
                expected = largest_removable(cols, norms, cand, cand_norm)
                new_d = _exchange(cols, norms, adj, d, list(cand), cand_norm)
                assert (cols, norms) == expected
                if new_d is None:
                    rejected += 1
                    continue
                accepted += 1
                d = new_d
                c_now = np.array(cols, dtype=object).T
                assert (np.array(adj, dtype=object) @ c_now == d * np.eye(n, dtype=int)).all()
        assert accepted > 100 and rejected > 100


class TestSolveRsmp:
    def test_unit_lattice(self):
        c_star, lambdas = solve_rsmp(np.eye(3))
        assert lambdas == pytest.approx([1.0, 1.0, 1.0])
        assert abs(int_det(c_star)) == 1

    def test_diagonal_sorting(self):
        c_star, lambdas = solve_rsmp(np.diag([3.0, 1.0]))
        assert lambdas == pytest.approx([1.0, 3.0])
        assert c_star[:, 0].tolist() == [0, 1]
        assert c_star[:, 1].tolist() == [1, 0]

    def test_small_triangular_vs_oracle(self):
        r_bar = np.array([[1.0, 0.5], [0.0, 0.9]])
        _, lambdas = solve_rsmp(r_bar)
        _, expected = brute_force_smp(r_bar)
        assert lambdas == pytest.approx(expected, rel=1e-12)

    def test_oracle_equivalence_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            r_bar = random_reduced_basis(rng, n, p=float(rng.choice([1.0, 10.0, 100.0])))
            c_star, lambdas = solve_rsmp(r_bar)
            _, expected = brute_force_smp(r_bar)
            assert lambdas == pytest.approx(expected, rel=1e-9)
            assert int_det(c_star) != 0
            # reported norms are recomputable from the columns
            for k in range(n):
                recomputed = float(np.linalg.norm(r_bar @ c_star[:, k].astype(float)))
                assert lambdas[k] == pytest.approx(recomputed, rel=1e-12)

    def test_norm_invariant_under_reduction(self, rng):
        for _ in range(25):
            r_bar = random_reduced_basis(rng, 4, p=1.0)
            # a second reduction pass preserves the lattice, hence lambda_1
            again = lll_reduce(r_bar, 0.99)
            _, l1 = solve_rsmp(r_bar)
            _, l2 = solve_rsmp(again.r_bar)
            assert l1[0] == pytest.approx(l2[0], rel=1e-9)


class TestBruteForce:
    def test_unit_lattice(self):
        _, lambdas = brute_force_smp(np.eye(2))
        assert lambdas == pytest.approx([1.0, 1.0])

    def test_diagonal(self):
        _, lambdas = brute_force_smp(np.diag([1.0, 5.0]))
        assert lambdas == pytest.approx([1.0, 5.0])

    def test_skewed(self):
        c_star, lambdas = brute_force_smp(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert lambdas == pytest.approx([2.0, math.sqrt(5.0)])
        assert int_det(c_star) != 0

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            brute_force_smp(np.eye(9))

    def test_8x8_identity_column_at_the_radius(self):
        # np.linalg.norm along axis 0 and axis 1 round 8-entry columns
        # differently; the longest identity column must still be a candidate
        r_bar = np.eye(8)
        r_bar[:, 7] = [-0.25998599473973916, -0.09341401271752489, -0.04182076083130004,
                       0.2796372484704421, 0.037339105337074185, -0.14468124409744065,
                       -0.15499457154339302, 1.0]
        c_star, lambdas = brute_force_smp(r_bar)
        _, expected = solve_rsmp(r_bar)
        assert lambdas == pytest.approx(expected, rel=1e-12)
        assert lambdas[-1] == pytest.approx(1.0966380671809, rel=1e-12)
        assert int_det(c_star) != 0


class TestBaseline:
    def test_unit_lattice(self):
        _, lambdas = baseline_smp(np.eye(3))
        assert lambdas == pytest.approx([1.0, 1.0, 1.0])

    def test_diagonal(self):
        c_star, lambdas = baseline_smp(np.diag([1.0, 2.0, 3.0]))
        assert lambdas == pytest.approx([1.0, 2.0, 3.0])
        assert np.abs(c_star).tolist() == np.eye(3, dtype=int).tolist()

    def test_agrees_with_single_pass(self, rng):
        for _ in range(50):
            r_bar = random_reduced_basis(rng, 4)
            _, l_base = baseline_smp(r_bar)
            _, l_new = solve_rsmp(r_bar)
            assert l_base == pytest.approx(l_new, rel=1e-9)


class TestSolveSmp:
    def test_identity_gram(self):
        sol = solve_smp(np.eye(3))
        assert sol.lambdas == pytest.approx((1.0, 1.0, 1.0))
        assert sol.objective == pytest.approx(1.0)
        assert sol.rate_total == 0.0

    def test_diagonal_gram(self):
        sol = solve_smp(np.diag([9.0, 1.0]))
        assert sol.lambdas == pytest.approx((1.0, 3.0))
        assert sol.objective == pytest.approx(9.0)

    def test_random_vs_oracle(self, rng):
        g = random_gram(rng, 4, p=10.0)
        sol = solve_smp(g)
        r_bar = lll_reduce(cholesky(g)).r_bar
        _, expected = brute_force_smp(r_bar)
        assert list(sol.lambdas) == pytest.approx(expected, rel=1e-9)

    def test_solution_invariants(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            g = random_gram(rng, n, p=float(rng.choice([1.0, 10.0])))
            sol = solve_smp(g)
            assert int_det(sol.a_star) != 0
            assert list(sol.lambdas) == sorted(sol.lambdas)
            r = cholesky(g)
            for k in range(n):
                norm = float(np.linalg.norm(r @ sol.a_star[:, k].astype(float)))
                assert sol.lambdas[k] == pytest.approx(norm, rel=1e-9)

    def test_rank_deficient_channel(self, rng):
        # column 1 of H equals column 0: one long minimum, three short ones
        for p_db in (12.0, 20.0):
            for _ in range(3):
                h = rng.standard_normal((4, 4))
                h[:, 1] = h[:, 0]
                g = gram_matrix(h, 10.0 ** (p_db / 10.0))
                sol = solve_smp(g)
                _, expected = brute_force_smp(lll_reduce(cholesky(g)).r_bar)
                assert list(sol.lambdas) == pytest.approx(expected, rel=1e-9)
                assert int_det(sol.a_star) != 0
                norms = np.linalg.norm(cholesky(g) @ sol.a_star.astype(float), axis=0)
                assert list(sol.lambdas) == pytest.approx(list(norms), rel=1e-9)

    def test_objective_scaling_covariance(self, rng):
        g = random_gram(rng, 3, p=10.0)
        base = solve_smp(g).objective
        for alpha in (0.5, 2.0, 7.0):
            assert solve_smp(alpha * g).objective == pytest.approx(alpha * base, rel=1e-9)

    def test_staged_path_bit_identical(self, rng):
        # inputs the benchmark never draws: Gaussian nt 5-8, n_r != n_t,
        # and a rank-deficient H at 20 dB
        cases = [(rng.standard_normal((nt, nt)), p_db)
                 for nt in (5, 6, 7, 8) for p_db in (0.0, 10.0, 20.0)]
        cases += [(rng.standard_normal(shape), 10.0)
                  for shape in ((2, 4), (6, 3), (3, 5), (5, 2))]
        for _ in range(3):
            h = rng.standard_normal((4, 4))
            h[:, 1] = h[:, 0]
            cases.append((h, 20.0))
        for h, p_db in cases:
            g = gram_matrix(h, 10.0 ** (p_db / 10.0))
            sol = solve_smp(g)
            reduced = lll_reduce(cholesky(g))
            c_star, lambdas = solve_rsmp(reduced.r_bar)
            a_star = _int_matmul(reduced.z, c_star)
            assert (a_star.dtype, a_star.shape) == (sol.a_star.dtype, sol.a_star.shape)
            assert a_star.tobytes() == sol.a_star.tobytes()
            assert [x.hex() for x in lambdas] == [x.hex() for x in sol.lambdas]
            if h.shape[1] > 5:
                continue
            for name, solver in REDUCED_SOLVERS.items():
                a, lam = _pipeline(g, solver)
                assert lam == pytest.approx(lambdas, rel=1e-9), name
                assert int_det(a) != 0, name
