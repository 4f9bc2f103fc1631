import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_gram, random_reduced_basis, time_limit
from ifsmp import (
    Candidate,
    CoefficientOverflow,
    DimensionTooLarge,
    IfsmpError,
    PreconditionViolated,
    SearchBudgetExceeded,
    SingularCoefficientMatrix,
    SingularInput,
    SmpSolution,
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
from ifsmp import enumeration, lll, matrixcore, smp
from ifsmp.bench import REDUCED_SOLVERS
from ifsmp.enumeration import _search
from ifsmp.receiver import _rate
from ifsmp.smp import (
    _exchange,
    _exchange_basis,
    _identity_norms,
    _int_matmul,
    _pipeline,
    _subspace_radii,
)


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


def cramer_adjugate(cols):
    """adj C, row k belonging to column k, by Cramer's rule: entry (k, j)
    is det C with column k replaced by e_j."""
    n = len(cols)
    unit = [tuple(int(r == j) for r in range(n)) for j in range(n)]
    return [[int_det(cols[:k] + [e] + cols[k + 1:]) for e in unit] for k in range(n)]


def assert_inverse(adj, d, cols):
    """adj C = d I, exactly, for the columns of C."""
    n = len(cols)
    c_mat = np.array(cols, dtype=object).T
    assert (np.array(adj, dtype=object) @ c_mat == d * np.eye(n, dtype=int)).all()


@st.composite
def basis_and_candidate(draw):
    """A basis of n columns with entries in -3..3 (singular ones included),
    sorted integer norms with ties, and a nonzero candidate with a smaller
    integer norm: half drawn freely, half a combination of leading columns."""
    n = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    cols = [tuple(draw(entries)) for _ in range(n)]
    norms = sorted(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    assume(norms[-1] > 1)
    if draw(st.booleans()):
        cand = draw(entries)
    else:
        mix = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=n))
        cand = [sum(w * col[r] for w, col in zip(mix, cols)) for r in range(n)]
    assume(any(cand))
    cand_norm = draw(st.integers(1, norms[-1] - 1))
    return cols, [float(v) for v in norms], tuple(cand), float(cand_norm)


def generic_exchange(cols, norms, adj, d, c, norm):
    """The basis-update rule with the rank-one step for every accepted
    candidate, re-found basis columns included: the reference for
    `_exchange`'s move."""
    n = len(cols)
    i = 0
    while i < n and norms[i] <= norm:
        i += 1
    for m in range(n - 1, i - 1, -1):
        y_m = sum(a * b for a, b in zip(adj[m], c))
        if y_m:
            break
    else:
        return None
    row_m = adj[m]
    for k in range(m):
        row = adj[k]
        y_k = sum(a * b for a, b in zip(row, c))
        adj[k] = [(y_m * a - y_k * b) // d for a, b in zip(row, row_m)]
    for k in range(m + 1, n):
        adj[k] = [y_m * a // d for a in adj[k]]
    del cols[m], norms[m], adj[m]
    cols.insert(i, tuple(c))
    norms.insert(i, norm)
    adj.insert(i, row_m)
    return y_m


@st.composite
def basis_and_refound_column(draw):
    """A sorted basis with its (adj, d), built by chains of accepts of the
    generic rule so that |d| > 1, and a candidate equal to a basis column
    (or its negative) with a norm below, equal to or above that column's."""
    n = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    # insert columns with norms 0..n-1 into the identity (norms inf): a
    # chain of accepts that ends at adj = d C^-1 with d = +-det C
    cols = [tuple(int(r == k) for r in range(n)) for k in range(n)]
    adj, norms, d = [list(col) for col in cols], [math.inf] * n, 1
    for k in range(n):
        d = generic_exchange(cols, norms, adj, d, tuple(draw(entries)), float(k))
        assume(d is not None)
    norms = [float(v) for v in sorted(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))]
    assume(norms[-1] > 1)
    for _ in range(draw(st.integers(0, 3))):  # further accepts or rejects
        if norms[-1] <= 1:
            break
        cand = tuple(draw(entries))
        if any(cand):
            new_d = generic_exchange(cols, norms, adj, d, cand,
                                     float(draw(st.integers(0, int(norms[-1]) - 1))))
            d = d if new_d is None else new_d
    assume(abs(d) > 1)
    m = draw(st.integers(0, n - 1))
    where = draw(st.sampled_from(["below", "equal", "above"]))
    half = [v / 2 for v in range(2 * int(norms[-1]))]  # the norms below norms[-1]
    pool = {"below": [v for v in half if v < norms[m]],
            "equal": [norms[m]] if norms[m] < norms[-1] else [],
            "above": [v for v in half if v > norms[m]]}[where]
    assume(pool)
    sign = draw(st.sampled_from([1, 1, -1]))
    cand = [sign * v for v in cols[m]]
    return cols, norms, adj, d, cand, draw(st.sampled_from(pool))


def flat_radius_rsmp(r_cols):
    """The kernel of `solve_rsmp` with one flat radius: `_search` at
    [norms[-1]^2] * n, reset on every accept, plus the `_exchange` rule."""
    n = len(r_cols)
    col_norms = _identity_norms(r_cols)
    order = sorted(range(n), key=lambda k: col_norms[k])
    cols = [tuple(int(r == k) for r in range(n)) for k in order]
    norms = [col_norms[k] for k in order]
    adj = [list(col) for col in cols]
    scale = [1]

    def on_leaf(c, norm_sq):
        norm = math.sqrt(norm_sq)
        if not norm < norms[-1]:
            return None
        new_d = _exchange(cols, norms, adj, scale[0], c, norm)
        if new_d is None:
            return None
        scale[0] = new_d
        return [norms[-1] ** 2] * n

    _search(r_cols, [norms[-1] ** 2] * n, on_leaf)
    return cols, norms


def count_leaves(monkeypatch):
    """Wrap the solvers' `_search` so that every leaf it visits is counted."""
    leaves = [0]

    def counting(r_cols, radii, on_leaf):
        def counted(c, norm_sq):
            leaves[0] += 1
            return on_leaf(c, norm_sq)

        return _search(r_cols, radii, counted)

    monkeypatch.setattr(smp, "_search", counting)
    return leaves


def duplicated_column(rng, nt):
    h = rng.standard_normal((nt, nt))
    h[:, 1] = h[:, 0]
    return h


def basis_of(r_bar, cols):
    r = np.asarray(r_bar, dtype=float)
    norms = tuple(float(np.linalg.norm(r @ np.array(c))) for c in cols)
    return WorkingBasis(cols=tuple(tuple(c) for c in cols), norms=norms)


class TestUpdateBasis:
    def test_norm_precondition(self):
        basis = basis_of(np.diag([1.0, 2.0]), [(1, 0), (0, 1)])
        with pytest.raises(PreconditionViolated):
            update_basis(basis, Candidate(coeffs=(3, 0), norm=3.0))
        # a negative norm is no length
        with pytest.raises(PreconditionViolated):
            update_basis(basis, Candidate(coeffs=(1, 1), norm=-5.0))

    def test_zero_candidate_rejected(self):
        basis = basis_of(np.diag([1.0, 2.0]), [(1, 0), (0, 1)])
        with pytest.raises(PreconditionViolated):
            update_basis(basis, Candidate(coeffs=(0, 0), norm=0.0))

    def test_singular_basis_rejected(self):
        basis = WorkingBasis(cols=((1, 1), (2, 2)), norms=(1.0, 2.0))
        with pytest.raises(SingularCoefficientMatrix):
            update_basis(basis, Candidate(coeffs=(1, 0), norm=1.0))

    @pytest.mark.parametrize("cols, norms, coeffs, match", [
        # int() would truncate the column to (1, 0) and the candidate to
        # (0, 1), and insert it
        (((1.5, 0.0), (0, 1)), (1.0, 2.0), (0.7, 1.2), "integer"),
        # int() would read (0, 0) and return the basis silently
        (((1, 0), (0, 1)), (1.0, 2.0), (0.5, 0.5), "integer"),
        # a candidate longer than the columns, or a ragged basis
        (((1, 0), (0, 1)), (1.0, 2.0), (1, 1, 1), "integer"),
        (((1, 0, 0), (0, 1)), (1.0, 2.0), (1, 1), "integer"),
        # one norm for two columns, unsorted norms, a NaN or negative norm
        (((1, 0), (0, 1)), (2.0,), (1, 1), "sorted norms"),
        (((1, 0), (0, 1)), (2.0, 1.0), (1, 1), "sorted norms"),
        (((1, 0), (0, 1)), (math.nan, 2.0), (1, 1), "sorted norms"),
        (((1, 0), (0, 1)), (-1.0, 2.0), (1, 1), "sorted norms"),
    ], ids=["float-column", "float-candidate", "long-candidate", "ragged-basis",
            "missing-norm", "unsorted-norms", "nan-norm", "negative-norm"])
    def test_malformed_input_rejected(self, cols, norms, coeffs, match):
        basis = WorkingBasis(cols=cols, norms=norms)
        with pytest.raises(PreconditionViolated, match=match):
            update_basis(basis, Candidate(coeffs=coeffs, norm=1.5))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(basis_and_candidate())
    def test_matches_exhaustive_determinants(self, case):
        cols, norms, cand, cand_norm = case
        basis = WorkingBasis(cols=tuple(cols), norms=tuple(norms))
        if int_det(cols) == 0:
            with pytest.raises(SingularCoefficientMatrix):
                update_basis(basis, Candidate(coeffs=cand, norm=cand_norm))
            return
        out = update_basis(basis, Candidate(coeffs=cand, norm=cand_norm))
        expected_cols, expected_norms = largest_removable(cols, norms, cand, cand_norm)
        assert out == WorkingBasis(cols=tuple(expected_cols), norms=tuple(expected_norms))

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
            # the exchange-built start is Cramer's adjugate up to sign
            adj, d = _exchange_basis(cols)
            det = int_det(cols)
            assert d in (det, -det)
            assert adj == [[d // det * v for v in row] for row in cramer_adjugate(cols)]
            assert_inverse(adj, d, cols)
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
                assert_inverse(adj, d, cols)
        assert accepted > 100 and rejected > 100


    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(basis_and_refound_column())
    def test_refound_column_move_matches_generic_rule(self, case):
        # a column of C found again is moved (or rejected) without a
        # rank-one step; cols, norms, adj and d must be what the generic
        # rule gives, and a negated column must take the generic path
        cols, norms, adj, d, cand, cand_norm = case
        state = [list(cols), list(norms), [row[:] for row in adj]]
        expected = [list(cols), list(norms), [row[:] for row in adj]]
        got = _exchange(*state, d, cand, cand_norm)
        assert got == generic_exchange(*expected, d, cand, cand_norm)
        assert state == expected
        if got is not None:
            assert_inverse(state[2], got, state[0])

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

    def test_same_tail_as_solve_smp(self, rng):
        # a public reduced solver reduces its input as the pipeline does, so
        # on a Cholesky factor solve_rsmp returns solve_smp's A* and lambdas
        # bit for bit, and the references agree with it; they keep a flat
        # radius, so duplicated and near-rank H above 10 dB stay slow there
        cases = []
        for p_db in (0.0, 10.0, 20.0, 40.0, 60.0):
            for nt in (2, 3, 4, 6):
                near = rng.standard_normal((nt, nt))
                near[:, 1] = near[:, 0] + 1e-4 * rng.standard_normal(nt)
                cases += [(rng.standard_normal((nt, nt)), p_db, False),
                          (duplicated_column(rng, nt), p_db, True), (near, p_db, True)]
            cases += [(rng.standard_normal(shape), p_db, False) for shape in ((2, 4), (5, 3))]
        for h, p_db, rank_poor in cases:
            g = gram_matrix(h, 10.0 ** (p_db / 10.0))
            sol = solve_smp(g)
            r = cholesky(g)
            with time_limit(5.0):
                a_star, lambdas = solve_rsmp(r)
            assert (a_star.dtype, a_star.shape) == (sol.a_star.dtype, sol.a_star.shape)
            assert a_star.tobytes() == sol.a_star.tobytes()
            assert [x.hex() for x in lambdas] == [x.hex() for x in sol.lambdas]
            if h.shape[1] > 4 or (rank_poor and p_db > 10.0):
                continue
            for solve in (baseline_smp, brute_force_smp):
                with time_limit(5.0):
                    a, lam = solve(r)
                assert lam == pytest.approx(lambdas, rel=1e-9), solve.__name__
                assert int_det(a) != 0

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

    def test_solution_is_frozen_without_dict(self):
        # slots: no per-instance __dict__, and the fields stay read-only;
        # only A* and lambda are stored
        sol = solve_smp(np.eye(2))
        assert [f.name for f in dataclasses.fields(sol)] == ["a_star", "lambdas"]
        assert not hasattr(sol, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.lambdas = (0.0, 0.0)

    def test_objective_and_rate_derive_from_lambdas(self, rng):
        # the expressions solve_smp once stored, bit for bit, on every
        # access; read-only, and following a replaced lambda
        for p_db in (0.0, 10.0, 20.0):
            for nt in (2, 3, 4):
                for h in (rng.standard_normal((nt, nt)), duplicated_column(rng, nt)):
                    sol = solve_smp(gram_matrix(h, 10.0 ** (p_db / 10.0)))
                    lam = sol.lambdas
                    assert sol.objective.hex() == (lam[-1] ** 2).hex()
                    assert sol.rate_total.hex() == (len(lam) * _rate(lam[-1] ** 2)).hex()
                    for name in ("objective", "rate_total"):
                        with pytest.raises(dataclasses.FrozenInstanceError):
                            setattr(sol, name, 0.0)
                    new = dataclasses.replace(sol, lambdas=tuple(2 * x for x in lam))
                    assert new.objective.hex() == (4 * lam[-1] ** 2).hex()
                    assert new.rate_total.hex() == (len(lam) * _rate(4 * lam[-1] ** 2)).hex()
                    assert new.a_star is sol.a_star
        # pickle and copy rebuild it through __init__
        for twin in (pickle.loads(pickle.dumps(sol)), copy.copy(sol), copy.deepcopy(sol)):
            assert type(twin) is SmpSolution and twin.lambdas == sol.lambdas
            np.testing.assert_array_equal(twin.a_star, sol.a_star)

    def test_diagonal_gram(self):
        sol = solve_smp(np.diag([9.0, 1.0]))
        assert sol.lambdas == pytest.approx((1.0, 3.0))
        assert sol.objective == pytest.approx(9.0)

    def test_random_vs_oracle(self, rng):
        grams = [random_gram(rng, 4, p=10.0)]
        # integer Gram matrices b^T b: an upper-triangular b with diagonal
        # 1 or 2 is its own Cholesky factor, so LLL and the walk meet exact
        # half-way centres; a full b in -2..2 gives a few more
        while len(grams) < 41:
            n = int(rng.integers(2, 7))
            if len(grams) % 2:
                b = np.triu(rng.integers(-3, 4, (n, n)), 1) + np.diag(rng.choice([1, 2], n))
            else:
                b = rng.integers(-2, 3, (n, n))
                if int_det(b) == 0:
                    continue
            grams.append((b.T @ b).astype(float))
        for g in grams:
            sol = solve_smp(g)
            _, expected = brute_force_smp(lll_reduce(cholesky(g)).r_bar)
            assert list(sol.lambdas) == pytest.approx(expected, rel=1e-12)
            assert int_det(sol.a_star) != 0

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

    def test_rank_deficient_ties_are_exact(self, rng):
        # with column 1 of H equal to column 0, a and a with its entries 0
        # and 1 swapped are tied minima, and which one a solve picks
        # depends on G's last bits.  Columns permuted so that the equal pair
        # moves (swapping columns 0 and 1 would leave H as it is) must give
        # the same (||a_k||^2, +-H a_k) per column, exactly:
        # q(a) = ||a||^2 - (Ha)^T (HH^T + I/P)^-1 (Ha) depends on a only
        # through that key, so this checks optimality, not the tie's winner
        def keys(h, a_star):
            hq = [[Fraction(v) for v in row] for row in h.tolist()]
            out = []
            for a in a_star.T.tolist():
                ha = [sum(x * c for x, c in zip(row, a)) for row in hq]
                out.append((sum(c * c for c in a), max(ha, [-v for v in ha])))
            return out

        for nt in (3, 4, 5):
            perms = [[0, *range(2, nt), 1], list(range(nt))[::-1]]
            for p_db in (12.0, 20.0, 30.0):
                p = 10.0 ** (p_db / 10.0)
                for _ in range(3):
                    h = duplicated_column(rng, nt)
                    expected = keys(h, solve_smp(gram_matrix(h, p)).a_star)
                    for perm in perms:
                        hp = h[:, perm]
                        assert keys(hp, solve_smp(gram_matrix(hp, p)).a_star) == expected

    def test_near_singular_gram_rejected(self):
        # R's diagonal ratio 1e-15 fails the diagonal rule, which cholesky
        # applies itself
        for run in (cholesky, solve_smp):
            with pytest.raises(SingularInput):
                run(np.diag([1.0, 1e-30]))

    def test_one_gate_per_solve(self, rng, monkeypatch):
        # G's way in is cholesky, which applies the diagonal rule itself, so
        # solve_smp never calls the triangular gate; each triangular entry
        # point calls it once
        calls = [0]
        gate = matrixcore.checked_columns

        def counting(m):
            calls[0] += 1
            return gate(m)

        for mod in (matrixcore, lll, enumeration, smp):
            monkeypatch.setattr(mod, "checked_columns", counting)
        for p_db in (0.0, 10.0, 20.0):
            for nt in (2, 4, 6):
                solve_smp(gram_matrix(rng.standard_normal((nt, nt)), 10.0 ** (p_db / 10.0)))
                solve_smp(gram_matrix(duplicated_column(rng, nt), 10.0 ** (p_db / 10.0)))
        assert calls[0] == 0
        r = np.array([[1.0, 0.3], [0.0, -1.2]])
        for run in (lll_reduce, lambda x: enumeration.enumerate_below(x, 1.5, lambda c: None),
                    solve_rsmp, baseline_smp, brute_force_smp):
            calls[0] = 0
            run(r)
            assert calls[0] == 1

    def test_squares_overflow_rejected_on_every_way_in(self, rng):
        # G and R are read by one finite rule, and cholesky returns only an
        # R that the triangular gate accepts as it is, so solve_smp(g) and
        # solve_rsmp(cholesky(g)) agree on the float range too
        for g in (np.diag([1e308, 1e308]), np.diag([8e307, 8e307])):
            for run in (cholesky, solve_smp, lambda x: solve_rsmp(cholesky(x))):
                with pytest.raises(PreconditionViolated, match="squares"):
                    run(g)
        # squares 1.62e308, and an edge corpus: random SPD G scaled by 2^k
        # across the float range, R diagonal ratios near 1e-14, and near-rank
        # gram_matrix outputs at 120 dB, many of them indefinite.  A tiny
        # diagonal entry decoupled from the rest is taken at n = 2 only: at
        # n >= 3 the walk visits leaves in proportion to 1 / ratio, about
        # 6e9 at n = 3 (ROADMAP item 3)
        ratios = (0.5e-14, 0.99e-14, 1e-14, 1.01e-14, 2e-14)
        grams = [np.diag([9e153, 9e153]), np.diag([1.0, 1e-30])]
        grams += [np.diag([1.0, ratio * ratio]) for ratio in ratios]
        for n in range(2, 7):
            m = rng.standard_normal((n, n))
            g = m.T @ m + 0.01 * np.eye(n)
            with np.errstate(over="ignore"):  # the top scales overflow to inf
                grams += [np.ldexp(g, k) for k in range(-1100, 1040, 16)]
            for ratio in ratios:
                r = np.triu(rng.standard_normal((n, n)))
                np.fill_diagonal(r, 1.0)
                r[-1, -1] = ratio
                grams.append(r.T @ r)
        for _ in range(100):
            h = rng.standard_normal((4, 4))
            h[:, 1] = h[:, 0] + 1e-4 * rng.standard_normal(4)
            grams.append(gram_matrix(h, 1e12))

        def outcome(run):
            try:
                with time_limit(5.0):
                    a_star, lambdas = run()
            except IfsmpError as exc:
                return type(exc)
            return a_star.tobytes(), [v.hex() for v in lambdas]

        for g in grams:
            try:
                r = cholesky(g)
            except IfsmpError as exc:
                with pytest.raises(type(exc)) as info:
                    solve_smp(g)
                assert info.type is type(exc)
                continue
            assert np.array(matrixcore.checked_columns(r)).tobytes() == r.T.tobytes()
            sol = outcome(lambda: dataclasses.astuple(solve_smp(g)))
            assert outcome(lambda: solve_rsmp(r)) == sol

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


class TestSubspaceRadii:
    def test_permuted_identity(self):
        # columns e_2, e_0, e_1: vectors on c_0 alone are multiples of
        # column 1, so they must beat norms[1]; anything reaching c_1 may
        # replace the last column
        radii = _subspace_radii([1.0, 2.0, 3.0], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert radii == [4.0 * (1 + 2.0**-30), 9.0, 9.0]

    def test_cap_at_the_largest_norm(self):
        radii = _subspace_radii([1.0, 1.0], [[1, 0], [0, 1]])
        assert radii == [1.0, 1.0]

    def test_matches_flat_radius(self, rng):
        # the subspace radii skip only leaves the basis-update rule rejects,
        # so accepts, their order and the outputs stay bit-identical
        grams = [gram_matrix(rng.standard_normal((nt, nt)), 10.0 ** (p_db / 10.0))
                 for nt in range(2, 9) for p_db in (0.0, 10.0, 20.0) for _ in range(2)]
        for nt, top_db in ((3, 40.0), (4, 30.0), (5, 20.0)):
            for p_db in (12.0, 20.0, 30.0, 40.0):
                if p_db <= top_db:
                    h = duplicated_column(rng, nt)
                    grams.append(gram_matrix(h, 10.0 ** (p_db / 10.0)))
        for nt in range(3, 7):
            for p_db in (12.0, 20.0, 30.0, 40.0):
                h = rng.standard_normal((nt, nt - 2)) @ rng.standard_normal((nt - 2, nt))
                grams.append(gram_matrix(h, 10.0 ** (p_db / 10.0)))
        # small-integer Gram matrices, full of equal-norm ties
        grams += [np.eye(4), 2.0 * np.eye(3),
                  np.array([[2.0, -1.0], [-1.0, 2.0]]),
                  np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]),
                  np.array([[2.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, -1.0],
                            [0.0, -1.0, 2.0, 0.0], [0.0, -1.0, 0.0, 2.0]])]
        while len(grams) < 120:
            n = int(rng.integers(2, 7))
            b = rng.integers(-2, 3, size=(n, n))
            if int_det(b) != 0:
                grams.append((b.T @ b).astype(float))
        for g in grams:
            sol = solve_smp(g)
            a_star, lambdas = _pipeline(g, flat_radius_rsmp)
            assert (a_star.dtype, a_star.shape) == (sol.a_star.dtype, sol.a_star.shape)
            assert a_star.tobytes() == sol.a_star.tobytes()
            assert [x.hex() for x in lambdas] == [x.hex() for x in sol.lambdas]

    def test_duplicated_column_leaves_bounded(self, rng, monkeypatch):
        # with a flat radius a 4x4 channel visited 2.4e6 leaves at 40 dB
        # (about 31.6x more per 10 dB); over 1,200 channels at the sizes and
        # powers below (100 of each) the worst solve visited 38.  The oracle
        # check of such channels at 12 and 20 dB is TestSolveSmp's
        # rank-deficient test.
        leaves = count_leaves(monkeypatch)
        for nt in (4, 6, 8):
            for p_db in (20.0, 30.0, 40.0, 60.0):
                for _ in range(3):
                    before = leaves[0]
                    sol = solve_smp(gram_matrix(duplicated_column(rng, nt), 10.0 ** (p_db / 10.0)))
                    assert leaves[0] - before <= 100
                    assert int_det(sol.a_star) != 0


def test_int64_overflow_is_typed():
    with pytest.raises(CoefficientOverflow):
        _int_matmul([[2**40]], [[2**40]])
    assert _int_matmul([[2**31]], [[2**31]]).tolist() == [[2**62]]
    # the public reduced solvers, the bounded enumerator's visitor and
    # WorkingBasis convert through the same typed path: here c_star (and a
    # vector in the ball) holds an entry of about -1e30
    r = np.array([[1.0, 1e30], [0.0, 1.0]])
    with pytest.raises(CoefficientOverflow):
        solve_rsmp(r)
    with pytest.raises(CoefficientOverflow):
        enumeration.enumerate_below(r, 1.5, lambda c: None)
    with pytest.raises(CoefficientOverflow):
        WorkingBasis(cols=((2**70, 0), (0, 1)), norms=(1.0, 2.0)).matrix()


def test_unreduced_inputs_overflow_promptly():
    # walked as given, from the radii of their unreduced identity columns,
    # these triangles kept each reduced solver busy for seconds or without
    # bound; reduced first, their minima vectors show entries of 65 bits
    # and more, which no int64 C* holds
    skewed = np.logspace(0, -13.9, 4)
    constant = np.triu(np.full((4, 4), 0.37))
    constant[np.diag_indices(4)] = skewed
    gaussian = np.triu(np.random.default_rng(0).standard_normal((4, 4)))
    gaussian[np.diag_indices(4)] = skewed
    for r in (np.array([[1.0, 1e30], [0.0, 1.0]]), constant, gaussian):
        for solve in (solve_rsmp, baseline_smp, brute_force_smp):
            with time_limit(1.0), pytest.raises(CoefficientOverflow):
                solve(r)


def dense_product(a_rows, b_rows):
    """a @ b in Python ints, entry by entry."""
    return [[sum(a_rows[r][k] * b_rows[k][j] for k in range(len(b_rows)))
             for j in range(len(b_rows[0]))] for r in range(len(a_rows))]


def test_unreduce_gathers_the_dense_product(rng):
    # columns of C: unit (the common case), a scaled unit, mixed with zero
    # entries, dense, and all zero
    for _ in range(200):
        p, q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        z = [[int(v) for v in rng.integers(-9, 10, size=q)] for _ in range(p)]
        c_cols = []
        for kind in rng.integers(0, 5, size=int(rng.integers(1, 7))):
            col = [0] * q
            k = int(rng.integers(0, q))
            if kind == 0:
                col[k] = 1
            elif kind == 1:
                col[k] = int(rng.choice([-3, -1, 2, 5]))
            elif kind == 2:
                col = [int(v) * int(rng.random() < 0.5) for v in rng.integers(-4, 5, size=q)]
            elif kind == 3:
                col = [int(v) for v in rng.integers(-4, 5, size=q)]
            c_cols.append(col)
        c_rows = [list(row) for row in zip(*c_cols)]
        expected = dense_product(z, c_rows)
        z_cols = [list(col) for col in zip(*z)]
        for got in (smp._unreduce(z_cols, c_cols), _int_matmul(z, c_rows),
                    _int_matmul(np.array(z), np.array(c_rows))):
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert got.tolist() == expected


def test_unreduce_overflow_is_typed():
    # each factor fits int64; the sums reach 2^63 and -2^63 - 1
    z_cols = [[2**62, -2**62], [2**62, -2**62 - 1]]
    for c_col in ([1, 1], [2, 0], [0, 2]):
        with pytest.raises(CoefficientOverflow):
            smp._unreduce(z_cols, [c_col])
    assert smp._unreduce(z_cols, [[1, 0], [1, -1]]).tolist() == [[2**62, 0], [-2**62, 1]]
    with pytest.raises(CoefficientOverflow):
        _int_matmul(np.array([[2**62, 2**62]]), np.array([[1], [1]]))


def test_empty_products_keep_their_shape():
    # numpy's shapes: no columns in b gives (n, 0); an inner dimension of 0
    # gives zeros
    for a, b, shape in (((2, 2), (2, 0), (2, 0)), ((2, 0), (0, 3), (2, 3)),
                        ((0, 2), (2, 3), (0, 3))):
        got = _int_matmul(np.ones(a, dtype=np.int64), np.ones(b, dtype=np.int64))
        assert got.dtype == np.int64 and got.shape == shape
        assert np.array_equal(got, np.ones(a, dtype=np.int64) @ np.ones(b, dtype=np.int64))


def test_reference_solvers_that_find_nothing_raise_typed(monkeypatch):
    # a walk that visits no leaf leaves the oracle without a basis and the
    # baseline without an independent vector
    monkeypatch.setattr(smp, "_search", lambda r_cols, radii, on_leaf: 0)
    for solve in (brute_force_smp, baseline_smp):
        with pytest.raises(SearchBudgetExceeded) as info:
            solve(np.eye(2))
        assert isinstance(info.value, RuntimeError)
