import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gram
from ifsmp import (
    CoefficientOverflow,
    IfsmpError,
    PreconditionViolated,
    SearchBudgetExceeded,
    SingularInput,
    baseline_smp,
    brute_force_smp,
    cholesky,
    enumerate_below,
    gram_matrix,
    int_det,
    lll_reduce,
    solve_rsmp,
)
from ifsmp import lll
from ifsmp.lll import DEFAULT_DELTA, _lll
from ifsmp.matrixcore import _units


# successive minima 0.510 / 0.568 / 0.723
M = np.array([[1.0, 0.9, 0.3], [0.0, 0.5, 0.45], [0.0, 0.0, 0.4]])


def assert_reduced(r_bar, delta):
    n = r_bar.shape[0]
    for k in range(1, n):
        for i in range(k):
            assert abs(r_bar[i, k]) <= 0.5 * abs(r_bar[i, i]) + 1e-12
        lhs = delta * r_bar[k - 1, k - 1] ** 2
        rhs = r_bar[k - 1, k] ** 2 + r_bar[k, k] ** 2
        assert lhs <= rhs * (1 + 1e-12)


def test_identity_fixed_point():
    res = lll_reduce(np.eye(3), 0.75)
    np.testing.assert_allclose(res.r_bar, np.eye(3))
    np.testing.assert_array_equal(res.z, np.eye(3, dtype=int))


def test_1x1_vacuous():
    res = lll_reduce(np.array([[2.5]]), 0.75)
    np.testing.assert_allclose(res.r_bar, [[2.5]])
    assert res.z.tolist() == [[1]]


def test_hand_traced_2x2():
    r = np.array([[1.0, 0.75], [0.0, 0.5]])
    res = lll_reduce(r, 0.75)
    assert_reduced(res.r_bar, 0.75)
    assert abs(int_det(res.z)) == 1
    # shortest input column is (0.75, 0.5); the reduced first column can't be longer
    assert np.linalg.norm(res.r_bar[:, 0]) <= np.hypot(0.75, 0.5) + 1e-12


def test_exact_half_size_reduction():
    # r_01 / r_00 = 1.5: round gives mu = 2 and the reduced entry -1 sits
    # exactly at the bound |r_01| <= r_00 / 2; no swap, as 0.75 * 4 < 1 + 25
    res = lll_reduce(np.array([[2.0, 3.0], [0.0, 5.0]]), 0.75)
    assert res.r_bar.tolist() == [[2.0, -1.0], [0.0, 5.0]]
    assert res.z.tolist() == [[1, -2], [0, 1]]


def test_row_signs_are_normalised(rng):
    # a +-1 row scaling D belongs to the orthogonal factor: LLL flips the
    # rows with a negative diagonal entry back first, so D R reduces as R
    # does, and the reduced solver finds the same minima
    for _ in range(60):
        nt = int(rng.integers(1, 9))
        r = cholesky(random_gram(rng, nt, float(rng.choice([1.0, 10.0, 1000.0]))))
        signs = rng.choice([-1.0, 1.0], size=nt)
        signs[rng.integers(nt)] = -1.0
        flipped = signs[:, None] * r
        res, ref = lll_reduce(flipped), lll_reduce(r)
        assert np.array_equal(res.z, ref.z) and np.array_equal(res.r_bar, ref.r_bar)
        assert (np.diag(res.r_bar) > 0).all()
        (c_star, lambdas), (c_ref, l_ref) = solve_rsmp(flipped), solve_rsmp(r)
        assert np.array_equal(c_star, c_ref) and lambdas == l_ref


def test_lower_triangle_is_not_read(rng):
    # entries below the diagonal are not part of a triangular input: LLL
    # and the three reduced solvers, which reduce first, answer as for the
    # upper triangle alone, as enumerate_below does
    for _ in range(20):
        nt = int(rng.integers(2, 6))
        r = cholesky(random_gram(rng, nt))
        full = r + np.tril(rng.standard_normal((nt, nt)), -1)
        res, ref = lll_reduce(full), lll_reduce(r)
        assert np.array_equal(res.z, ref.z) and np.array_equal(res.r_bar, ref.r_bar)
        for solve in (solve_rsmp, baseline_smp, brute_force_smp):
            (c_star, lambdas), (c_ref, l_ref) = solve(full), solve(r)
            assert np.array_equal(c_star, c_ref) and lambdas == l_ref


def test_z_rows_from_kernel_columns(rng):
    # the kernel keeps z as columns; lll_reduce transposes them once into a
    # C-ordered int64 matrix whose column k takes R to column k of r_bar
    inputs = [cholesky(random_gram(rng, n)) for n in range(1, 9) for _ in range(5)]
    inputs.append(np.array([[1.0, 0.75], [0.0, 0.5]]))  # one swap
    for r in inputs:
        res = lll_reduce(r)
        _, z_cols = _lll(r.T.tolist(), 0.75)
        assert res.z.dtype == np.int64 and res.z.flags.c_contiguous
        assert res.z.tolist() == [list(row) for row in zip(*z_cols)]
        np.testing.assert_allclose(np.linalg.norm(r @ res.z, axis=0),
                                   np.linalg.norm(res.r_bar, axis=0), rtol=1e-12)
    # hand-traced: mu = 1 gives column (-1, 1), of norm 0.559 < 1, and the
    # swap puts it first; the second column then reduces to (0, 1)
    assert lll_reduce(np.array([[1.0, 0.75], [0.0, 0.5]])).z.tolist() == [[-1, 0], [1, 1]]


def test_delta_out_of_range():
    with pytest.raises(PreconditionViolated):
        lll_reduce(np.eye(2), 0.25)
    with pytest.raises(PreconditionViolated):
        lll_reduce(np.eye(2), 1.5)
    # NaN fails the range test; what is a real scalar is pinned in
    # test_matrixcore.py's table
    with pytest.raises(PreconditionViolated):
        lll_reduce(np.eye(2), math.nan)


def test_numpy_delta_runs_in_float64():
    # r misses the Lovasz condition for delta = float32(0.99) by 1e-12, so
    # float64 Lovasz tests swap; float32 ones would keep z = I
    delta = float(np.float32(0.99))
    r = np.array([[1.0, 0.5], [0.0, math.sqrt(delta - 1e-12 - 0.25)]])
    ref = lll_reduce(r, delta)
    np.testing.assert_array_equal(ref.z, [[0, 1], [1, -1]])
    res = lll_reduce(r, np.float32(0.99))
    assert res.z.tobytes() == ref.z.tobytes() and res.r_bar.tobytes() == ref.r_bar.tobytes()


def test_singular_rejected():
    # lll_reduce, every enumeration entry point and both references share
    # one gate
    entry_points = [lambda r: lll_reduce(r, 0.75), solve_rsmp,
                    lambda r: enumerate_below(r, 1.0, lambda c: None),
                    baseline_smp, brute_force_smp]
    cases = [
        (np.array([[1.0, 1.0], [0.0, 1e-16]]), SingularInput),
        # a NaN on the diagonal fails the finite rule before the diagonal rule
        (np.array([[1.0, 1.0], [0.0, np.nan]]), PreconditionViolated),
        (np.ones((2, 3)), PreconditionViolated),
        (np.zeros((0, 0)), PreconditionViolated),
        # a NaN or infinite entry off the diagonal, as an ndarray or a list
        (np.array([[1.0, np.nan], [0.0, 1.0]]), PreconditionViolated),
        ([[1, math.nan], [0, 1]], PreconditionViolated),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), PreconditionViolated),
        (np.array([[1.0, -np.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), PreconditionViolated),
        (np.array([[1.0, 0.0], [np.nan, 1.0]]), PreconditionViolated),
        (np.diag([np.inf, np.inf]), PreconditionViolated),
        (np.ones(3), PreconditionViolated),
        ([1.0, 2.0], PreconditionViolated),
        # an all-zero diagonal: the bound 1e-14 max |r_ii| is 0 itself
        (np.zeros((2, 2)), SingularInput),
        # not real numbers: complex, strings (even numeric ones), and an
        # integer no float holds, read as cholesky reads G
        (1j * np.eye(2), PreconditionViolated),
        ([["1.5", "0"], ["0", "2"]], PreconditionViolated),
        ([["a"]], PreconditionViolated),
        ([[10**400]], PreconditionViolated),
        # squares out of the normal float range: a smallest |r_ii| whose
        # square is subnormal or zero, and squared entries whose sum
        # overflows
        (1e-300 * np.eye(3), SingularInput),
        (1e-200 * M, SingularInput),
        (1e-160 * M, SingularInput),
        (1e160 * M, PreconditionViolated),
    ]
    for r, error in cases:
        for entry in entry_points:
            with pytest.raises(error):
                entry(r)


def test_in_range_edge_scales_exactly():
    # 2^+-490 M keeps every square the walk compares a normal float, so the
    # gate accepts it and each solver gives M's C* with lambda scaled by
    # exactly that power of two
    for solve in (solve_rsmp, baseline_smp, brute_force_smp):
        c_star, lambdas = solve(M)
        for e in (-490, 490):
            c_scaled, l_scaled = solve(math.ldexp(1.0, e) * M)
            assert np.array_equal(c_scaled, c_star)
            assert l_scaled == [math.ldexp(v, e) for v in lambdas]


def test_random_corpus_invariants(rng):
    inputs = [cholesky(random_gram(rng, int(rng.integers(2, 9)),
                                   float(rng.choice([1.0, 10.0, 100.0]))))
              for _ in range(200)]
    # exact half-way ratios at both size-reduction sites, of either sign
    inputs += [np.array(r) for r in (
        [[2.0, -3.0], [0.0, 5.0]], [[2.0, 1.0], [0.0, 3.0]],
        [[2.0, 1.0, 3.0], [0.0, 2.0, -5.0], [0.0, 0.0, 4.0]],
        [[2.0, -1.0, 1.0, 3.0], [0.0, 2.0, 1.0, -1.0], [0.0, 0.0, 2.0, 5.0], [0.0, 0.0, 0.0, 2.0]],
    )]
    for r in inputs:
        res = lll_reduce(r, 0.75)
        assert_reduced(res.r_bar, 0.75)
        assert abs(int_det(res.z)) == 1
        # column-wise lattice-norm preservation through the orthogonal factor
        lhs = np.linalg.norm(res.r_bar, axis=0)
        rhs = np.linalg.norm(r @ res.z.astype(float), axis=0)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_idempotent_up_to_signs(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = cholesky(random_gram(rng, n))
        first = lll_reduce(r, 0.75)
        second = lll_reduce(first.r_bar, 0.75)
        assert_reduced(second.r_bar, 0.75)
        # already reduced: the second pass may at most flip column signs
        assert abs(int_det(second.z)) == 1
        assert np.all(np.sum(np.abs(second.z), axis=0) == 1)


@st.composite
def reduced_factors(draw):
    """`lll_reduce` output of a Gram factor, nt 2-8 at 0-40 dB; some
    channels have a duplicated column."""
    nt = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((nt, nt))
    if draw(st.booleans()):
        h[:, 1] = h[:, 0]
    p = 10.0 ** (draw(st.sampled_from([0.0, 10.0, 20.0, 30.0, 40.0])) / 10.0)
    return lll_reduce(cholesky(gram_matrix(h, p))).r_bar


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reduced_factors())
def test_second_reduction_is_the_identity(r_bar):
    # the public reduced solvers reduce their input again, so on reduced
    # input they keep their answers bit for bit only if this second pass
    # takes no size-reduction step and no swap
    cols, z = _lll(r_bar.T.tolist(), DEFAULT_DELTA)
    assert tuple(z) == _units(len(z))
    assert np.array(cols).T.tobytes() == r_bar.tobytes()


def test_delta_one_accepted(rng):
    r = cholesky(random_gram(rng, 4))
    res = lll_reduce(r, 1.0)
    assert_reduced(res.r_bar, 1.0)


def test_int64_overflow_is_typed():
    # a condition number near 1e14 drives |z| to about 3.3e19 > 2^63
    r = np.triu(np.random.default_rng(0).standard_normal((4, 4)))
    r[np.diag_indices(4)] = np.logspace(0, -13.9, 4)
    with pytest.raises(CoefficientOverflow) as info:
        lll_reduce(r)
    assert isinstance(info.value, IfsmpError)
    assert isinstance(info.value, OverflowError)


def test_sweep_cap_is_typed(monkeypatch):
    assert [lll._sweep_cap(n) for n in (1, 2, 4, 8)] == [1000, 2560, 10240, 40960]
    # the hand-traced 2x2 swaps at its first step and needs a second one
    monkeypatch.setattr(lll, "_sweep_cap", lambda n: 1)
    lll_reduce(np.eye(2))  # one step, no swap
    with pytest.raises(SearchBudgetExceeded) as info:
        lll_reduce(np.array([[1.0, 0.75], [0.0, 0.5]]))
    assert isinstance(info.value, IfsmpError)
    assert isinstance(info.value, RuntimeError)
