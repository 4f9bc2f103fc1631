import math

import numpy as np
import pytest

from conftest import random_gram
from ifsmp import (
    PreconditionViolated,
    SingularInput,
    baseline_smp,
    brute_force_smp,
    cholesky,
    enumerate_below,
    int_det,
    lll_reduce,
    solve_rsmp,
)


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


def test_delta_out_of_range():
    with pytest.raises(PreconditionViolated):
        lll_reduce(np.eye(2), 0.25)
    with pytest.raises(PreconditionViolated):
        lll_reduce(np.eye(2), 1.5)


def test_singular_rejected():
    # lll_reduce, every enumeration entry point and both references share
    # one gate
    entry_points = [lambda r: lll_reduce(r, 0.75), solve_rsmp,
                    lambda r: enumerate_below(r, 1.0, lambda c: None),
                    baseline_smp, brute_force_smp]
    cases = [
        (np.array([[1.0, 1.0], [0.0, 1e-16]]), SingularInput),
        (np.array([[1.0, 1.0], [0.0, np.nan]]), SingularInput),
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
    ]
    for r, error in cases:
        for entry in entry_points:
            with pytest.raises(error):
                entry(r)


def test_random_corpus_invariants(rng):
    for trial in range(200):
        n = int(rng.integers(2, 9))
        p = float(rng.choice([1.0, 10.0, 100.0]))
        r = cholesky(random_gram(rng, n, p))
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


def test_delta_one_accepted(rng):
    r = cholesky(random_gram(rng, 4))
    res = lll_reduce(r, 1.0)
    assert_reduced(res.r_bar, 1.0)
