import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from ifsmp import (
    Candidate,
    ConfigError,
    InvalidPower,
    NotPositiveDefinite,
    NotSymmetric,
    PreconditionViolated,
    WorkingBasis,
    baseline_smp,
    brute_force_smp,
    cholesky,
    enumerate_below,
    gram_matrix,
    int_det,
    int_rank,
    lll_reduce,
    rate_m,
    solve_rsmp,
    total_rate,
    update_basis,
)
from ifsmp.bench import BenchConfig, run_benchmark
from ifsmp.matrixcore import _bareiss, _exact_form, _quad, _units
from ifsmp.smp import _exchange


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
        # squares finite, but the last pivot overflows: dpotrf reports
        # success with a NaN on the diagonal
        with pytest.raises(NotPositiveDefinite, match="pivot nan at index 2"):
            cholesky(np.array([[5e-324, 0.0, 9e153], [0.0, 1.0, 0.5], [9e153, 0.5, 1.0]]))
        # empty, 0-d, 1-D or 3-D, not real, a NaN / infinite entry anywhere
        # (cholesky reads only the upper triangle, and NaN compares false),
        # or squares that overflow while the trace is finite: the finite
        # rule of _real_array rejects them all
        bad = [np.zeros((0, 0)), np.array(1.0), np.ones(3), np.ones((2, 2, 2)), 1j * np.eye(2),
               [["x"]], [[1.0, 0.0], [0.0]], 1e200 * np.eye(2), np.diag([8e307, 8e307]),
               [[1e-300, 0.0, 1e200], [0.0, 1.0, 0.5], [1e200, 0.5, 1.0]]]
        for pos, value in [((1, 0), np.nan), ((2, 2), np.nan), ((0, 1), np.nan),
                           ((0, 2), np.nan), ((1, 0), np.inf), ((1, 0), -np.inf)]:
            g = np.eye(3) + 0.1
            g[pos] = value
            bad.append(g)
            # the finite rule comes before the symmetry test
            asymmetric = g.copy()
            asymmetric[2, 0] = 5.0
            bad.append(asymmetric)
        for g in bad:
            with pytest.raises(PreconditionViolated):
                cholesky(g)

    def test_failed_factor_typed_in_every_regime(self):
        # numpy signals a failed dpotrf as an invalid value: a warning under
        # the default filters, an exception with warnings as errors or under
        # np.errstate(invalid="raise"); each gives the typed error
        def failed_factors():
            with pytest.raises(NotPositiveDefinite, match="dpotrf failed"):
                cholesky([[1.0, 2.0], [2.0, 1.0]])
            with pytest.raises(NotPositiveDefinite, match="numerically singular"):
                gram_matrix(np.ones((3, 3)), 1e20)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failed_factors()
        with np.errstate(invalid="raise"):
            failed_factors()
        with pytest.warns(RuntimeWarning, match="invalid value"):
            failed_factors()

    def test_asymmetric_rejected(self):
        # a finite 2-D array that is not square or not symmetric; the finite
        # rule comes first, so a 1-D, empty or NaN G and a pair whose
        # squares overflow are no real array
        for g in ([[1.0, 0.5], [0.4, 1.0]], np.ones((2, 3)), [[1.0, 1e150], [-1e150, 1.0]]):
            with pytest.raises(NotSymmetric):
                cholesky(g)
        for g in ([[1.0, 1e308], [-1e308, 1.0]], np.ones(3), np.zeros((0, 2)),
                  [[np.nan, 0.0, 1.0]]):
            with pytest.raises(PreconditionViolated):
                cholesky(g)
        # asymmetry within 1e-12 of the largest entry is accepted
        r = cholesky(np.array([[4.0, 2.0], [2.0 + 2e-12, 3.0]]))
        np.testing.assert_allclose(r, [[2.0, 1.0], [0.0, math.sqrt(2)]])

    def test_bytes_match_dpotrf_reference(self, rng):
        # R is LAPACK dpotrf's upper factor with the lower triangle zeroed,
        # byte for byte: numpy's LAPACK gives the bits of the one
        # scipy.linalg.lapack exports, an independent build
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
        # a Fortran-ordered G and a strided view of G read the same
        for g in grams[:40]:
            grams.append(np.asfortranarray(g))
            padded = np.zeros((2 * len(g), 3 * len(g)))
            padded[::2, ::3] = g
            grams.append(padded[::2, ::3])
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
        for a in ([0.5, 1], [np.nan, 1], [np.inf, 1], [-np.inf, 1], [1j, 1], ["1", "0"],
                  [1, [0, 1]], [[1, 0], [1]]):
            with pytest.raises(PreconditionViolated):
                rate_m(a, 0.25 * np.eye(2))
        # integral floats and Python ints beyond int64 stay exact
        assert int_det([[2.0, 0.0], [0.0, 2.0]]) == 4
        assert int_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
        assert int_det([[2**70, 1], [0, 1]]) == 2**70
        # q = 4 / 64 and 2^140 / 2^150, each exact
        assert rate_m([2.0, 0.0], 2.0**-6 * np.eye(2)) == 2.0
        assert rate_m([np.int64(2), 0], 2.0**-6 * np.eye(2)) == 2.0
        assert rate_m([2**70, 0], 2.0**-150 * np.eye(2)) == 5.0

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


@st.composite
def vector_lists(draw):
    """(n, 0 to 40 integer vectors of length n = 1..6 with entries -3..3),
    with repeats, negated copies and planted combinations of earlier
    vectors among them."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    vectors: list[list[int]] = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["fresh", "repeat", "negated", "combination"])
                    if vectors else st.just("fresh"))
        if kind == "fresh":
            vectors.append(draw(st.lists(entry, min_size=n, max_size=n)))
            continue
        earlier = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
        if kind == "repeat":
            vectors.append(list(earlier[0]))
        elif kind == "negated":
            vectors.append([-v for v in earlier[0]])
        else:
            coeffs = draw(st.lists(entry, min_size=len(earlier), max_size=len(earlier)))
            vectors.append([sum(c * w[i] for c, w in zip(coeffs, earlier)) for i in range(n)])
    return n, vectors


@settings(derandomize=True, deadline=None, max_examples=300)
@given(vector_lists())
def test_pivot_columns_are_the_greedy_picks(case):
    # the oracle's selection rule: the Bareiss pivot columns of the matrix
    # whose columns are the vectors are the vectors a greedy int_rank pass
    # keeps, taken in list order and stopping at n.  The baseline's rule
    # picks the same: from the identity basis, whose columns hold norm inf,
    # a vector is picked when a row of adj past the picks is nonzero on it,
    # and `_exchange` inserts each pick at the next index
    n, vectors = case
    picks: list[int] = []
    for j, v in enumerate(vectors):
        if len(picks) < n and int_rank([vectors[k] for k in picks] + [v]) > len(picks):
            picks.append(j)
    cols, adj, norms, d = list(_units(n)), list(_units(n)), [math.inf] * n, 1
    adj_picks: list[int] = []
    for j, v in enumerate(vectors):
        k = len(adj_picks)
        if any(sum(a * b for a, b in zip(row, v)) for row in adj[k:]):
            d = _exchange(cols, norms, adj, d, v, k)
            adj_picks.append(j)
    assert _bareiss([[v[i] for v in vectors] for i in range(n)])[0] == picks == adj_picks


# finite floats of every scale: +-0, subnormals, and 1e-300 beside 1e300
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300])


@st.composite
def float_rows_and_vector(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(FLOATS, min_size=n, max_size=n), min_size=n, max_size=n))
    return rows, draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(float_rows_and_vector())
@example(([[1e-300, 1e300], [-0.0, 5e-324]], [3, -2]))
def test_exact_form_and_quad_are_exact(case):
    # every entry is m_ij / d exactly, with d a power of two, and a^T M a / d
    # is a^T G a in rationals
    rows, a = case
    m, d = _exact_form(rows)
    assert d > 0 and d & (d - 1) == 0
    assert all(Fraction(v, d) == Fraction(x)
               for m_row, row in zip(m, rows) for v, x in zip(m_row, row))
    exact = sum(a[i] * Fraction(x) * a[j] for i, row in enumerate(rows) for j, x in enumerate(row))
    assert Fraction(_quad(m, a), d) == exact


def _gram_bytes(p):
    return gram_matrix(np.array([[1.0, 0.5], [0.2, 2.0]]), p).tobytes()


def _lll_bytes(delta, r=((1.0, 0.9), (0.0, 0.5))):
    res = lll_reduce(r, delta)
    return res.z.tobytes(), res.r_bar.tobytes()


def _visits(beta, r=((1.0, 0.0), (0.0, 1.5))):
    seen = []
    count = enumerate_below(r, beta, lambda c: seen.append(tuple(c)))
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


def _solved(solver):
    def run(r):
        c_star, lambdas = solver(r)
        return c_star.tobytes(), [v.hex() for v in lambdas]
    return run


# Every site that reads a real array from outside: the call, its typed
# error, a valid input of small integers, and the kinds that do not apply
# to it.  H, G (cholesky's and the rate side's) and every triangular input
# go through matrixcore._real_array and its one finite rule, so every site
# rejects every kind with PreconditionViolated.  rate_m reads its a as
# integers, as int_det does: the kinds it marks None do not apply to it,
# as a long double 1e400, 10**400 and 1e200 are valid integers and a third
# is no integer (TestIntDet.test_non_integral_rejected).
ARRAY_SITES = {
    "H/gram_matrix": (lambda x: gram_matrix(x, 10.0).tobytes(), PreconditionViolated,
                      [[2, 1], [0, 3]], {}),
    "G/cholesky": (lambda x: cholesky(x).tobytes(), PreconditionViolated, [[2, 0], [0, 3]], {}),
    "G/rate_m": (lambda x: rate_m([1, 0], x).hex(), PreconditionViolated, [[2, 1], [1, 2]], {}),
    "G/total_rate": (lambda x: total_rate([[1, 0], [0, 1]], x).hex(), PreconditionViolated,
                     [[2, 1], [1, 2]], {}),
    "R/lll_reduce": (lambda x: _lll_bytes(0.75, x), PreconditionViolated, [[2, 1], [0, 3]], {}),
    "R/enumerate_below": (lambda x: _visits(2.5, x), PreconditionViolated, [[2, 1], [0, 3]], {}),
    "R/solve_rsmp": (_solved(solve_rsmp), PreconditionViolated, [[2, 1], [0, 3]], {}),
    "R/baseline_smp": (_solved(baseline_smp), PreconditionViolated, [[2, 1], [0, 3]], {}),
    "R/brute_force_smp": (_solved(brute_force_smp), PreconditionViolated, [[2, 1], [0, 3]], {}),
    "a/rate_m": (lambda x: rate_m(x, 0.25 * np.eye(2)).hex(), PreconditionViolated, [1, 2],
                 dict.fromkeys(("longdouble", "huge-int", "1e200", "float32"))),
}


def _site_kinds(kinds):
    """(site, kind) pairs of ARRAY_SITES, less the kinds a site marks None."""
    return [(site, kind) for site, (*_, skipped) in ARRAY_SITES.items() for kind in kinds
            if kind not in skipped]


def _with(base, value, dtype=None):
    """base with its entry at (0, 1) (at 1 in a vector) set to value."""
    x = np.array(base, dtype=dtype)
    x[(0, 1)[-x.ndim:]] = value
    return x


def _ragged(base):
    rows = np.array(base).tolist()
    return rows[:-1] + [rows[-1][:-1]] if isinstance(rows[0], list) else [rows, rows[:-1]]


def _not_real_array(base):
    """No finite real array of the site's shape: NaN, infinite and
    out-of-range long double entries, non-real or ragged input, an integer
    no float holds, a 0-d array, the wrong ndim, an empty array, and
    entries whose squares overflow."""
    base = np.array(base, dtype=float)
    ndim = base.ndim
    return {"nan": _with(base, np.nan), "+inf": _with(base, np.inf), "-inf": _with(base, -np.inf),
            "longdouble": _with(base, np.longdouble("1e400"), np.longdouble),
            "complex": base.astype(complex), "str": base.astype(str), "ragged": _ragged(base),
            "huge-int": _with(base, 10**400, object).tolist(), "0-d": np.array(1.0),
            "wrong-ndim": np.zeros((2,) * (ndim + 1)), "empty": np.zeros((0,) * ndim),
            "1e200": 1e200 * base}


def _real_arrays(base):
    """Real arrays of other dtypes than float64; float32 and long double
    entries that are not integers."""
    base = np.array(base)
    return {"float32": (base / 3).astype(np.float32), "int64": base.astype(np.int64),
            "bool": base.astype(bool), "longdouble": base.astype(np.longdouble) / 3}


@pytest.mark.parametrize("site, kind", _site_kinds(_not_real_array(np.eye(2))))
def test_not_real_array_rejected(site, kind):
    run, error, base, _ = ARRAY_SITES[site]
    x = _not_real_array(base)[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            run(x)


@pytest.mark.parametrize("site, kind", _site_kinds(_real_arrays(np.eye(2))))
def test_real_array_read_as_float64(site, kind):
    run, _, base, _ = ARRAY_SITES[site]
    x = _real_arrays(base)[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(x) == run(x.astype(float))
