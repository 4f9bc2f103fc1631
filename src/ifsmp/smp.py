"""Exact successive-minima solvers.

One pipeline, `_pipeline`, runs Cholesky -> LLL (at DEFAULT_DELTA) -> a
reduced solver -> a_star = z @ c_star.  `solve_smp` runs it with the
kernel of `solve_rsmp`: one Schnorr-Euchner enumeration that starts from a
permuted identity basis C and repairs it at every improving leaf c with
the basis-update rule behind `update_basis`: with y = adj(C) c and i the
stable insertion point of c, drop column m = max{k : y_k != 0}, or reject
c when m < i.  adj(C) is kept up to sign as exact integers and updated by
one rank-one step per accepted leaf, so a leaf costs O(n) per column from
the last down to i, and an accepted one O(n^2); no leaf re-runs an
elimination, and `update_basis` builds its adj(C) by the same rule.  A
leaf equal to a basis column, most leaves on the benchmark channels, is
moved or rejected in O(n) with no dot product (`_exchange`).  The
walk never reaches most of the leaves the rule would reject:
`_subspace_radii` reads off adj(C) which basis columns a vector supported
on c_0..c_h can replace, and gives that subspace the norm of the last of
them as its radius.  A leaf beyond it would be inserted after every column
it could replace, so it is always a rejected one, and skipping it leaves
every output bit for bit as a flat radius gives it.  The radius is keyed
on the prefix c_0..c_h, not on a leaf's own support, so a leaf that skips
a coordinate still gets the whole prefix's radius: when r_bar_00 is tiny,
every leaf b + k e_0 of a basis column b inside that radius is walked and
rejected, about 2 sqrt(radius^2 - ||b||^2) / r_bar_00 of them (ROADMAP
item 3).
`brute_force_smp`, the ground-truth oracle, collects every leaf of one
fixed-radius search on the same `enumeration._search` engine and selects
greedily with exact ranks; `baseline_smp` rebuilds the column-by-column
approach of prior solvers.  Every solver reaches the tree walk through
`_search`, and the benchmark runs the kernels of all three reduced solvers
through `_pipeline`.

Between Cholesky and a_star the pipeline works on Python lists: R is
read once, by one ``tolist`` of its transpose into the columns the LLL
kernel reduces.  r_bar, z and c_star travel as columns; only the walk
reads rows, and `_int64` builds a_star's rows.  Each column of a_star is
gathered in Python ints from the columns of z, as the sum of c_k z_k over
the nonzero entries c_k of its column of c_star.  The
unit columns every solve starts from (the identity z, the permuted
identity C and its adj) are the shared tuples of `matrixcore._units`,
built once per n.  Per-call numpy overhead dominates at small n, so
lists are faster there.  `gram_matrix` and the pipeline's factor stay
numpy: both factor with numpy's LAPACK ``dpotrf`` (`matrixcore._factor`),
whose bits a Python loop would not keep.

Every input enters by one of the two ways in of `matrixcore`: G by
`cholesky` in `_pipeline`, a triangular input by `checked_columns` in each
public reduced solver, as in `lll_reduce`; both read it by
`matrixcore._real_array`'s one finite rule, `cholesky` returns only an R
that `checked_columns` accepts, and the LLL and reduced-solver kernels
after them trust their columns.  One tail, `_tail`, then runs `_lll` at
DEFAULT_DELTA, the kernel and `_unreduce`, so a public reduced solver
reduces its input first and returns c_star in the input's coordinates.
On `lll_reduce` output that second reduction takes no step, so the
kernel's answer comes back bit for bit; on other input the kernel walks a
reduced basis, whose radii start near the minima.  The finite rule alone
decides whether an input's squares fit in floats, so no kernel widens or
retries a radius.

All independence decisions are made on integer matrices with exact
arithmetic (`int_rank` of the coefficient columns taken as rows); no
floating-point rank tests anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import le, mul

import numpy as np

from .enumeration import _search
from .errors import (
    DimensionTooLarge,
    PreconditionViolated,
    SearchBudgetExceeded,
    SingularCoefficientMatrix,
)
from .lll import DEFAULT_DELTA, _lll
from .matrixcore import (
    _int64, _real, _to_int_rows, _units, checked_columns, cholesky, int_rank,
)
from .receiver import _rate

ORACLE_MAX_DIM = 8  # largest dimension brute_force_smp accepts


@dataclass(frozen=True)
class Candidate:
    """A coefficient vector together with its lattice norm ||r_bar c||."""

    coeffs: tuple[int, ...]
    norm: float


@dataclass(frozen=True)
class WorkingBasis:
    """Columns of the current coefficient matrix C with sorted norms."""

    cols: tuple[tuple[int, ...], ...]
    norms: tuple[float, ...]

    def matrix(self) -> np.ndarray:
        """Columns assembled into an integer matrix."""
        return _int64(self.cols).T


@dataclass(frozen=True)
class SmpSolution:
    """A solve's answer: a_star and the successive minima it attains.

    Only the two are stored; `objective` and `rate_total` are functions of
    lambdas, evaluated on every access and never cached.  The slots are
    declared here, not by ``slots=True``: that rebuilds the class, and the
    rebuilt class's frozen ``__setattr__`` raises TypeError, not
    FrozenInstanceError, for a name that is no field, such as the two
    properties (Python 3.11).  ``__reduce__`` rebuilds an instance through
    ``__init__``, as pickle and copy cannot set the slots of a frozen one."""

    __slots__ = ("a_star", "lambdas")
    a_star: np.ndarray
    lambdas: tuple[float, ...]

    def __reduce__(self):
        return SmpSolution, (self.a_star, self.lambdas)

    @property
    def objective(self) -> float:
        """The squared largest minimum, lambda_n^2."""
        return self.lambdas[-1] ** 2

    @property
    def rate_total(self) -> float:
        """The total IF rate N_t * max(0, log2(1 / lambda_n^2) / 2)."""
        return len(self.lambdas) * _rate(self.lambdas[-1] ** 2)


def _exchange(cols: list, norms: list, adj: list, d: int, c, norm: float) -> int | None:
    """The `update_basis` rule on lists, for a sorted basis C with
    adj = d * C^-1 (row k of adj belongs to column k of C) and a candidate
    c.  On acceptance the lists are updated in place by an exact rank-one
    step and the new scale d' = y_m is returned; on rejection nothing
    changes and None is returned.  A norm >= norms[-1] or NaN is rejected:
    its insertion point is n, past every column.

    A candidate equal to column m is a move: adj C = d I gives
    y = adj c = d e_m exactly, so the rule rejects it when m < i and
    otherwise puts c at i by a rank-one step that changes no adj row and
    keeps d; column m, with the candidate's norm, and adj row m go to i
    with no dot product.  A negated column flips the signs of adj and d,
    so it takes the step."""
    # stable insertion: equal-norm incumbents stay ahead of the newcomer
    i = bisect_right(norms, norm)
    col = tuple(c)
    if col in cols:
        m = cols.index(col)
        if m < i:
            return None
        y_m = d
    else:
        n = len(cols)
        for m in range(n - 1, i - 1, -1):
            y_m = sum(map(mul, adj[m], c))
            if y_m:
                break
        else:
            return None
        row_m = adj[m]
        for k in range(m):
            row = adj[k]
            y_k = sum(map(mul, row, c))
            # exact: the result is +-adj of the updated basis
            adj[k] = [(y_m * a - y_k * b) // d for a, b in zip(row, row_m)]
        for k in range(m + 1, n):
            adj[k] = [y_m * a // d for a in adj[k]]
    # both steps leave adj row m as it is and move it with column m to i
    del cols[m], norms[m]
    cols.insert(i, col)
    norms.insert(i, norm)
    adj.insert(i, adj.pop(m))
    return y_m


def _exchange_basis(cols: list[tuple[int, ...]]) -> tuple[list[list[int]], int]:
    """(adj, d) with adj = d * C^-1, by `_exchange`: column k of C is
    inserted with norm k into the identity, whose columns hold norm inf, so
    it lands at index k; a rejection means that C is singular."""
    n = len(cols)
    units = _units(n)
    adj = list(map(list, units))  # returned, so rows of the documented type
    work, norms, d = list(units), [math.inf] * n, 1
    for k, col in enumerate(cols):
        d = _exchange(work, norms, adj, d, col, k)
        if d is None:
            raise SingularCoefficientMatrix("working basis is not invertible")
    return adj, d


def update_basis(basis: WorkingBasis, cand: Candidate) -> WorkingBasis:
    """Insert a strictly shorter candidate column into a sorted basis.

    The candidate is placed after all columns of norm <= its own (index i).
    With y = adj(C) c, the column dropped is m = max{k : y_k != 0}: the
    largest index whose removal keeps the extended matrix invertible.  If
    m < i the candidate is a combination of the shorter columns; it is
    dropped and the basis returned unchanged.  This is the rule
    `solve_rsmp` applies at every leaf, and adj(C) is built by it too.
    Raises PreconditionViolated unless C has n columns of n integers
    (`matrixcore._to_int_rows`: 2.0 is one, 1.5 is not) with n sorted
    norms >= 0 and the candidate is n integers, nonzero, with a norm in
    [0, norms[-1]); every norm is read by `matrixcore._real`, so one that
    is no real scalar fails as NaN does, and a returned basis holds Python
    floats.
    SingularCoefficientMatrix unless C is invertible.
    """
    *cols, coeffs = map(tuple, _to_int_rows([*basis.cols, cand.coeffs]))
    norms, norm = list(map(_real, basis.norms)), _real(cand.norm)
    if not len(coeffs) == len(cols) == len(norms) or not all(map(le, [0, *norms], norms)):
        raise PreconditionViolated("expected n columns of n integers, n sorted norms >= 0, "
                                   "and n candidate integers")
    if not any(coeffs) or not 0 <= norm < norms[-1]:
        raise PreconditionViolated(f"candidate {coeffs} is zero or its norm {cand.norm!r} "
                                   f"is not in [0, {norms[-1]})")
    adj, d = _exchange_basis(cols)
    if _exchange(cols, norms, adj, d, coeffs, norm) is None:
        return basis
    return WorkingBasis(cols=tuple(cols), norms=tuple(norms))


def _identity_norms(cols: list[list[float]]) -> list[float]:
    """||r_bar e_k|| for each k, of an upper-triangular r_bar given as columns."""
    return [math.hypot(*col[:k + 1]) for k, col in enumerate(cols)]


# The one relative pad on every squared radius derived from a float norm:
# far above the few ulps by which the walk's partial distances can differ
# from that norm; a larger radius only visits more leaves.
_RADIUS_PAD = 1 + 2.0**-30


def _subspace_radii(norms: list[float], adj: list[list[int]]) -> list[float]:
    """Squared search radius per highest nonzero coordinate h, for the
    sorted basis of `_exchange` (row m of adj belongs to column m).

    With first[m] the lowest index r where adj[m][r] != 0 and
    j_h = 1 + max{m : first[m] <= h}, a leaf c supported on c_0..c_h has
    y_m = adj[m].c = 0 for every m >= j_h, so the column it would replace
    lies before j_h; if its norm is >= norms[j_h - 1] its insertion point is
    >= j_h and `_exchange` rejects it.  radii[h] is therefore
    norms[j_h - 1]^2, padded by `_RADIUS_PAD` so that a leaf the walk prunes
    has a float norm strictly above norms[j_h - 1], and capped at the
    ordinary radius norms[-1]^2 (used exactly when j_h = n).  Nondecreasing
    in h, as `_search` requires."""
    n = len(norms)
    last = [-1] * n  # last[r]: largest m whose adj row starts at index r
    for m, row in enumerate(adj):
        first = 0
        while not row[first]:
            first += 1
        last[first] = m
    cap = norms[-1] ** 2
    radii = []
    j = -1  # j_h - 1
    for h in range(n):
        if last[h] > j:
            j = last[h]
        radii.append(cap if j == n - 1 else min(norms[j] ** 2 * _RADIUS_PAD, cap))
    return radii


def solve_rsmp(r_bar) -> tuple[np.ndarray, list[float]]:
    """Successive minima of L(r_bar) in a single enumeration pass.

    r_bar is any upper-triangular basis that passes
    `matrixcore.checked_columns`; it is LLL-reduced first, as `solve_smp` reduces R (`_tail`).  The walk
    starts from the sorted permuted identity of the reduced basis, visits
    sign-canonical vectors inside the shrinking radii, and repairs the
    basis with the `update_basis` rule at every nonzero leaf.  Returns the
    invertible coefficient matrix in r_bar's coordinates (columns are the
    minima vectors; CoefficientOverflow when an entry does not fit int64)
    and the nondecreasing norms.  On `lll_reduce` output the reduction
    takes no step, and on ``cholesky(g)`` the result is `solve_smp(g)`'s,
    bit for bit.

    The radius of a leaf depends on its highest nonzero coordinate h
    (`_subspace_radii`): the largest current basis norm for the top
    subspace, and for a lower one the norm of the last basis column whose
    adj row reaches into c_0..c_h.  Every leaf outside its radius is one
    the rule would reject, because its y = adj(C) c is zero from that
    column on while its insertion point lies past it.  Skipping such leaves
    changes no accept, no accept order and no radius update, so the result
    is the one a flat radius norms[-1]^2 gives, bit for bit; on
    rank-deficient channels, where almost every leaf lies in the span of
    shorter columns, it removes most of the walk.
    """
    return _tail(checked_columns(r_bar), _rsmp)


def _rsmp(r_cols: list[list[float]]) -> tuple[list[tuple[int, ...]], list[float]]:
    """`solve_rsmp` on trusted columns: the columns of c_star, and their norms."""
    # permuted identity columns sorted by ||r_bar e_k|| (stable); as
    # C^-1 = C^T for a permutation, row k of adj is column k of C
    n = len(r_cols)
    col_norms = _identity_norms(r_cols)
    units = _units(n)
    cols = [units[k] for k in sorted(range(n), key=col_norms.__getitem__)]
    adj = cols.copy()
    norms = sorted(col_norms)
    d = 1

    def on_leaf(c: list[int], norm_sq: float) -> list[float] | None:
        nonlocal d
        new_d = _exchange(cols, norms, adj, d, c, math.sqrt(norm_sq))
        if new_d is None:
            return None
        d = new_d
        return _subspace_radii(norms, adj)

    _search(r_cols, _subspace_radii(norms, adj), on_leaf)
    return cols, norms


def solve_smp(g) -> SmpSolution:
    """Optimal integer coefficient matrix for a positive definite Gram matrix.

    Pipeline: Cholesky factor R, LLL-reduce (at DEFAULT_DELTA; delta
    changes the work done, never the minima) to r_bar with unimodular z,
    solve the reduced problem, undo the reduction with a_star = z @ c_star.
    The result stores two things: a_star, an int64 matrix whose columns
    attain the successive minima of L(R), and lambdas, those minima as a
    nondecreasing tuple.  Its objective (the squared largest minimum) and
    rate_total (the resulting total achievable rate in bits per channel
    use) are derived from lambdas on access.  The result is frozen and
    slotted.
    """
    a_star, lambdas = _pipeline(g, _rsmp)
    return SmpSolution(a_star, tuple(lambdas))


def _pipeline(g, kernel) -> tuple[np.ndarray, list[float]]:
    """The solve pipeline: `cholesky`, then `_tail`: LLL ->
    ``kernel(r_bar)`` (a reduced solver's kernel) -> a_star = z @ c_star,
    on lists between ``dpotrf`` and the int64 a_star.  Returns
    (a_star, lambdas).

    G's way into the tail (`matrixcore`): R is read once, as columns, with
    no check after `cholesky`, which returns only an R that
    `checked_columns` accepts as it is.  r_bar passes `checked_columns`
    whenever R does (up to rounding at the bound), because a Lovasz swap
    moves the two diagonal entries it changes into the range between
    them."""
    return _tail(cholesky(g).T.tolist(), kernel)


def _tail(cols: list[list[float]], kernel) -> tuple[np.ndarray, list[float]]:
    """The one tail from R to a_star, shared by `_pipeline` and the public
    reduced solvers: the columns of a checked R with a positive diagonal
    through `_lll` at DEFAULT_DELTA, ``kernel(r_bar)``, and
    a_star = z @ c_star by `_unreduce`.  Returns (a_star, lambdas)."""
    r_bar, z = _lll(cols, DEFAULT_DELTA)
    c_cols, lambdas = kernel(r_bar)
    return _unreduce(z, c_cols), lambdas


def _unreduce(z: list, c_cols) -> np.ndarray:
    """z @ C in Python ints, from the columns of z and of C: column j of
    the product is the sum of c_kj z_k over the nonzero c_kj, so a unit
    column of C takes a column of z as it is.  The int64 result conversion
    raises CoefficientOverflow."""
    a_cols = []
    for col in c_cols:
        acc = None
        for c_k, z_k in zip(col, z):
            if c_k:
                if acc is None:
                    acc = z_k if c_k == 1 else [c_k * v for v in z_k]
                else:
                    acc = [a + c_k * v for a, v in zip(acc, z_k)]
        a_cols.append([0] * len(z[0]) if acc is None else acc)
    return _int64(list(zip(*a_cols)))


def _int_matmul(a, b) -> np.ndarray:
    """Exact product of integer matrices (ndarrays or lists of rows) in
    Python ints; the int64 result conversion raises CoefficientOverflow.
    An empty product has numpy's shape: int64 zeros of shape (n, m) for an
    (n, k) a and a (k, m) b when n, k or m is 0."""
    (n_rows, inner), (_, n_cols) = np.shape(a), np.shape(b)
    if not (n_rows and inner and n_cols):
        return np.zeros((n_rows, n_cols), dtype=np.int64)
    a_rows, b_rows = (m.tolist() if isinstance(m, np.ndarray) else m for m in (a, b))
    return _unreduce(list(zip(*a_rows)), list(zip(*b_rows)))


def brute_force_smp(r_bar) -> tuple[np.ndarray, list[float]]:
    """Ground-truth successive minima by one ball search and greedy selection.

    r_bar is LLL-reduced first, as in `solve_rsmp`, and the result is
    returned in its coordinates.  On the reduced basis B the oracle
    collects every sign-canonical nonzero c with ||B c||^2 below
    beta_0^2 `_RADIUS_PAD`, beta_0 = max_k ||B e_k||, in one `_search`
    at a fixed radius (the pad keeps the identity columns in the ball; extra
    candidates cannot change the result), sorts them by norm, and greedily
    keeps each vector that is exactly independent of those already kept.
    The in-ball vectors form a matroid, so the picks attain the successive
    minima.  Exponential cost; guarded by ORACLE_MAX_DIM.
    """
    return _tail(checked_columns(r_bar), _brute_force)


def _brute_force(r_cols: list[list[float]]) -> tuple[list[tuple[int, ...]], list[float]]:
    """`brute_force_smp` on trusted columns: the columns of c_star, and their norms."""
    n = len(r_cols)
    if n > ORACLE_MAX_DIM:
        raise DimensionTooLarge(f"brute force guarded at dimension {ORACLE_MAX_DIM}")
    leaves: list[tuple[float, tuple[int, ...]]] = []
    beta_sq = max(_identity_norms(r_cols)) ** 2 * _RADIUS_PAD
    _search(r_cols, [beta_sq] * n, lambda c, norm_sq: leaves.append((math.sqrt(norm_sq), tuple(c))))
    chosen: list[tuple[int, ...]] = []
    lambdas: list[float] = []
    for norm, vec in sorted(leaves, key=lambda leaf: leaf[0]):
        # columns taken as rows: a matrix and its transpose share their rank
        if int_rank(chosen + [vec]) > len(chosen):
            chosen.append(vec)
            lambdas.append(norm)
            if len(chosen) == n:
                break
    if len(chosen) < n:
        raise SearchBudgetExceeded("ball search failed to find a full basis")
    return chosen, lambdas


def baseline_smp(r_bar) -> tuple[np.ndarray, list[float]]:
    """Column-by-column successive minima (prior-art style baseline).

    r_bar is LLL-reduced first, as in `solve_rsmp`, and the result is
    returned in its coordinates.  Column k is the shortest sign-canonical
    vector exactly independent of the previously fixed columns, found by a
    bounded enumeration on the reduced basis whose squared radius starts at
    its k-th smallest identity-column norm squared times `_RADIUS_PAD` and
    shrinks on every improving independent one.  That ball holds k + 1
    identity columns, so one independent of the k fixed ones: it is never
    empty on an input that passes `matrixcore.checked_columns`.
    """
    return _tail(checked_columns(r_bar), _baseline)


def _baseline(r_cols: list[list[float]]) -> tuple[list[tuple[int, ...]], list[float]]:
    """`baseline_smp` on trusted columns: the columns of c_star, and their norms."""
    n = len(r_cols)
    chosen: list[tuple[int, ...]] = []
    lambdas: list[float] = []

    def on_leaf(c: list[int], norm_sq: float) -> list[float] | None:
        nonlocal best
        if int_rank(chosen + [tuple(c)]) == len(chosen):
            return None
        best = norm_sq, tuple(c)
        return [norm_sq] * n

    for norm in sorted(_identity_norms(r_cols)):
        best = None
        _search(r_cols, [norm ** 2 * _RADIUS_PAD] * n, on_leaf)
        if best is None:
            raise SearchBudgetExceeded("ball search failed to find an independent vector")
        chosen.append(best[1])
        lambdas.append(math.sqrt(best[0]))
    return chosen, lambdas


__all__ = [
    "Candidate",
    "WorkingBasis",
    "SmpSolution",
    "update_basis",
    "solve_rsmp",
    "solve_smp",
    "brute_force_smp",
    "baseline_smp",
]
