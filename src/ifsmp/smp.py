"""Exact successive-minima solvers.

One pipeline, `_pipeline`, runs Cholesky -> LLL (at DEFAULT_DELTA) -> a
reduced solver -> a_star = z @ c_star.  `solve_smp` runs it with `solve_rsmp`: one
Schnorr-Euchner enumeration that starts from a permuted identity basis C and
repairs it at every improving leaf c with the basis-update rule behind
`update_basis`: with y = adj(C) c and i the stable insertion point of c,
drop column m = max{k : y_k != 0}, or reject c when m < i.  adj(C) is kept
up to sign as exact integers and updated by one rank-one step per accepted
leaf, so a leaf costs O(n) per column from the last down to i, and an
accepted one O(n^2); no leaf re-runs an elimination.  `brute_force_smp`,
the ground-truth oracle, collects every leaf of one fixed-radius search on
the same `enumeration._search` engine and selects greedily with exact
ranks; `baseline_smp` rebuilds the column-by-column approach of prior
solvers.  Every solver reaches the tree walk through `_search`, and the
benchmark runs all three reduced solvers through `_pipeline`.

Between Cholesky and a_star the pipeline works on Python lists: R is
converted once, when LLL reads it, r_bar reaches the reduced solver as a
list of float rows (every solver passes it through the one gate,
`matrixcore.checked_rows`), and z @ c_star is multiplied in Python ints and converted to int64
once, as a_star.  Per-call numpy overhead dominates at small n, so lists
are faster there.  `gram_matrix` and `cholesky` stay numpy: their dot
products go through BLAS, whose rounding a Python loop does not reproduce
bit for bit, so moving them would change the answers.

All independence decisions are made on integer matrices with exact
arithmetic (`int_rank` of the coefficient columns taken as rows); no
floating-point rank tests anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .enumeration import _search
from .errors import DimensionTooLarge, PreconditionViolated, SingularCoefficientMatrix
from .lll import DEFAULT_DELTA, _lll
from .matrixcore import checked_rows, cholesky, int_det, int_rank

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
        return np.array(self.cols, dtype=np.int64).T


@dataclass(frozen=True)
class SmpSolution:
    a_star: np.ndarray
    lambdas: tuple[float, ...]
    objective: float
    rate_total: float


def _exchange(cols: list, norms: list, adj: list, d: int, c, norm: float) -> int | None:
    """The `update_basis` rule on lists, for a sorted basis C with
    adj = d * C^-1 (row k of adj belongs to column k of C) and a candidate
    c with norm below norms[-1].  On acceptance the lists are updated in
    place by an exact rank-one step and the new scale d' = y_m is returned;
    on rejection nothing changes and None is returned."""
    n = len(cols)
    # stable insertion: equal-norm incumbents stay ahead of the newcomer
    i = 0
    while i < n and norms[i] <= norm:
        i += 1
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
    del cols[m], norms[m], adj[m]
    cols.insert(i, tuple(c))
    norms.insert(i, norm)
    adj.insert(i, row_m)
    return y_m


def _adjugate(cols: list[tuple[int, ...]]) -> list[list[int]]:
    """adj C, row k belonging to column k: by Cramer's rule, entry (k, j)
    is det C with column k replaced by e_j."""
    n = len(cols)
    unit = [tuple(int(r == j) for r in range(n)) for j in range(n)]
    return [[int_det(cols[:k] + [e] + cols[k + 1:]) for e in unit] for k in range(n)]


def update_basis(basis: WorkingBasis, cand: Candidate) -> WorkingBasis:
    """Insert a strictly shorter candidate column into a sorted basis.

    The candidate is placed after all columns of norm <= its own (index i).
    With y = adj(C) c, the column dropped is m = max{k : y_k != 0}: the
    largest index whose removal keeps the extended matrix invertible.  If
    m < i the candidate is a combination of the shorter columns; it is
    dropped and the basis returned unchanged.  This is the rule
    `solve_rsmp` applies at every leaf.
    """
    if not any(cand.coeffs):
        raise PreconditionViolated("candidate coefficient vector is zero")
    if not cand.norm < basis.norms[-1]:
        raise PreconditionViolated(
            f"candidate norm {cand.norm} is not below the largest basis norm"
        )
    cols = [tuple(int(v) for v in col) for col in basis.cols]
    d = int_det(cols)
    if d == 0:
        raise SingularCoefficientMatrix("working basis is not invertible")
    norms = list(basis.norms)
    coeffs = [int(v) for v in cand.coeffs]
    if _exchange(cols, norms, _adjugate(cols), d, coeffs, cand.norm) is None:
        return basis
    return WorkingBasis(cols=tuple(cols), norms=tuple(norms))


def _identity_norms(rows: list[list[float]]) -> list[float]:
    """||r_bar e_k|| for each k, of an upper-triangular r_bar given as rows."""
    return [math.hypot(*(rows[i][k] for i in range(k + 1))) for k in range(len(rows))]


def solve_rsmp(r_bar) -> tuple[np.ndarray, list[float]]:
    """Successive minima of L(r_bar) in a single enumeration pass.

    Starts from the sorted permuted identity, visits sign-canonical vectors
    inside the shrinking radius (the largest current basis norm), and
    repairs the basis with the `update_basis` rule at every nonzero leaf.
    Returns the invertible coefficient matrix (columns are the minima
    vectors) and the nondecreasing norms.
    """
    rows = checked_rows(r_bar)
    n = len(rows)
    # permuted identity columns sorted by ||r_bar e_k|| (stable)
    col_norms = _identity_norms(rows)
    order = sorted(range(n), key=lambda k: col_norms[k])
    cols = [tuple(1 if r == k else 0 for r in range(n)) for k in order]
    norms = [col_norms[k] for k in order]
    adj = [list(col) for col in cols]  # C^-1 = C^T for a permutation
    d = 1

    def on_leaf(c: list[int], norm_sq: float) -> float | None:
        nonlocal d
        norm = math.sqrt(norm_sq)
        if not norm < norms[-1]:  # sqrt rounding at the radius
            return None
        new_d = _exchange(cols, norms, adj, d, c, norm)
        if new_d is None:
            return None
        d = new_d
        return norms[-1] ** 2

    _search(rows, norms[-1] ** 2, on_leaf)
    return np.array(cols, dtype=np.int64).T, norms


def solve_smp(g) -> SmpSolution:
    """Optimal integer coefficient matrix for a positive definite Gram matrix.

    Pipeline: Cholesky factor R, LLL-reduce (at DEFAULT_DELTA; delta
    changes the work done, never the minima) to r_bar with unimodular z,
    solve the reduced problem, undo the reduction with a_star = z @ c_star.
    The columns of a_star attain the successive minima of L(R); the
    objective is the squared largest minimum and rate_total the resulting
    total achievable rate in bits per channel use.
    """
    a_star, lambdas = _pipeline(g, solve_rsmp)
    objective = lambdas[-1] ** 2
    n = a_star.shape[0]
    rate_total = n * max(0.0, -0.5 * math.log2(objective))
    return SmpSolution(
        a_star=a_star,
        lambdas=tuple(lambdas),
        objective=objective,
        rate_total=rate_total,
    )


def _pipeline(g, reduced_solver) -> tuple[np.ndarray, list[float]]:
    """The solve pipeline: Cholesky -> LLL -> ``reduced_solver(r_bar)`` ->
    a_star = z @ c_star, on lists between `cholesky` and the int64 a_star.
    Returns (a_star, lambdas)."""
    r_bar, z = _lll(cholesky(g), DEFAULT_DELTA)
    c_star, lambdas = reduced_solver(r_bar)
    return _int_matmul(z, c_star), lambdas


def _int_matmul(a, b) -> np.ndarray:
    """Exact product of integer matrices (ndarrays or lists of rows) in
    Python ints; the int64 result conversion raises on overflow."""
    a_rows, b_rows = (m.tolist() if isinstance(m, np.ndarray) else m for m in (a, b))
    b_cols = list(zip(*b_rows))
    return np.array([[sum(map(mul, row, col)) for col in b_cols] for row in a_rows], dtype=np.int64)


def brute_force_smp(r_bar) -> tuple[np.ndarray, list[float]]:
    """Ground-truth successive minima by one ball search and greedy selection.

    Collects every sign-canonical nonzero c with ||r_bar c|| below
    beta_0 (1 + 1e-9), beta_0 = max_k ||r_bar e_k||, in one `_search` at a
    fixed radius (the margin keeps the identity columns in the ball; extra
    candidates cannot change the result), sorts them by norm, and greedily
    keeps each vector that is exactly independent of those already kept.
    The in-ball vectors form a matroid, so the picks attain the successive
    minima.  Exponential cost; guarded by ORACLE_MAX_DIM.
    """
    rows = checked_rows(r_bar)
    n = len(rows)
    if n > ORACLE_MAX_DIM:
        raise DimensionTooLarge(f"brute force guarded at dimension {ORACLE_MAX_DIM}")
    leaves: list[tuple[float, tuple[int, ...]]] = []
    beta_sq = (max(_identity_norms(rows)) * (1 + 1e-9)) ** 2
    _search(rows, beta_sq, lambda c, norm_sq: leaves.append((math.sqrt(norm_sq), tuple(c))))
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
        raise RuntimeError("ball search failed to find a full basis")
    return np.array(chosen, dtype=np.int64).T, lambdas


def baseline_smp(r_bar) -> tuple[np.ndarray, list[float]]:
    """Column-by-column successive minima (prior-art style baseline).

    Column k is the shortest sign-canonical vector exactly independent of
    the previously fixed columns, found by a bounded enumeration whose
    radius starts just above the k-th smallest identity-column norm and
    shrinks on every improving independent candidate.
    """
    rows = checked_rows(r_bar)
    n = len(rows)
    ident_norms = sorted(_identity_norms(rows))
    chosen: list[tuple[int, ...]] = []
    lambdas: list[float] = []
    for k in range(n):
        radius = ident_norms[k] * (1 + 1e-12) + 1e-12
        found = _min_independent(rows, radius, chosen)
        while found is None:  # unreachable in theory; guard against fp edge
            radius *= 1.5
            found = _min_independent(rows, radius, chosen)
        norm, vec = found
        chosen.append(vec)
        lambdas.append(norm)
    return np.array(chosen, dtype=np.int64).T, lambdas


def _min_independent(
    rows: list[list[float]],
    radius: float,
    fixed: list[tuple[int, ...]],
) -> tuple[float, tuple[int, ...]] | None:
    """Shortest vector below `radius` independent of the fixed columns."""
    best: dict = {"norm_sq": None, "c": None}

    def on_leaf(c: list[int], norm_sq: float):
        if int_rank(fixed + [tuple(c)]) == len(fixed):
            return None
        best["norm_sq"] = norm_sq
        best["c"] = tuple(c)
        return norm_sq

    _search(rows, radius * radius, on_leaf)
    if best["c"] is None:
        return None
    return math.sqrt(best["norm_sq"]), best["c"]


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
