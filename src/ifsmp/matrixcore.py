"""Dense real linear algebra and exact integer matrix utilities.

Real matrices enter as ``numpy.ndarray`` (float64).  A triangular matrix
passed to a public reduction, enumeration or reduced-solver entry point
passes one gate, `checked_rows`, which returns it as a list of rows of
Python floats.  The solve pipeline builds its triangular factor itself,
with the two halves of `cholesky`: `_factor` checks G and factors it, and
`_check_pivots` checks the factor's diagonal.  It reads R's columns and
diagonal once, and applies to that one diagonal list the pivot check and
then the gate's diagonal rule alone, `_check_diagonal`; no stage after it
checks its input again.  `_units(n)`, the n unit columns as tuples of
ints, is built once per n and shared by every solve that starts from an
identity.

`cholesky` and `receiver.gram_matrix` call LAPACK from scipy's compiled
``scipy/linalg/_flapack``, which `_load_flapack` loads once by file.  It
finds scipy's directory without running scipy's package ``__init__``, so
`import ifsmp` imports neither `scipy.linalg` (whose start-up imports much
of numpy that ifsmp never uses) nor `scipy` (whose package init alone
holds about 0.7 MB of resident memory); R has the bits of
``scipy.linalg.lapack.dpotrf``, the same compiled function.

Integer matrices are handled with native Python ints internally, so every
rank / determinant decision is exact: no tolerance, no overflow (Python
ints are unbounded, which subsumes a 64->128 bit widening scheme).
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from operator import mul, sub

import numpy as np

from .errors import (
    CoefficientOverflow,
    NotPositiveDefinite,
    NotSymmetric,
    PreconditionViolated,
    SingularInput,
)

SYMMETRY_RTOL = 1e-12
SINGULAR_RTOL = 1e-14


def _load_flapack():
    """scipy's compiled LAPACK extension, loaded from its file without
    running scipy's package ``__init__`` or importing the `scipy.linalg`
    package around it; `find_spec` only locates scipy's directory.

    Raises ModuleNotFoundError without scipy, and ImportError naming the
    file when scipy has no ``linalg/_flapack``.  If loading the extension
    raises ImportError, scipy is imported and the load tried once more:
    on Windows, scipy's ``__init__`` is what adds the directory of the
    DLLs the extension links against to the search path."""
    package = find_spec("scipy")
    if package is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    linalg_dir = os.path.join(os.path.dirname(package.origin), "linalg")
    spec = PathFinder.find_spec("_flapack", [linalg_dir])
    if spec is None:
        raise ImportError("scipy has no LAPACK extension "
                          f"{os.path.join(linalg_dir, '_flapack')}.*")
    try:
        return _exec(spec)
    except ImportError:
        import scipy  # noqa: F401  (its __init__ sets up the DLL search path)

        return _exec(spec)


def _exec(spec):
    """The module of an extension's spec: created, which loads the shared
    library and runs its init function, then executed."""
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dposv, dpotrf = _flapack.dposv, _flapack.dpotrf


def _float_array(x) -> np.ndarray:
    """x as a float64 ndarray; raises PreconditionViolated unless numpy reads
    it as an array of real numbers (bool, integer or float dtype), so that a
    complex, string or ragged input is not cast silently or failed untyped."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nested sequence
        raise PreconditionViolated("expected an array of real numbers") from None
    if a.dtype.kind not in "biuf":
        raise PreconditionViolated(f"expected an array of real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _real(x) -> float:
    """The one reader of a real scalar (P, delta, beta, a basis norm): x as
    a Python float when `_float_array` reads it as a 0-d array, that is a
    bool, int or float, Python or numpy, or a 0-d array of one; otherwise
    NaN, which fails every range test.  A str, None, a complex number, an
    array with ndim > 0, and a Fraction, a Decimal or an int beyond 64 bits
    (numpy's object dtype) are no real scalar.  A Python float is returned
    as it is, with no numpy call."""
    if type(x) is float:
        return x
    try:
        a = _float_array(x)
    except PreconditionViolated:
        return math.nan
    return float(a) if a.ndim == 0 else math.nan


def cholesky(g: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor R of a symmetric positive definite
    matrix, with R^T R = g and positive diagonal: LAPACK ``dpotrf`` on the
    upper triangle, with the lower one zeroed.

    Raises PreconditionViolated (not real, empty, or a NaN / infinite
    entry), NotSymmetric or NotPositiveDefinite; each test fails on a NaN.
    ``dpotrf`` reports success on some finite g whose pivots overflow to
    NaN, so a diagonal entry that is not positive fails too.  A returned R
    is then finite: every entry above the diagonal enters the pivot of its
    column, which a NaN or infinite one would make NaN or -inf.
    """
    r, info = _factor(g)
    _check_pivots(r.diagonal().tolist(), info)
    return r


def _factor(g) -> tuple[np.ndarray, int]:
    """`cholesky` up to its pivot check: G checked, then ``dpotrf``'s factor
    and its ``info`` (> 0: the leading minor of that order is not positive
    definite)."""
    g = _float_array(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {g.shape}")
    if not g.size:
        raise PreconditionViolated("matrix is empty")
    rows = g.tolist()  # Python floats: same decisions, cheaper than numpy here
    flat = sum(rows, [])
    if not all(map(math.isfinite, flat)):
        raise PreconditionViolated("matrix has a NaN or infinite entry")
    transposed = sum(zip(*rows), ())
    if tuple(flat) != transposed:  # gram_matrix's G is exactly symmetric
        asym = max(map(abs, map(sub, flat, transposed)))
        if not asym <= SYMMETRY_RTOL * (max(map(abs, flat)) or 1.0):
            raise NotSymmetric("matrix is not symmetric within 1e-12 relative tolerance")
    r, info = dpotrf(g, lower=0, clean=1)
    if info < 0:
        raise ValueError(f"LAPACK rejected argument {-info}")
    return r, info


def _check_pivots(diag: list[float], info: int) -> None:
    """`cholesky`'s pivot check on the diagonal of ``dpotrf``'s factor:
    raises NotPositiveDefinite if ``info`` reports a failed pivot or an
    entry is not positive (a NaN pivot fails too)."""
    if info or not all(map((0.0).__lt__, diag)):
        j = info - 1 if info else next(i for i, d in enumerate(diag) if not d > 0.0)
        raise NotPositiveDefinite(f"pivot {diag[j]} at index {j}")


def checked_rows(m) -> list[list[float]]:
    """The one gate of a triangular input: m, read as real numbers by
    `_float_array` (as `cholesky` reads G), as a list of rows of Python
    floats, converted by one ``tolist``.

    Raises PreconditionViolated unless m is a nonempty square 2-D matrix
    of real numbers, SingularInput unless its diagonal passes
    `_check_diagonal`, and PreconditionViolated unless its squared entries
    sum to a finite float, which a NaN, an infinite entry or an overflow
    prevents.
    """
    m = _float_array(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise PreconditionViolated(f"expected a nonempty square 2-D matrix, got shape {m.shape}")
    rows = m.tolist()
    _check_diagonal([abs(row[i]) for i, row in enumerate(rows)])
    flat = sum(rows, [])
    if not sum(map(mul, flat, flat)) < math.inf:
        raise PreconditionViolated("matrix has a NaN or infinite entry, or squares that overflow")
    return rows


def _check_diagonal(diag: list[float]) -> None:
    """The gate's diagonal rule on the magnitudes |r_ii| of a triangular
    diagonal: raises SingularInput unless every |r_ii| >= 1e-14 max |r_ii|
    (false on a NaN) and min |r_ii| squared (by ``*``: ``**`` raises on
    overflow) is at least ``sys.float_info.min``, so that no square the
    walk compares underflows."""
    bound = SINGULAR_RTOL * max(diag)
    low = min(diag)
    if not (low * low >= sys.float_info.min and all(map(bound.__le__, diag))):
        raise SingularInput("diagonal entry below 1e-14 of the largest, or its square not normal")


@lru_cache(maxsize=64)
def _units(n: int) -> tuple[tuple[int, ...], ...]:
    """The n unit vectors e_0 .. e_{n-1} as tuples of ints, built once per n;
    the tuples keep the shared columns from being changed in place."""
    return tuple(tuple(int(r == k) for r in range(n)) for k in range(n))


def _to_int_rows(m) -> list[list[int]]:
    """m as rows of Python ints; raises PreconditionViolated unless m is a
    nonempty 2-D matrix of integral entries (2.0 is one, 0.5, NaN and 1j
    are not; ragged rows are no matrix)."""
    try:
        a = np.asarray(m)
    except ValueError:  # a ragged nested sequence
        raise PreconditionViolated("expected a matrix of integers") from None
    if a.ndim != 2 or not a.size:
        raise PreconditionViolated(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    entries = a.tolist()
    try:
        rows = [[int(v) for v in row] for row in entries]
    except (TypeError, ValueError, OverflowError):
        raise PreconditionViolated("expected a matrix of integers") from None
    if rows != entries:  # int() truncated an entry, or parsed a string
        raise PreconditionViolated("matrix has an entry that is not an integer")
    return rows


def _int64(rows: list[list[int]]) -> np.ndarray:
    """Exact integer rows as an int64 ndarray; raises CoefficientOverflow
    (an OverflowError) when an entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError as exc:
        bits = max(abs(v) for row in rows for v in row).bit_length()
        raise CoefficientOverflow(f"an integer entry of {bits} bits does not fit int64") from exc


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of ``rows`` in place; returns the
    pivot columns in order and the sign of the row swaps made."""
    n_rows, n_cols = len(rows), len(rows[0])
    piv_r = 0
    prev = 1
    sign = 1
    pivot_cols: list[int] = []
    for col in range(n_cols):
        pr = next((r for r in range(piv_r, n_rows) if rows[r][col] != 0), None)
        if pr is None:
            continue
        if pr != piv_r:
            rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
            sign = -sign
        pivot_cols.append(col)
        p = rows[piv_r][col]
        for r in range(piv_r + 1, n_rows):
            factor = rows[r][col]
            row_r = rows[r]
            row_p = rows[piv_r]
            for c in range(col + 1, n_cols):
                row_r[c] = (p * row_r[c] - factor * row_p[c]) // prev
            row_r[col] = 0
        prev = p
        piv_r += 1
        if piv_r == n_rows:
            break
    return pivot_cols, sign


def int_rank(m) -> int:
    """Exact rank of an integer matrix: its number of Bareiss pivots."""
    return len(_bareiss(_to_int_rows(m))[0])


def int_det(m) -> int:
    """Exact determinant of a square integer matrix: the signed last Bareiss
    pivot when every column has a pivot, else 0."""
    rows = _to_int_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PreconditionViolated("determinant requires a square matrix")
    pivot_cols, sign = _bareiss(rows)
    return sign * rows[-1][-1] if len(pivot_cols) == n else 0
