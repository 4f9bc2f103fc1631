"""Lattice successive-minima solvers for integer-forcing MIMO receivers.

The package root exports the solvers and their helpers only.  The
Monte-Carlo benchmark harness is imported from `ifsmp.bench` (BenchConfig,
BenchRecord, db_to_linear, generate_channel, run_benchmark), so that
``import ifsmp`` loads none of it."""

from .enumeration import enumerate_below
from .errors import (
    CoefficientOverflow,
    ConfigError,
    DimensionTooLarge,
    IfsmpError,
    InvalidPower,
    NotPositiveDefinite,
    NotSymmetric,
    PreconditionViolated,
    SearchBudgetExceeded,
    SingularCoefficientMatrix,
    SingularInput,
    ZeroVector,
)
from .lll import DEFAULT_DELTA, LllResult, lll_reduce
from .matrixcore import cholesky, int_det, int_rank
from .receiver import gram_matrix, rate_m, total_rate
from .smp import (
    Candidate,
    SmpSolution,
    WorkingBasis,
    baseline_smp,
    brute_force_smp,
    solve_rsmp,
    solve_smp,
    update_basis,
)

__version__ = "0.1.0"
