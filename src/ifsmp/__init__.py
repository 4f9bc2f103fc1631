"""Lattice successive-minima solvers for integer-forcing MIMO receivers."""

from .bench import BenchConfig, BenchRecord, db_to_linear, generate_channel, run_benchmark
from .enumeration import enumerate_below
from .errors import (
    ConfigError,
    DimensionTooLarge,
    IfsmpError,
    InvalidPower,
    NotPositiveDefinite,
    NotSymmetric,
    PreconditionViolated,
    SingularCoefficientMatrix,
    SingularInput,
    ZeroVector,
)
from .lll import DEFAULT_DELTA, LllResult, lll_reduce
from .matrixcore import (
    cholesky,
    int_det,
    int_rank,
    nearest_integer,
)
from .receiver import filter_matrix, gram_matrix, rate_m, total_rate
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
