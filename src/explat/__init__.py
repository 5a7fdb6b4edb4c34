"""explat: exponential-algebraic system solving on products of elliptic
curves and algebraic tori, parametrized by period-lattice points."""

from .core import NonConvergence
from .elliptic import (
    EllipticCurveParams,
    EPoint,
    Lattice,
    eisenstein_invariants,
    exp_E,
    log_E,
    log_E_near,
    reduce_mod_lattice,
    wp,
    wp_both,
    wp_prime,
)
from .fiber import (
    BranchState,
    DegenerateFiber,
    LeftDomain,
    NonTriangularSystem,
    ProblemSpec,
    SectorDomain,
    branch_base,
    monodromy_profile,
)
from .solver import (
    ContractionGateFailed,
    LatticeProduct,
    MarginModel,
    SolutionRecord,
    SweepResult,
    ZeroOnBoundary,
    count_zeros_window,
    enumerate_lattice,
    measure_contraction,
    solve_at_lattice_point,
    sweep,
)
from .specfile import ParseError, RunSetup, ValidationError, parse_run, parse_spec
from .torus import torus_log, torus_log_near

__version__ = "0.1.0"

__all__ = [
    "BranchState",
    "ContractionGateFailed",
    "DegenerateFiber",
    "EPoint",
    "EllipticCurveParams",
    "Lattice",
    "LatticeProduct",
    "LeftDomain",
    "MarginModel",
    "NonConvergence",
    "NonTriangularSystem",
    "ParseError",
    "ProblemSpec",
    "RunSetup",
    "SectorDomain",
    "SolutionRecord",
    "SweepResult",
    "ValidationError",
    "ZeroOnBoundary",
    "branch_base",
    "count_zeros_window",
    "eisenstein_invariants",
    "enumerate_lattice",
    "exp_E",
    "log_E",
    "log_E_near",
    "measure_contraction",
    "monodromy_profile",
    "parse_run",
    "parse_spec",
    "reduce_mod_lattice",
    "solve_at_lattice_point",
    "sweep",
    "torus_log",
    "torus_log_near",
    "wp",
    "wp_both",
    "wp_prime",
]
