"""explat: exponential-algebraic system solving on products of elliptic
curves and algebraic tori, parametrized by period-lattice points."""

from .core import NonConvergence
from .elliptic import (
    EllipticCurveParams,
    Lattice,
    eisenstein_invariants,
    log_E_batch,
    reduce_mod_lattice,
    wp_both,
)
from .fiber import (
    DegenerateFiber,
    NonTriangularSystem,
    ProblemSpec,
    SectorDomain,
    fiber_rows,
    monodromy_profile,
)
from .solver import (
    ContractionGateFailed,
    LatticeTooLarge,
    Records,
    SolutionRecord,
    SweepResult,
    ZeroOnBoundary,
    count_zeros_window,
    enumerate_lattice,
    measure_contraction,
    sweep,
)
from .specfile import ParseError, RunSetup, ValidationError, parse_run, parse_spec
from .torus import torus_log_near

__version__ = "0.1.0"

__all__ = [
    "ContractionGateFailed",
    "DegenerateFiber",
    "EllipticCurveParams",
    "Lattice",
    "LatticeTooLarge",
    "NonConvergence",
    "NonTriangularSystem",
    "ParseError",
    "ProblemSpec",
    "Records",
    "RunSetup",
    "SectorDomain",
    "SolutionRecord",
    "SweepResult",
    "ValidationError",
    "ZeroOnBoundary",
    "count_zeros_window",
    "eisenstein_invariants",
    "enumerate_lattice",
    "fiber_rows",
    "log_E_batch",
    "measure_contraction",
    "monodromy_profile",
    "parse_run",
    "parse_spec",
    "reduce_mod_lattice",
    "sweep",
    "torus_log_near",
    "wp_both",
]
