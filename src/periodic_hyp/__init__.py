"""Time-periodic solutions of 1D quasilinear hyperbolic balance laws driven
by time-periodic dissipative boundary conditions.

The library constructs the periodic solution by iterating decoupled linear
transport solves along characteristics, verifies the structural hypotheses
that make the construction contract, marches the initial-boundary value
problem to measure exponential convergence toward the periodic solution,
and reports everything in deterministic CSV/JSON form.
"""

from .boundary import (
    BoundarySpec,
    ForcingReport,
    ThetaData,
    characterizing_data,
    eval_boundary,
    minimal_characterizing_number,
    theta_matrix,
    validate_forcing,
)
from .characteristics import Field, trace_plan, trace_to_inflow
from .diagnostics import (
    Certificate,
    FieldNorms,
    RegularityReport,
    emit_report,
    norms,
    pde_residual,
    regularity_measurements,
    regularity_ratio,
    smallness_certificate,
)
from .errors import (
    BoundaryMapError,
    ConvergenceError,
    DegenerateEigenbasisError,
    DomainError,
    DominanceError,
    HyperbolicityError,
    IoError,
    NonContractionError,
    NormalizationError,
    PeriodicHypError,
    PeriodicityError,
    SignatureError,
    SourceOriginError,
    StepSizeError,
)
from .ivp_solver import (
    StabilityReport,
    StepContext,
    Trajectory,
    bump_profile,
    run,
    stability_metrics,
    step,
)
from .periodic_solver import (
    IterationConfig,
    IterationReport,
    SweepContext,
    extract_initial_data,
    fit_contraction_rate,
    linearized_step,
    solve_periodic,
)
from .system_model import (
    HypothesisReport,
    SystemSpec,
    gtilde_matrix,
    minimal_K,
    validate_hyperbolicity,
)

__version__ = "0.1.0"
