"""Numerical laboratory for finite-time blowup in coupled gain/loss NLS
equations: analytic sufficient conditions plus a radially symmetric 3D
simulator."""

from .errors import (
    BrokenPhase,
    ConfigInvalid,
    NotManakov,
    ParseError,
    PtnlsError,
    RegimeViolation,
    SolverDiverged,
    ValidationError,
)
from .model import (
    GaussianIC,
    PhaseLabel,
    RotationCoefficients,
    SystemParams,
    classify_phase,
    evaluate_ic,
    rotation_coefficients,
)
from .functionals import (
    InitialFunctionals,
    gaussian_moments,
    grid_functionals,
    s0_upper_bound,
)
from .criteria import (
    CriterionConstants,
    CriterionReport,
    F_function,
    G_function,
    M_function,
    check_manakov_theorem,
    check_theorem1,
    check_theorem2,
    constants,
    early_collapse_Z,
    energy_growth_bound,
    lemma1_threshold,
    lemma2_threshold,
    manakov_F,
    manakov_invariants,
)
from .simulator import (
    DEFAULT_GRID,
    ConvergenceReport,
    RadialGrid,
    RadialState,
    RunConfig,
    RunOutcome,
    convergence_check,
    load_initial,
    run,
    step,
)

__version__ = "0.1.0"
