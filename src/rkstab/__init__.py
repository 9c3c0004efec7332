"""Practical strong-stability step-size limits of explicit Runge-Kutta methods.

The package measures, for classic 1D hyperbolic test problems, the largest
step-size multipliers (relative to the forward-Euler bound) at which an RK
scheme's step/stage solutions and its shifted Euler states q^n + dt*R^j
preserve a stability functional: quadratic energy, total variation, or
positivity of density and internal energy.
"""

from .fields import (
    Dirichlet,
    EulerField,
    Grid1D,
    NonPhysicalStateError,
    Outflow,
    Periodic,
    ScalarField,
    quadratic_energy,
    total_variation,
)
from .integrator import (
    SimulationConfig,
    SimulationRecord,
    StageTrace,
    StepFailedError,
    modified_representation_stage,
    rk_step_instrumented,
    simulate,
)
from .limits import ExperimentTable, LimitResult, LimitSearchConfig, find_limits, limits_table
from .monitors import Monitor, MonitorVerdict, check_shifted_criterion, check_step_criterion
from .presets import PRESET_IDS, preset_config
from .spatial import (
    DissipativeBurgers,
    LaxFriedrichsEuler,
    MusclBurgers,
    UnsupportedBoundaryError,
    UpwindBurgers,
    rhs_dissipative_burgers,
    rhs_llf_euler,
    rhs_muscl_burgers,
    rhs_upwind_burgers,
)
from .tableau import (
    BUILTIN_SCHEME_IDS,
    ButcherTableau,
    SspAnalysis,
    builtin_scheme,
    check_assumption1,
    ssp_coefficient,
    validate_consistency,
)

__version__ = "0.1.0"
