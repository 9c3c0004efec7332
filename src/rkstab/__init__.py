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
)
from .integrator import SimulationConfig, SimulationRecord, StepFailedError, simulate
from .limits import ExperimentTable, LimitResult, LimitSearchConfig, find_limits, limits_table
from .monitors import Monitor
from .presets import PRESET_IDS, preset_config
from .spatial import (
    DissipativeBurgers,
    LaxFriedrichsEuler,
    MusclBurgers,
    UnsupportedBoundaryError,
    UpwindBurgers,
)
from .tableau import (
    BUILTIN_SCHEME_IDS,
    ButcherTableau,
    builtin_scheme,
    check_assumption1,
    ssp_coefficient,
    validate_consistency,
)

__version__ = "0.1.0"
