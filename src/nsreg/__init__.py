"""Pseudo-spectral periodic 3D Navier-Stokes solver with regularity certificates.

The package couples a dealiased Fourier-Galerkin integrator for the
incompressible Navier-Stokes equations on the torus to an engine that
derives, evaluates, and numerically verifies a-priori bounds on the
gradient norm: the classical Riccati-type local bounds with their blow-up
horizons, and arctan-type criteria that certify global-in-time regularity
when an accumulated quantity stays below pi/2.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundCurve,
    ComparisonTable,
    ConstantLedger,
    CriterionInput,
    CriterionReport,
    arctan_bound_free,
    arctan_bound_steady,
    arctan_bound_timedep,
    classical_forced_curve,
    classical_free_curve,
    classical_horizon_forced,
    classical_horizon_free,
    derive_constants,
    interval_comparison,
    ode_comparison_oracle,
)
from .calibrate import calibrate_constants, embedding_ratios
from .errors import (
    CoarseTraceError,
    ConfigurationError,
    GridMismatchError,
    HorizonExceededError,
    InvariantViolationError,
    NumericalBlowupError,
    PoincareConsistencyError,
)
from .monitor import (
    MonitorReport,
    check_bound_dominance,
    check_energy_inequality,
    check_h1_inequality,
    run_monitor,
)
from .solver import (
    ForcingSpec,
    NormTrace,
    SimulationResult,
    SolverConfig,
    energy_balance_residual,
    kolmogorov_forcing,
    simulate,
    step,
)
from .spectral import (
    SpectralVelocity,
    WaveGrid,
    field_with_norms,
    from_physical,
    inner_product,
    leray_project,
    load_field,
    make_wavegrid,
    nonlinear_term,
    random_divfree_field,
    save_field,
    shear_field,
    sobolev_norm,
    to_physical,
    trilinear_b,
)

__all__ = [name for name in dir() if not name.startswith("_")]
