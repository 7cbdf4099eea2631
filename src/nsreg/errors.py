"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value (bad grid size, non-positive viscosity, ...)."""


class GridMismatchError(ValueError):
    """Operands live on different wave grids or have incompatible shapes."""


class CoarseTraceError(ValueError):
    """A trace is sampled too coarsely for the solver diagnostic to tell a
    wrong integrator from quadrature error."""


class PoincareConsistencyError(ValueError):
    """Scalar norm inputs violate the Poincare relation h1_sq >= lam1 * l2**2."""


class HorizonExceededError(ValueError):
    """A bound curve was evaluated past the time where it stays finite.

    Carries the offending horizon in ``horizon``.
    """

    def __init__(self, msg, horizon):
        super().__init__(msg)
        self.horizon = horizon


class NumericalBlowupError(RuntimeError):
    """The integrator produced non-finite or runaway coefficients.

    This is a reportable outcome, not a crash: ``last_valid_time`` holds the
    time of the last finite state.
    """

    def __init__(self, msg, last_valid_time):
        super().__init__(msg)
        self.last_valid_time = last_valid_time


class InvariantViolationError(RuntimeError):
    """The solver state lost an invariant it must keep (zero mean, divergence-free)."""
