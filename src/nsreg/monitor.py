"""Numerical verification of the inequality chain along simulation traces.

Four checks run against a :class:`~nsreg.solver.NormTrace`, the last only
when a criterion report is given:

- the solver diagnostic: the energy-balance residual must stay at the
  discretization-error level (a failure indicts the integrator);
- the differential gradient-norm inequality
  d/dt h1_sq <= c3 |f|^2 + c6 h1_sq^3 (a positive excursion beyond the
  dt-study tolerance indicts the ledger constants);
- the cumulative energy inequality
  l2_sq(t) + (nu/2) int h1_sq <= 2 c7 int |f|^2 + l2_sq(0);
- dominance of a certified bound curve over the observed h1_sq.

Each check has one tolerance.  The solver diagnostic's and the gradient-norm
inequality's scale with the measured stiffness of the trace
(lam_eff = max h2_sq / h1_sq) and the sampling step, so refining dt
provably shrinks them; only the solver diagnostic's can be overridden per
call, and its default is capped at :data:`SOLVER_REL_TOL_CAP`.  A trace
whose modelled tolerance exceeds the cap, or one of two samples, whose
one-sided difference the model does not cover, is too coarse to tell a
wrong integrator from differencing error, and a failed diagnostic on it
is reported as such (:attr:`MonitorReport.trace_too_coarse`).  Every check
fails closed: a NaN or infinite residual, or a NaN tolerance, is a
violation, and a trace with a subnormal squared norm is refused.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .solver import energy_balance_residual

#: factor on the modelled differencing error in the default tolerances
SAFETY = 4.0
#: largest default relative tolerance of the solver diagnostic
SOLVER_REL_TOL_CAP = 0.05
#: name of the solver diagnostic's check
SOLVER_CHECK = "solver_energy_balance"
#: slack past a bound's horizon, in ulps of the horizon, for end-of-run rounding
HORIZON_ULPS = 4
#: relative slack of bound dominance, h1_sq <= bound * (1 + DOMINANCE_REL_TOL)
DOMINANCE_REL_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    first_violation_t: Optional[float]
    tolerance: float


@dataclass(frozen=True)
class MonitorReport:
    """Aggregated verdicts; ``violations`` is empty exactly when ``passed``.

    Only the checks are stored: ``passed`` and ``solver_diagnostic_failed``
    are read off them.  ``trace_too_coarse`` marks a failed solver
    diagnostic at the default tolerance on a trace of two samples, or
    whose modelled tolerance exceeds :data:`SOLVER_REL_TOL_CAP`: the
    failure may be differencing error, so it does not indict the
    integrator.
    """

    checks: tuple
    trace_too_coarse: bool = False

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def solver_diagnostic_failed(self):
        return any(not c.passed for c in self.checks if c.name == SOLVER_CHECK)

    @property
    def violations(self):
        return tuple(c for c in self.checks if not c.passed)

    def to_json_dict(self):
        return {
            "checks": [
                {
                    "name": c.name,
                    "max_violation": c.max_violation,
                    "first_violation_t": c.first_violation_t,
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }


def _check(name, t, value, limit, max_violation, tolerance):
    """Result of a check that fails where ``value <= limit`` fails; a
    non-finite value always fails."""
    bad = np.flatnonzero(~(np.isfinite(value) & (value <= limit)))
    return CheckResult(
        name=name,
        passed=not bad.size,
        max_violation=float(max_violation),
        first_violation_t=float(t[bad[0]]) if bad.size else None,
        tolerance=tolerance,
    )


def _effective_stiffness(trace):
    """Largest Rayleigh quotient h2_sq / h1_sq seen along the trace."""
    pos = trace.h1_sq > 0
    if not np.any(pos):
        return 0.0
    return float((trace.h2_sq[pos] / trace.h1_sq[pos]).max())


def _max_dt(trace):
    return float(np.diff(trace.t).max()) if len(trace) > 1 else 0.0


def _modelled_solver_tol(trace):
    """Centered-difference error of d/dt l2_sq, relative, for content
    decaying like exp(-2 nu lam_eff t), times :data:`SAFETY`."""
    x = 2.0 * trace.nu * _effective_stiffness(trace) * _max_dt(trace)
    return SAFETY * x * x / 6.0  # float ** 2 raises OverflowError, x * x gives inf


def solver_energy_diagnostic(trace, rel_tol=None):
    """Check that the energy-balance residual is discretization-sized.

    The default tolerance is :func:`_modelled_solver_tol`, kept within
    [1e-10, :data:`SOLVER_REL_TOL_CAP`].
    """
    residual = energy_balance_residual(trace)
    scale = float(max(trace.nu * trace.h1_sq.max(), abs(trace.f_dot_u).max(), 1e-300))
    if rel_tol is None:
        rel_tol = min(SOLVER_REL_TOL_CAP, max(1e-10, _modelled_solver_tol(trace)))
    abs_residual = np.abs(residual)
    return _check(SOLVER_CHECK, trace.t, abs_residual, rel_tol * scale,
                  abs_residual.max() / scale if scale > 0 else 0.0, rel_tol)


def check_h1_inequality(trace, ledger):
    """Residuals d/dt h1_sq - c3 |f|^2 - c6 h1_sq^3 per sample.

    The inequality predicts residuals <= 0 up to differencing error;
    returns the residual series and a :class:`CheckResult` flagging
    positive excursions beyond the modelled differencing error.
    """
    if len(trace) < 2:
        raise GridMismatchError("h1 inequality check needs at least two samples")
    dydt = np.gradient(trace.h1_sq, trace.t, edge_order=2 if len(trace) > 2 else 1)
    rhs = ledger.force_young * trace.f_sq + ledger.cubic_coeff * trace.h1_sq**3
    residual = dydt - rhs
    tol = max(1e-3 * float(rhs.max(initial=0.0)),
              _modelled_solver_tol(trace) * 2.0 * trace.nu * float(trace.h2_sq.max(initial=0.0)))
    return residual, _check("h1_differential_inequality", trace.t, residual, tol,
                            residual.max(), tol)


def check_energy_inequality(trace, ledger):
    """Cumulative check l2_sq + (nu/2) int h1_sq <= 2 c7 int |f|^2 + l2_sq(0)."""
    lhs = trace.l2_sq + 0.5 * trace.nu * trace.int_h1_sq
    rhs = 2.0 * ledger.energy_young * trace.int_f_sq + trace.l2_sq[0]
    excess = lhs - rhs
    scale = float(max(trace.l2_sq.max(), rhs.max(), 1e-300))
    tol = 1e-9 * scale + 1e-12
    return _check("cumulative_energy_inequality", trace.t, excess, tol, excess.max(), tol)


def check_bound_dominance(trace, report):
    """Verify h1_sq(t_i) <= bound(t_i) * (1 + :data:`DOMINANCE_REL_TOL`) on
    the samples inside the window the bound certifies.

    ``report`` must be a satisfied criterion report, else
    :class:`ConfigurationError` is raised.  Samples after the
    bound's horizon are not checked: the bound says nothing there.  A
    sample within :data:`HORIZON_ULPS` ulps past the horizon is the run's
    end landing on it with rounding, and is checked at the horizon.  A
    trace with no sample in the window raises :class:`GridMismatchError`.
    """
    if not report.satisfied:
        raise ConfigurationError("the criterion report is not satisfied; "
                                 "bound dominance is undefined")
    curve = report.bound
    inside = trace.t <= curve.horizon + HORIZON_ULPS * math.ulp(curve.horizon)
    if not inside.any():
        raise GridMismatchError("bound dominance needs a trace sample inside the bound's "
                                f"window, which ends at t = {curve.horizon:g}")
    t = trace.t[inside]
    values = np.asarray(curve.evaluate(np.minimum(t, curve.horizon)), dtype=float)
    excess = trace.h1_sq[inside] - values * (1.0 + DOMINANCE_REL_TOL)
    return _check(f"bound_dominance[{curve.kind}]", t, excess, 0.0,
                  excess.max(), DOMINANCE_REL_TOL)


def _refuse_subnormal_norms(trace):
    """Raise :class:`GridMismatchError` naming the first sample with a
    nonzero ``l2_sq``, ``h1_sq`` or ``h2_sq`` below the smallest normal
    float: such a value has too few significant bits for any check to
    mean anything.  Zero norms are exact and pass."""
    names = ("l2_sq", "h1_sq", "h2_sq")
    norms = np.stack([getattr(trace, name) for name in names])
    tiny = (norms > 0.0) & (norms < sys.float_info.min)
    if tiny.any():
        i = int(np.flatnonzero(tiny.any(axis=0))[0])
        values = ", ".join(f"{name} = {norms[k, i]:g}" for k, name in enumerate(names)
                           if tiny[k, i])
        raise GridMismatchError(
            f"trace sample {i} at t = {trace.t[i]:g} has {values}, below the smallest "
            f"normal float {sys.float_info.min:g}: too few significant bits to check")


def run_monitor(trace, ledger, report=None, solver_rel_tol=None):
    """Run the solver diagnostic plus all applicable inequality checks.

    The solver diagnostic comes first so a failing report distinguishes
    "integrator is wrong" from "constants are wrong".  A trace with a
    subnormal squared norm raises :class:`GridMismatchError`.
    """
    _refuse_subnormal_norms(trace)
    diag = solver_energy_diagnostic(trace, rel_tol=solver_rel_tol)
    checks = [diag, check_h1_inequality(trace, ledger)[1], check_energy_inequality(trace, ledger)]
    if report is not None:
        checks.append(check_bound_dominance(trace, report))
    return MonitorReport(
        checks=tuple(checks),
        # two samples: a first-order one-sided difference, which the model does not cover
        trace_too_coarse=(not diag.passed and solver_rel_tol is None
                          and (len(trace) == 2
                               or _modelled_solver_tol(trace) > SOLVER_REL_TOL_CAP)),
    )
