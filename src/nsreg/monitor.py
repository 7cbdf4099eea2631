"""Numerical verification of the inequality chain along simulation traces.

Four checks run against a :class:`~nsreg.solver.NormTrace`, the last only
when a criterion report is given:

- the solver diagnostic: the energy identity l2_sq(t_k+1) - l2_sq(t_k) =
  int (2 (f, u) - 2 nu h1_sq) dt (a failure indicts the integrator);
- the gradient-norm inequality h1_sq(t_k+1) - h1_sq(t_k) <=
  c3 int |f|^2 + int c6 h1_sq^3 dt (an excursion indicts the constants);
- the cumulative energy inequality
  l2_sq(t) + (nu/2) int h1_sq <= 2 c7 int |f|^2 + l2_sq(0);
- dominance of a certified bound curve over the observed h1_sq.

The first two hold on each sample interval by the trapezoid rule, whose
error bar h^3/12 max|g''| (Davis & Rabinowitz, *Methods of Numerical
Integration*, 1984) is read off the trace, g'' from second differences,
plus a few ulps of the interval's terms.  An interval fails beyond
:data:`SAFETY` bars; no option sets a tolerance.  Two samples have no
second difference, and a bar above :data:`COARSE_BAR` of the energy scale
cannot tell a wrong integrator from quadrature error: either fails the
diagnostic as too coarse (:attr:`MonitorReport.trace_too_coarse`).  Every
check fails closed: a NaN or infinite residual or bar is a violation,
and a trace with a subnormal squared norm is refused.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, GridMismatchError

#: factor on the error bars the interval checks read off the trace
SAFETY = 4.0
#: largest energy-check bar, relative to the trace's energy scale (:func:`bar_fraction`)
COARSE_BAR = 0.05
#: rounding floor of an interval's error bar, in ulps of its terms
ROUNDING_ULPS = 4
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
    are read off them.  ``trace_too_coarse`` marks a trace whose solver
    diagnostic failed for want of a usable error bar: the failure may be
    quadrature error, so it does not indict the integrator.
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
                    # JSON has no NaN or inf; such a check has failed
                    "max_violation": c.max_violation if math.isfinite(c.max_violation) else None,
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


def _trapezoid(t, g):
    """Trapezoid integral of g over each sample interval, and the rule's
    error bar h^3/12 max|g''| there, g'' the second difference of g at the
    interval's ends (an end sample takes its neighbour's; NaN on two)."""
    if len(t) < 2:
        raise GridMismatchError("an interval check needs at least two trace samples")
    h = np.diff(t)
    g2 = np.abs(2.0 * np.diff(np.diff(g) / h) / (h[1:] + h[:-1]))
    g2 = np.concatenate((g2[:1], g2, g2[-1:])) if g2.size else np.full(2, np.nan)
    return 0.5 * h * (g[1:] + g[:-1]), h**3 / 12.0 * np.maximum(g2[:-1], g2[1:])


def _interval_check(name, t, residual, bar, terms, readable=True):
    """Fail the intervals whose residual exceeds :data:`SAFETY` times their
    bar plus ``ROUNDING_ULPS`` ulps of ``terms``, or whose bar is not finite
    or ``readable``.  ``max_violation`` is the worst residual-to-bar ratio;
    a violation is dated at the interval's end."""
    bar = bar + ROUNDING_ULPS * np.finfo(float).eps * terms
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(residual == 0.0, 0.0, residual / bar)  # not NaN on a zero bar
    limit = SAFETY * bar
    limit = np.where(readable & np.isfinite(limit), limit, np.nan)  # NaN fails
    return _check(name, t[1:], residual, limit, ratio.max(), SAFETY)


def _energy_intervals(trace):
    """Residual of l2_sq[k+1] - l2_sq[k] = int (2 (f, u) - 2 nu h1_sq) dt per
    interval, its error bar, and the energy that flows through the interval,
    int (2 |(f, u)| + 2 nu h1_sq) dt."""
    work, dissipation = 2.0 * trace.f_dot_u, 2.0 * trace.nu * trace.h1_sq
    integral, bar = _trapezoid(trace.t, work - dissipation)
    flow = _trapezoid(trace.t, np.abs(work) + dissipation)[0]
    return np.diff(trace.l2_sq) - integral, bar, flow


def bar_fraction(trace):
    """Largest error bar of the energy check over the trace's energy scale,
    the most energy that flows through one interval: infinite on two
    samples, which have no bar, and 0 where every bar is 0."""
    _, bar, flow = _energy_intervals(trace)
    if len(trace) < 3:
        return math.inf
    return float(bar.max() / flow.max()) if bar.max() > 0.0 else 0.0


def solver_energy_diagnostic(trace):
    """Check the energy identity on each interval; an interval also fails
    where its bar is above :data:`COARSE_BAR` of the energy scale."""
    residual, bar, flow = _energy_intervals(trace)
    return _interval_check(SOLVER_CHECK, trace.t, np.abs(residual), bar,
                           trace.l2_sq[1:] + trace.l2_sq[:-1] + flow,
                           readable=bar <= COARSE_BAR * flow.max())


def check_h1_inequality(trace, ledger):
    """Residuals h1_sq[k+1] - h1_sq[k] - c3 (int_f_sq[k+1] - int_f_sq[k])
    - int c6 h1_sq^3 dt per interval, and a :class:`CheckResult` flagging
    those above :data:`SAFETY` times the trapezoid bar on c6 h1_sq^3."""
    integral, bar = _trapezoid(trace.t, ledger.cubic_coeff * trace.h1_sq**3)
    forced = ledger.force_young * np.diff(trace.int_f_sq)
    residual = np.diff(trace.h1_sq) - forced - integral
    terms = trace.h1_sq[1:] + trace.h1_sq[:-1] + forced + integral
    return residual, _interval_check("h1_differential_inequality", trace.t, residual,
                                     bar, terms)


def check_energy_inequality(trace, ledger):
    """Cumulative check l2_sq + (nu/2) int h1_sq <= 2 c7 int |f|^2 + l2_sq(0)."""
    lhs = trace.l2_sq + 0.5 * trace.nu * trace.int_h1_sq
    rhs = 2.0 * ledger.energy_young * trace.int_f_sq + trace.l2_sq[0]
    excess = lhs - rhs
    tol = 1e-9 * float(max(trace.l2_sq.max(), rhs.max()))  # relative: any scale
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


def run_monitor(trace, ledger, report=None):
    """Run the solver diagnostic plus all applicable inequality checks.

    The solver diagnostic comes first so a failing report distinguishes
    "integrator is wrong" from "constants are wrong".  A trace with a
    subnormal squared norm raises :class:`GridMismatchError`.
    """
    _refuse_subnormal_norms(trace)
    diag = solver_energy_diagnostic(trace)
    checks = [diag, check_h1_inequality(trace, ledger)[1], check_energy_inequality(trace, ledger)]
    if report is not None:
        checks.append(check_bound_dominance(trace, report))
    # a bar above COARSE_BAR fails the diagnostic, so a coarse trace never passes
    return MonitorReport(checks=tuple(checks), trace_too_coarse=bar_fraction(trace) > COARSE_BAR)
