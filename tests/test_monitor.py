"""Tests for the trajectory-verification checks."""

import math
from dataclasses import fields

import numpy as np
import pytest

from nsreg import (
    ConfigurationError,
    CriterionInput,
    ForcingSpec,
    GridMismatchError,
    NormTrace,
    SolverConfig,
    arctan_bound_free,
    arctan_bound_steady,
    check_bound_dominance,
    check_energy_inequality,
    check_h1_inequality,
    derive_constants,
    kolmogorov_forcing,
    random_divfree_field,
    run_monitor,
    shear_field,
    simulate,
    sobolev_norm,
)
from nsreg.monitor import CheckResult, MonitorReport, solver_energy_diagnostic


@pytest.fixture(scope="module")
def ledger():
    return derive_constants(1.0)


@pytest.fixture(scope="module")
def shear_run(grid16):
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=1.0)
    return simulate(shear_field(grid16, 1.0), ForcingSpec.zero(), cfg)


@pytest.fixture(scope="module")
def zero_run(grid16):
    n = grid16.n
    from nsreg import SpectralVelocity

    u0 = SpectralVelocity(grid16, np.zeros((3, n, n, n), dtype=np.complex128))
    return simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-2, t_end=0.1))


def certified_shear(grid, ledger, amplitude=0.01):
    u0 = shear_field(grid, amplitude)
    inputs = CriterionInput(l2=sobolev_norm(u0, 0), h1_sq=sobolev_norm(u0, 1) ** 2)
    report = arctan_bound_free(inputs, ledger)
    assert report.satisfied
    return u0, report


# ------------------------------------------------------------ h1 inequality

def test_h1_residual_negative_for_shear(shear_run, ledger):
    residuals, check = check_h1_inequality(shear_run.trace, ledger)
    assert check.passed
    # exact decay gives dy/dt = -2 nu y, so the residual is strictly below 0
    assert residuals[1:-1].max() < 0.0


def test_h1_residual_zero_trace(zero_run, ledger):
    residuals, check = check_h1_inequality(zero_run.trace, ledger)
    assert check.passed
    assert np.abs(residuals).max() == 0.0


def test_h1_residual_matches_shear_algebra(shear_run, ledger):
    # dy/dt = -2 nu y exactly, so residual ~= -2 nu y - c6 y^3
    tr = shear_run.trace
    residuals, _ = check_h1_inequality(tr, ledger)
    expected = -2.0 * tr.nu * tr.h1_sq - ledger.cubic_coeff * tr.h1_sq**3
    mid = slice(1, -1)
    assert np.allclose(residuals[mid], expected[mid], rtol=1e-4)


def test_h1_check_flags_planted_violation(ledger):
    # linear growth from tiny values outruns the cubic right-hand side,
    # which no force-free solution may do
    t = np.linspace(0.0, 1.0, 101)
    y = 1e-3 * (1.0 + t)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))])
    zeros = np.zeros_like(t)
    bad = NormTrace(t=t, l2_sq=y, h1_sq=y, h2_sq=y, f_dot_u=zeros,
                    f_sq=zeros, int_h1_sq=cum, int_f_sq=zeros, nu=1.0)
    _, check = check_h1_inequality(bad, ledger)
    assert not check.passed
    assert check.first_violation_t is not None
    assert check.max_violation > 0.0


# -------------------------------------------------------- energy inequality

def test_energy_inequality_free_decay(shear_run, ledger):
    check = check_energy_inequality(shear_run.trace, ledger)
    assert check.passed
    assert check.max_violation <= check.tolerance


def test_energy_inequality_forced_steady_state(grid16, ledger):
    f = kolmogorov_forcing(grid16, 1.0)
    res = simulate(shear_field(grid16, 1.0), f, SolverConfig(nu=1.0, dt=1e-3, t_end=0.3))
    check = check_energy_inequality(res.trace, ledger)
    assert check.passed
    # stationary balance keeps the inequality strictly satisfied
    tr = res.trace
    lhs = tr.l2_sq[-1] + 0.5 * tr.nu * tr.int_h1_sq[-1]
    rhs = 2.0 * ledger.energy_young * tr.int_f_sq[-1] + tr.l2_sq[0]
    assert lhs < rhs


def test_energy_inequality_on_blowup_prefix(grid8, ledger):
    u0 = random_divfree_field(grid8, 2, -2.0, 50.0)
    cfg = SolverConfig(nu=1e-6, dt=0.05, t_end=5.0, blowup_h1_sq_ceiling=1e6)
    res = simulate(u0, ForcingSpec.zero(), cfg)
    check = check_energy_inequality(res.trace, ledger)  # runs on the valid prefix
    assert np.isfinite(check.max_violation)


# ---------------------------------------------------------- bound dominance

def test_dominance_shear_certified(grid16, ledger):
    u0, report = certified_shear(grid16, ledger)
    res = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-3, t_end=1.0))
    check = check_bound_dominance(res.trace, report)
    assert check.passed
    # decaying h1_sq against a constant bound: ample margin
    assert check.max_violation < -0.5 * report.bound.evaluate(0.0)


def test_dominance_zero_field(zero_run, ledger):
    report = arctan_bound_free(CriterionInput(l2=0.0, h1_sq=0.0), ledger)
    check = check_bound_dominance(zero_run.trace, report)
    assert check.passed


def test_dominance_rejects_unsatisfied_report(shear_run, ledger):
    report = arctan_bound_free(CriterionInput(l2=1.0, h1_sq=1.0), ledger)
    assert not report.satisfied
    with pytest.raises(ValueError):
        check_bound_dominance(shear_run.trace, report)


def test_run_monitor_rejects_unsatisfied_report(shear_run, ledger):
    report = arctan_bound_free(CriterionInput(l2=1.0, h1_sq=1.0), ledger)
    with pytest.raises(ConfigurationError, match="not satisfied"):
        run_monitor(shear_run.trace, ledger, report=report)


def test_dominance_detects_planted_violation(grid16, ledger):
    u0, report = certified_shear(grid16, ledger)
    res = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-2, t_end=0.1))
    tr = res.trace
    inflated = np.array(tr.h1_sq) + 2.0 * report.bound.evaluate(0.0)
    bad = NormTrace(t=tr.t, l2_sq=tr.l2_sq, h1_sq=inflated, h2_sq=tr.h2_sq,
                    f_dot_u=tr.f_dot_u, f_sq=tr.f_sq, int_h1_sq=tr.int_h1_sq,
                    int_f_sq=tr.int_f_sq, nu=tr.nu)
    check = check_bound_dominance(bad, report)
    assert not check.passed
    assert check.first_violation_t == tr.t[0]


def planted_trace(t, h1_sq):
    zeros = np.zeros(len(t))
    return NormTrace(t=np.asarray(t, float), l2_sq=zeros, h1_sq=np.asarray(h1_sq, float),
                     h2_sq=zeros, f_dot_u=zeros, f_sq=zeros, int_h1_sq=zeros,
                     int_f_sq=zeros, nu=1.0)


@pytest.fixture(scope="module")
def steady_report(ledger):
    """A steady-force report certifying the window [0, 0.1]."""
    report = arctan_bound_steady(0.1, CriterionInput(l2=0.05, h1_sq=0.0025, f_l2=0.01), ledger)
    assert report.satisfied and report.bound.horizon == 0.1
    return report


def test_dominance_ignores_samples_after_the_window(steady_report):
    t = np.linspace(0.0, 1.0, 11)
    bound = steady_report.bound.evaluate(0.0)
    h1_sq = np.where(t <= 0.1, 0.5 * bound, 2.0 * bound)
    check = check_bound_dominance(planted_trace(t, h1_sq), steady_report)
    assert check.passed
    assert check.max_violation == pytest.approx(-0.5 * bound, rel=1e-5)


@pytest.mark.parametrize("t_bad", [0.05, 0.1, math.nextafter(0.1, 1.0)])
def test_dominance_flags_a_violation_inside_the_window(steady_report, t_bad):
    # the last case is the run's end a rounding step past the horizon
    t = np.array(sorted({0.0, 0.05, 0.1, t_bad, 0.5, 1.0}))
    bound = steady_report.bound.evaluate(0.0)
    h1_sq = np.where(t == t_bad, 2.0 * bound, 0.5 * bound)
    check = check_bound_dominance(planted_trace(t, h1_sq), steady_report)
    assert not check.passed
    assert check.first_violation_t == t_bad


def test_dominance_needs_a_sample_in_the_window(steady_report):
    with pytest.raises(GridMismatchError, match="window"):
        check_bound_dominance(planted_trace([0.5, 1.0], [0.0, 0.0]), steady_report)


# ------------------------------------------------------------- full monitor

def test_monitor_certified_ensemble_small(grid16, ledger):
    for seed in range(3):
        u0 = random_divfree_field(grid16, seed, -2.0, 1.0)
        # scale down until the force-free criterion certifies with margin
        scale = 0.05 / sobolev_norm(u0, 0)
        u0 = u0.copy_with(u0.coefficients * scale)
        inputs = CriterionInput(l2=sobolev_norm(u0, 0),
                                h1_sq=sobolev_norm(u0, 1) ** 2)
        report = arctan_bound_free(inputs, ledger)
        assert report.satisfied
        res = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=2e-3, t_end=0.5))
        mon = run_monitor(res.trace, ledger, report=report)
        assert mon.passed, [c for c in mon.checks if not c.passed]


def test_monitor_report_json_schema(shear_run, ledger):
    mon = run_monitor(shear_run.trace, ledger)
    payload = mon.to_json_dict()
    assert set(payload) == {"checks", "passed"}
    assert payload["passed"] is True
    for entry in payload["checks"]:
        assert set(entry) == {"name", "max_violation", "first_violation_t"}
    names = [c["name"] for c in payload["checks"]]
    assert names[0] == "solver_energy_balance"  # diagnostic ordered first


def test_monitor_distinguishes_solver_failure(shear_run, ledger):
    tr = shear_run.trace
    corrupted = np.array(tr.l2_sq)
    corrupted[400:] *= 1.5  # break the energy balance, not the inequalities
    bad = NormTrace(t=tr.t, l2_sq=corrupted, h1_sq=tr.h1_sq, h2_sq=tr.h2_sq,
                    f_dot_u=tr.f_dot_u, f_sq=tr.f_sq, int_h1_sq=tr.int_h1_sq,
                    int_f_sq=tr.int_f_sq, nu=tr.nu)
    mon = run_monitor(bad, ledger)
    assert mon.solver_diagnostic_failed
    assert not mon.passed


def test_monitor_flags_a_coarse_trace(grid16, ledger):
    u0 = random_divfree_field(grid16, 0, -2.0, 1.0)
    coarse = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)).trace
    mon = run_monitor(coarse, ledger)
    assert mon.solver_diagnostic_failed and mon.trace_too_coarse
    assert not mon.passed
    assert set(mon.to_json_dict()) == {"checks", "passed"}
    fine = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=2.5e-3, t_end=0.1)).trace
    assert not run_monitor(fine, ledger).trace_too_coarse
    assert not run_monitor(coarse, ledger, solver_rel_tol=0.05).trace_too_coarse


def test_monitor_violations_property(shear_run, ledger):
    mon = run_monitor(shear_run.trace, ledger)
    assert mon.violations == ()
    assert mon.passed


def test_monitor_report_stores_its_checks_and_derives_its_verdicts():
    assert [f.name for f in fields(MonitorReport)] == ["checks", "h1_residuals",
                                                       "trace_too_coarse"]

    def check(name, passed):
        return CheckResult(name=name, passed=passed, max_violation=0.0,
                           first_violation_t=None, tolerance=0.0)

    for solver_ok, other_ok in ((True, True), (True, False), (False, True), (False, False)):
        mon = MonitorReport(checks=(check("solver_energy_balance", solver_ok),
                                    check("h1_differential_inequality", other_ok)),
                            h1_residuals=None)
        assert mon.passed == (solver_ok and other_ok) == (mon.violations == ())
        assert mon.solver_diagnostic_failed == (not solver_ok)


@pytest.mark.parametrize("verdict", [{"passed": True}, {"solver_diagnostic_failed": False}])
def test_monitor_report_takes_no_verdict(verdict):
    with pytest.raises(TypeError):
        MonitorReport(checks=(), h1_residuals=None, **verdict)


# ------------------------------------------------------------- fail closed

NAN_TOLERANCE_CHECKS = {
    "solver_energy_balance": lambda tr, ledger, report: solver_energy_diagnostic(
        tr, rel_tol=np.nan),
    "h1_differential_inequality": lambda tr, ledger, report: check_h1_inequality(
        tr, ledger, tol=np.nan)[1],
    "cumulative_energy_inequality": lambda tr, ledger, report: check_energy_inequality(
        tr, ledger, tol=np.nan),
    "bound_dominance": lambda tr, ledger, report: check_bound_dominance(
        tr, report, rel_tol=np.nan),
}


@pytest.mark.parametrize("name", sorted(NAN_TOLERANCE_CHECKS))
def test_checks_fail_closed_on_nan(grid16, ledger, name):
    u0, report = certified_shear(grid16, ledger)
    res = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-2, t_end=0.1))
    check = NAN_TOLERANCE_CHECKS[name](res.trace, ledger, report)
    assert not check.passed
    assert check.first_violation_t == res.trace.t[0]


def test_h1_check_flags_overflowing_residual(ledger):
    # finite samples whose h1_sq**3 and slope overflow: the residual is NaN
    trace = NormTrace(
        t=np.array([0.0, 1e-10, 2e-10]), l2_sq=np.ones(3),
        h1_sq=np.array([1e103, 1e300, 1e300]), h2_sq=np.full(3, 1e300),
        f_dot_u=np.zeros(3), f_sq=np.zeros(3), int_h1_sq=np.array([0.0, 1e290, 2e290]),
        int_f_sq=np.zeros(3), nu=1.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        residual, check = check_h1_inequality(trace, ledger)
    assert not np.all(np.isfinite(residual))
    assert not check.passed


def test_run_monitor_fails_closed_on_nan_tolerance(shear_run, ledger):
    mon = run_monitor(shear_run.trace, ledger, energy_tol=np.nan)
    assert not mon.passed
    assert [c.name for c in mon.violations] == ["cumulative_energy_inequality"]


# -------------------------------------------------- refinement monotonicity

def test_diagnostics_shrink_under_dt_refinement(grid16, ledger):
    u0 = random_divfree_field(grid16, 12, -2.0, 0.3)
    maxima = []
    for dt in (4e-3, 2e-3, 1e-3):
        res = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=dt, t_end=0.2))
        r = np.abs(np.asarray(
            solver_energy_diagnostic(res.trace).max_violation
        ))
        maxima.append(float(r))
    assert maxima[0] > maxima[1] > maxima[2]
    # second-order differencing: halving dt cuts the residual by ~4
    assert maxima[0] / maxima[1] > 3.0
    assert maxima[1] / maxima[2] > 3.0
