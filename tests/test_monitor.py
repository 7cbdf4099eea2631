"""Tests for the trajectory-verification checks."""

import math
from dataclasses import fields, replace

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
from nsreg.monitor import (
    SAFETY,
    CheckResult,
    MonitorReport,
    _energy_intervals,
    bar_fraction,
    solver_energy_diagnostic,
)


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
    # exact decay: h1_sq falls on every interval, so each residual is below 0
    assert len(residuals) == len(shear_run.trace) - 1
    assert residuals.max() < 0.0


def test_h1_residual_zero_trace(zero_run, ledger):
    residuals, check = check_h1_inequality(zero_run.trace, ledger)
    assert check.passed
    assert np.abs(residuals).max() == 0.0


def test_h1_residual_matches_shear_algebra(shear_run, ledger):
    # y = y0 exp(-2 nu t) exactly, so an interval's residual is its fall in y
    # less the exact integral of c6 y^3, up to the trapezoid rule's error
    tr = shear_run.trace
    residuals, _ = check_h1_inequality(tr, ledger)
    y0, a, b = tr.h1_sq[0], tr.t[:-1], tr.t[1:]
    fall = y0 * (np.exp(-2.0 * tr.nu * b) - np.exp(-2.0 * tr.nu * a))
    cubic = ledger.cubic_coeff * y0**3 * (np.exp(-6.0 * tr.nu * a)
                                          - np.exp(-6.0 * tr.nu * b)) / (6.0 * tr.nu)
    assert np.allclose(residuals, fall - cubic, rtol=1e-4)


def test_h1_check_flags_planted_violation(ledger):
    # linear growth from tiny values outruns the cubic right-hand side,
    # which no force-free solution may do
    t = np.linspace(0.0, 1.0, 101)
    y = 1e-3 * (1.0 + t)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))])
    zeros = np.zeros_like(t)
    bad = NormTrace(t=t, l2_sq=y, h1_sq=y, h2_sq=y, f_dot_u=zeros,
                    int_h1_sq=cum, int_f_sq=zeros, nu=1.0)
    residuals, check = check_h1_inequality(bad, ledger)
    assert not check.passed
    assert check.first_violation_t == t[1]  # flagged from the first interval on
    assert residuals.min() > 0.0
    assert check.max_violation > SAFETY


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


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-10, 1e-14])
def test_energy_inequality_flags_a_doubling_at_any_scale(ledger, scale):
    # a force-free trace whose l2_sq doubles over the window breaks
    # l2_sq(t) <= l2_sq(0), however small its energy
    t = np.linspace(0.0, 1.0, 11)
    zeros = np.zeros_like(t)
    bad = NormTrace(t=t, l2_sq=scale * (1.0 + t), h1_sq=zeros, h2_sq=zeros,
                    f_dot_u=zeros, int_h1_sq=zeros, int_f_sq=zeros, nu=1.0)
    check = check_energy_inequality(bad, ledger)
    assert not check.passed
    assert check.first_violation_t == t[1]


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
                    f_dot_u=tr.f_dot_u, int_h1_sq=tr.int_h1_sq,
                    int_f_sq=tr.int_f_sq, nu=tr.nu)
    check = check_bound_dominance(bad, report)
    assert not check.passed
    assert check.first_violation_t == tr.t[0]


def planted_trace(t, h1_sq):
    zeros = np.zeros(len(t))
    return NormTrace(t=np.asarray(t, float), l2_sq=zeros, h1_sq=np.asarray(h1_sq, float),
                     h2_sq=zeros, f_dot_u=zeros, int_h1_sq=zeros,
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
                    f_dot_u=tr.f_dot_u, int_h1_sq=tr.int_h1_sq,
                    int_f_sq=tr.int_f_sq, nu=tr.nu)
    mon = run_monitor(bad, ledger)
    assert mon.solver_diagnostic_failed
    assert not mon.passed


def test_monitor_flags_a_coarse_trace(grid16, ledger):
    # a correct run whose energy-check error bar is not small against the
    # energy that flows through one interval: too coarse, never a PASS
    u0 = random_divfree_field(grid16, 0, -2.0, 1.0)
    coarse = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=5e-2, t_end=0.5)).trace
    assert bar_fraction(coarse) > 0.05
    mon = run_monitor(coarse, ledger)
    assert mon.solver_diagnostic_failed and mon.trace_too_coarse
    assert not mon.passed
    assert set(mon.to_json_dict()) == {"checks", "passed"}
    # at dt = 1e-2 the bar is 2 % of that scale, and the run passes
    finer = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)).trace
    assert bar_fraction(finer) < 0.05
    mon = run_monitor(finer, ledger)
    assert mon.passed and not mon.trace_too_coarse


def test_monitor_flags_a_failed_two_sample_trace_as_too_coarse(grid8, ledger):
    # one step of a correct run has no second difference to read a bar from
    u0 = random_divfree_field(grid8, 0, -2.0, 1.0)
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-3)
    one_step = simulate(u0, ForcingSpec.zero(), cfg).trace
    assert len(one_step) == 2 and bar_fraction(one_step) == math.inf
    mon = run_monitor(one_step, ledger)
    assert mon.solver_diagnostic_failed and mon.trace_too_coarse and not mon.passed
    two_steps = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-3, t_end=2e-3))
    mon = run_monitor(two_steps.trace, ledger)
    assert mon.passed and not mon.trace_too_coarse


def test_monitor_violations_property(shear_run, ledger):
    mon = run_monitor(shear_run.trace, ledger)
    assert mon.violations == ()
    assert mon.passed


def test_monitor_report_stores_its_checks_and_derives_its_verdicts():
    assert [f.name for f in fields(MonitorReport)] == ["checks", "trace_too_coarse"]

    def check(name, passed):
        return CheckResult(name=name, passed=passed, max_violation=0.0,
                           first_violation_t=None, tolerance=0.0)

    for solver_ok, other_ok in ((True, True), (True, False), (False, True), (False, False)):
        mon = MonitorReport(checks=(check("solver_energy_balance", solver_ok),
                                    check("h1_differential_inequality", other_ok)))
        assert mon.passed == (solver_ok and other_ok) == (mon.violations == ())
        assert mon.solver_diagnostic_failed == (not solver_ok)


@pytest.mark.parametrize("verdict", [{"passed": True}, {"solver_diagnostic_failed": False}])
def test_monitor_report_takes_no_verdict(verdict):
    with pytest.raises(TypeError):
        MonitorReport(checks=(), **verdict)


# ------------------------------------------------- one trace, one verdict

def _round_trip_run(grid, forcing):
    u0 = random_divfree_field(grid, 4, -2.0, 0.5)
    if forcing == "steady":
        cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=0.1, integrator="if_rk2", cfl=0.5)
        return simulate(u0, kolmogorov_forcing(grid, 2.0), cfg)
    cfg = SolverConfig(nu=1.0, dt=2e-3, t_end=0.2)
    if forcing == "zero":
        return simulate(u0, ForcingSpec.zero(), cfg)
    unit = shear_field(grid, 1.0)
    spec = ForcingSpec.time_dependent(
        lambda t: unit.copy_with(unit.coefficients * (1.0 + math.sin(20.0 * t))))
    return simulate(u0, spec, cfg)


@pytest.mark.parametrize("forcing", ["zero", "steady", "time_dependent"])
def test_trace_read_back_is_the_trace_and_gets_its_verdict(tmp_path, grid16, ledger, forcing):
    trace = _round_trip_run(grid16, forcing).trace
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = NormTrace.from_csv(path, nu=trace.nu)
    assert [f.name for f in fields(NormTrace)] == [
        "t", "l2_sq", "h1_sq", "h2_sq", "f_dot_u", "int_h1_sq", "int_f_sq", "nu"]
    for name in [f.name for f in fields(NormTrace) if f.name != "nu"]:
        assert np.array_equal(getattr(back, name), getattr(trace, name)), name
    in_memory, from_file = run_monitor(trace, ledger), run_monitor(back, ledger)
    assert in_memory.checks == from_file.checks
    assert in_memory.to_json_dict() == from_file.to_json_dict()


def test_h1_check_reads_the_force_off_its_recorded_integral(ledger):
    # h1_sq steps up by exactly c3 times each increment of int_f_sq, which
    # the inequality allows however the increments are spread in time
    t = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    int_f_sq = np.array([0.0, 0.0, 1e-6, 3e-6, 3e-6])
    trace = planted_trace(t, ledger.force_young * int_f_sq)
    trace = replace(trace, int_f_sq=int_f_sq)
    residuals, check = check_h1_inequality(trace, ledger)
    assert check.passed
    cubic = ledger.cubic_coeff * trace.h1_sq**3
    assert np.allclose(residuals, -0.05 * (cubic[1:] + cubic[:-1]), rtol=1e-12, atol=0)
    more = replace(trace, h1_sq=trace.h1_sq + np.array([0.0, 0.0, 1e-7, 1e-7, 1e-7]))
    assert not check_h1_inequality(more, ledger)[1].passed


# ------------------------------------------------------------- fail closed

# the interval checks' tolerance is the error bar read off the trace: two
# samples have no second difference, so their bar is NaN
NAN_TOLERANCE_CHECKS = {
    "solver_energy_balance": lambda tr, ledger: solver_energy_diagnostic(tr),
    "h1_differential_inequality": lambda tr, ledger: check_h1_inequality(tr, ledger)[1],
}


@pytest.mark.parametrize("name", sorted(NAN_TOLERANCE_CHECKS))
def test_checks_fail_closed_on_nan(grid16, ledger, name):
    u0, _ = certified_shear(grid16, ledger)
    res = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-2, t_end=0.01))
    assert len(res.trace) == 2
    check = NAN_TOLERANCE_CHECKS[name](res.trace, ledger)
    assert not check.passed
    assert check.first_violation_t == res.trace.t[1]


def test_h1_check_flags_overflowing_residual(ledger):
    # finite samples whose h1_sq**3 and slope overflow: the residual is NaN
    trace = NormTrace(
        t=np.array([0.0, 1e-10, 2e-10]), l2_sq=np.ones(3),
        h1_sq=np.array([1e103, 1e300, 1e300]), h2_sq=np.full(3, 1e300),
        f_dot_u=np.zeros(3), int_h1_sq=np.array([0.0, 1e290, 2e290]),
        int_f_sq=np.zeros(3), nu=1.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        residual, check = check_h1_inequality(trace, ledger)
    assert not np.all(np.isfinite(residual))
    assert not check.passed


def test_run_monitor_fails_closed_on_nan_tolerance(shear_run, ledger):
    # a finite (f, u) whose double overflows: the energy check's integrand,
    # its integral and its error bar are not finite next to that sample
    tr = shear_run.trace
    f_dot_u = np.array(tr.f_dot_u)
    f_dot_u[500] = 1e308
    bad = replace(tr, f_dot_u=f_dot_u)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(_energy_intervals(bad)[1][499:501]).any()
        mon = run_monitor(bad, ledger)
    assert not mon.passed and not mon.trace_too_coarse
    assert [c.name for c in mon.violations] == ["solver_energy_balance"]
    # an interval's bar reads the second differences at its ends, the last
    # of which takes in sample 500 on the interval that ends at sample 499
    assert mon.violations[0].first_violation_t == tr.t[499]


# -------------------------------------------------- refinement monotonicity

def test_diagnostics_shrink_under_dt_refinement(grid16, ledger):
    u0 = random_divfree_field(grid16, 12, -2.0, 0.3)
    maxima = []
    for dt in (4e-3, 2e-3, 1e-3):
        res = simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=dt, t_end=0.2))
        assert solver_energy_diagnostic(res.trace).passed
        maxima.append(float(np.abs(_energy_intervals(res.trace)[0]).max()))
    # the trapezoid rule's error on one interval is O(dt^3): halving dt
    # cuts the worst interval residual by ~8
    assert maxima[0] / maxima[1] > 6.0
    assert maxima[1] / maxima[2] > 6.0


# ------------------------------------------- the energy check's error bar

@pytest.fixture(scope="module")
def kolmogorov_run(grid8):
    n = grid8.n
    from nsreg import SpectralVelocity

    u0 = SpectralVelocity(grid8, np.zeros((3, n, n, n), dtype=np.complex128))
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=0.1)
    return simulate(u0, kolmogorov_forcing(grid8, 1.0), cfg).trace


@pytest.fixture(scope="module")
def random_run(grid16):
    u0 = random_divfree_field(grid16, 0, -2.0, 1.0)
    return simulate(u0, ForcingSpec.zero(), SolverConfig(nu=1.0, dt=1e-3, t_end=0.5)).trace


@pytest.mark.parametrize("run", ["kolmogorov_run", "random_run", "shear_run"])
def test_energy_check_fails_a_viscosity_off_by_one_percent(request, run):
    trace = request.getfixturevalue(run)
    trace = getattr(trace, "trace", trace)
    assert solver_energy_diagnostic(trace).passed
    assert not solver_energy_diagnostic(replace(trace, nu=1.01 * trace.nu)).passed


@pytest.mark.parametrize("sign", [0.0, -1.0])
def test_energy_check_fails_a_dropped_or_flipped_force_term(kolmogorov_run, sign):
    bad = replace(kolmogorov_run, f_dot_u=sign * kolmogorov_run.f_dot_u)
    check = solver_energy_diagnostic(bad)
    assert not check.passed
    assert check.max_violation > 100 * SAFETY


@pytest.mark.parametrize("dt", [1e-2, 2e-3, 1e-3])
def test_forced_rk2_runs_pass_the_interval_checks(grid16, dt):
    # if_rk2's error is of the order of the trapezoid rule's
    ledger = derive_constants(0.5)
    u0 = random_divfree_field(grid16, 0, -2.0, 1.0)
    cfg = SolverConfig(nu=0.5, dt=dt, t_end=0.5, integrator="if_rk2")
    trace = simulate(u0, kolmogorov_forcing(grid16, 1.0), cfg).trace
    energy = solver_energy_diagnostic(trace)
    assert energy.passed and energy.max_violation < 0.5 * SAFETY
    assert check_h1_inequality(trace, ledger)[1].passed
    assert bar_fraction(trace) < 0.01
