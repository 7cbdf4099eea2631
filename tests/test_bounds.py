"""Tests for the constant ledger, bounds, horizons, criteria, and ODE oracle."""

import ast
import math
import os
import subprocess
import sys
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsreg
from nsreg import (
    ConfigurationError,
    ConstantLedger,
    CriterionInput,
    CriterionReport,
    HorizonExceededError,
    PoincareConsistencyError,
    arctan_bound_free,
    arctan_bound_steady,
    arctan_bound_timedep,
    classical_forced_curve,
    classical_free_curve,
    classical_horizon_forced,
    classical_horizon_free,
    derive_constants,
    interval_comparison,
)
from nsreg.bounds import SYMBOL_MAP, THRESHOLD

from conftest import ode_comparison_oracle


@pytest.fixture(scope="module")
def ledger():
    return derive_constants(1.0)


def mp_lhs_steady(t_end, f, l2, h1_sq, nu=1, lam1=1):
    """Extended-precision re-evaluation of the steady criterion."""
    with mp.workdps(50):
        nu, lam1 = mp.mpf(nu), mp.mpf(lam1)
        c3 = 1 / (2 * nu)
        c6 = mp.mpf(27) * (mp.mpf(2048) / 27) / (32 * nu**3)
        c7 = 1 / (2 * nu * lam1)
        c8 = c3 + 2 * c6 * c7 / nu
        c9 = c6 / nu
        return float(c8 * t_end * mp.mpf(f) ** 2 + c9 * mp.mpf(l2) ** 2
                     + mp.atan(mp.mpf(h1_sq)))


# ------------------------------------------------------------------ ledger

def test_ledger_identities_bitwise(ledger):
    c6, nu = ledger.cubic_coeff, ledger.nu
    assert ledger.force_young == 1.0 / (2.0 * nu)
    assert ledger.convection_holder == ledger.c_sobolev * ledger.c_interp
    assert ledger.cubic_coeff == 27.0 * ledger.convection_holder**4 / (32.0 * nu**3)
    assert ledger.energy_young == 1.0 / (2.0 * nu * ledger.lam1)
    assert ledger.steady_init_coeff == c6 / nu
    assert ledger.free_init_coeff == c6 / nu
    assert ledger.steady_force_coeff == ledger.force_young + 2.0 * c6 * ledger.energy_young / nu
    assert ledger.timedep_force_coeff == ledger.steady_force_coeff
    assert ledger.classical_free_coeff == c6
    assert ledger.forced_rate_offset == c6 * nu**3


def test_ledger_default_calibration(ledger):
    assert 2.0 * ledger.cubic_coeff == pytest.approx(128.0, rel=1e-12)


def test_ledger_positive_entries(ledger):
    for name in set(SYMBOL_MAP.values()):
        assert getattr(ledger, name) > 0.0


def test_ledger_viscosity_two():
    led = derive_constants(2.0)
    assert led.force_young == 0.25
    assert led.energy_young == 0.25


def test_ledger_quartic_dependence_on_embedding():
    base = derive_constants(1.0)
    doubled = derive_constants(1.0, c_sobolev=2.0 * base.c_sobolev,
                               c_interp=base.c_interp)
    assert doubled.cubic_coeff == pytest.approx(16.0 * base.cubic_coeff, rel=1e-12)


def test_ledger_rejects_nonpositive_inputs():
    with pytest.raises(ConfigurationError):
        derive_constants(0.0)
    with pytest.raises(ConfigurationError):
        derive_constants(1.0, lam1=-1.0)


def test_ledger_json_dump_has_aliases(ledger):
    d = ledger.to_json_dict()
    assert set(d["aliases"]) == set(SYMBOL_MAP)
    assert d["aliases"]["c6"] == ledger.cubic_coeff
    assert d["derived"]["cubic_coeff"] == ledger.cubic_coeff
    assert d["symbol_map"]["c3"] == "force_young"


@settings(max_examples=200, deadline=None)
@given(*[st.floats(1e-3, 1e3)] * 4)
def test_ledger_identities_bitwise_for_random_inputs(nu, lam1, c_sobolev, c_interp):
    test_ledger_identities_bitwise(derive_constants(nu, lam1, c_sobolev, c_interp))


def test_ledger_stores_only_its_inputs():
    assert [f.name for f in fields(ConstantLedger)] == ["nu", "lam1", "c_sobolev", "c_interp"]
    # equal constants are one property under two names
    assert ConstantLedger.timedep_force_coeff is ConstantLedger.steady_force_coeff
    assert ConstantLedger.free_init_coeff is ConstantLedger.steady_init_coeff
    assert ConstantLedger.classical_free_coeff is ConstantLedger.cubic_coeff


@pytest.mark.parametrize("name", ["nu", "lam1", "c_sobolev", "c_interp"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_ledger_built_directly_checks_its_inputs(name, value):
    inputs = {"nu": 1.0, "lam1": 1.0, "c_sobolev": 1.5, "c_interp": 1.5, name: value}
    with pytest.raises(ConfigurationError):
        ConstantLedger(**inputs)


@pytest.mark.parametrize("inputs", [
    dict(nu=1e200),  # nu**3 overflows
    dict(nu=1e-200),  # nu**3 underflows to a zero divisor
    dict(c_sobolev=1e100),  # (C_S C_I)**4 overflows
    dict(c_sobolev=1e-160, c_interp=1e80),  # c6 is subnormal: 1 / c6 overflows
    dict(lam1=1e-308),  # c8 overflows
])
def test_ledger_checks_its_derived_constants(inputs):
    with pytest.raises(ConfigurationError, match="normal, positive and finite"):
        derive_constants(**{"nu": 1.0, **inputs})


@pytest.mark.parametrize("lhs", [math.inf, math.nan, -0.5])
def test_report_requires_a_finite_non_negative_lhs(lhs):
    with pytest.raises(ConfigurationError, match="finite lhs"):
        CriterionReport(kind="arctan_free", lhs=lhs, horizon=math.inf)


def test_forced_growth_rate(ledger):
    assert ledger.forced_growth_rate(1.0) == pytest.approx(66.0, rel=1e-12)
    assert ledger.forced_growth_rate(0.0) == pytest.approx(64.0, rel=1e-12)


# ------------------------------------------------------- classical (forced)

def test_classical_forced_at_zero(ledger):
    assert classical_forced_curve(2.5, 1.0, ledger).evaluate(0.0) == pytest.approx(3.5)


def test_classical_forced_horizon_example(ledger):
    # nu=1, |f|=1, h1_sq=1: K = 66, horizon = 1/132
    horizon = classical_horizon_forced(1.0, 1.0, ledger)
    assert horizon == pytest.approx(1.0 / 132.0, rel=1e-12)


def test_classical_forced_horizon_free_force(ledger):
    assert classical_horizon_forced(0.0, 0.0, ledger) == pytest.approx(1.0 / 64.0, rel=1e-12)


def test_classical_forced_horizon_shrinks(ledger):
    values = [classical_horizon_forced(h, 1.0, ledger) for h in (1.0, 10.0, 100.0)]
    assert values[0] > values[1] > values[2]


def test_classical_forced_rejects_beyond_validity(ledger):
    curve = classical_forced_curve(1.0, 1.0, ledger)
    # the curve degenerates where K t (1 + |u0|_1)^2 = 1
    expected = 1.0 / (ledger.forced_growth_rate(1.0) * 4.0)
    assert curve.horizon == pytest.approx(expected, rel=1e-12)
    with pytest.raises(HorizonExceededError) as err:
        curve.evaluate(curve.horizon)
    assert err.value.horizon == curve.horizon


# --------------------------------------------------------- classical (free)

def test_classical_free_at_zero(ledger):
    assert classical_free_curve(0.7, ledger).evaluate(0.0) == pytest.approx(0.7, rel=1e-12)


def test_classical_free_horizon_anchor():
    assert classical_horizon_free(1.0, 1.0) == 1.0 / 128.0  # exact
    assert classical_horizon_free(0.0, 1.0) == math.inf


def test_classical_free_horizon_of_an_underflowing_square(ledger):
    # h1_sq**2 underflows to 0.0: the window is unbounded, not a division by zero
    assert classical_horizon_free(1e-170, 1.0) == math.inf
    assert classical_free_curve(1e-170, ledger).horizon == math.inf


def test_classical_free_horizon_scaling():
    assert classical_horizon_free(2.0, 1.0) == 1.0 / 512.0
    assert classical_horizon_free(1.0, 2.0) == 8.0 / 128.0


def test_classical_free_matches_riccati_oracle(ledger):
    # equality case of the quartic-norm inequality: z' = 2 c6 z^2, z = y^2
    c6 = ledger.classical_free_coeff
    z0 = 1.0
    oracle = ode_comparison_oracle(0.0, 2.0 * c6, z0, 10.0, variant="square")
    expected = 1.0 / (2.0 * c6 * z0)
    assert oracle.blowup_time == pytest.approx(expected, rel=1e-6)
    curve = classical_free_curve(1.0, ledger)
    assert curve.horizon == pytest.approx(expected, rel=1e-12)
    # curve value matches the closed-form solution of the equality ODE
    t = 0.5 * expected
    z_exact = z0 / (1.0 - 2.0 * c6 * t * z0)
    assert curve.evaluate(t) == pytest.approx(math.sqrt(z_exact), rel=1e-12)


# ------------------------------------------------------------ arctan steady

def test_arctan_steady_force_free_degenerate(ledger):
    rep = arctan_bound_steady(5.0, CriterionInput(l2=0.0, h1_sq=0.8, f_l2=0.0), ledger)
    assert rep.satisfied
    assert rep.bound.evaluate(5.0) == pytest.approx(0.8, rel=1e-12)


def test_arctan_steady_extended_precision_oracle(ledger):
    inputs = CriterionInput(l2=0.05, h1_sq=1.0, f_l2=0.01)
    rep = arctan_bound_steady(1.0, inputs, ledger)
    expected = mp_lhs_steady(1, "0.01", "0.05", 1)
    assert rep.lhs == pytest.approx(expected, rel=1e-12)
    assert rep.lhs == pytest.approx(0.9518481633974483, rel=1e-12)  # frozen
    assert rep.satisfied
    assert rep.bound.evaluate(0.5) == pytest.approx(1.4038589474606850, rel=1e-12)


def test_arctan_steady_unsatisfied_for_large_data(ledger):
    rep = arctan_bound_steady(1.0, CriterionInput(l2=10.0, h1_sq=1e3, f_l2=0.0), ledger)
    assert not rep.satisfied
    assert rep.bound is None
    assert rep.margin < 0.0


def test_arctan_steady_requires_force_norm(ledger):
    with pytest.raises(ConfigurationError):
        arctan_bound_steady(1.0, CriterionInput(l2=0.0, h1_sq=1.0), ledger)


# ----------------------------------------------------------- arctan timedep

def test_arctan_timedep_reduces_to_free(ledger):
    inputs = CriterionInput(l2=0.05, h1_sq=0.5, int_f_sq=0.0)
    rep_t = arctan_bound_timedep(math.inf, inputs, ledger)
    rep_f = arctan_bound_free(CriterionInput(l2=0.05, h1_sq=0.5), ledger)
    assert rep_t.lhs == rep_f.lhs
    assert rep_t.satisfied == rep_f.satisfied
    assert rep_t.bound.evaluate(3.0) == rep_f.bound.evaluate(3.0)


def test_arctan_timedep_matches_steady_on_window(ledger):
    t_end, f = 2.0, 0.03
    steady = arctan_bound_steady(t_end, CriterionInput(l2=0.02, h1_sq=0.4, f_l2=f), ledger)
    timedep = arctan_bound_timedep(
        t_end, CriterionInput(l2=0.02, h1_sq=0.4, int_f_sq=t_end * f**2), ledger
    )
    assert timedep.lhs == pytest.approx(steady.lhs, rel=1e-15)


def test_arctan_timedep_example_value(ledger):
    rep = arctan_bound_timedep(
        math.inf, CriterionInput(l2=0.0, h1_sq=1.0, int_f_sq=0.1), ledger
    )
    assert rep.lhs == pytest.approx(7.2353981633974483, rel=1e-12)  # frozen mpmath
    assert not rep.satisfied


@pytest.mark.parametrize("window", [math.nan, -1.0, -math.inf])
def test_criteria_reject_a_nan_or_negative_window(ledger, window):
    with pytest.raises(ConfigurationError):
        arctan_bound_timedep(window, CriterionInput(l2=0.0, h1_sq=1.0, int_f_sq=0.0), ledger)
    with pytest.raises(ConfigurationError):
        arctan_bound_steady(window, CriterionInput(l2=0.0, h1_sq=1.0, f_l2=0.0), ledger)
    with pytest.raises(ConfigurationError):
        CriterionReport(kind="arctan_timedep", lhs=0.5, horizon=window)


def test_arctan_timedep_requires_integral(ledger):
    with pytest.raises(ConfigurationError):
        arctan_bound_timedep(1.0, CriterionInput(l2=0.0, h1_sq=1.0), ledger)


# -------------------------------------------------------------- arctan free

def test_arctan_free_zero_l2_always_certified(ledger):
    rep = arctan_bound_free(CriterionInput(l2=0.0, h1_sq=123.0), ledger)
    assert rep.satisfied
    assert rep.bound.horizon == math.inf
    assert rep.bound.evaluate(1e6) == pytest.approx(123.0, rel=1e-12)


def test_arctan_free_example_value(ledger):
    rep = arctan_bound_free(CriterionInput(l2=0.1, h1_sq=0.5), ledger)
    assert rep.lhs == pytest.approx(1.1036476090008061, rel=1e-12)  # frozen mpmath
    assert rep.satisfied
    assert rep.bound.evaluate(0.0) == pytest.approx(1.9826161107791485, rel=1e-10)


def test_arctan_free_large_l2_not_certified(ledger):
    rep = arctan_bound_free(CriterionInput(l2=1.0, h1_sq=1.0), ledger)
    assert not rep.satisfied


def test_poincare_violation_rejected(ledger):
    with pytest.raises(PoincareConsistencyError):
        arctan_bound_free(CriterionInput(l2=2.0, h1_sq=1.0), ledger)


def test_criterion_strictness_at_threshold(ledger):
    # satisfied iff lhs < pi/2 strictly
    l2_star = math.sqrt((THRESHOLD - math.atan(1.0)) / ledger.free_init_coeff)
    above = arctan_bound_free(CriterionInput(l2=l2_star * (1 + 1e-9), h1_sq=1.0), ledger)
    below = arctan_bound_free(CriterionInput(l2=l2_star * (1 - 1e-9), h1_sq=1.0), ledger)
    assert not above.satisfied
    assert below.satisfied


def test_report_and_input_store_only_their_inputs():
    assert [f.name for f in fields(CriterionReport)] == ["kind", "lhs", "horizon"]
    assert [f.name for f in fields(CriterionInput)] == ["l2", "h1_sq", "f_l2", "int_f_sq"]


@pytest.mark.parametrize("verdict", [{"satisfied": True}, {"margin": 1.0}, {"bound": None},
                                     {"threshold": 4.0}])
def test_report_takes_no_verdict(verdict):
    with pytest.raises(TypeError):
        CriterionReport(kind="arctan_free", lhs=4.6, horizon=math.inf, **verdict)


@pytest.mark.parametrize("ulps", range(-3, 4))
def test_verdict_at_float_neighbours_of_threshold(ulps):
    lhs = math.pi / 2
    for _ in range(abs(ulps)):
        lhs = math.nextafter(lhs, math.copysign(math.inf, ulps))
    rep = CriterionReport(kind="arctan_free", lhs=lhs, horizon=math.inf)
    assert rep.satisfied == (lhs < math.pi / 2) == (ulps < 0)
    assert rep.margin == math.pi / 2 - lhs
    assert (rep.bound is None) == (not rep.satisfied)
    assert rep.to_json_dict()["satisfied"] == rep.satisfied


def test_monotonicity_of_lhs(ledger):
    base = arctan_bound_steady(1.0, CriterionInput(l2=0.1, h1_sq=0.5, f_l2=0.1), ledger).lhs
    assert arctan_bound_steady(2.0, CriterionInput(l2=0.1, h1_sq=0.5, f_l2=0.1), ledger).lhs > base
    assert arctan_bound_steady(1.0, CriterionInput(l2=0.2, h1_sq=0.5, f_l2=0.1), ledger).lhs > base
    assert arctan_bound_steady(1.0, CriterionInput(l2=0.1, h1_sq=0.9, f_l2=0.1), ledger).lhs > base
    assert arctan_bound_steady(1.0, CriterionInput(l2=0.1, h1_sq=0.5, f_l2=0.2), ledger).lhs > base


def test_bound_at_zero_dominates_initial_value(ledger):
    # every satisfied bound curve starts at or above h1_sq
    for rep, h1_sq in (
        (arctan_bound_free(CriterionInput(l2=0.05, h1_sq=0.7), ledger), 0.7),
        (arctan_bound_steady(1.0, CriterionInput(l2=0.01, h1_sq=0.2, f_l2=0.01), ledger), 0.2),
    ):
        assert rep.bound.evaluate(0.0) >= h1_sq - 1e-14


def test_report_json_schema(ledger):
    payload = arctan_bound_free(CriterionInput(l2=0.05, h1_sq=0.7), ledger).to_json_dict()
    assert set(payload) == {"kind", "lhs", "threshold", "satisfied", "margin",
                            "bound_at", "horizon"}
    assert payload["threshold"] == pytest.approx(math.pi / 2)
    assert payload["horizon"] is None  # infinite horizon serializes as null
    assert len(payload["bound_at"]) == 11
    assert all(set(p) == {"t", "value"} for p in payload["bound_at"])


@pytest.mark.parametrize("make", [
    lambda led: arctan_bound_free(CriterionInput(l2=0.05, h1_sq=0.7), led),
    lambda led: arctan_bound_free(CriterionInput(l2=1.0, h1_sq=1.0), led),
    lambda led: arctan_bound_steady(1.0, CriterionInput(l2=0.05, h1_sq=1.0, f_l2=0.01), led),
    lambda led: arctan_bound_timedep(math.inf, CriterionInput(l2=0.05, h1_sq=0.5,
                                                              int_f_sq=0.001), led),
])
def test_report_json_round_trip(ledger, make):
    rep = make(ledger)
    assert CriterionReport.from_json_dict(rep.to_json_dict()) == rep
    assert CriterionReport.from_json_dict({"report": rep.to_json_dict()}) == rep


def test_report_from_json_recomputes_verdict():
    forged = {"kind": "arctan_free", "lhs": 4.6, "satisfied": True,
              "margin": 1.0, "horizon": None}
    rep = CriterionReport.from_json_dict(forged)
    assert rep.satisfied is False
    assert rep.bound is None
    assert rep.margin == pytest.approx(THRESHOLD - 4.6)


@pytest.mark.parametrize("payload", [
    {"kind": "classical_free", "lhs": 0.1, "horizon": None},
    {"kind": "arctan_free", "lhs": math.nan, "horizon": None},
    {"kind": "arctan_free", "lhs": -0.5, "horizon": None},
    {"kind": "arctan_steady", "lhs": 0.5, "horizon": -1.0},
    {"kind": "arctan_free", "horizon": None},
    {"kind": "arctan_free", "lhs": "abc"},
    [0.5],
])
def test_report_from_json_rejects_non_certificates(payload):
    with pytest.raises(ConfigurationError):
        CriterionReport.from_json_dict(payload)


# ---------------------------------------------------------------- ODE oracle

def test_oracle_pure_cubic_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(5):
        beta = float(10.0 ** rng.uniform(-2, 2))
        y0 = float(10.0 ** rng.uniform(-1, 1))
        oracle = ode_comparison_oracle(0.0, beta, y0, 1e12)
        expected = 1.0 / (2.0 * beta * y0**2)
        assert oracle.blowup_time == pytest.approx(expected, rel=1e-6)


def test_oracle_zero_stays_zero():
    oracle = ode_comparison_oracle(0.0, 1.0, 0.0, 5.0)
    assert oracle.blowup_time is None
    assert oracle.y.max() == 0.0


def test_oracle_arctan_variant_closed_form():
    # y' = y (1 + y^2), y(0) = 1 blows up at (1/2) ln 2
    oracle = ode_comparison_oracle(0.0, 1.0, 1.0, 10.0, variant="arctan_form")
    assert oracle.blowup_time == pytest.approx(0.34657359027997264, rel=1e-6)


def _cold_start(prefixes, setup, expr):
    """In a fresh interpreter, ``import nsreg, nsreg.cli``, then run
    ``setup`` (which may import from conftest) and evaluate ``expr``.
    Returns the loaded modules that start with one of ``prefixes`` before
    ``setup``, ``repr`` of the value, and those modules after."""
    src = os.path.dirname(os.path.dirname(nsreg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.path.dirname(__file__)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    script = (
        "import sys, nsreg, nsreg.cli\n"
        f"loaded = lambda: sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r}))\n"
        "print(loaded())\n"
        f"{setup}\n"
        f"print(repr({expr}))\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, value, after = proc.stdout.splitlines()
    return ast.literal_eval(before), value, ast.literal_eval(after)


def test_import_loads_scipy_integrate_only_in_the_oracle():
    # a cold nsreg process (library or CLI) must not pay for scipy.integrate;
    # only the test-side oracle loads it, and keeps its results there
    before, blowup_time, after = _cold_start(
        ["scipy.integrate"], "from conftest import ode_comparison_oracle",
        "ode_comparison_oracle(0.0, 1.0, 1.0, 10.0, variant='arctan_form').blowup_time")
    assert before == []
    assert float(blowup_time) == pytest.approx(0.5 * math.log(2.0), rel=1e-6)
    assert "scipy.integrate" in after


def test_import_loads_no_scipy_fft():
    # the transforms call scipy's pocketfft module, loaded from its file, so
    # a cold nsreg process pays for none of scipy.fft's imports; calibrate's
    # quadrature imports scipy.fft when it runs, and gives the same ratios
    before, ratios, _ = _cold_start(
        ["scipy.fft", "scipy.special", "numpy.f2py"],
        "from nsreg import embedding_ratios, make_wavegrid, shear_field",
        "embedding_ratios(shear_field(make_wavegrid(8), 1.3))")
    assert before == []
    assert ratios == repr(nsreg.embedding_ratios(nsreg.shear_field(nsreg.make_wavegrid(8), 1.3)))


def test_oracle_trajectory_respects_window():
    oracle = ode_comparison_oracle(0.1, 1.0, 0.5, 0.2)
    assert oracle.t[-1] <= 0.2 + 1e-12
    assert np.all(np.diff(oracle.y) >= 0.0)


def test_oracle_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        ode_comparison_oracle(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        ode_comparison_oracle(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        ode_comparison_oracle(0.0, 1.0, 1.0, 1.0, variant="quintic")


def test_oracle_dominated_by_arctan_chain(ledger):
    # along exact solutions of y' = alpha + beta y^3 the integrated form
    # arctan y(t) <= arctan y0 + alpha t + beta int y holds pointwise
    alpha, beta, y0 = 0.05, 1.0, 0.5
    oracle = ode_comparison_oracle(alpha, beta, y0, 0.6)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * np.diff(oracle.t) * (oracle.y[1:] + oracle.y[:-1])
    )])
    lhs = np.arctan(oracle.y)
    rhs = math.atan(y0) + alpha * oracle.t + beta * cum
    assert np.all(lhs <= rhs + 1e-8)


# --------------------------------------------------------- interval sweep

def test_interval_comparison_default_sweep(ledger):
    table = interval_comparison(1.0, [1.0, 0.1, 0.01], ledger)
    sat = [row.criterion_satisfied for row in table.rows]
    assert sat == [False, True, True]
    for row in table.rows:
        assert row.classical_horizon == pytest.approx(1.0 / 128.0)
    assert [row.extends_classical for row in table.rows] == [False, True, True]


def test_interval_comparison_threshold_value(ledger):
    table = interval_comparison(1.0, [0.5], ledger)
    assert table.threshold_l2 == pytest.approx(0.11077836568159475, rel=1e-10)
    # verdict flips exactly at the threshold
    flip = interval_comparison(
        1.0, [table.threshold_l2 * 0.999, table.threshold_l2 * 1.001], ledger
    )
    assert flip.rows[0].criterion_satisfied
    assert not flip.rows[1].criterion_satisfied


def test_interval_comparison_printed_form_matches_at_horizon(ledger):
    # with t_star equal to the classical horizon the printed square-root
    # argument collapses to h1_sq, so both verdict columns agree
    table = interval_comparison(1.0, [0.05, 0.2], ledger)
    for row in table.rows:
        assert row.printed_lhs == pytest.approx(row.criterion_lhs, rel=1e-12)
        assert row.printed_satisfied == row.criterion_satisfied


def test_interval_comparison_zero_field_trivial(ledger):
    table = interval_comparison(0.0, [0.0], ledger)
    row = table.rows[0]
    assert row.criterion_satisfied
    assert row.classical_horizon == math.inf
    assert not row.extends_classical  # nothing finite to extend


def test_interval_comparison_rejects_poincare_violation(ledger):
    with pytest.raises(PoincareConsistencyError):
        interval_comparison(1.0, [2.0], ledger)


@pytest.mark.parametrize("t_star", [math.nan, 0.0, -1.0, -math.inf])
def test_interval_comparison_rejects_a_window_not_positive(ledger, t_star):
    with pytest.raises(ConfigurationError):
        interval_comparison(1.0, [0.05], ledger, t_star=t_star)


def test_interval_comparison_csv_like_dict(ledger):
    payload = interval_comparison(1.0, [0.05], ledger).to_json_dict()
    assert payload["rows"][0]["criterion_satisfied"] is True
    assert payload["threshold_l2"] == pytest.approx(0.11077836568159475, rel=1e-10)
