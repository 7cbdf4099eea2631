"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavy bound-dominance ensemble (criteria 5 and 7) is shared
through a session fixture.
"""

import math

import numpy as np
import pytest

from nsreg import (
    CriterionInput,
    ForcingSpec,
    SolverConfig,
    arctan_bound_free,
    classical_horizon_free,
    derive_constants,
    make_wavegrid,
    random_divfree_field,
    shear_field,
    simulate,
    sobolev_norm,
    trilinear_b,
)
from nsreg.cli import EXIT_OK, main
from nsreg.monitor import (
    check_bound_dominance,
    check_energy_inequality,
    check_h1_inequality,
)
from nsreg.spectral import SpectralVelocity

from conftest import ode_comparison_oracle


def announce(number, text):
    print(f"[criterion {number}] PASS: {text}")


@pytest.fixture(scope="session")
def ledger():
    return derive_constants(1.0)


def scale_to_lhs(u, ledger, target):
    """Scale a field so the force-free criterion lhs hits ``target``."""
    l2 = sobolev_norm(u, 0)
    h1_sq = sobolev_norm(u, 1) ** 2

    def lhs(s):
        return ledger.free_init_coeff * (s * l2) ** 2 + math.atan(s * s * h1_sq)

    lo, hi = 0.0, 1.0
    while lhs(hi) < target:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if lhs(mid) < target:
            lo = mid
        else:
            hi = mid
    return SpectralVelocity(u.grid, np.ascontiguousarray(u.coefficients * lo))


@pytest.fixture(scope="session")
def certified_ensemble(ledger):
    """20 certified force-free runs at N=16, T=2 (criteria 5 and 7)."""
    grid = make_wavegrid(16)
    config = SolverConfig(nu=1.0, dt=2e-3, t_end=2.0)
    members = []
    for seed in range(20):
        u0 = scale_to_lhs(random_divfree_field(grid, seed, -2.0, 1.0), ledger, 1.4)
        inputs = CriterionInput(l2=sobolev_norm(u0, 0),
                                h1_sq=sobolev_norm(u0, 1) ** 2)
        report = arctan_bound_free(inputs, ledger)
        assert report.satisfied and report.lhs <= 1.4 + 1e-9
        result = simulate(u0, ForcingSpec.zero(), config)
        members.append((report, result))
    return members


def test_criterion_1_constant_anchor():
    """Force-free horizon reproduces the pinned nu^3/128 constant exactly."""
    assert classical_horizon_free(1.0, 1.0) == 1.0 / 128.0
    assert classical_horizon_free(1.0, 2.0) == 8.0 / 128.0
    announce(1, "classical_horizon_free(h1_sq=1, nu=1) == 1/128 exactly")


def test_criterion_2_exact_solution_and_order():
    """Shear decay matches e^-1 to 1e-6; dt halving cuts the error >= 12x."""
    grid = make_wavegrid(16)
    res = simulate(shear_field(grid, 1.0), ForcingSpec.zero(),
                   SolverConfig(nu=1.0, dt=1e-3, t_end=1.0))
    ratio = math.sqrt(res.trace.l2_sq[-1] / res.trace.l2_sq[0])
    rel_err = abs(ratio - math.exp(-1.0)) / math.exp(-1.0)
    assert rel_err <= 1e-6

    # order check on a forced shear flow with exact solution sin(t) (sin y,0,0)
    # (free shear decay is integrated exactly by the viscous factor, so it
    # cannot expose the Runge-Kutta order)
    g8 = make_wavegrid(8)
    zero0 = SpectralVelocity(g8, np.zeros((3, 8, 8, 8), dtype=np.complex128))
    forcing = ForcingSpec.time_dependent(
        lambda t: shear_field(g8, math.cos(t) + math.sin(t))
    )
    exact = shear_field(g8, math.sin(0.5))
    errs = []
    for dt in (0.02, 0.01):
        r = simulate(zero0, forcing, SolverConfig(nu=1.0, dt=dt, t_end=0.5))
        errs.append(np.abs(r.final_state.coefficients - exact.coefficients).max())
    factor = errs[0] / errs[1]
    assert factor >= 12.0
    announce(2, f"shear decay rel err {rel_err:.2e}, dt-halving factor {factor:.1f}x")


def test_criterion_3_algebraic_identities():
    """Nonlinear-term cancellation, skew-symmetry, and Poincare on 100 fields."""
    grid = make_wavegrid(16)
    lam1 = grid.lam1
    worst_self = worst_skew = worst_poincare = 0.0
    for seed in range(100):
        u = random_divfree_field(grid, seed, -2.0, 1.0)
        v = random_divfree_field(grid, 1000 + seed, -2.0, 1.0)
        w = random_divfree_field(grid, 2000 + seed, -2.0, 1.0)
        h1_u = sobolev_norm(u, 1)
        self_term = abs(trilinear_b(u, u, u)) / max(h1_u**3, 1e-300)
        worst_self = max(worst_self, self_term)
        scale = h1_u * sobolev_norm(v, 1) * sobolev_norm(w, 1)
        skew = abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) / scale
        worst_skew = max(worst_skew, skew)
        gap = lam1 * sobolev_norm(u, 0) ** 2 - h1_u**2
        worst_poincare = max(worst_poincare, gap)
        assert self_term <= 1e-10
        assert skew <= 1e-10
        assert gap <= 1e-12 * h1_u**2
    announce(3, f"100 fields: |b(u,u,u)| <= {worst_self:.1e} * scale, "
                f"skew defect <= {worst_skew:.1e}, Poincare violations: 0")


def test_criterion_4_oracle_blowup_sharpness():
    """Blow-up times of y' = beta y^3 match 1/(2 beta y0^2) to 1e-6."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        beta = float(10.0 ** rng.uniform(-2.0, 2.0))
        y0 = float(10.0 ** rng.uniform(-1.0, 1.0))
        oracle = ode_comparison_oracle(0.0, beta, y0, 1e12)
        expected = 1.0 / (2.0 * beta * y0**2)
        rel = abs(oracle.blowup_time - expected) / expected
        worst = max(worst, rel)
        assert rel <= 1e-6
    announce(4, f"20 blow-up times within {worst:.2e} relative of closed form")


def test_criterion_5_bound_dominance(certified_ensemble, ledger):
    """Certified ensemble: tan(lhs) dominates h1_sq; no (17) excursions."""
    dominance_violations = 0
    h1_violations = 0
    for report, result in certified_ensemble:
        assert result.termination == "completed"
        dom = check_bound_dominance(result.trace, report)
        _, h1 = check_h1_inequality(result.trace, ledger)
        dominance_violations += not dom.passed
        h1_violations += not h1.passed
    assert dominance_violations == 0
    assert h1_violations == 0
    announce(5, "20 certified runs, T=2: 0 dominance violations, "
                "0 positive excursions of the gradient-growth inequality")


def test_criterion_6_interval_extension(tmp_path):
    """Sweep |u0| -> 0: certification flips near 0.1108, horizon stays 1/128."""
    out = tmp_path / "cmp"
    code = main(["compare", "--h1sq", "1", "--nu", "1",
                 "--l2-sweep", "1,0.5,0.2,0.12,0.11,0.1,0.05,0.01",
                 "--out", str(out)])
    assert code == EXIT_OK
    import json

    payload = json.loads((out / "report.json").read_text())
    threshold = payload["threshold_l2"]
    assert abs(threshold - 0.1108) <= 2e-4
    for row in payload["rows"]:
        assert row["classical_horizon"] == pytest.approx(1.0 / 128.0)
        expected = row["l2"] < threshold
        assert row["criterion_satisfied"] == expected
        assert row["extends_classical"] == expected
    assert any(r["extends_classical"] for r in payload["rows"])
    announce(6, f"threshold {threshold:.6f} (expected ~0.1108); below it the "
                "free criterion certifies all t while the horizon stays 1/128")


def test_criterion_7_energy_inequality(certified_ensemble, ledger):
    """Cumulative energy inequality holds on every completed run."""
    worst = -math.inf
    for _, result in certified_ensemble:
        check = check_energy_inequality(result.trace, ledger)
        worst = max(worst, check.max_violation)
        assert check.passed
    announce(7, f"energy inequality max excess {worst:.2e} (quadrature level)")
