"""Tests for the integrating-factor time stepper and trace machinery."""

import hashlib
import math
import os
import pickle
import signal
import sys
import time
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import irfftn, rfftn

from nsreg import (
    ConfigurationError,
    ForcingSpec,
    NormTrace,
    SimulationResult,
    SolverConfig,
    SpectralVelocity,
    energy_balance_residual,
    inner_product,
    kolmogorov_forcing,
    leray_project,
    make_wavegrid,
    nonlinear_term,
    random_divfree_field,
    shear_field,
    simulate,
    sobolev_norm,
    step,
)
from nsreg import _kernels, solver, spectral
from nsreg.errors import GridMismatchError, InvariantViolationError, NumericalBlowupError
from nsreg.solver import _check_invariants, _sample, _Stepper
from nsreg.spectral import from_physical, hermitian_defect, to_band


def zero_field(grid):
    n = grid.n
    return SpectralVelocity(grid, np.zeros((3, n, n, n), dtype=np.complex128))


def forced_shear(grid, nu=1.0):
    """Time-dependent forcing whose exact solution is sin(t) * (sin y, 0, 0)."""

    def gen(t):
        return shear_field(grid, math.cos(t) + nu * math.sin(t))

    return ForcingSpec.time_dependent(gen)


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(nu=0.0, dt=1e-3, t_end=1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(nu=1.0, dt=-1e-3, t_end=1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(nu=1.0, dt=1e-3, t_end=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(nu=1.0, dt=1e-3, t_end=1.0, integrator="euler")
    with pytest.raises(TypeError):
        SolverConfig(nu=1.0, dt=1e-3, t_end=1.0, dealias=False)


@pytest.mark.parametrize("field", ["nu", "dt", "t_end", "cfl", "blowup_h1_sq_ceiling"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite(field, value):
    kwargs = {"nu": 1.0, "dt": 1e-3, "t_end": 1.0, field: value}
    with pytest.raises(ConfigurationError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("ceiling", [0.0, -1.0, -math.inf])
def test_config_rejects_non_positive_blowup_ceiling(ceiling):
    with pytest.raises(ConfigurationError, match="blowup ceiling"):
        SolverConfig(nu=1.0, dt=1e-3, t_end=1.0, blowup_h1_sq_ceiling=ceiling)


def test_steady_forcing_must_be_solenoidal(grid8):
    n = grid8.n
    raw = np.zeros((3, n, n, n), dtype=np.complex128)
    raw[0, 1, 0, 0] = 1.0  # pure gradient mode
    raw[0, n - 1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        ForcingSpec.steady(SpectralVelocity(grid8, raw))


def test_steady_forcing_rejects_nan(grid8):
    raw = shear_field(grid8).coefficients.copy()
    raw[0, 0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ForcingSpec.steady(SpectralVelocity(grid8, raw))


# ------------------------------------------------------------------- step

def test_single_step_shear_decay(grid16):
    cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=1.0)
    u = shear_field(grid16, 1.0)
    out = step(u, ForcingSpec.zero(), 0.0, cfg.dt, cfg)
    expected = math.exp(-cfg.dt)
    ratio = sobolev_norm(out, 0) / sobolev_norm(u, 0)
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_step_from_rest_linearizes_forcing(grid16):
    dt = 1e-3
    cfg = SolverConfig(nu=1.0, dt=dt, t_end=1.0)
    f = kolmogorov_forcing(grid16, 2.0)
    out = step(zero_field(grid16), f, 0.0, dt, cfg)
    lead = dt * f.steady_field.coefficients
    err = np.abs(out.coefficients - lead).max()
    assert err <= 10.0 * dt**2 * np.abs(f.steady_field.coefficients).max()


def test_step_output_exactly_hermitian(grid16):
    cfg = SolverConfig(nu=0.1, dt=1e-2, t_end=1.0)
    u = random_divfree_field(grid16, 5, -2.0, 3.0)
    out = step(u, kolmogorov_forcing(grid16, 2.0), 0.0, cfg.dt, cfg).validate()
    assert all(hermitian_defect(comp) == 0.0 for comp in out.coefficients)


def field_beyond_band(grid, seed, amplitude):
    """Random solenoidal field with energy on every mode outside the Nyquist
    planes, where projection would break the Hermitian symmetry."""
    noise = np.random.default_rng(seed).standard_normal((3, grid.n, grid.n, grid.n))
    nyquist = np.abs(grid.k_int) == grid.n // 2
    spec = from_physical(grid, noise)
    spec[:, nyquist] = spec[:, :, nyquist] = spec[..., nyquist] = 0.0
    raw = leray_project(SpectralVelocity(grid, spec))
    return raw.copy_with(raw.coefficients * (amplitude / sobolev_norm(raw, 0)))


def reference_step(stepper, coeffs, t, dt):
    """Runge-Kutta step with every stage on the full half spectrum.

    The right-hand side is the 2/3-rule convection of the masked state,
    projected, plus the masked force: the formula the band stepper must
    reproduce bit for bit.
    """
    grid, config, forcing = stepper.grid, stepper.config, stepper.forcing
    n, nh = grid.n, grid.n // 2 + 1
    mask, kz_half = grid.dealias_mask[..., :nh], grid.kx[:nh]
    k = (grid.kx[:, None, None], grid.kx[None, :, None], kz_half)

    def rhs(half, t):
        u = irfftn(half * mask, s=(n, n, n), axes=(-3, -2, -1), norm="forward")
        flux = rfftn(_kernels.convective_product(u), axes=(-3, -2, -1), norm="forward")
        conv = np.empty(half.shape, dtype=np.complex128)
        conv[0] = k[0] * flux[0] + k[1] * flux[1] + k[2] * flux[2]
        conv[1] = k[0] * flux[1] + k[1] * flux[3] + k[2] * flux[4]
        conv[2] = k[0] * flux[2] + k[1] * flux[4]
        conv *= 1j * mask
        out = _kernels.leray_project_modes(-conv, grid.kx, grid.kx, kz_half)
        f = forcing.at(t)
        if f is not None:
            fhat = f.coefficients[..., :nh] * mask
            if forcing.kind == "time_dependent":
                _kernels.leray_project_modes(fhat, grid.kx, grid.kx, kz_half)
            out += fhat
        return out

    lam = config.nu * grid.ksq[..., :nh]
    e_full, e_half = np.exp(-lam * dt), np.exp(-lam * (0.5 * dt))
    if config.integrator == "if_rk4":
        n1 = rhs(coeffs, t)
        u2 = e_half * (coeffs + (0.5 * dt) * n1)
        n2 = rhs(u2, t + 0.5 * dt)
        u3 = e_half * coeffs + (0.5 * dt) * n2
        n3 = rhs(u3, t + 0.5 * dt)
        u4 = e_full * coeffs + dt * e_half * n3
        n4 = rhs(u4, t + dt)
        return e_full * coeffs + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
    n1 = rhs(coeffs, t)
    u2 = e_full * (coeffs + dt * n1)
    n2 = rhs(u2, t + dt)
    return e_full * coeffs + (0.5 * dt) * (e_full * n1 + n2)


@pytest.mark.parametrize("integrator", ["if_rk4", "if_rk2"])
@pytest.mark.parametrize("forcing_kind", ["zero", "steady", "time_dependent"])
def test_band_step_equals_full_spectrum_formula(grid16, integrator, forcing_kind):
    forcing = {"zero": ForcingSpec.zero(),
               "steady": kolmogorov_forcing(grid16, 3.0),
               "time_dependent": forced_shear(grid16, 0.3)}[forcing_kind]
    cfg = SolverConfig(nu=0.3, dt=2e-2, t_end=1.0, integrator=integrator)
    u = random_divfree_field(grid16, 21, -2.0, 6.0).coefficients
    u = u + field_beyond_band(grid16, 22, 0.5).coefficients
    coeffs = np.ascontiguousarray(u[..., : grid16.n // 2 + 1])
    stepper = _Stepper(grid16, forcing, cfg)
    for t in (0.0, 0.02):
        got, _ = stepper.step(to_band(coeffs, grid16), t, cfg.dt)
        want = reference_step(stepper, coeffs, t, cfg.dt)
        assert np.array_equal(got, to_band(want, grid16))
        coeffs = want


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16]), seed=st.integers(min_value=0, max_value=10_000),
       exponent=st.floats(min_value=-300.0, max_value=0.0))
def test_content_outside_band_is_refused_and_truncation_runs(n, seed, exponent):
    grid = make_wavegrid(n)
    u_band = random_divfree_field(grid, seed, -2.0, 2.0)
    outside = field_beyond_band(grid, seed + 1, 10.0**exponent).coefficients * ~grid.dealias_mask
    u = u_band.copy_with(u_band.coefficients + outside)
    forcing = kolmogorov_forcing(grid, 2.0)
    cfg = SolverConfig(nu=0.2, dt=1e-2, t_end=0.03)
    for run in (lambda: simulate(u, forcing, cfg), lambda: step(u, forcing, 0.0, cfg.dt, cfg)):
        with pytest.raises(ConfigurationError, match=r"outside the dealias band.*dealias_mask"):
            run()
    got = simulate(u.copy_with(u.coefficients * grid.dealias_mask), forcing, cfg)
    want = simulate(u_band, forcing, cfg)
    assert got.trace.to_csv() == want.trace.to_csv()
    assert np.array_equal(got.final_state.coefficients, want.final_state.coefficients)


@pytest.mark.parametrize("kz", [7, -7])
def test_content_outside_band_in_either_half_is_refused(kz):
    # N = 16 keeps |kz| <= kc - 1 = 5: kz = -7 is off the band in the half
    # the band's mirror fills, where validate() cannot see it
    grid = make_wavegrid(16)
    u = random_divfree_field(grid, 3, -2.0, 1.0)
    c = np.array(u.coefficients)
    c[0, 0, 0, kz % 16] = 1e-14 * np.abs(c).max()  # k = (0, 0, kz): k . c stays 0
    planted = SpectralVelocity(grid, c)
    planted.validate()
    cfg = SolverConfig(nu=0.1, dt=1e-2, t_end=2e-2)
    for run in (lambda: simulate(planted, ForcingSpec.zero(), cfg),
                lambda: step(planted, ForcingSpec.zero(), 0.0, cfg.dt, cfg)):
        with pytest.raises(ConfigurationError, match="outside the dealias band"):
            run()


def test_random_run_at_n64_never_builds_the_full_layout():
    g = make_wavegrid(64)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=2e-3)
    simulate(random_divfree_field(g, 1), ForcingSpec.zero(), cfg)  # warm: the workspace
    full_layout = 3 * g.n**3 * 16
    tracemalloc.start()
    try:
        u = random_divfree_field(g, 2)
        made = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        res = simulate(u, ForcingSpec.zero(), cfg)
        ran = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert res.termination == "completed" and len(res.trace) == 3
    for field in (u, res.final_state):
        assert "_coefficients" not in vars(field)
    # a run's peak is its RK4 step's band arrays: 0.89-0.97 of a full layout
    # for 8 to 1 slab workers, so one band array more in the step fails this
    assert made < full_layout and ran < full_layout


def test_nonzero_field_with_underflowing_norms_is_refused(grid8):
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=3e-3)
    with pytest.raises(ConfigurationError, match="underflowing squared norms: l2_sq="):
        simulate(random_divfree_field(grid8, 1, -2.0, 1e-155), ForcingSpec.zero(), cfg)
    trace = simulate(random_divfree_field(grid8, 1, -2.0, 1e-150), ForcingSpec.zero(), cfg).trace
    assert trace.l2_sq.min() >= sys.float_info.min


@pytest.mark.parametrize("integrator,seed,amplitude,dt,cfl", [
    ("if_rk2", 11, 6.0, 0.05, 0.2), ("if_rk4", 5, 20.0, 0.05, 0.2)])
def test_cfl_steps_equal_a_loop_with_the_physical_speed(grid16, integrator, seed, amplitude,
                                                        dt, cfl):
    # the run takes max |u| from the transform of its first stage; a loop of
    # single steps with the speed of the full inverse transform gives the same times
    cfg = SolverConfig(nu=0.2, dt=dt, t_end=0.5, integrator=integrator, cfl=cfl)
    forcing = kolmogorov_forcing(grid16, 5.0)
    u = random_divfree_field(grid16, seed, -2.0, amplitude)
    res = simulate(u, forcing, cfg)
    n, dx = grid16.n, grid16.length / grid16.n
    t, times = 0.0, [0.0]
    while t < cfg.t_end * (1.0 - 1e-12):
        half = u.coefficients[..., : n // 2 + 1]
        speed = np.abs(irfftn(half, s=(n, n, n), axes=(-3, -2, -1), norm="forward")).max()
        h = min(cfg.dt, cfg.cfl * dx / speed, cfg.t_end - t)
        u = step(u, forcing, t, h, cfg)
        t += h
        times.append(t)
    assert np.diff(res.trace.t)[:-1].min() < cfg.dt  # the cap bites
    assert np.array_equal(res.trace.t, times)


@pytest.mark.parametrize("cfl", [None, 0.2])
@pytest.mark.parametrize("integrator", ["if_rk4", "if_rk2"])
@pytest.mark.parametrize("seed", [0, 5, 11, 2024])
def test_simulate_is_a_loop_of_step_bit_for_bit(grid16, seed, integrator, cfl):
    # simulate makes the state's kz = 0 plane Hermitian after each step, as
    # step() does through the public field, so both give the same times and state
    cfg = SolverConfig(nu=0.2, dt=0.05, t_end=0.3, integrator=integrator, cfl=cfl)
    forcing = kolmogorov_forcing(grid16, 5.0)
    u = random_divfree_field(grid16, seed, -2.0, 20.0)
    res = simulate(u, forcing, cfg)
    n, dx = grid16.n, grid16.length / grid16.n
    t, times = 0.0, [0.0]
    while t < cfg.t_end * (1.0 - 1e-12):
        h = min(cfg.dt, cfg.t_end - t)
        if cfl is not None:
            half = u.coefficients[..., : n // 2 + 1]
            speed = np.abs(irfftn(half, s=(n, n, n), axes=(-3, -2, -1), norm="forward")).max()
            h = min(h, cfl * dx / speed)
        u = step(u, forcing, t, h, cfg)
        t += h
        times.append(t)
    if cfl is not None:
        assert np.diff(res.trace.t)[:-1].min() < cfg.dt  # the cap bites
    assert np.array_equal(res.trace.t, times)
    assert np.array_equal(res.final_state.coefficients, u.coefficients)


def test_rhs_and_random_field_allocate_no_full_grid_temporaries():
    # after a warm step the right-hand side transforms in the grid's
    # workspace, so its peak is a few band arrays (13 when each call
    # allocates its transform arrays); the random field draws and
    # transforms its noise there too, so its peak is its output and a few
    # band arrays (2x its output when built on the full grid)
    g = make_wavegrid(32)
    band = to_band(random_divfree_field(g, 1).coefficients, g)
    stepper = _Stepper(g, ForcingSpec.zero(), SolverConfig(nu=0.1, dt=1e-3, t_end=1.0))
    stepper.step(band, 0.0, 1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stepper.rhs(band, 0.0)
        rhs_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        field = random_divfree_field(g, 2)
        field_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rhs_peak <= 5 * band.nbytes
    assert field_peak <= field.coefficients.nbytes + 4 * band.nbytes


@pytest.mark.parametrize("integrator,bands", [("if_rk4", 5.5), ("if_rk2", 4.5)])
def test_step_peak_is_a_few_band_arrays(integrator, bands):
    # stages are dropped once used and the combine is formed before the last
    # stage, so a step's peak, its result included, is this many band arrays
    # (6.3 for both when the combine came after the last stage)
    g = make_wavegrid(32)
    band = to_band(random_divfree_field(g, 1).coefficients, g)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=1.0, integrator=integrator)
    stepper = _Stepper(g, kolmogorov_forcing(g, 5.0), cfg)
    stepper.step(band, 0.0, 1e-3)  # warm: the workspace and the viscous factors
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stepper.step(band, 0.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bands * band.nbytes


def test_steppers_and_threads_sharing_a_grid_match_sequential_runs():
    # the workspace is lent per call: interleaved steppers, a call that
    # finds it lent and concurrent runs all give the results they give alone
    g = make_wavegrid(16)
    rk4 = SolverConfig(nu=0.1, dt=1e-2, t_end=0.2)
    rk2 = SolverConfig(nu=0.5, dt=2e-2, t_end=0.2, integrator="if_rk2", cfl=0.5)
    a, b = (to_band(random_divfree_field(g, s, -2.0, 4.0).coefficients, g) for s in (1, 2))
    u = random_divfree_field(g, 3)
    want_nl = nonlinear_term(u).coefficients

    def steps(stepper, c, count):
        out = []
        for k in range(count):
            c, _ = stepper.step(c, k * 1e-2, 1e-2)
            out.append(c)
        return out

    want_a = steps(_Stepper(g, ForcingSpec.zero(), rk4), a, 3)
    want_b = steps(_Stepper(g, kolmogorov_forcing(g, 5.0), rk2), b, 3)
    sa, sb = _Stepper(g, ForcingSpec.zero(), rk4), _Stepper(g, kolmogorov_forcing(g, 5.0), rk2)
    for k in range(3):
        a, _ = sa.step(a, k * 1e-2, 1e-2)
        assert np.array_equal(nonlinear_term(u).coefficients, want_nl)
        b, _ = sb.step(b, k * 1e-2, 1e-2)
        assert np.array_equal(a, want_a[k]) and np.array_equal(b, want_b[k])
    held = g.take_workspace()  # lent: the call gets buffers of its own
    assert np.array_equal(nonlinear_term(u).coefficients, want_nl)
    g.give_back_workspace(held)
    assert pickle.loads(pickle.dumps(g)) == g

    runs = [(random_divfree_field(g, 10 + i, -2.0, 4.0), cfg)
            for i, cfg in enumerate((rk4, rk2, rk4, rk2))]
    forcing = kolmogorov_forcing(g, 5.0)
    want = [simulate(u0, forcing, cfg) for u0, cfg in runs]
    got = [None] * len(runs)

    def run(i):
        got[i] = simulate(runs[i][0], forcing, runs[i][1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for w, r in zip(want, got):
        assert r.trace.to_csv() == w.trace.to_csv()
        assert np.array_equal(r.final_state.coefficients, w.final_state.coefficients)


def test_step_rejects_nonpositive_dt(grid8):
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=1.0)
    with pytest.raises(ConfigurationError):
        step(shear_field(grid8), ForcingSpec.zero(), 0.0, 0.0, cfg)


def nan_after_start(grid):
    """Time-dependent force: zero at t = 0, NaN in every mode after it."""
    def gen(t):
        value = 0.0 if t == 0.0 else np.nan
        return SpectralVelocity(grid, np.full((3,) + grid.ksq.shape, value, dtype=np.complex128))

    return ForcingSpec.time_dependent(gen)


def test_step_raises_numerical_blowup_on_non_finite_state(grid8):
    cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=1.0)
    with pytest.raises(NumericalBlowupError, match="non-finite") as info:
        step(shear_field(grid8), nan_after_start(grid8), 0.0, 1e-2, cfg)
    assert info.value.last_valid_time == 0.0


def test_step_checks_invariants(grid8):
    # the mean mode has no viscous decay and the right-hand side never
    # touches it, so a step keeps it, and the new state's check finds it
    c = np.array(shear_field(grid8).coefficients)
    c[0, 0, 0, 0] = 0.5
    cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=1.0)
    with pytest.raises(InvariantViolationError, match="zero-mean"):
        step(SpectralVelocity(grid8, c), ForcingSpec.zero(), 0.0, 1e-2, cfg)


# ---------------------------------------------------------------- simulate

def test_shear_exact_decay(grid16):
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=1.0)
    res = simulate(shear_field(grid16, 1.0), ForcingSpec.zero(), cfg)
    assert res.termination == "completed"
    ratio = res.trace.l2_sq[-1] / res.trace.l2_sq[0]
    assert ratio == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_zero_initial_zero_forcing(grid8):
    cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)
    res = simulate(zero_field(grid8), ForcingSpec.zero(), cfg)
    assert res.trace.l2_sq.max() == 0.0
    assert res.trace.h1_sq.max() == 0.0
    assert res.trace.f_dot_u.max() == 0.0


def test_kolmogorov_steady_state(grid16):
    nu = 1.0
    f = kolmogorov_forcing(grid16, 1.0)
    u0 = shear_field(grid16, 1.0 / nu)
    cfg = SolverConfig(nu=nu, dt=1e-3, t_end=0.2)
    res = simulate(u0, f, cfg)
    drift = abs(res.trace.l2_sq[-1] - res.trace.l2_sq[0]) / res.trace.l2_sq[0]
    assert drift <= 1e-10


def test_energy_nonincreasing_without_forcing(grid16):
    u0 = random_divfree_field(grid16, 4, -2.0, 1.0)
    cfg = SolverConfig(nu=0.5, dt=2e-3, t_end=0.3)
    res = simulate(u0, ForcingSpec.zero(), cfg)
    l2 = res.trace.l2_sq
    assert np.all(np.diff(l2) <= 1e-12 * l2[0])


def test_invariants_preserved_along_run(grid16):
    u0 = random_divfree_field(grid16, 8, -2.0, 2.0)
    cfg = SolverConfig(nu=0.2, dt=2e-3, t_end=0.1)
    res = simulate(u0, ForcingSpec.zero(), cfg)
    res.final_state.validate()


def test_final_state_exactly_hermitian(grid16):
    u0 = random_divfree_field(grid16, 9, -2.0, 4.0)
    cfg = SolverConfig(nu=0.1, dt=5e-3, t_end=0.05)
    res = simulate(u0, kolmogorov_forcing(grid16, 1.0), cfg)
    res.final_state.validate()
    assert all(hermitian_defect(comp) == 0.0 for comp in res.final_state.coefficients)


def test_force_that_holds_its_band_is_read_on_the_band(grid16, monkeypatch):
    # the stepper reads the held band, as nonlinear_term does, and gets the
    # bits of the same force in the full layout; its full layout is never built
    f = random_divfree_field(grid16, 3, -2.0, 2.0)
    held = f.band.copy()
    full = SpectralVelocity(grid16, f.coefficients.copy())
    f = SpectralVelocity.from_band(grid16, held.copy())  # one that has not built its coefficients
    built = []
    real_scatter = spectral._scatter_band
    monkeypatch.setattr(spectral, "_scatter_band", lambda *a: built.append(1) or real_scatter(*a))
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=1e-3)
    for kind in (ForcingSpec.steady, lambda f: ForcingSpec.time_dependent(lambda t: f)):
        got = _Stepper(grid16, kind(f), cfg).force_band(0.0)
        want = _Stepper(grid16, kind(full), cfg).force_band(0.0)
        assert got.tobytes() == want.tobytes()
    assert not built and "_coefficients" not in vars(f)
    assert np.array_equal(f.band, held)  # the time-dependent force is projected in a copy


def test_final_state_is_built_when_first_read(grid16, monkeypatch):
    u0 = random_divfree_field(grid16, 9, -2.0, 1.0)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=3e-3)
    simulate(u0, ForcingSpec.zero(), cfg)  # warm: the grid's workspace
    built = []
    real_scatter = spectral._scatter_band
    monkeypatch.setattr(spectral, "_scatter_band", lambda *a: built.append(1) or real_scatter(*a))
    tracemalloc.start()
    try:
        res = simulate(u0, ForcingSpec.zero(), cfg)
        held = tracemalloc.get_traced_memory()[0]
        first = res.final_state.coefficients
        with_state = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    full_layout = first.nbytes
    assert held < full_layout <= with_state - held
    assert res.final_state.coefficients is first and len(built) == 1


def test_final_state_cached_and_equal_across_runs_on_one_grid():
    g = make_wavegrid(16)
    u0 = random_divfree_field(g, 9, -2.0, 4.0)
    cfg = SolverConfig(nu=0.1, dt=5e-3, t_end=0.05)
    forcing = kolmogorov_forcing(g, 1.0)
    first, second = simulate(u0, forcing, cfg), simulate(u0, forcing, cfg)
    want = first.final_state.coefficients  # read before and after other runs
    simulate(random_divfree_field(g, 3, -2.0, 4.0), forcing, cfg)
    assert np.array_equal(second.final_state.coefficients, want)
    assert second.final_state is second.final_state

    third = simulate(u0, forcing, cfg)
    got = [None] * 8

    def read(i):
        got[i] = third.final_state

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(got))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(s is got[0] for s in got)
    assert np.array_equal(got[0].coefficients, want)


def test_coefficients_read_first_by_many_threads_are_one_array(grid16):
    u = random_divfree_field(grid16, 5, -2.0, 2.0)
    got = [None] * 8
    barrier = threading.Barrier(len(got))

    def read(i):
        barrier.wait()
        got[i] = u.coefficients

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(got))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(c is got[0] for c in got) and not got[0].flags.writeable
    want = SpectralVelocity.from_band(grid16, u.band).coefficients  # built once, unraced
    assert got[0].tobytes() == want.tobytes()


def test_simulation_result_holds_the_field_it_is_given(grid8):
    run = simulate(random_divfree_field(grid8, 1), ForcingSpec.zero(),
                   SolverConfig(nu=1.0, dt=1e-2, t_end=2e-2))
    assert run.final_state.band is not None  # simulate's: the field of its last band
    u = shear_field(grid8)
    res = SimulationResult(trace=run.trace, final_state=u, termination="completed",
                           blowup_time=None, blowup_reason=None, wall_time_s=0.0)
    assert res.final_state is u
    with pytest.raises(TypeError):  # one way to give the final state, not two
        SimulationResult(run.trace, None, "completed", None, None, 0.0,
                         band_state=(grid8, run.final_state.band))


# Final (l2_sq, h1_sq, h2_sq) of two N=16 runs, recorded with the
# full-spectrum stepper (15 complex FFTs per RHS, gradient-form convection).
# Convection changes h1_sq by about 0.5 % in the first run, and the CFL cap
# shortens steps 7 to 11 of the second.
RECORDED_RUNS = [
    (dict(seed=7, amplitude=8.0, forced=False),
     dict(nu=0.05, dt=5e-3, t_end=0.25),
     (43.80697683504384, 572.1785457900712, 14102.345626153785)),
    (dict(seed=11, amplitude=6.0, forced=True),
     dict(nu=0.2, dt=0.05, t_end=0.5, integrator="if_rk2", cfl=0.2),
     (725.4500708818034, 748.5168765361173, 965.3366224627921)),
]


@pytest.mark.parametrize("init,config,expected", RECORDED_RUNS)
def test_final_norms_match_recorded_runs(grid16, init, config, expected):
    u0 = random_divfree_field(grid16, init["seed"], -2.0, init["amplitude"])
    forcing = kolmogorov_forcing(grid16, 5.0) if init["forced"] else ForcingSpec.zero()
    trace = simulate(u0, forcing, SolverConfig(**config)).trace
    got = (trace.l2_sq[-1], trace.h1_sq[-1], trace.h2_sq[-1])
    assert got == pytest.approx(expected, rel=1e-12)


def test_check_invariants_rejects_divergence(grid8):
    band = to_band(random_divfree_field(grid8, 1, -2.0, 1.0).coefficients, grid8)
    band[0, 1, 0, 0] += 1.0  # k = (1, 0, 0): k . v gains 1
    with pytest.raises(InvariantViolationError, match="divergence-free"):
        _check_invariants(grid8, band, 0.0)


def test_check_invariants_is_false_for_non_finite_states(grid8):
    band = to_band(random_divfree_field(grid8, 1, -2.0, 1.0).coefficients, grid8)
    assert _check_invariants(grid8, band, 0.0) is True
    assert _check_invariants(grid8, np.zeros_like(band), 0.0) is True
    for bad in (np.nan, np.inf, complex(1.5e308, 1.5e308)):  # the last: |c| overflows
        planted = band.copy()
        planted[1, 2, 1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _check_invariants(grid8, planted, 0.0) is False


def test_a_divergence_that_overflows_is_a_blowup(monkeypatch, grid8):
    # a finite state whose k . v sums inf and -inf to NaN at k = (2, 2, 1):
    # not finite, so a run ends in a blowup and step() raises, as validate() refuses it
    band = np.zeros((3,) + grid8.ksq_band.shape, dtype=np.complex128)
    band[:2, 2, 2, 1] = 1.5e308, -1e308
    monkeypatch.setattr(_Stepper, "step", lambda self, c, t, dt: (band.copy(), dt))
    cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _check_invariants(grid8, band, 0.0) is False
        res = simulate(shear_field(grid8), ForcingSpec.zero(), cfg)
        assert (res.termination, res.blowup_reason) == ("blowup", "non-finite coefficients")
        assert res.blowup_time == 0.0 and len(res.trace) == 1
        with pytest.raises(NumericalBlowupError, match="non-finite coefficients") as info:
            step(shear_field(grid8), ForcingSpec.zero(), 0.5, 1e-2, cfg)
    assert info.value.last_valid_time == 0.5


def test_simulate_reports_non_finite_coefficients_as_blowup(grid8):
    cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)
    res = simulate(shear_field(grid8), nan_after_start(grid8), cfg)
    assert res.termination == "blowup"
    assert res.blowup_reason == "non-finite coefficients"
    assert res.blowup_time == 0.0
    assert len(res.trace) == 1 and np.all(np.isfinite(res.trace.h1_sq))


def test_check_invariants_rejects_mean_mode(grid8):
    band = to_band(random_divfree_field(grid8, 1, -2.0, 1.0).coefficients, grid8)
    _check_invariants(grid8, band, 0.0)
    band[2, 0, 0, 0] = 0.5
    with pytest.raises(InvariantViolationError, match="zero-mean"):
        _check_invariants(grid8, band, 0.0)


@pytest.mark.parametrize("integrator,factor", [("if_rk4", 12.0), ("if_rk2", 3.9)])
def test_temporal_convergence_order(grid8, integrator, factor):
    # pure shear decay is integrated exactly by the viscous factor, so the
    # order study drives the Runge-Kutta slot with a forced shear flow whose
    # exact solution is sin(t) * (sin y, 0, 0)
    nu = 1.0
    exact = shear_field(grid8, math.sin(0.5))
    errs = []
    for dt in (0.02, 0.01):
        cfg = SolverConfig(nu=nu, dt=dt, t_end=0.5, integrator=integrator)
        res = simulate(zero_field(grid8), forced_shear(grid8, nu), cfg)
        errs.append(np.abs(res.final_state.coefficients - exact.coefficients).max())
    assert errs[0] / errs[1] >= factor


def test_blowup_reported_not_raised(grid8):
    u0 = random_divfree_field(grid8, 2, -2.0, 100.0)
    cfg = SolverConfig(nu=1e-6, dt=0.1, t_end=10.0, blowup_h1_sq_ceiling=1e8)
    res = simulate(u0, ForcingSpec.zero(), cfg)
    assert res.termination in ("completed", "blowup")
    if res.termination == "blowup":
        assert res.blowup_time is not None
        assert res.blowup_time >= 0.0
    assert np.all(np.isfinite(res.trace.l2_sq))  # trace holds the valid prefix


def test_cfl_controller_caps_step(grid16):
    u0 = random_divfree_field(grid16, 4, -2.0, 5.0)
    cfg = SolverConfig(nu=1.0, dt=0.5, t_end=0.5, cfl=0.5)
    res = simulate(u0, ForcingSpec.zero(), cfg)
    dts = np.diff(res.trace.t)
    dx = grid16.length / grid16.n
    assert dts.max() < 0.5  # nominal dt was cut down
    assert dts.min() > 0.0


def test_final_time_hit_exactly(grid8):
    cfg = SolverConfig(nu=1.0, dt=3e-3, t_end=0.01)  # not a multiple of dt
    res = simulate(shear_field(grid8, 1.0), ForcingSpec.zero(), cfg)
    assert res.trace.t[-1] == pytest.approx(0.01, abs=1e-15)


# ------------------------------------------------------------ energy balance

def test_energy_residual_shear(grid16):
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=1.0)
    res = simulate(shear_field(grid16, 1.0), ForcingSpec.zero(), cfg)
    r = energy_balance_residual(res.trace)
    scale = (res.trace.nu * res.trace.h1_sq).max()
    assert np.abs(r).max() / scale <= 1e-4


def test_energy_residual_zero_trace(grid8):
    cfg = SolverConfig(nu=1.0, dt=1e-2, t_end=0.05)
    res = simulate(zero_field(grid8), ForcingSpec.zero(), cfg)
    assert np.abs(energy_balance_residual(res.trace)).max() == 0.0


def test_energy_residual_stationary_balance(grid16):
    f = kolmogorov_forcing(grid16, 1.0)
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=0.2)
    res = simulate(shear_field(grid16, 1.0), f, cfg)
    trace = res.trace
    # d/dt term vanishes and nu * h1_sq balances (f, u)
    dzdt = np.gradient(trace.l2_sq, trace.t, edge_order=2)
    assert np.abs(dzdt).max() <= 1e-8 * trace.l2_sq[0]
    assert np.allclose(trace.nu * trace.h1_sq, trace.f_dot_u, rtol=1e-10)


def test_energy_residual_needs_samples(grid8):
    trace = NormTrace(
        t=np.array([0.0]), l2_sq=np.array([1.0]), h1_sq=np.array([1.0]),
        h2_sq=np.array([1.0]), f_dot_u=np.array([0.0]),
        int_h1_sq=np.array([0.0]), int_f_sq=np.array([0.0]), nu=1.0,
    )
    with pytest.raises(GridMismatchError):
        energy_balance_residual(trace)


@pytest.mark.parametrize("column", ["t", "l2_sq", "h1_sq", "f_dot_u", "int_f_sq"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_trace_rejects_non_finite(column, value):
    cols = {name: np.array([0.0, 1.0, 2.0]) for name in
            ("t", "l2_sq", "h1_sq", "h2_sq", "f_dot_u", "int_h1_sq", "int_f_sq")}
    cols[column][-1] = value
    with pytest.raises(ConfigurationError, match="non-finite"):
        NormTrace(nu=1.0, **cols)


def test_cumulative_energy_inequality_along_random_run(grid16):
    from nsreg import derive_constants

    u0 = random_divfree_field(grid16, 77, -2.0, 1.0)
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=0.3)
    res = simulate(u0, kolmogorov_forcing(grid16, 0.3), cfg)
    tr = res.trace
    ledger = derive_constants(1.0)
    lhs = tr.l2_sq + 0.5 * tr.nu * tr.int_h1_sq
    rhs = 2.0 * ledger.energy_young * tr.int_f_sq + tr.l2_sq[0]
    assert np.all(lhs <= rhs + 1e-9 * max(1.0, rhs.max()))


# -------------------------------------------------------------- trace io

def test_trace_csv_round_trip(tmp_path, grid16):
    cfg = SolverConfig(nu=1.0, dt=5e-3, t_end=0.05)
    res = simulate(shear_field(grid16, 1.0), kolmogorov_forcing(grid16, 0.5), cfg)
    path = tmp_path / "trace.csv"
    text = res.trace.to_csv(path)
    assert text.splitlines()[0] == "t,l2_sq,h1_sq,h2_sq,f_dot_u,int_h1_sq,int_f_sq,residual"
    loaded = NormTrace.from_csv(path, nu=1.0)
    assert np.allclose(loaded.t, res.trace.t, rtol=0, atol=0)
    assert np.allclose(loaded.l2_sq, res.trace.l2_sq, rtol=0, atol=0)
    assert np.allclose(loaded.int_f_sq, res.trace.int_f_sq, rtol=0, atol=0)


def test_trace_rejects_decreasing_times():
    with pytest.raises(ConfigurationError):
        NormTrace(
            t=np.array([0.0, 0.0]), l2_sq=np.zeros(2), h1_sq=np.zeros(2),
            h2_sq=np.zeros(2), f_dot_u=np.zeros(2),
            int_h1_sq=np.zeros(2), int_f_sq=np.zeros(2), nu=1.0,
        )


@pytest.mark.parametrize("column", ["int_h1_sq", "int_f_sq"])
@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-16])
def test_trace_rejects_a_decreasing_cumulative_column_at_any_scale(column, scale):
    cols = {name: np.array([0.0, 1.0, 2.0, 3.0]) for name in
            ("t", "l2_sq", "h1_sq", "h2_sq", "f_dot_u", "int_h1_sq", "int_f_sq")}
    cols[column] = scale * np.array([0.0, 2.0, 1.0, 3.0])  # one step down
    with pytest.raises(ConfigurationError, match="must not decrease"):
        NormTrace(nu=1.0, **cols)
    cols[column] = scale * np.array([0.0, 1.0, 1.0, 3.0])  # a flat step is a zero term
    NormTrace(nu=1.0, **cols)


def test_trace_integrals_monotone(grid16):
    cfg = SolverConfig(nu=1.0, dt=2e-3, t_end=0.1)
    res = simulate(random_divfree_field(grid16, 5), kolmogorov_forcing(grid16, 1.0), cfg)
    assert np.all(np.diff(res.trace.int_h1_sq) >= 0.0)
    assert np.all(np.diff(res.trace.int_f_sq) >= 0.0)


def test_forcing_accumulator_matches_steady_value(grid16):
    amp = 0.7
    f = kolmogorov_forcing(grid16, amp)
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=0.1)
    res = simulate(zero_field(grid16), f, cfg)
    f_sq = sobolev_norm(f.steady_field, 0) ** 2
    assert res.trace.int_f_sq[-1] == pytest.approx(0.1 * f_sq, rel=1e-12)


def test_sample_force_inner_product_matches_full_fields(grid16):
    f = random_divfree_field(grid16, 4, -2.0, 2.0)
    forcing = ForcingSpec.steady(f)
    cfg = SolverConfig(nu=1.0, dt=1e-3, t_end=1.0)
    u = step(random_divfree_field(grid16, 3), forcing, 0.0, 1e-3, cfg)
    fband = _Stepper(grid16, forcing, cfg).force_band(1e-3)
    f_dot_u = _sample(grid16, to_band(u.coefficients, grid16), fband)[3]
    assert f_dot_u != 0.0
    assert f_dot_u == pytest.approx(inner_product(f, u), rel=1e-13)


# ------------------------------------------------------------ slab threads

def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _run_digests(grid, workers, monkeypatch, config, forced):
    """Digests of a random field, rhs with its speed, step() and a short
    run, all with ``workers`` threads."""
    monkeypatch.setattr(grid, "workers", workers)
    cfg = SolverConfig(**config)
    forcing = kolmogorov_forcing(grid, 5.0) if forced else ForcingSpec.zero()
    u0 = random_divfree_field(grid, 5, -2.0, 4.0)
    band = to_band(u0.coefficients, grid)
    rhs, speed = _Stepper(grid, forcing, cfg).rhs(band, 0.0, speed=True)
    stepped = step(u0, forcing, 0.0, cfg.dt, cfg)
    res = simulate(u0, forcing, cfg)
    assert len(res.trace) == 4  # 3 steps
    if cfg.cfl is not None:
        assert np.diff(res.trace.t).max() < cfg.dt  # the cap bites
    return (_digest(u0.coefficients.tobytes()), _digest(rhs.tobytes()), speed,
            _digest(stepped.coefficients.tobytes()), res.trace.to_csv(),
            _digest(res.final_state.coefficients.tobytes()))


@pytest.mark.parametrize("n,config,forced", [
    (64, dict(nu=0.1, dt=1e-3, t_end=3e-3), False),
    (64, dict(nu=0.1, dt=1e-2, t_end=3e-3, integrator="if_rk2", cfl=0.01), True),
    # B = 11 band rows: slabs of 5 and 6
    (16, dict(nu=0.1, dt=1e-3, t_end=3e-3), False),
    (16, dict(nu=0.1, dt=1e-2, t_end=3e-3, integrator="if_rk2", cfl=0.002), True),
])
def test_results_are_bitwise_equal_for_any_worker_count(monkeypatch, n, config, forced):
    g = make_wavegrid(n)
    assert _run_digests(g, 2, monkeypatch, config, forced) == \
        _run_digests(g, 1, monkeypatch, config, forced)


def test_grid_threads_from_n64_on_every_usable_cpu(monkeypatch):
    assert make_wavegrid(64).workers == len(os.sched_getaffinity(0))
    monkeypatch.setattr(spectral, "_usable_cpus", lambda: 4)
    assert [make_wavegrid(n).workers for n in (8, 16, 32, 62, 64, 96)] == [1, 1, 1, 1, 4, 4]
    assert pickle.loads(pickle.dumps(make_wavegrid(64))).workers == 4
    monkeypatch.setattr(spectral, "_usable_cpus", lambda: 1)
    assert make_wavegrid(64).workers == 1


def test_slabs_cover_the_rows_once_in_the_callers_errstate(monkeypatch):
    g = make_wavegrid(16)
    monkeypatch.setattr(g, "workers", 3)
    seen = []

    def record(x):
        seen.append((x.start, x.stop, np.geterr()["over"], threading.get_ident()))

    with np.errstate(over="ignore"):
        spectral._on_slabs(g, 11, record)
    assert sorted(s[:3] for s in seen) == [(0, 3, "ignore"), (3, 7, "ignore"), (7, 11, "ignore")]
    assert [s[3] for s in seen].count(threading.get_ident()) == 1  # the rest ran on the pool

    ended = []

    def fail_first(x):
        if x.start == 0:
            raise ValueError("slab failed")
        time.sleep(0.05)
        ended.append(x.start)

    with pytest.raises(ValueError, match="slab failed"):
        spectral._on_slabs(g, 11, fail_first)
    assert sorted(ended) == [3, 7]  # the other slabs ended before the error was raised

    seen.clear()
    spectral._on_slabs(g, 2, record)  # more workers than rows: no empty slab
    assert sorted(s[:2] for s in seen) == [(0, 1), (1, 2)]

    monkeypatch.setattr(g, "workers", 1)
    seen.clear()
    spectral._on_slabs(g, 11, record)
    assert [s[:2] for s in seen] == [(None, None)]


def test_concurrent_threaded_runs_match_sequential_runs(monkeypatch):
    # runs on one grid in several threads share the slab pool, with more
    # slabs than cores, and each gets the results it gets alone
    g = make_wavegrid(64)
    monkeypatch.setattr(g, "workers", 3)
    cfgs = [SolverConfig(nu=0.1, dt=1e-3, t_end=2e-3),
            SolverConfig(nu=0.1, dt=1e-2, t_end=2e-3, integrator="if_rk2", cfl=0.01)]
    runs = [(random_divfree_field(g, 20 + i, -2.0, 4.0), cfgs[i % 2]) for i in range(3)]
    forcing = kolmogorov_forcing(g, 5.0)
    want = [simulate(u0, forcing, cfg) for u0, cfg in runs]
    got = [None] * len(runs)

    def run(i):
        got[i] = simulate(runs[i][0], forcing, runs[i][1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for w, r in zip(want, got):
        assert r.trace.to_csv() == w.trace.to_csv()
        assert np.array_equal(r.final_state.coefficients, w.final_state.coefficients)


@pytest.mark.parametrize("workers", [1, 2])
def test_rhs_at_n64_allocates_no_full_grid_array(monkeypatch, workers):
    # the slab threads transform in the caller's workspace: the peak is the
    # band result and the projection's scratch (1.6 to 1.7 band arrays),
    # where one full-grid temporary, even a slab of one, would pass 2
    g = make_wavegrid(64)
    monkeypatch.setattr(g, "workers", workers)
    band = to_band(random_divfree_field(g, 1).coefficients, g)
    stepper = _Stepper(g, ForcingSpec.zero(), SolverConfig(nu=0.1, dt=1e-3, t_end=1.0))
    stepper.step(band, 0.0, 1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stepper.rhs(band, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * band.nbytes, peak / band.nbytes


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_steps_after_a_threaded_run(monkeypatch):
    # the slab pool's threads stay in the parent; a child that found the
    # pool would wait on them forever
    g = make_wavegrid(64)
    monkeypatch.setattr(g, "workers", 2)
    u0 = random_divfree_field(g, 1)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=1e-3)
    want = simulate(u0, ForcingSpec.zero(), cfg).trace.to_csv()
    assert spectral._slab_pool is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:  # the child: one step, then exit without pytest's teardown
        code = 1
        try:
            signal.alarm(120)
            code = 0 if simulate(u0, ForcingSpec.zero(), cfg).trace.to_csv() == want else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in simulate")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0
