"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own helpers: fine-grid
evaluation is done with plain numpy FFT padding so it stays an
independent check of the dealiased collocation path, and the comparison
ODEs of the bounds are integrated with ``scipy.integrate``, which the
package itself never loads.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from nsreg import ConfigurationError, make_wavegrid, random_divfree_field


@pytest.fixture(scope="session")
def grid8():
    return make_wavegrid(8)


@pytest.fixture(scope="session")
def grid16():
    return make_wavegrid(16)


@pytest.fixture(scope="session")
def rand_field(grid16):
    def factory(seed, amplitude=1.0, slope=-2.0, grid=grid16):
        return random_divfree_field(grid, seed, slope, amplitude)

    return factory


def pad_component(comp_hat, n, m):
    """Evaluate one spectral component on an m^3 grid (numpy only)."""
    padded = np.zeros((m, m, m), dtype=np.complex128)
    lo = (m - n) // 2
    shifted = np.fft.fftshift(comp_hat)
    padded[lo : lo + n, lo : lo + n, lo : lo + n] = shifted
    padded = np.fft.ifftshift(padded)
    return np.real(np.fft.ifftn(padded) * m**3)


def fine_quadrature_b(u, v, w, factor=4):
    """Trilinear form by direct quadrature on a factor-times-finer grid.

    Exact for band-limited fields because the finer grid resolves every
    mode of the triple-product integrand.
    """
    grid = u.grid
    n, m = grid.n, factor * grid.n
    axes_k = (
        grid.kx[:, None, None],
        grid.kx[None, :, None],
        grid.kx[None, None, :],
    )
    total = 0.0
    for j in range(3):
        wj = pad_component(w.coefficients[j], n, m)
        for i in range(3):
            ui = pad_component(u.coefficients[i], n, m)
            dv = pad_component(1j * axes_k[i] * v.coefficients[j], n, m)
            total += float((ui * dv * wj).sum())
    return total * (grid.length / m) ** 3


def physical_l2_sq(u, factor=2):
    """Quadrature of integral |u|^2 dx on a finer grid (Parseval oracle)."""
    grid = u.grid
    n, m = grid.n, factor * grid.n
    acc = 0.0
    for j in range(3):
        comp = pad_component(u.coefficients[j], n, m)
        acc += float((comp * comp).sum())
    return acc * (grid.length / m) ** 3


@dataclass(frozen=True)
class OdeOracle:
    """Trajectory and blow-up time of a scalar comparison ODE."""

    t: np.ndarray
    y: np.ndarray
    blowup_time: Optional[float]


def _ode_rhs(variant, alpha, beta):
    if variant == "cubic":
        return lambda y: alpha + beta * y**3
    if variant == "arctan_form":
        return lambda y: alpha + beta * y * (1.0 + y**2)
    if variant == "square":
        return lambda y: alpha + beta * y**2
    raise ConfigurationError(f"unknown ODE variant {variant!r}")


def ode_comparison_oracle(alpha, beta, y0, t_end, variant="cubic"):
    """Independent high-accuracy integration of y' = alpha + beta y^3.

    Variants: ``cubic`` (alpha + beta y^3), ``arctan_form``
    (alpha + beta y (1 + y^2)), ``square`` (alpha + beta y^2).  The blow-up
    time is located by integrating to a large switch level and adding the
    remaining time as the convergent integral of dt/dy = 1/rhs, which keeps
    the relative error well below 1e-6.
    """
    if alpha < 0 or y0 < 0:
        raise ConfigurationError("alpha and y0 must be non-negative")
    if not beta > 0:
        raise ConfigurationError("beta must be positive")
    rhs = _ode_rhs(variant, alpha, beta)

    if alpha == 0.0 and y0 == 0.0:
        ts = np.linspace(0.0, t_end, 2000)
        return OdeOracle(t=ts, y=np.zeros_like(ts), blowup_time=None)

    y_switch = max(1e8, 1e4 * (1.0 + y0), (alpha / beta) ** (1.0 / 3.0) * 10.0)
    # upper bound for the blow-up time, used to cap the ODE time span
    t_star_est = quad(lambda y: 1.0 / rhs(y), y0, np.inf, limit=200)[0]

    def f(_t, y):
        return [rhs(y[0])]

    def hit_switch(_t, y):
        return y[0] - y_switch

    hit_switch.terminal = True
    hit_switch.direction = 1.0

    span_end = min(t_end, t_star_est) if math.isfinite(t_end) else t_star_est
    span_end = max(span_end, 1e-30)
    sol = solve_ivp(f, (0.0, span_end), [y0], method="RK45", rtol=1e-11,
                    atol=1e-14, dense_output=True, events=hit_switch,
                    max_step=span_end)
    if sol.t_events[0].size:
        t_reach = float(sol.t_events[0][0])
        tail = quad(lambda y: 1.0 / rhs(y), y_switch, np.inf, limit=200)[0]
        blowup_time = t_reach + tail
        t_hi = min(t_end, t_reach)
    else:
        blowup_time = t_star_est
        t_hi = min(t_end, float(sol.t[-1]))
    ts = np.linspace(0.0, t_hi, 2000)
    ys = sol.sol(ts)[0]
    return OdeOracle(t=ts, y=ys, blowup_time=float(blowup_time))
