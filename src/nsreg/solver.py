"""Time integration of the spectral Navier-Stokes system.

The state advances according to

    d uhat / dt = -nu |k|^2 uhat - Bhat(u, u) + P fhat(t),

with the viscous part integrated exactly through the factor
exp(-nu |k|^2 dt) and the convection/forcing part treated by an explicit
Runge-Kutta scheme (classical RK4 by default, Heun's RK2 as the low-order
option).  The stepper holds the state as a half spectrum and runs the
Runge-Kutta stages on its dealias band (see :mod:`nsreg.spectral`).  Every
accepted step appends L2/H1/H2 norms, the
force inner product, and trapezoidal running integrals to a
:class:`NormTrace`.
"""

import io
import math
import time as _time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.fft import irfftn

from . import _kernels
from .errors import (
    ConfigurationError,
    GridMismatchError,
    InvariantViolationError,
    NumericalBlowupError,
)
from .spectral import (
    SpectralVelocity,
    convection_band,
    from_band,
    from_half,
    shear_field,
    to_band,
    to_half,
)

TRACE_COLUMNS = ("t", "l2_sq", "h1_sq", "h2_sq", "f_dot_u", "int_h1_sq", "int_f_sq", "residual")


@dataclass(frozen=True)
class ForcingSpec:
    """Body force: zero, a steady field in V0, or a time-dependent generator."""

    kind: str
    steady_field: Optional[SpectralVelocity] = None
    generator: Optional[Callable[[float], SpectralVelocity]] = None

    @classmethod
    def zero(cls):
        return cls(kind="zero")

    @classmethod
    def steady(cls, f):
        f.validate()
        return cls(kind="steady", steady_field=f)

    @classmethod
    def time_dependent(cls, generator):
        return cls(kind="time_dependent", generator=generator)

    def at(self, t):
        """Force field at time t, or None for zero forcing."""
        if self.kind == "zero":
            return None
        if self.kind == "steady":
            return self.steady_field
        return self.generator(t)


def kolmogorov_forcing(grid, amplitude=1.0):
    """Steady single-mode forcing amplitude * (sin y, 0, 0)."""
    return ForcingSpec.steady(shear_field(grid, amplitude))


@dataclass(frozen=True)
class SolverConfig:
    nu: float
    dt: float
    t_end: float
    integrator: str = "if_rk4"
    dealias: bool = True
    cfl: Optional[float] = None
    blowup_h1_sq_ceiling: float = 1e12

    def __post_init__(self):
        for what, value in (("viscosity", self.nu), ("time step", self.dt),
                            ("final time", self.t_end)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{what} must be positive and finite, got {value}")
        if self.integrator not in ("if_rk4", "if_rk2"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")
        if self.dealias is not True:
            raise ConfigurationError("dealiasing is mandatory for this solver")
        if self.cfl is not None and not (self.cfl > 0 and math.isfinite(self.cfl)):
            raise ConfigurationError(f"cfl factor must be positive and finite, got {self.cfl}")
        if not math.isfinite(self.blowup_h1_sq_ceiling):
            raise ConfigurationError(
                f"blowup ceiling must be finite, got {self.blowup_h1_sq_ceiling}")


@dataclass(frozen=True)
class NormTrace:
    """Norm time series of one run, immutable after construction.

    ``int_h1_sq`` and ``int_f_sq`` are trapezoidal running integrals of
    ``h1_sq`` and of the squared force norm ``f_sq``.
    """

    t: np.ndarray
    l2_sq: np.ndarray
    h1_sq: np.ndarray
    h2_sq: np.ndarray
    f_dot_u: np.ndarray
    f_sq: np.ndarray
    int_h1_sq: np.ndarray
    int_f_sq: np.ndarray
    nu: float

    def __post_init__(self):
        arrays = (self.t, self.l2_sq, self.h1_sq, self.h2_sq, self.f_dot_u,
                  self.f_sq, self.int_h1_sq, self.int_f_sq)
        n = len(self.t)
        if any(len(a) != n for a in arrays):
            raise GridMismatchError("trace arrays have mismatched lengths")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ConfigurationError("trace has non-finite entries")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise ConfigurationError("trace times must be strictly increasing")
        for name in ("l2_sq", "h1_sq", "h2_sq", "f_sq"):
            if np.any(getattr(self, name) < 0):
                raise ConfigurationError(f"trace column {name} has negative entries")
        for name in ("int_h1_sq", "int_f_sq"):
            vals = getattr(self, name)
            if n > 1 and np.any(np.diff(vals) < -1e-15 * (1 + abs(vals).max())):
                raise ConfigurationError(f"cumulative column {name} must not decrease")
        for a in arrays:
            a.setflags(write=False)

    def __len__(self):
        return len(self.t)

    def to_csv(self, path=None):
        """Serialize with the pinned header; returns the CSV text."""
        residual = energy_balance_residual(self) if len(self) >= 2 else np.zeros(len(self))
        buf = io.StringIO()
        buf.write(",".join(TRACE_COLUMNS) + "\n")
        cols = (self.t, self.l2_sq, self.h1_sq, self.h2_sq, self.f_dot_u,
                self.int_h1_sq, self.int_f_sq, residual)
        for row in zip(*cols):
            buf.write(",".join("%.17g" % v for v in row) + "\n")
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, path, nu):
        """Load a trace written by :meth:`to_csv`.

        The per-sample force norm is reconstructed from the slope of the
        running integral ``int_f_sq``.  A cell that is not a finite
        number, a short row or an empty body raises
        :class:`ConfigurationError`.
        """
        with open(path, errors="replace") as fh:  # undecodable bytes fail as bad cells
            header = fh.readline().strip()
            if header != ",".join(TRACE_COLUMNS):
                raise ConfigurationError(f"{path}: unexpected trace header {header!r}")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)  # loadtxt warns on no data
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except (ValueError, UserWarning) as exc:
                raise ConfigurationError(f"{path}: {exc}") from exc
        if data.shape[1] != len(TRACE_COLUMNS):
            raise ConfigurationError(f"{path}: wrong column count")
        if not np.all(np.isfinite(data)):
            raise ConfigurationError(f"{path}: trace has non-finite entries")
        t = data[:, 0]
        f_sq = np.gradient(data[:, 6], t) if len(t) > 1 else np.zeros_like(t)
        f_sq = np.maximum(f_sq, 0.0)
        return cls(t=t, l2_sq=data[:, 1], h1_sq=data[:, 2], h2_sq=data[:, 3],
                   f_dot_u=data[:, 4], f_sq=f_sq, int_h1_sq=data[:, 5],
                   int_f_sq=data[:, 6], nu=nu)


@dataclass(frozen=True)
class SimulationResult:
    trace: NormTrace
    final_state: SpectralVelocity
    termination: str  # "completed" | "blowup"
    blowup_time: Optional[float]
    blowup_reason: Optional[str]
    wall_time_s: float


class _Stepper:
    """Integrating-factor Runge-Kutta stepper bound to one grid and config.

    States and :meth:`force_spectrum` are half spectra, shape
    (3, N, N, N/2 + 1); the stages, :meth:`rhs` and the projection work on
    the dealias band, shape (3, B, B, kc) (see :func:`spectral.to_band`).
    """

    def __init__(self, grid, forcing, config):
        self.grid = grid
        self.forcing = forcing
        self.config = config
        self._exp_cache = {}
        self._steady = None  # (band, half spectrum) of a steady force, read-only
        if forcing.kind == "steady":
            band = self._force_band(0.0)
            half = from_band(band, grid)
            band.setflags(write=False)
            half.setflags(write=False)
            self._steady = (band, half)

    def _factors(self, dt):
        """exp(-nu |k|^2 dt) on the half spectrum, and on the band for dt and dt/2."""
        cached = self._exp_cache.get(dt)
        if cached is None:
            lam = self.config.nu * self.grid.ksq_half
            e_full = np.exp(-lam * dt)
            e_half = to_band(np.exp(-lam * (0.5 * dt)), self.grid)
            cached = (e_full, to_band(e_full, self.grid), e_half)
            if len(self._exp_cache) > 8:
                self._exp_cache.clear()
            self._exp_cache[dt] = cached
        return cached

    def _project(self, band):
        g = self.grid
        return _kernels.leray_project_modes(band, g.kx_band, g.kx_band, g.kz_band)

    def _force_band(self, t):
        """Band of the force at time t (projected if time-dependent), or None."""
        if self._steady is not None:
            return self._steady[0]
        f = self.forcing.at(t)
        if f is None:
            return None
        if f.grid != self.grid:
            raise GridMismatchError("forcing grid does not match the state grid")
        band = to_band(to_half(f), self.grid)
        if self.forcing.kind == "time_dependent":
            self._project(band)
        return band

    def force_spectrum(self, t):
        """Dealiased half spectrum of the force at time t, or None."""
        if self._steady is not None:
            return self._steady[1]
        band = self._force_band(t)
        return None if band is None else from_band(band, self.grid)

    def rhs(self, band, t):
        """Convection + projected forcing on the band; the stiff viscous part is exact."""
        out = self._project(-convection_band(band, self.grid))
        fband = self._force_band(t)
        if fband is not None:
            out += fband
        return out

    def step(self, coeffs, t, dt):
        """Advance a half spectrum by dt.

        The right-hand side vanishes outside the dealias band, where the
        Runge-Kutta formula reduces to the viscous decay e_full * coeffs;
        the stages run on the band only.
        """
        e_full, b_full, b_half = self._factors(dt)
        c = to_band(coeffs, self.grid)
        if self.config.integrator == "if_rk4":
            n1 = self.rhs(c, t)
            u2 = b_half * (c + (0.5 * dt) * n1)
            n2 = self.rhs(u2, t + 0.5 * dt)
            u3 = b_half * c + (0.5 * dt) * n2
            n3 = self.rhs(u3, t + 0.5 * dt)
            u4 = b_full * c + dt * b_half * n3
            n4 = self.rhs(u4, t + dt)
            new = b_full * c + (dt / 6.0) * (b_full * n1 + 2.0 * b_half * (n2 + n3) + n4)
        else:
            n1 = self.rhs(c, t)
            u2 = b_full * (c + dt * n1)
            n2 = self.rhs(u2, t + dt)
            new = b_full * c + (0.5 * dt) * (b_full * n1 + n2)
        return from_band(new, self.grid, out=e_full * coeffs)

    def cfl_dt(self, coeffs):
        if self.config.cfl is None:
            return self.config.dt
        n = self.grid.n
        u_phys = irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1), norm="forward")
        speed = float(np.abs(u_phys).max())
        if speed == 0.0:
            return self.config.dt
        dx = self.grid.length / self.grid.n
        return min(self.config.dt, self.config.cfl * dx / speed)


def step(u, forcing, t, dt, config):
    """Advance one step of length dt from time t; returns the new state.

    Raises :class:`NumericalBlowupError` (carrying t as the last valid time)
    if the step produces non-finite coefficients.
    """
    if dt <= 0:
        raise ConfigurationError(f"step size must be positive, got {dt}")
    grid = u.grid
    stepper = _Stepper(grid, forcing, config)
    new = stepper.step(to_half(u), t, dt)
    if not np.all(np.isfinite(new)):
        raise NumericalBlowupError(
            f"non-finite coefficients after step from t={t:g}", last_valid_time=t
        )
    return SpectralVelocity(grid, from_half(new, grid))


def _sample(grid, coeffs, fhat):
    """(l2_sq, h1_sq, h2_sq, f_dot_u, f_sq) of a half-spectrum state."""
    vol = grid.volume
    l2_sq, h1_sq, h2_sq = (vol * s for s in
                           _kernels.weighted_spectral_sum(coeffs, grid.norm_weights_half))
    if fhat is None:
        f_dot_u = 0.0
        f_sq = 0.0
    else:
        mult = grid.norm_weights_half[0]
        # elementwise, not np.vdot: a BLAS dot is slow when its threads meet a busy core
        f_dot_u = vol * float((mult * (fhat.real * coeffs.real
                                       + fhat.imag * coeffs.imag)).sum())
        f_sq = vol * _kernels.weighted_spectral_sum(fhat, mult)
    return l2_sq, h1_sq, h2_sq, f_dot_u, f_sq


def _check_invariants(grid, coeffs, t):
    """Raise :class:`InvariantViolationError` unless a half-spectrum state
    has zero mean and is divergence-free."""
    peak = float(np.abs(coeffs).max())
    if peak == 0.0:
        return
    if float(np.abs(coeffs[:, 0, 0, 0]).max()) > 1e-12 * peak:
        raise InvariantViolationError(f"zero-mean invariant violated at t={t:g}")
    div = (
        grid.kx[:, None, None] * coeffs[0]
        + grid.kx[None, :, None] * coeffs[1]
        + grid.kz_half * coeffs[2]
    )
    kmax = grid.scale * grid.n / 2.0 * np.sqrt(3.0)
    if float(np.abs(div).max()) > 1e-10 * peak * kmax:
        raise InvariantViolationError(f"divergence-free invariant violated at t={t:g}")


def simulate(u0, forcing, config):
    """Integrate to ``config.t_end`` (or numerical blowup), tracing norms.

    Blowup is a reported outcome: the result carries the trace up to the
    last finite state and ``termination == "blowup"``.
    """
    u0.validate()
    start = _time.perf_counter()
    grid = u0.grid
    stepper = _Stepper(grid, forcing, config)

    coeffs = np.ascontiguousarray(to_half(u0))
    t = 0.0
    samples = [(t, *_sample(grid, coeffs, stepper.force_spectrum(t)))]

    termination = "completed"
    blowup_time = None
    blowup_reason = None
    t_end = config.t_end
    while t < t_end * (1.0 - 1e-12):
        dt = min(stepper.cfl_dt(coeffs), t_end - t)
        with np.errstate(over="ignore", invalid="ignore"):
            new = stepper.step(coeffs, t, dt)
        t_new = t + dt
        if not np.all(np.isfinite(new)):
            termination = "blowup"
            blowup_time = t
            blowup_reason = "non-finite coefficients"
            break
        _check_invariants(grid, new, t_new)
        fhat = stepper.force_spectrum(t_new)
        sample = _sample(grid, new, fhat)
        if sample[1] > config.blowup_h1_sq_ceiling:  # h1_sq
            termination = "blowup"
            blowup_time = t
            blowup_reason = "h1_sq ceiling exceeded"
            break
        coeffs = new
        t = t_new
        samples.append((t, *sample))

    t, l2_sq, h1_sq, h2_sq, f_dot_u, f_sq = np.array(samples).T

    def running_integral(y):
        return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (y[:-1] + y[1:]))])

    trace = NormTrace(t=t, l2_sq=l2_sq, h1_sq=h1_sq, h2_sq=h2_sq, f_dot_u=f_dot_u,
                      f_sq=f_sq, int_h1_sq=running_integral(h1_sq),
                      int_f_sq=running_integral(f_sq), nu=config.nu)
    return SimulationResult(
        trace=trace,
        final_state=SpectralVelocity(grid, from_half(coeffs, grid)),
        termination=termination,
        blowup_time=blowup_time,
        blowup_reason=blowup_reason,
        wall_time_s=_time.perf_counter() - start,
    )


def energy_balance_residual(trace):
    """Residual of the energy identity along a trace.

    r(t_i) = 0.5 * d/dt l2_sq + nu * h1_sq - (f, u), with centered
    differences on interior samples and one-sided at the ends.  A solver
    that integrates correctly keeps r at the discretization-error level.
    """
    if len(trace) < 2:
        raise GridMismatchError("residual needs at least two trace samples")
    edge = 2 if len(trace) > 2 else 1
    dzdt = np.gradient(trace.l2_sq, trace.t, edge_order=edge)
    return 0.5 * dzdt + trace.nu * trace.h1_sq - trace.f_dot_u
