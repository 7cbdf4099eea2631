"""Time integration of the spectral Navier-Stokes system.

The state advances according to

    d uhat / dt = -nu |k|^2 uhat - Bhat(u, u) + P fhat(t),

with the viscous part integrated exactly through the factor
exp(-nu |k|^2 dt) and the convection/forcing part treated by an explicit
Runge-Kutta scheme (classical RK4 by default, Heun's RK2 as the low-order
option).  A run takes the dealias band (see :mod:`nsreg.spectral`) of a
public field at entry and gives a public field back at exit, and holds
its state on the band in between: stages, samples, invariant checks and
the CFL speed all work there.  A field with content outside the band is
refused.  After each step of a run the state's kz = 0 plane is
replaced by its Hermitian part, as :func:`spectral.from_band` does for
:func:`step`, so the plane is Hermitian by construction and a run is a
loop of :func:`step` bit for bit.  Every accepted step appends L2/H1/H2
norms, the force inner product, and trapezoidal running integrals to a
:class:`NormTrace`.
"""

import io
import math
import sys
import time as _time
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import (
    ConfigurationError,
    GridMismatchError,
    InvariantViolationError,
    NumericalBlowupError,
)
from .spectral import (
    SpectralVelocity,
    _on_slabs,
    flux_contraction,
    from_band,
    hermitian_plane,
    shear_field,
    to_band,
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
    cfl: Optional[float] = None
    blowup_h1_sq_ceiling: float = 1e12

    def __post_init__(self):
        for what, value in (("viscosity", self.nu), ("time step", self.dt),
                            ("final time", self.t_end)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{what} must be positive and finite, got {value}")
        if self.integrator not in ("if_rk4", "if_rk2"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")
        if self.cfl is not None and not (self.cfl > 0 and math.isfinite(self.cfl)):
            raise ConfigurationError(f"cfl factor must be positive and finite, got {self.cfl}")
        if not (self.blowup_h1_sq_ceiling > 0 and math.isfinite(self.blowup_h1_sq_ceiling)):
            raise ConfigurationError(
                f"blowup ceiling must be positive and finite, got {self.blowup_h1_sq_ceiling}")


@dataclass(frozen=True)
class NormTrace:
    """Norm time series of one run, immutable after construction; its
    fields are the columns of ``trace.csv`` but the derived ``residual``.

    ``int_h1_sq`` and ``int_f_sq`` are trapezoidal running integrals of
    ``h1_sq`` and of the squared force norm :attr:`f_sq`, read off ``int_f_sq``.
    """

    t: np.ndarray
    l2_sq: np.ndarray
    h1_sq: np.ndarray
    h2_sq: np.ndarray
    f_dot_u: np.ndarray
    int_h1_sq: np.ndarray
    int_f_sq: np.ndarray
    nu: float

    def __post_init__(self):
        arrays = (self.t, self.l2_sq, self.h1_sq, self.h2_sq, self.f_dot_u,
                  self.int_h1_sq, self.int_f_sq)
        n = len(self.t)
        if any(len(a) != n for a in arrays):
            raise GridMismatchError("trace arrays have mismatched lengths")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ConfigurationError("trace has non-finite entries")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise ConfigurationError("trace times must be strictly increasing")
        for name in ("l2_sq", "h1_sq", "h2_sq"):
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

    @property
    def f_sq(self):
        """Squared force norm per sample: the slope of ``int_f_sq``, clipped at 0."""
        if len(self) < 2:
            return np.zeros_like(self.t)
        return np.maximum(np.gradient(self.int_f_sq, self.t), 0.0)

    def to_csv(self, path=None):
        """Serialize with the pinned header; returns the CSV text."""
        residual = energy_balance_residual(self) if len(self) >= 2 else np.zeros(len(self))
        columns = np.column_stack((self.t, self.l2_sq, self.h1_sq, self.h2_sq, self.f_dot_u,
                                   self.int_h1_sq, self.int_f_sq, residual))
        buf = io.StringIO()
        np.savetxt(buf, columns, fmt="%.17g", delimiter=",", header=",".join(TRACE_COLUMNS),
                   comments="")
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, path, nu):
        """Load a trace written by :meth:`to_csv`.

        A cell that is not a finite number, a short row or an empty body
        raises :class:`ConfigurationError`.
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
        columns = dict(zip(TRACE_COLUMNS, data.T))
        del columns["residual"]  # derived on writing
        return cls(**columns, nu=nu)


class SimulationResult:
    """Outcome of one run: its norm trace, how it ended (``termination`` is
    "completed" or "blowup") and its final state.

    ``final_state`` is the public field at the last accepted time.  A
    caller may pass it in.  :func:`simulate` passes ``band_state`` instead,
    the pair (grid, band) of the last state: the field is built from it on
    first read and cached, so a run whose caller reads only the trace
    never allocates it, and every read returns the same object.
    """

    def __init__(self, trace, final_state, termination, blowup_time, blowup_reason,
                 wall_time_s, *, band_state=None):
        if (final_state is None) == (band_state is None):
            raise TypeError("give exactly one of final_state and band_state")
        self.trace = trace
        self.termination = termination
        self.blowup_time = blowup_time
        self.blowup_reason = blowup_reason
        self.wall_time_s = wall_time_s
        self._band_state = band_state
        if final_state is not None:
            self._final_state = final_state

    @property
    def final_state(self):
        field = self.__dict__.get("_final_state")
        if field is None:
            # setdefault is atomic: threads racing to build it all get the first one stored
            grid, band = self._band_state
            field = self.__dict__.setdefault("_final_state",
                                             SpectralVelocity(grid, from_band(band, grid)))
        return field


class _Stepper:
    """Integrating-factor Runge-Kutta stepper bound to one grid and config.

    States, stages, :meth:`rhs`, :meth:`force_band` and the projection all
    work on the dealias band, shape (3, B, B, kc) (see
    :func:`spectral.to_band`).
    """

    def __init__(self, grid, forcing, config):
        self.grid = grid
        self.forcing = forcing
        self.config = config
        self._lam = config.nu * grid.laplace_band
        self._last_factors = (None, None)  # (dt, factors) of the last step
        self._steady = None  # band of a steady force, read-only
        if forcing.kind == "steady":
            self._steady = self.force_band(0.0)
            self._steady.setflags(write=False)

    def _factors(self, dt):
        """exp(-nu |k|^2 dt) and exp(-nu |k|^2 dt / 2) on the band."""
        last_dt, factors = self._last_factors
        if last_dt != dt:
            factors = (np.exp(-self._lam * dt), np.exp(-self._lam * (0.5 * dt)))
            self._last_factors = (dt, factors)
        return factors

    def _project(self, band):
        """Leray-project a band in place, on x-slabs (:func:`spectral._on_slabs`)."""
        g = self.grid
        _on_slabs(g, len(g.kx_band), lambda x: _kernels.leray_project_modes(
            band[:, x], g.kx_band[x], g.kx_band, g.kz_band, g.ksq_band[x]))

    def force_band(self, t):
        """Band of the force at time t (projected if time-dependent), or None."""
        if self._steady is not None:
            return self._steady
        f = self.forcing.at(t)
        if f is None:
            return None
        if f.grid != self.grid:
            raise GridMismatchError("forcing grid does not match the state grid")
        band = to_band(f.coefficients, self.grid)
        if self.forcing.kind == "time_dependent":
            self._project(band)
        return band

    def rhs(self, band, t, speed=False):
        """Convection + projected forcing on the band; the stiff viscous part is exact.

        With ``speed``, returns ``(rhs, max |u|)``: the largest velocity
        component on the collocation grid, read off the transform the
        convection needs anyway.
        """
        if speed:
            out, top = flux_contraction(band, self.grid, speed=True)
        else:
            out = flux_contraction(band, self.grid)
        # -P[i k_i F_ij] = -i P[k_i F_ij]: P and -i act componentwise with
        # real k, so the factor goes on once, after the projection, which
        # also removes the flux's gradient part
        self._project(out)
        out *= -1j
        fband = self.force_band(t)
        if fband is not None:
            out += fband
        return (out, top) if speed else out

    def step(self, c, t, dt):
        """Advance a band state from t by at most dt; returns (new state, step).

        With ``config.cfl`` the step is cut to cfl * dx / max |u|, the speed
        of the band velocity, which is all the explicit convection sees.
        Stage 1 does not depend on dt, so its transform gives the speed.
        """
        if self.config.cfl is None:
            n1 = self.rhs(c, t)
        else:
            n1, speed = self.rhs(c, t, speed=True)
            if speed > 0.0:
                dx = self.grid.length / self.grid.n
                dt = min(dt, self.config.cfl * dx / speed)
        b_full, b_half = self._factors(dt)
        if self.config.integrator == "if_rk4":
            # each stage is dropped once used; b_full n1 + 2 b_half (n2 + n3)
            # is formed before u4, in the order of the RK4 combine, so stage 4
            # starts with one band array fewer alive
            u2 = b_half * (c + (0.5 * dt) * n1)
            n2 = self.rhs(u2, t + 0.5 * dt)
            del u2
            u3 = b_half * c + (0.5 * dt) * n2
            n3 = self.rhs(u3, t + 0.5 * dt)
            del u3
            acc = b_full * n1
            del n1
            n2 += n3
            acc += 2.0 * b_half * n2
            del n2
            decayed = b_full * c
            u4 = decayed + dt * b_half * n3
            del n3
            n4 = self.rhs(u4, t + dt)
            del u4
            acc += n4
            new = decayed + (dt / 6.0) * acc
        else:
            u2 = b_full * (c + dt * n1)
            n2 = self.rhs(u2, t + dt)
            del u2
            n2 += b_full * n1  # the sum b_full n1 + n2, bit for bit, in n2's buffer
            del n1
            new = b_full * c + (0.5 * dt) * n2
        return new, dt


def _band(u):
    """Dealias band of a field, or :class:`ConfigurationError` if the field
    has content outside the band."""
    band = to_band(u.coefficients, u.grid)
    half = u.coefficients[..., : u.grid.n // 2 + 1]  # kz >= 0: a view, not a copy
    if np.count_nonzero(half) != np.count_nonzero(band):
        raise ConfigurationError(
            "field has content outside the dealias band; truncate it with "
            "u.copy_with(u.coefficients * grid.dealias_mask)")
    return band


def step(u, forcing, t, dt, config):
    """Advance one step of length dt from time t; returns the new state.

    ``config.cfl`` is not applied: the step is exactly dt.  A state with
    content outside the dealias band raises :class:`ConfigurationError`.
    The new state passes the checks of :func:`simulate`: non-finite
    coefficients raise :class:`NumericalBlowupError` (carrying t as the
    last valid time), a lost invariant :class:`InvariantViolationError`.
    """
    if dt <= 0:
        raise ConfigurationError(f"step size must be positive, got {dt}")
    grid = u.grid
    stepper = _Stepper(grid, forcing, replace(config, cfl=None))
    new, _ = stepper.step(_band(u), t, dt)
    if not _check_invariants(grid, new, t + dt):
        raise NumericalBlowupError(
            f"non-finite coefficients after step from t={t:g}", last_valid_time=t
        )
    return SpectralVelocity(grid, from_band(new, grid))


def _sample(grid, band, fband, f_sq=None):
    """(l2_sq, h1_sq, h2_sq, f_dot_u, f_sq) of a band state and the band of
    the force (None for zero forcing); ``f_sq`` is computed unless given."""
    vol = grid.volume
    l2_sq, h1_sq, h2_sq = (vol * s for s in
                           _kernels.weighted_spectral_sum(band, grid.norm_weights_band))
    if fband is None:
        return l2_sq, h1_sq, h2_sq, 0.0, 0.0
    mult = grid.norm_weights_band[0]
    # elementwise, not np.vdot: a BLAS dot is slow when its threads meet a busy core
    f_dot_u = vol * float((mult * (fband.real * band.real + fband.imag * band.imag)).sum())
    if f_sq is None:
        f_sq = vol * _kernels.weighted_spectral_sum(fband, mult)
    return l2_sq, h1_sq, h2_sq, f_dot_u, f_sq


def _check_invariants(grid, band, t):
    """Whether a band state is finite; a finite one must have zero mean and
    be divergence-free, else :class:`InvariantViolationError` is raised."""
    with np.errstate(over="ignore"):  # |c| of finite parts may overflow
        peak = float(np.abs(band).max())
    if not math.isfinite(peak):
        return False
    if peak == 0.0:
        return True
    if float(np.abs(band[:, 0, 0, 0]).max()) > 1e-12 * peak:
        raise InvariantViolationError(f"zero-mean invariant violated at t={t:g}")
    div, _ = _kernels.divergence(band, grid.kx_band, grid.kx_band, grid.kz_band)
    kmax = grid.scale * grid.n / 2.0 * np.sqrt(3.0)
    if float(np.abs(div).max()) > 1e-10 * peak * kmax:
        raise InvariantViolationError(f"divergence-free invariant violated at t={t:g}")
    return True


def simulate(u0, forcing, config):
    """Integrate to ``config.t_end`` (or numerical blowup), tracing norms.

    Blowup is a reported outcome: the result carries the trace up to the
    last finite state and ``termination == "blowup"``.  An initial field
    with content outside the dealias band, or a nonzero one whose squared
    norms overflow or underflow, raises :class:`ConfigurationError`.
    """
    u0.validate()
    start = _time.perf_counter()
    grid = u0.grid
    stepper = _Stepper(grid, forcing, config)
    c = _band(u0)

    def sample(c, t, f_sq=None):
        return (t,) + _sample(grid, c, stepper.force_band(t), f_sq)

    t = 0.0
    with np.errstate(over="ignore"):
        samples = [sample(c, t)]
    names = ("l2_sq", "h1_sq", "h2_sq", "f_dot_u", "f_sq")
    bad = [f"{k}={v}" for k, v in zip(names, samples[0][1:]) if not math.isfinite(v)]
    if bad:  # a finite field whose |uhat|^2 sums overflow
        raise ConfigurationError("initial field has overflowing squared norms: " + ", ".join(bad))
    tiny = [f"{k}={v}" for k, v in zip(names, samples[0][1:4]) if v < sys.float_info.min]
    if tiny and np.any(c):  # a nonzero field whose |uhat|^2 sums underflow
        raise ConfigurationError(
            "initial field has underflowing squared norms: " + ", ".join(tiny))
    steady_f_sq = samples[0][-1] if forcing.kind == "steady" else None

    termination = "completed"
    blowup_time = None
    blowup_reason = None
    t_end = config.t_end
    while t < t_end * (1.0 - 1e-12):
        with np.errstate(over="ignore", invalid="ignore"):
            new, dt = stepper.step(c, t, min(config.dt, t_end - t))
            # as step() does through from_band, so a run is a loop of step() bit for bit
            new[..., 0] = hermitian_plane(new)
        t_new = t + dt
        if not _check_invariants(grid, new, t_new):
            termination = "blowup"
            blowup_time = t
            blowup_reason = "non-finite coefficients"
            break
        row = sample(new, t_new, steady_f_sq)
        if row[2] > config.blowup_h1_sq_ceiling:  # h1_sq
            termination = "blowup"
            blowup_time = t
            blowup_reason = "h1_sq ceiling exceeded"
            break
        c = new
        t = t_new
        samples.append(row)

    t, l2_sq, h1_sq, h2_sq, f_dot_u, f_sq = np.array(samples).T

    def running_integral(y):
        return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (y[:-1] + y[1:]))])

    trace = NormTrace(t=t, l2_sq=l2_sq, h1_sq=h1_sq, h2_sq=h2_sq, f_dot_u=f_dot_u,
                      int_h1_sq=running_integral(h1_sq),
                      int_f_sq=running_integral(f_sq), nu=config.nu)
    return SimulationResult(
        trace=trace,
        final_state=None,
        band_state=(grid, c),  # the final state, built when read
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
