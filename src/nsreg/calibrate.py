"""Empirical lower bounds for the embedding and interpolation constants.

For a velocity field u the two ratios

    |u|_L6 / |grad u|                 (admissible C_S is at least this)
    |grad u|_L3 / (|grad u|^(1/2) |Lap u|^(1/2))   (same for C_I)

are evaluated by oversampled collocation quadrature and maximized over a
random solenoidal ensemble.  The maxima are lower bounds on any admissible
constants; exceeding the configured defaults signals a mis-calibration.

The L6 integrand of a band-limited field is a trigonometric polynomial, so
any oversampling factor >= 2 integrates it exactly; the L3 integrand has a
fractional power and converges spectrally with the factor (about 1e-6
relative at 4x, 1e-8 at 16x for single-mode fields).
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.fft import ifftn

from .bounds import DEFAULT_C_INTERP, DEFAULT_C_SOBOLEV
from .errors import ConfigurationError
from .spectral import random_divfree_field, sobolev_norm

_AXES = (-3, -2, -1)


def _scatter(buf, comp_hat):
    """Zero the (m, m, m) ``buf`` and write the (n, n, n) ``comp_hat`` into it
    at FFT-layout positions: along each axis the wavenumbers 0..n/2-1 keep
    their indices and -n/2..-1 go to m-n/2..m-1, as zero padding in the
    shifted layout would place them."""
    n, m = comp_hat.shape[-1], buf.shape[-1]
    h = n // 2  # n is even
    blocks = ((slice(0, h), slice(0, h)), (slice(h, n), slice(m - h, m)))
    buf.fill(0.0)
    for (x, mx), (y, my), (z, mz) in itertools.product(blocks, repeat=3):
        buf[mx, my, mz] = comp_hat[x, y, z]


def _sum_of_squares(spectra, spec, samples, acc):
    """Set ``acc`` to the sum of the squared fine-grid samples of each
    spectrum in ``spectra`` and return it.  Each spectrum is scattered and
    transformed in ``spec``; ``samples`` holds its samples."""
    m = spec.shape[-1]
    acc.fill(0.0)
    for comp_hat in spectra:
        _scatter(spec, comp_hat)
        out = ifftn(spec, axes=_AXES, overwrite_x=True)  # in place
        np.multiply(out.real, m**3, out=samples)
        np.multiply(samples, samples, out=samples)
        acc += samples
    return acc


@dataclass(frozen=True)
class EmbeddingRatios:
    l6_over_grad: float
    l3_over_interp: float


def embedding_ratios(u, oversample=4):
    """Both constant ratios for one field, via oversampled quadrature."""
    if oversample < 2 or int(oversample) != oversample:
        raise ConfigurationError("oversample must be an integer >= 2")
    grid = u.grid
    m = int(oversample) * grid.n
    cell = (grid.length / m) ** 3

    # one spectrum, one sample and one accumulator buffer on the fine grid:
    # |u|^2, reduced, then |grad u|^2 in the same accumulator
    bufs = (np.empty((m, m, m), dtype=np.complex128), np.empty((m, m, m)), np.empty((m, m, m)))
    speed_sq = _sum_of_squares(u.coefficients, *bufs)
    l6 = (float(np.power(speed_sq, 3, out=speed_sq).sum()) * cell) ** (1.0 / 6.0)
    ik = (
        1j * grid.kx[:, None, None],
        1j * grid.kx[None, :, None],
        1j * grid.kx[None, None, :],
    )
    gradient = (ik[i] * u.coefficients[j] for j in range(3) for i in range(3))
    gradmag_sq = _sum_of_squares(gradient, *bufs)
    l3 = (float(np.power(gradmag_sq, 1.5, out=gradmag_sq).sum()) * cell) ** (1.0 / 3.0)
    grad_l2 = sobolev_norm(u, 1)
    lap_l2 = sobolev_norm(u, 2)
    if grad_l2 == 0.0 or lap_l2 == 0.0:
        raise ConfigurationError("embedding ratios are undefined for the zero field")
    return EmbeddingRatios(
        l6_over_grad=l6 / grad_l2,
        l3_over_interp=l3 / np.sqrt(grad_l2 * lap_l2),
    )


@dataclass(frozen=True)
class CalibrationResult:
    n_ensemble: int
    max_l6_ratio: float
    argmax_l6_seed: int
    max_l3_ratio: float
    argmax_l3_seed: int
    default_c_sobolev: float
    default_c_interp: float
    warnings: tuple

    def to_json_dict(self):
        return {
            "n_ensemble": self.n_ensemble,
            "empirical_lower_bounds": {
                "c_sobolev": self.max_l6_ratio,
                "c_interp": self.max_l3_ratio,
            },
            "argmax_seeds": {
                "c_sobolev": self.argmax_l6_seed,
                "c_interp": self.argmax_l3_seed,
            },
            "defaults": {
                "c_sobolev": self.default_c_sobolev,
                "c_interp": self.default_c_interp,
            },
            "warnings": list(self.warnings),
        }


def calibrate_constants(grid, n_ensemble, seed=0, energy_spectrum_slope=-2.0,
                        oversample=4, c_sobolev=DEFAULT_C_SOBOLEV,
                        c_interp=DEFAULT_C_INTERP):
    """Maximize both ratios over ``n_ensemble`` seeded random fields."""
    if n_ensemble < 1:
        raise ConfigurationError("ensemble size must be >= 1")
    best_l6 = best_l3 = -np.inf
    seed_l6 = seed_l3 = seed
    for k in range(n_ensemble):
        member_seed = seed + k
        u = random_divfree_field(grid, member_seed, energy_spectrum_slope, 1.0)
        ratios = embedding_ratios(u, oversample=oversample)
        if ratios.l6_over_grad > best_l6:
            best_l6, seed_l6 = ratios.l6_over_grad, member_seed
        if ratios.l3_over_interp > best_l3:
            best_l3, seed_l3 = ratios.l3_over_interp, member_seed
    warnings = []
    if best_l6 > c_sobolev:
        warnings.append(
            f"empirical L6 ratio {best_l6:.6g} exceeds the configured "
            f"embedding constant {c_sobolev:.6g}"
        )
    if best_l3 > c_interp:
        warnings.append(
            f"empirical L3 ratio {best_l3:.6g} exceeds the configured "
            f"interpolation constant {c_interp:.6g}"
        )
    return CalibrationResult(
        n_ensemble=n_ensemble,
        max_l6_ratio=float(best_l6),
        argmax_l6_seed=seed_l6,
        max_l3_ratio=float(best_l3),
        argmax_l3_seed=seed_l3,
        default_c_sobolev=c_sobolev,
        default_c_interp=c_interp,
        warnings=tuple(warnings),
    )
