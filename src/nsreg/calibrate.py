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

The quadrature samples 12 spectra (3 velocity and 9 gradient components)
on the fine grid of m = oversample * N points per axis.  Of a spectrum's
m^3 zero-padded coefficients only N^3 are nonzero, so its inverse FFT runs
on the lines that can be nonzero, in the axis order x, y, z of the 3-D
transform:

- the x pass runs on the N^2 lines of a compact (m, N, N) spectrum, which
  holds the two x runs of coefficients at their fine-grid positions and
  the y and z axes unpadded;
- the x-planes are then walked in blocks of r, whose buffers take about
  :data:`nsreg.spectral._BLOCK_BYTES`: the y pass runs on the N columns of
  z that hold coefficients, the z pass on all r m lines, and the squared
  samples are added to one real (m, m, m) accumulator.

That is N^2 + m N + m^2 lines per spectrum instead of 3 m^2.  pocketfft's
factor 1/m^3 is applied once, after the x pass, as the 3-D transform
applies it, and the accumulator stays whole (its sums of cubes and of 3/2
powers run over the full grid), so the ratios are bit for bit those of
``ifftn`` over all three axes of the zero-padded spectrum.  A call holds
the accumulator, the compact spectrum and the block buffers, and no
complex m^3 array: at oversample 4 a tracemalloc peak of 3.27 MiB at
N = 16 and 19.0 MiB at N = 32.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import spectral
from .bounds import DEFAULT_C_INTERP, DEFAULT_C_SOBOLEV
from .errors import ConfigurationError
from .spectral import random_divfree_field, sobolev_norm


def _whole(value, what, least):
    """``value`` as an int >= ``least``; an integral float is accepted, a
    bool, a string, a fraction or a non-finite float is not."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            if value >= least:
                return int(value)
    raise ConfigurationError(f"{what} must be an integer >= {least}, got {value!r}")


def _block_planes(m, n):
    """x-planes of a fine-grid block: as many as fit
    :data:`nsreg.spectral._BLOCK_BYTES`, at least 1 and at most ``m``."""
    plane = 16 * m * n + 16 * m * m + 8 * m * m
    return max(1, min(m, spectral._BLOCK_BYTES // plane))


def _new_block(m, n):
    """The buffers of one block of r x-planes: the spectrum after the y
    pass (r, m, n), after the z pass (r, m, m), and its squared samples."""
    r = _block_planes(m, n)
    return (np.empty((r, m, n), dtype=np.complex128),
            np.empty((r, m, m), dtype=np.complex128),
            np.empty((r, m, m)))


def _pad_and_invert(dst, src, axis, factor=None):
    """Write ``src`` (or ``factor * src``) into ``dst`` zero-padded along
    ``axis``, then transform ``dst`` along ``axis`` in place, unnormalized.

    The padding places the wavenumbers 0..n/2-1 at indices 0..n/2-1 and
    -n/2..-1 at m-n/2..m-1, as zero padding in the shifted layout would.
    """
    from scipy.fft import ifftn  # here, not at import: it would take most of nsreg's cold start

    n, m = src.shape[axis], dst.shape[axis]
    h = n // 2  # n is even
    lead = (slice(None),) * axis
    dst[lead + (slice(h, m - h),)] = 0.0
    for s, d in ((slice(0, h), slice(0, h)), (slice(h, n), slice(m - h, m))):
        if factor is None:
            dst[lead + (d,)] = src[lead + (s,)]
        else:
            np.multiply(factor[lead + (s,)], src[lead + (s,)], out=dst[lead + (d,)])
    done = ifftn(dst, axes=(axis,), norm="forward", overwrite_x=True)
    if done.ctypes.data != dst.ctypes.data:  # not in place: numpy would copy even onto itself
        dst[...] = done


def _sum_of_squares(spectra, compact, block, acc):
    """Set ``acc`` to the sum of the squared fine-grid samples of each
    spectrum in ``spectra`` and return it.

    ``spectra`` yields ``(factor, comp_hat)``: the (n, n, n) coefficients
    and ``None`` or an array of that shape to multiply them by.  Each
    spectrum is padded along x into ``compact`` and transformed there, then
    walked in blocks of x-planes in the buffers of ``block``
    (:func:`_new_block`).
    """
    m = compact.shape[0]
    r = block[0].shape[0]
    scale = float(1 / np.longdouble(m) ** 3)  # pocketfft's factor of the 3-D inverse
    acc.fill(0.0)
    for factor, comp_hat in spectra:
        _pad_and_invert(compact, comp_hat, 0, factor)
        compact.view(np.float64)[...] *= scale  # applied in the first pass, as ifftn does
        for lo in range(0, m, r):
            hi = min(m, lo + r)
            cols, planes, samples = (buf[: hi - lo] for buf in block)
            _pad_and_invert(cols, compact[lo:hi], 1)
            _pad_and_invert(planes, cols, 2)
            np.multiply(planes.real, m**3, out=samples)
            np.multiply(samples, samples, out=samples)
            acc[lo:hi] += samples
    return acc


@dataclass(frozen=True)
class EmbeddingRatios:
    l6_over_grad: float
    l3_over_interp: float


def embedding_ratios(u, oversample=4):
    """Both constant ratios for one field, via oversampled quadrature.

    ``oversample`` is an integer >= 2 (an integral float is accepted);
    anything else raises :class:`ConfigurationError`.
    """
    oversample = _whole(oversample, "oversample", 2)
    grad_l2 = sobolev_norm(u, 1)
    lap_l2 = sobolev_norm(u, 2)
    if grad_l2 == 0.0 or lap_l2 == 0.0:
        raise ConfigurationError("embedding ratios are undefined for the zero field")
    grid = u.grid
    n, m = grid.n, oversample * grid.n
    cell = (grid.length / m) ** 3

    # the compact spectrum, one block and the accumulator: |u|^2, reduced,
    # then |grad u|^2 in the same accumulator
    bufs = (np.empty((m, n, n), dtype=np.complex128), _new_block(m, n), np.empty((m, m, m)))
    speed_sq = _sum_of_squares(((None, c) for c in u.coefficients), *bufs)
    l6 = (float(np.power(speed_sq, 3, out=speed_sq).sum()) * cell) ** (1.0 / 6.0)
    ik = [
        np.broadcast_to(1j * k, (n, n, n))
        for k in (grid.kx[:, None, None], grid.kx[None, :, None], grid.kx[None, None, :])
    ]
    gradient = ((ik[i], u.coefficients[j]) for j in range(3) for i in range(3))
    gradmag_sq = _sum_of_squares(gradient, *bufs)
    l3 = (float(np.power(gradmag_sq, 1.5, out=gradmag_sq).sum()) * cell) ** (1.0 / 3.0)
    return EmbeddingRatios(
        l6_over_grad=l6 / grad_l2,
        l3_over_interp=l3 / math.sqrt(grad_l2 * lap_l2),
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
    """Maximize both ratios over ``n_ensemble`` seeded random fields.

    ``n_ensemble`` is an integer >= 1 (an integral float is accepted);
    anything else raises :class:`ConfigurationError`.
    """
    n_ensemble = _whole(n_ensemble, "ensemble size", 1)
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
