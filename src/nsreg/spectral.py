"""Divergence-free periodic vector fields in Fourier space.

Fields live on the torus [0, L]^3 sampled on N^3 collocation points.  The
stored coefficients follow the convention

    u(x) = sum_k uhat(k) * exp(i * (2*pi/L) * k . x),

i.e. ``uhat = fftn(u_phys) / N**3`` in numpy's FFT layout, so the integer
wavenumbers per axis run over [-N/2, N/2).  With this normalization
Parseval reads  integral |u|^2 dx = L^3 * sum_k |uhat(k)|^2.

Quadratic products are dealiased with the 2/3 rule: only modes with
|k_int| < N/3 on every axis are retained, which makes products of retained
modes alias-free on the N^3 grid and makes the collocation quadrature of
triple products exact.

There are two layouts.  Public fields hold the full layout above.  The
time stepper holds its state on the dealias band, shape (3, B, B, kc) with
B = 2 kc - 1: the retained modes with kz >= 0, which stand for a real
field because its modes with kz < 0 are the conjugates of those at -k.
:func:`to_band` and :func:`from_band` convert between the two, and
:func:`band_to_physical` and :func:`physical_to_band` transform the band
in two FFT calls each, with the x-y passes restricted to the kz planes
that the 2/3 rule keeps.  The fused 2-D x-y passes run on ``scipy.fft``.
The z passes run on ``numpy.fft``, whose r2c and c2r transforms take
``out=``, so the stepper writes them into the grid's transform workspace
(:meth:`WaveGrid.take_workspace`); both libraries run the same pocketfft
kernels, and the z passes are bit for bit those of ``scipy.fft``.
"""

import json
import math
import struct
import threading
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
from numpy.fft import irfftn, rfftn
from scipy.fft import fftn, ifftn

from . import _kernels
from .errors import ConfigurationError, GridMismatchError

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"NSRC1"
_SNAPSHOT_HEADER = struct.Struct("<5sIdI")


class WaveGrid:
    """Fourier lattice of an N^3 periodic grid with period ``length``.

    Integer wavenumbers per axis are a bijection with [-N/2, N/2); physical
    wavevectors are scaled by 2*pi/length.  The grid also lends the
    transform workspace of the stepper (:meth:`take_workspace`).
    """

    def __init__(self, n, length=TWO_PI):
        if not isinstance(n, (int, np.integer)):
            raise ConfigurationError(f"grid resolution must be an integer, got {n!r}")
        if n < 4 or n % 2 != 0:
            raise ConfigurationError(f"grid resolution must be even and >= 4, got {n}")
        if not (length > 0.0 and np.isfinite(length)):
            raise ConfigurationError(f"domain period must be positive, got {length}")
        self.n = int(n)
        self.length = float(length)
        self.scale = TWO_PI / self.length

        k_int = np.fft.fftfreq(self.n, 1.0 / self.n)  # 0, 1, ..., -N/2, ..., -1
        self.k_int = k_int
        cutoff = self.n / 3.0
        keep = np.abs(k_int) < cutoff
        # Dealias band: per axis the indices of 0, ..., kc - 1 and
        # -(kc - 1), ..., -1, i.e. the FFT layout of an odd grid of size
        # B = 2 kc - 1, and kz = 0, ..., kc - 1.
        self.band_index = np.flatnonzero(keep)
        self.kc = (len(self.band_index) + 1) // 2

        with np.errstate(over="ignore", under="ignore"):
            volume = np.float64(self.length) ** 3
            h2_weight = (3.0 * (np.float64(self.scale) * (self.kc - 1)) ** 2) ** 2
        for what, value in (("volume", volume), ("largest |k|^4", h2_weight)):
            if not (value > 0.0 and np.isfinite(value)):
                raise ConfigurationError(
                    f"domain period {length} gives a {what} of {value}, "
                    "not finite and positive")

        self.kx = self.scale * k_int
        gx = k_int[:, None, None]
        gy = k_int[None, :, None]
        gz = k_int[None, None, :]
        self.ksq_int = gx * gx + gy * gy + gz * gz
        self.ksq = self.scale**2 * self.ksq_int

        self.dealias_mask = (
            keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
        )
        assert (2 * self.kc - 1) ** 3 == self.dealias_mask.sum()
        self.kx_band = self.kx[self.band_index]
        self.kz_band = self.kx[: self.kc]
        # |k|^2 on the band as the Leray projection forms it, with 1 at the
        # origin so that it divides (the mean mode has no gradient part)
        bx, by = self.kx_band[:, None, None], self.kx_band[None, :, None]
        self.ksq_band = bx * bx + by * by + self.kz_band * self.kz_band
        self.ksq_band[0, 0, 0] = 1.0
        # multiplicity * |k|^(2m), m = 0, 1, 2, on the band: weights of the
        # squared norms.  A band mode with kz > 0 stands for itself and its
        # conjugate at -k, so the multiplicity is 1 at kz = 0 and 2 elsewhere.
        ksq_band = to_band(self.ksq, self)
        multiplicity = np.full(self.kc, 2.0)
        multiplicity[0] = 1.0
        self.norm_weights_band = multiplicity * np.stack(
            [np.ones_like(ksq_band), ksq_band, ksq_band**2]
        )

        for arr in (self.k_int, self.kx, self.ksq_int, self.ksq, self.dealias_mask,
                    self.band_index, self.kx_band, self.kz_band, self.ksq_band,
                    self.norm_weights_band):
            arr.setflags(write=False)

        self._idle_workspace = None  # made on first use, kept while the grid lives
        self._workspace_lock = threading.Lock()

    def take_workspace(self):
        """Borrow the arrays of the convection transforms, views on two byte
        buffers X and Y: ``(spread, u, flux, spec, fband)``.  Hand them back
        with :meth:`give_back_workspace`.

        X holds ``spread``, the zero-padded half spectrum of the velocity,
        then ``flux``, Basdevant's five-component flux, then ``fband``, the
        band of its spectrum; Y holds ``u``, the velocity samples, then
        ``spec``, the flux's z spectrum (see :func:`flux_contraction`).
        Each array is dead before the next one on its buffer is written.
        The buffers are made on first use and kept for the next caller, so
        a time step allocates no full-grid array.  A caller that finds them
        lent (to another thread, or further up its own stack) gets new
        buffers.  Contents are undefined.
        """
        with self._workspace_lock:
            work, self._idle_workspace = self._idle_workspace, None
        return self._new_workspace() if work is None else work

    def give_back_workspace(self, work):
        """Keep ``work`` for the next caller, unless another one is kept."""
        with self._workspace_lock:
            if self._idle_workspace is None:
                self._idle_workspace = work

    def _new_workspace(self):
        n, half, kc = self.n, self.n // 2 + 1, self.kc
        b = 2 * kc - 1

        def views(*layouts):
            size = [math.prod(shape) * np.dtype(dtype).itemsize for dtype, shape in layouts]
            buf = np.empty(max(size), dtype=np.uint8)
            return [buf[:k].view(dtype).reshape(shape) for k, (dtype, shape) in zip(size, layouts)]

        spread, flux, fband = views((np.complex128, (3, n, n, half)), (np.float64, (5, n, n, n)),
                                    (np.complex128, (5, b, b, kc)))
        u, spec = views((np.float64, (3, n, n, n)), (np.complex128, (5, n, n, half)))
        return spread, u, flux, spec, fband

    @property
    def lam1(self):
        """Smallest positive eigenvalue of -Laplace on zero-mean fields."""
        return poincare_constant(self.length)

    @property
    def volume(self):
        return self.length**3

    @property
    def cell_volume(self):
        return (self.length / self.n) ** 3

    @property
    def n_modes(self):
        return self.n**3

    def __eq__(self, other):
        return (
            isinstance(other, WaveGrid)
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    def __reduce__(self):  # the tables and the workspace are rebuilt, not pickled
        return WaveGrid, (self.n, self.length)

    def __repr__(self):
        return f"WaveGrid(n={self.n}, length={self.length!r})"


def poincare_constant(length):
    """(2*pi/length)^2: the smallest positive eigenvalue of -Laplace on
    zero-mean fields of period ``length``, which must be positive and finite."""
    if not (length > 0.0 and np.isfinite(length)):
        raise ConfigurationError(f"domain period must be positive, got {length}")
    return (TWO_PI / length) ** 2


def make_wavegrid(n, length=TWO_PI):
    """Build a :class:`WaveGrid`; rejects odd or too-small resolutions."""
    return WaveGrid(n, length)


@dataclass(frozen=True)
class SpectralVelocity:
    """Divergence-free, zero-mean velocity field given by Fourier coefficients.

    ``coefficients`` has shape (3, N, N, N), complex128, in numpy FFT layout.
    Instances are treated as immutable; the array is marked read-only.
    """

    grid: WaveGrid
    coefficients: np.ndarray

    def __post_init__(self):
        c = self.coefficients
        n = self.grid.n
        if c.shape != (3, n, n, n):
            raise GridMismatchError(
                f"coefficients shape {c.shape} does not match grid n={n}"
            )
        if c.dtype != np.complex128:
            raise GridMismatchError(f"coefficients must be complex128, got {c.dtype}")
        c.setflags(write=False)

    def validate(self):
        """Raise ``ValueError`` unless all field invariants hold.

        Checks finite coefficients, zero mean, Hermitian symmetry to
        1e-12 max |uhat|, and max_k |k . uhat(k)| <= 1e-12 max |uhat| max_k |k|.
        """
        c = self.coefficients
        # one component at a time, without a temporary of all three; np.max,
        # unlike the builtin max, keeps a NaN of any component
        peak = float(np.max([np.abs(comp).max() for comp in c]))
        if not np.isfinite(peak):
            raise ValueError("field has non-finite coefficients")
        if peak == 0.0:
            return self
        if max(hermitian_defect(comp) for comp in c) > 1e-12 * peak:
            raise ValueError("field is not Hermitian-symmetric (complex physical part)")
        if float(np.abs(c[:, 0, 0, 0]).max()) > 1e-13 * peak:
            raise ValueError("field has a nonzero mean mode")
        g = self.grid
        worst = _worst_divergence(c, g.kx, g.kx)
        if worst > _divergence_tolerance(g, peak):
            raise ValueError(f"field is not divergence-free: max |k.uhat| = {worst:g}")
        return self

    def copy_with(self, coefficients):
        return SpectralVelocity(self.grid, np.ascontiguousarray(coefficients))


def _worst_divergence(c, kxy, kz):
    """max_k |k . c(k)| of (3, ...) coefficients, with wavenumbers ``kxy``
    along x and y and ``kz`` along z, as a float.

    :func:`_kernels.divergence` runs on blocks of x-planes, so every mode's
    value is the unblocked one bit for bit without two temporaries of a
    whole component; ``np.max`` folds the block maxima and keeps a NaN.
    """
    nx = c.shape[-3]
    size = max(1, nx // 8)
    return float(np.max([
        np.abs(_kernels.divergence(c[:, i:i + size], kxy[i:i + size], kxy, kz)[0]).max()
        for i in range(0, nx, size)]))


def _divergence_tolerance(grid, peak):
    """Largest max |k . uhat| :meth:`SpectralVelocity.validate` accepts for
    a field of largest coefficient modulus ``peak``."""
    return 1e-12 * peak * float(np.sqrt(grid.ksq.max()))


def hermitian_adjoint(arr):
    """conj(arr) evaluated at -k, in the same FFT layout."""
    rev = np.conj(arr[..., ::-1, ::-1, ::-1])
    return np.roll(rev, 1, axis=(-3, -2, -1))


def hermitian_defect(arr):
    """max_k |arr(k) - conj(arr(-k))| over the last three axes (each of
    length N, FFT layout), as a float.

    Equal to ``np.abs(arr - hermitian_adjoint(arr)).max()`` without the
    reversed and rolled copies of the whole field, over half the modes:
    the defect at -k is minus the conjugate of the one at k,
    so its modulus is the same in IEEE arithmetic, and the half kz >= 0
    holds the maximum.  Along x and y index 0 pairs with itself and
    1, ..., N-1 with N-1, ..., 1; along z, 1, ..., N/2 pairs with
    N-1, ..., N/2.  The 8 block pairs are views.  A NaN coefficient gives
    NaN: the block maxima are folded with ``np.max``, which keeps it.
    """
    n = arr.shape[-1]
    xy = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    z = ((slice(0, 1), slice(0, 1)), (slice(1, n // 2 + 1), slice(n - 1, n // 2 - 1, -1)))
    block_maxima = [
        np.abs(arr[..., x, y, kz] - np.conj(arr[..., mx, my, mz])).max()
        for x, mx in xy
        for y, my in xy
        for kz, mz in z
    ]
    return float(np.max(block_maxima))


def to_physical(u):
    """Collocation samples, a (3, N, N, N) float64 array (imaginary part discarded)."""
    samples = np.real(ifftn(u.coefficients, axes=(-3, -2, -1)) * u.grid.n_modes)
    return np.ascontiguousarray(samples)


def from_physical(grid, samples):
    """Raw (unprojected) spectral coefficients of real collocation samples."""
    if samples.shape != (3, grid.n, grid.n, grid.n):
        raise GridMismatchError("sample array does not match the grid")
    return np.ascontiguousarray(fftn(samples, axes=(-3, -2, -1)) / grid.n_modes)


def leray_project(u):
    """Project a field onto divergence-free modes, modewise
    uhat <- uhat - k (k . uhat) / |k|^2 and uhat(0) <- 0.  Idempotent."""
    out = np.array(u.coefficients, copy=True)
    _kernels.leray_project_modes(out, u.grid.kx, u.grid.kx, u.grid.kx)
    return SpectralVelocity(u.grid, out)


def sobolev_norm(u, m):
    """Homogeneous Sobolev (semi)norm (L^3 * sum_k |k|^(2m) |uhat|^2)^(1/2).

    m=0 is the L2 norm, m=1 the gradient norm, m=2 the Laplacian norm; any
    m >= 0 is accepted.  Matches physical-space integrals by Parseval.
    """
    if m < 0:
        raise ValueError(f"norm order must be >= 0, got {m}")
    total = _kernels.weighted_spectral_sum(u.coefficients, u.grid.ksq**m)
    return float(np.sqrt(u.grid.volume * total))


def inner_product(u, w):
    """L2 inner product  integral u . w dx  of two fields on one grid."""
    if u.grid != w.grid:
        raise GridMismatchError("fields live on different grids")
    a, b = w.coefficients, u.coefficients  # Re sum conj(a) * b, without a BLAS call
    return u.grid.volume * float((a.real * b.real + a.imag * b.imag).sum())


def _masked(coefficients, grid):
    return coefficients * grid.dealias_mask


def _gradient_physical(coefficients, grid):
    """d v_j / d x_i on the collocation grid, shape (3, 3, N, N, N)."""
    n3 = grid.n_modes
    out = np.empty((3, 3, grid.n, grid.n, grid.n))
    axes_k = (
        grid.kx[:, None, None],
        grid.kx[None, :, None],
        grid.kx[None, None, :],
    )
    for i in range(3):
        d_hat = 1j * axes_k[i] * coefficients
        out[i] = np.real(ifftn(d_hat, axes=(-3, -2, -1)) * n3)
    return out


def trilinear_b(u, v, w):
    """Inertial trilinear form  sum_ij integral u_i (d v_j/d x_i) w_j dx.

    Inputs are truncated to the dealias band, so the collocation quadrature
    of the triple product is exact and the form is skew-symmetric in its
    last two arguments for divergence-free u.
    """
    if not (u.grid == v.grid == w.grid):
        raise GridMismatchError("trilinear form requires fields on one grid")
    grid = u.grid
    n3 = grid.n_modes
    u_phys = np.real(ifftn(_masked(u.coefficients, grid), axes=(-3, -2, -1)) * n3)
    w_phys = np.real(ifftn(_masked(w.coefficients, grid), axes=(-3, -2, -1)) * n3)
    grad_v = _gradient_physical(_masked(v.coefficients, grid), grid)
    conv = np.einsum("iabc,ijabc->jabc", u_phys, grad_v)
    return float((conv * w_phys).sum() * grid.cell_volume)


def band_to_physical(band, grid, spread, out):
    """Collocation samples of a field given by its dealias band.

    Equal to ``irfftn`` of the zero-padded half spectrum, with the same
    axis order (x, then y, then the c2r pass along z), in 2 calls: the
    band is scattered once into zeros of the half-spectrum shape, one 2-D
    pass runs over the N * kc x lines and N * kc y lines with a retained
    kz, and the c2r pass over the N * N z lines gets all N/2 + 1 planes,
    so nothing is padded.  ``spread`` (complex, shape (..., N, N, N/2 + 1))
    is the buffer of the half spectrum, overwritten, and ``out`` (float,
    shape (..., N, N, N)) the one of the samples, returned; the stepper
    lends both from :meth:`WaveGrid.take_workspace`.
    """
    kc, index = grid.kc, grid.band_index
    spread.fill(0.0)
    spread[..., index[:, None], index, :kc] = band
    low = spread[..., :kc]
    done = ifftn(low, axes=(-3, -2), norm="forward", overwrite_x=True)
    if done.ctypes.data != low.ctypes.data:  # not in place: numpy would copy even onto itself
        low[...] = done
    return irfftn(spread, axes=(-1,), norm="forward", out=out)


def physical_to_band(samples, grid, spec, out):
    """Dealias band of the spectrum of real collocation samples.

    Equal to ``rfftn`` followed by the band gather, with the same axis
    order (r2c along z, then x, then y), in 2 calls: the r2c pass over the
    N * N z lines, then one 2-D pass over the N * kc x lines and N * kc y
    lines with a retained kz, then one gather.  Bit for bit equal when N
    is a power of two; the passes scale by 1/N and 1/N^2, where ``rfftn``
    scales once by 1/N^3.  ``spec`` (complex, shape (..., N, N, N/2 + 1))
    is a buffer for the z spectrum, overwritten, and ``out`` (complex,
    shape (..., B, B, kc)) one for the band, returned.
    """
    n, kc = grid.n, grid.kc
    spec = rfftn(samples, axes=(-1,), norm="forward", out=spec)[..., :kc]
    spec = fftn(spec, axes=(-3, -2), norm="forward", overwrite_x=True)
    # per axis the band holds the rows 0, ..., kc - 1 and N - kc + 1, ..., N - 1
    rows = ((slice(None, kc), slice(None, kc)), (slice(kc, None), slice(n - kc + 1, None)))
    for bx, sx in rows:
        for by, sy in rows:
            out[..., bx, by, :] = spec[..., sx, sy, :]
    return out


def flux_contraction(band, grid, speed=False):
    """k_i F_ij on the band, where F is Basdevant's flux
    (:func:`_kernels.convective_product`) of the band velocity u: the
    dealias band of the spectrum of (u . grad) u - grad(u_z^2), divided
    by i.  Callers must Leray-project it: the projection removes the
    gradient and leaves P[(u . grad) u] / i.

    Uses the divergence form  sum_i d F_ij / d x_i = i k_i F_ij  of the
    flux F_ij = u_i u_j - delta_ij u_z^2, whose zz component is zero: the
    3 inverse real 3-D transforms of u and the 5 forward ones of F, pruned
    to the band, in the buffers of :meth:`WaveGrid.take_workspace`.  The 2/3
    rule makes the retained modes of each product alias-free.  The sum is
    accumulated in place, in the order (k_x F_xj + k_y F_yj) + k_z F_zj.
    With ``speed``, returns ``(out, max |u|)``: the largest velocity
    component on the collocation grid.
    """
    spread, u, flux, spec, f = work = grid.take_workspace()
    try:
        band_to_physical(band, grid, spread, u)
        if speed:
            top = float(max(u.max(), -u.min()))
        _kernels.convective_product(u, out=flux)
        physical_to_band(flux, grid, spec, f)
        kx, ky, kz = grid.kx_band[:, None, None], grid.kx_band[None, :, None], grid.kz_band
        out = np.empty((3,) + f.shape[1:], dtype=np.complex128)
        term = np.empty_like(out[0])
        for row, (fx, fy, fz) in zip(out, ((0, 1, 2), (1, 3, 4), (2, 4, None))):
            np.multiply(kx, f[fx], out=row)
            row += np.multiply(ky, f[fy], out=term)
            if fz is not None:
                row += np.multiply(kz, f[fz], out=term)
    finally:
        grid.give_back_workspace(work)
    return (out, top) if speed else out


def to_band(coefficients, grid):
    """Dealias band of full-layout coefficients, shape (..., B, B, kc); a copy."""
    index = grid.band_index
    return coefficients[..., index[:, None], index, : grid.kc]


def _conj_mirror(band):
    """conj(band) at (-kx, -ky), plane by plane in kz: a new array."""
    b = band.shape[-2]
    neg = -np.arange(b) % b  # band index of -k along x and along y
    mirror = band.take(neg, axis=-3).take(neg, axis=-2)
    return np.conjugate(mirror, out=mirror)


def hermitian_plane(band):
    """Hermitian part of a band's kz = 0 plane, shape (..., B, B): a new array.

    The plane holds both modes of every conjugate pair, k and -k; its
    Hermitian part 0.5 (uhat(k) + conj(uhat(-k))) has the symmetry bit
    for bit, and equals the plane when the plane already has it.
    """
    plane = band[..., :1]
    part = _conj_mirror(plane)
    part += plane
    part *= 0.5
    return part[..., 0]


def from_band(band, grid, out=None):
    """Full-layout coefficients of a band, exactly Hermitian on the band.

    Writes the band into ``out`` (new zeros when None) and fills its modes
    with kz < 0 from uhat(-k) = conj(uhat(k)).  The plane kz = 0 is
    replaced by :func:`hermitian_plane`, so the result has the symmetry
    bit for bit.
    """
    n, kc, index = grid.n, grid.kc, grid.band_index
    if out is None:
        out = np.zeros(band.shape[:-3] + (n, n, n), dtype=np.complex128)
    rows = index[:, None]
    out[..., rows, index, :kc] = band
    out[..., rows, index, n - kc + 1:] = _conj_mirror(band[..., 1:])[..., ::-1]
    out[..., rows, index, 0] = hermitian_plane(band)
    return out


def nonlinear_term(u):
    """Projected, dealiased convection term: P[(u . grad) u].

    Satisfies <nonlinear_term(u), w> = trilinear_b(u, u, w) for every
    divergence-free in-band w.
    """
    grid = u.grid
    ghat = flux_contraction(to_band(u.coefficients, grid), grid)
    ghat *= 1j
    _kernels.leray_project_modes(ghat, grid.kx_band, grid.kx_band, grid.kz_band, grid.ksq_band)
    return SpectralVelocity(grid, from_band(ghat, grid))


def random_divfree_field(grid, seed, energy_spectrum_slope=-2.0, amplitude=1.0):
    """Deterministic random solenoidal field with |uhat(k)| ~ |k|^(slope/2).

    Modes outside the dealias band are zero; the result is normalized so its
    L2 norm equals ``amplitude`` exactly (zero field for amplitude 0).  An
    amplitude so small (or, on a tiny box, so large) that the scaled field
    would fail :meth:`SpectralVelocity.validate` raises
    :class:`ConfigurationError`.

    The noise is drawn into the grid's transform workspace and taken to
    the dealias band in two FFT calls (:func:`physical_to_band`); the
    projection, shaping and norm act on the band only, and the field is
    written once, by :func:`from_band`.
    """
    if not (np.isfinite(amplitude) and amplitude >= 0):
        raise ConfigurationError(f"amplitude must be finite and >= 0, got {amplitude}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    n = grid.n
    if amplitude == 0.0:
        return SpectralVelocity(grid, np.zeros((3, n, n, n), dtype=np.complex128))
    rng = np.random.default_rng(seed)
    c = np.empty((3,) + grid.ksq_band.shape, dtype=np.complex128)
    _, _, flux, spec, _ = work = grid.take_workspace()
    try:
        # the noise on buffer X, its z spectrum on buffer Y: they must not share one
        noise = rng.standard_normal(out=flux[:3])
        physical_to_band(noise, grid, spec[:3], c)
    finally:
        grid.give_back_workspace(work)
    c[..., 0] = hermitian_plane(c)  # real noise: Hermitian to rounding, now exactly
    _kernels.leray_project_modes(c, grid.kx_band, grid.kx_band, grid.kz_band, grid.ksq_band)

    mode_mag = _kernels.squared_modulus(c)
    np.sqrt(mode_mag, out=mode_mag)
    mode_mag[~(mode_mag > 0.0)] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is rejected below
        target = grid.ksq_band ** (energy_spectrum_slope / 4.0)
        target[0, 0, 0] = 0.0  # ksq_band is 1 at the origin, where the mean is zero
        target /= mode_mag
        c *= target
        norm = math.sqrt(grid.volume
                         * _kernels.weighted_spectral_sum(c, grid.norm_weights_band[0]))
    if not (norm > 0.0 and np.isfinite(norm)):
        raise ConfigurationError(f"random field with spectrum slope {energy_spectrum_slope} "
                                 f"has L2 norm {norm}; change the seed or the slope")
    with np.errstate(over="ignore", invalid="ignore"):
        c *= amplitude / norm
        # Hermitian with zero mean by construction: of validate()'s checks only
        # finiteness and the divergence can fail, when c is subnormal or overflows
        peak = float(np.abs(c).max())
        if not (np.isfinite(peak)
                and _worst_divergence(c, grid.kx_band, grid.kz_band)
                <= _divergence_tolerance(grid, peak)):
            raise ConfigurationError(
                f"amplitude {amplitude:g} is out of range for a random field on this grid: "
                f"its coefficients would not be finite or divergence-free to rounding")
    # empty and fill, not zeros: calloc'd pages would be faulted in afresh by later steps
    out = np.empty((3, n, n, n), dtype=np.complex128)
    out.fill(0.0)
    return SpectralVelocity(grid, from_band(c, grid, out=out))


def shear_field(grid, amplitude=1.0):
    """Single-mode shear flow  amplitude * (sin y, 0, 0), spectrally exact."""
    n = grid.n
    c = np.zeros((3, n, n, n), dtype=np.complex128)
    c[0, 0, 1, 0] = -0.5j * amplitude
    c[0, 0, n - 1, 0] = 0.5j * amplitude
    return SpectralVelocity(grid, c)


def field_with_norms(grid, seed, l2, h1_sq):
    """Random field with prescribed L2 norm and squared gradient norm.

    Combines two random solenoidal fields supported on the lowest and the
    highest resolved spherical shells.  Requires
    lam1 * l2^2 <= h1_sq <= lam_max * l2^2 on this grid.
    """
    if l2 < 0 or h1_sq < 0:
        raise ConfigurationError("norms must be non-negative")
    n = grid.n
    if l2 == 0.0:
        if h1_sq > 0.0:
            raise ConfigurationError("h1_sq must vanish when l2 = 0")
        return SpectralVelocity(grid, np.zeros((3, n, n, n), dtype=np.complex128))
    band_sq = np.unique(grid.ksq_int[grid.dealias_mask & (grid.ksq_int > 0)])
    lam_lo = float(band_sq.min()) * grid.scale**2
    lam_hi = float(band_sq.max()) * grid.scale**2
    if not (lam_lo * l2**2 <= h1_sq * (1 + 1e-12) and h1_sq <= lam_hi * l2**2 * (1 + 1e-12)):
        raise ConfigurationError(
            f"norm pair (l2={l2:g}, h1_sq={h1_sq:g}) is not realizable on this "
            f"grid: need h1_sq/l2^2 in [{lam_lo:g}, {lam_hi:g}]"
        )
    beta_sq = max((h1_sq - lam_lo * l2**2) / (lam_hi - lam_lo), 0.0)
    alpha_sq = max(l2**2 - beta_sq, 0.0)

    def shell_unit(sub_seed, ksq_target):
        raw = random_divfree_field(grid, sub_seed, 0.0, 1.0).coefficients.copy()
        raw[:, grid.ksq_int != ksq_target] = 0.0
        f = SpectralVelocity(grid, np.ascontiguousarray(raw))
        nrm = sobolev_norm(f, 0)
        if nrm == 0.0:
            raise ConfigurationError("shell projection vanished; change the seed")
        return raw / nrm

    combo = np.sqrt(alpha_sq) * shell_unit(2 * seed + 1, band_sq.min())
    combo = combo + np.sqrt(beta_sq) * shell_unit(2 * seed + 2, band_sq.max())
    return SpectralVelocity(grid, np.ascontiguousarray(combo))


def save_field(u, path, seed=None, provenance=None):
    """Write a field snapshot plus a JSON sidecar with provenance.

    Binary layout: header (magic ``NSRC1``, N as little-endian uint32, L as
    float64, component count 3) followed by the three coefficient blocks in
    lexicographic integer-wavevector order, little-endian complex128.
    """
    grid = u.grid
    header = _SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, grid.n, grid.length, 3)
    ordered = np.fft.fftshift(u.coefficients, axes=(-3, -2, -1)).astype("<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ordered.tobytes())
    sidecar = {
        "format": "NSRC1",
        "n": grid.n,
        "length": grid.length,
        "seed": seed,
        "l2_norm": sobolev_norm(u, 0),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    if provenance:
        sidecar.update(provenance)
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_field(path):
    """Read a field snapshot written by :func:`save_field`."""
    with open(path, "rb") as fh:
        head = fh.read(_SNAPSHOT_HEADER.size)
        if len(head) < _SNAPSHOT_HEADER.size:
            raise ConfigurationError(f"{path}: truncated snapshot header")
        magic, n, length, ncomp = _SNAPSHOT_HEADER.unpack(head)
        if magic != SNAPSHOT_MAGIC:
            raise ConfigurationError(f"{path}: not a field snapshot (bad magic)")
        if ncomp != 3:
            raise ConfigurationError(f"{path}: expected 3 components, got {ncomp}")
        payload = fh.read()
    expected = 3 * n**3 * 16
    if len(payload) != expected:
        raise ConfigurationError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    ordered = np.frombuffer(payload, dtype="<c16").reshape(3, n, n, n)
    coeffs = np.fft.ifftshift(ordered.astype(np.complex128), axes=(-3, -2, -1))
    grid = WaveGrid(int(n), float(length))
    return SpectralVelocity(grid, np.ascontiguousarray(coeffs))


