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
:func:`to_band` and :func:`from_band` convert between the two.

A convection transform keeps only the kz < kc planes, the ones the 2/3
rule keeps, in a compact spectrum of shape (..., N, N, kc): the band is
scattered into it and one 2-D x-y pass runs over it in place.  Then the
x-planes are walked in blocks of r planes, r sized to a core's L2
(:data:`_BLOCK_BYTES`): a block's c2r z pass pads its kc planes with
zeros to the N/2 + 1 of the half spectrum, and a forward block's r2c
z pass keeps its kc planes.  Velocity samples and flux so exist one
block at a time (:func:`flux_contraction`); a field's samples, when a
caller needs them all, come from :func:`band_to_physical` and go back
through :func:`physical_to_band`.  The fused 2-D passes run on
``scipy.fft``.  The z passes run on ``numpy.fft``, whose r2c and c2r
transforms take ``out=``, so they write into the grid's transform
workspace (:meth:`WaveGrid.take_workspace`); both libraries run the same
pocketfft kernels, and the z passes are bit for bit those of
``scipy.fft``, padded or not.

From N = 64 (:data:`_SLAB_MIN_N`) a right-hand side runs on every usable
CPU (:attr:`WaveGrid.workers`): the 2-D passes through ``scipy.fft``'s
``workers=``, and the block walk, the contraction and the Leray
projection on x-slabs (:func:`_on_slabs`), each slab walking its own
blocks.  Every mode and sample is computed as in one piece, so results
are bit for bit those of one worker and of any block size.
"""

import contextvars
import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property

import numpy as np
from numpy.fft import irfftn, rfftn
from scipy.fft import fftn, ifftn

from . import _kernels
from .errors import ConfigurationError, GridMismatchError

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"NSRC1"
_SNAPSHOT_HEADER = struct.Struct("<5sIdI")

#: smallest N whose transforms and band tail run on every usable CPU; below
#: it the hand-offs cost more than the split saves (N = 32 lost in both
#: benchmark pairs, 6.65 -> 8.69 and 6.25 -> 7.14 ms/step)
_SLAB_MIN_N = 64

#: bytes of one slab worker's block buffers (velocity samples, flux and
#: the flux's z spectrum of r x-planes, :func:`_block_planes`): half the
#: 2 MiB L2 of a core of the 2-vCPU Xeon host the benchmark ran on, which
#: gives r = 2 at N = 64, r = 9 at N = 32 and one block up to N = 16
_BLOCK_BYTES = 1 << 20

_slab_pool = None  # ThreadPoolExecutor of the slabs (_pool)
_slab_pool_lock = threading.Lock()


def _usable_cpus():
    """CPUs this process may run on.  Variables such as OMP_NUM_THREADS
    govern BLAS, which nsreg does not call, and are not read."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _drop_slab_pool():
    """Forget the pool in a forked child: its threads stay in the parent."""
    global _slab_pool, _slab_pool_lock
    _slab_pool, _slab_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_slab_pool)


def _pool():
    """The slab pool, made on first use."""
    global _slab_pool
    with _slab_pool_lock:
        if _slab_pool is None:
            _slab_pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="nsreg-slab")
        return _slab_pool


def _on_slabs(grid, rows, fn):
    """Call ``fn(x)`` for ``grid.workers`` (at most ``rows``) contiguous,
    nonempty slices ``x`` that cover ``range(rows)``, the first on the
    calling thread and the others on the slab pool, each in a copy of the
    caller's context (so numpy's ``errstate`` holds there too); returns
    when all have ended.  With one worker, ``fn(slice(None))`` directly.
    The calls must write disjoint parts of their arrays.
    """
    workers = min(grid.workers, rows)
    if workers == 1:
        fn(slice(None))
        return
    pool = _pool()
    cuts = [rows * i // workers for i in range(workers + 1)]
    slabs = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    futures = [pool.submit(contextvars.copy_context().run, fn, x) for x in slabs[1:]]
    try:
        fn(slabs[0])
    finally:
        wait(futures)  # the slabs write the caller's arrays: none may outlive the call
    for future in futures:
        future.result()


def _block_planes(n):
    """x-planes of a block at grid size ``n``: as many as fit
    :data:`_BLOCK_BYTES`, at least 1 and at most ``n``."""
    plane = 8 * 8 * n * n + 5 * 16 * n * (n // 2 + 1)
    return max(1, min(n, _BLOCK_BYTES // plane))


def _new_block(n):
    """One slab worker's block buffers: velocity samples (3, r, N, N),
    flux (5, r, N, N) and the flux's z spectrum (5, r, N, N/2 + 1)."""
    r = _block_planes(n)
    return (np.empty((3, r, n, n)), np.empty((5, r, n, n)),
            np.empty((5, r, n, n // 2 + 1), dtype=np.complex128))


def _on_blocks(grid, blocks, fn):
    """Call ``fn(x, block)`` for consecutive slices ``x`` of at most r
    x-planes that cover ``range(N)``, on x-slabs (:func:`_on_slabs`).
    Each slab borrows one set of block buffers (:func:`_new_block`) from
    the list ``blocks``, a new one when the list is empty, and puts it
    back when done; ``block`` is that set cut to the planes of ``x``.
    """
    n = grid.n

    def slab(x):
        lo, hi, _ = x.indices(n)
        try:
            block = blocks.pop()
        except IndexError:  # more slabs than the workspace was made for
            block = _new_block(n)
        try:
            r = len(block[0][0])
            for i in range(lo, hi, r):
                m = min(r, hi - i)
                fn(slice(i, i + m), block if m == r else [b[:, :m] for b in block])
        finally:
            blocks.append(block)

    _on_slabs(grid, n, slab)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class WaveGrid:
    """Fourier lattice of an N^3 periodic grid with period ``length``.

    Integer wavenumbers per axis are a bijection with [-N/2, N/2); physical
    wavevectors are scaled by 2*pi/length.  The full-grid tables
    :attr:`ksq_int`, :attr:`ksq` and :attr:`dealias_mask` are built on
    first read; a run reads only the band tables.  The grid also lends the
    transform workspace of the stepper (:meth:`take_workspace`), and sets
    how many threads its transforms use, :attr:`workers`: every usable
    CPU from N = :data:`_SLAB_MIN_N`, else 1.
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
        self.kc = kc = (len(self.band_index) + 1) // 2
        # per axis, (band rows, grid rows) of the band's two runs of
        # wavenumbers, 0, ..., kc - 1 and -(kc - 1), ..., -1
        self.band_runs = ((slice(None, kc), slice(None, kc)),
                          (slice(kc, None), slice(self.n - kc + 1, None)))

        with np.errstate(over="ignore", under="ignore"):
            volume = np.float64(self.length) ** 3
            h2_weight = (3.0 * (np.float64(self.scale) * (self.kc - 1)) ** 2) ** 2
        for what, value in (("volume", volume), ("largest |k|^4", h2_weight)):
            if not (value > 0.0 and np.isfinite(value)):
                raise ConfigurationError(
                    f"domain period {length} gives a {what} of {value}, "
                    "not finite and positive")

        self.kx = self.scale * k_int
        self.kx_band = self.kx[self.band_index]
        self.kz_band = self.kx[: self.kc]
        # |k|^2 on the band as the Leray projection forms it, with 1 at the
        # origin so that it divides (the mean mode has no gradient part)
        bx, by = self.kx_band[:, None, None], self.kx_band[None, :, None]
        self.ksq_band = bx * bx + by * by + self.kz_band * self.kz_band
        self.ksq_band[0, 0, 0] = 1.0
        # scale^2 |k_int|^2 on the band, 0 at the origin: the eigenvalues of
        # -Laplace, to_band(ksq) bit for bit, which rounds differently from
        # ksq_band when L is not 2 pi
        ib, iz = k_int[self.band_index], k_int[: self.kc]
        ix, iy = ib[:, None, None], ib[:, None]
        self.laplace_band = self.scale**2 * (ix * ix + iy * iy + iz * iz)
        # multiplicity * |k|^(2m), m = 0, 1, 2, on the band: weights of the
        # squared norms.  A band mode with kz > 0 stands for itself and its
        # conjugate at -k, so the multiplicity is 1 at kz = 0 and 2 elsewhere.
        lap = self.laplace_band
        multiplicity = np.full(self.kc, 2.0)
        multiplicity[0] = 1.0
        self.norm_weights_band = multiplicity * np.stack([np.ones_like(lap), lap, lap**2])

        for arr in (self.k_int, self.kx, self.band_index, self.kx_band, self.kz_band,
                    self.ksq_band, self.laplace_band, self.norm_weights_band):
            arr.setflags(write=False)

        self.workers = _usable_cpus() if self.n >= _SLAB_MIN_N else 1
        self._idle_workspace = None  # made on first use, kept while the grid lives
        self._workspace_lock = threading.Lock()

    def take_workspace(self):
        """Borrow the transform arrays of :func:`flux_contraction` and
        :func:`random_divfree_field`: ``(low, spec, fband, noise, blocks)``,
        views on two byte buffers X and Y, and block buffers.  Hand them
        back with :meth:`give_back_workspace`.

        X holds ``low``, a compact spectrum (3, N, N, kc) (see
        :func:`band_to_physical`), the velocity's or the noise's, then
        ``fband``, the band of the flux spectrum.  Y holds ``spec``, the
        flux's compact spectrum (5, N, N, kc), or ``noise``, the random
        field's real samples (3, N, N, N).  Each array is dead before the
        next one on its buffer is written.  ``blocks`` lists one set of
        block buffers per slab worker (:func:`_on_blocks`).  The arrays are
        made on first use and kept for the next caller, so a time step
        allocates no full-grid array.  A caller that finds them lent (to
        another thread, or further up its own stack) gets new ones.
        Contents are undefined.
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
        n, kc = self.n, self.kc
        b = 2 * kc - 1

        def views(*layouts):
            size = [math.prod(shape) * np.dtype(dtype).itemsize for dtype, shape in layouts]
            buf = np.empty(max(size), dtype=np.uint8)
            return [buf[:k].view(dtype).reshape(shape) for k, (dtype, shape) in zip(size, layouts)]

        low, fband = views((np.complex128, (3, n, n, kc)), (np.complex128, (5, b, b, kc)))
        spec, noise = views((np.complex128, (5, n, n, kc)), (np.float64, (3, n, n, n)))
        return low, spec, fband, noise, [_new_block(n) for _ in range(self.workers)]

    @cached_property
    def ksq_int(self):
        """|k_int|^2 on the full grid, FFT layout."""
        gx, gy, gz = self.k_int[:, None, None], self.k_int[None, :, None], self.k_int
        return _read_only(gx * gx + gy * gy + gz * gz)

    @cached_property
    def ksq(self):
        """|k|^2 = scale^2 |k_int|^2 on the full grid, FFT layout."""
        return _read_only(self.scale**2 * self.ksq_int)

    @cached_property
    def dealias_mask(self):
        """Whether each mode of the full grid is on the dealias band."""
        keep = np.zeros(self.n, dtype=bool)
        keep[self.band_index] = True
        return _read_only(keep[:, None, None] & keep[None, :, None] & keep)

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
    return 1e-12 * peak * math.sqrt(grid.scale**2 * (3 * (grid.n // 2) ** 2))


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


def _xy_inverse(band, grid, low):
    """Write a band into ``low``, its compact spectrum (complex, shape
    (..., N, N, kc)), zero elsewhere, and run the 2-D inverse pass over x,
    then y, in place; returns ``low``."""
    runs, gap = grid.band_runs, slice(grid.kc, grid.n - grid.kc + 1)
    low[..., gap, :, :] = 0.0
    for bx, sx in runs:
        low[..., sx, gap, :] = 0.0
        for by, sy in runs:
            low[..., sx, sy, :] = band[..., bx, by, :]
    done = ifftn(low, axes=(-3, -2), norm="forward", overwrite_x=True, workers=grid.workers)
    if done.ctypes.data != low.ctypes.data:  # not in place: numpy would copy even onto itself
        low[...] = done
    return low


def _xy_forward(low, grid, out):
    """The 2-D forward pass over x, then y, of a compact spectrum ``low``
    (overwritten), gathered into ``out`` (complex, shape (..., B, B, kc)),
    which is returned."""
    spec = fftn(low, axes=(-3, -2), norm="forward", overwrite_x=True, workers=grid.workers)
    for bx, sx in grid.band_runs:
        for by, sy in grid.band_runs:
            out[..., bx, by, :] = spec[..., sx, sy, :]
    return out


def band_to_physical(band, grid, low, out):
    """Collocation samples of a field given by its dealias band.

    Equal to ``irfftn`` of the zero-padded half spectrum, with the same
    axis order (x, then y, then the c2r pass along z), in 2 calls: the
    band is written into ``low``, the compact spectrum of the kz < kc
    planes (complex, shape (..., N, N, kc), overwritten), one 2-D pass
    runs over its N * kc x lines and N * kc y lines, and the c2r pass over
    the N * N z lines pads each with zeros to the N/2 + 1 of the half
    spectrum.  ``out`` (float, shape (..., N, N, N)) holds the samples and
    is returned.  The passes run on ``grid.workers`` threads, the c2r pass
    on x-slabs.
    """
    n = grid.n
    _xy_inverse(band, grid, low)
    _on_slabs(grid, n, lambda x: irfftn(low[..., x, :, :], s=(n,), axes=(-1,), norm="forward",
                                        out=out[..., x, :, :]))
    return out


def physical_to_band(samples, grid, low, out, blocks):
    """Dealias band of the spectrum of real collocation samples.

    Equal to ``rfftn`` followed by the band gather, with the same axis
    order (r2c along z, then x, then y): the r2c pass over the N * N z
    lines, by blocks of x-planes (:func:`_on_blocks`, with the block
    buffers ``blocks``), whose kz < kc planes are kept in ``low`` (complex,
    shape (c, N, N, kc), overwritten), then one 2-D pass over its N * kc x
    lines and N * kc y lines, then one gather into ``out`` (complex, shape
    (c, B, B, kc)), which is returned.  ``samples`` has shape (c, N, N, N)
    with c <= 5.  Bit for bit equal when N is a power of two; the passes
    scale by 1/N and 1/N^2, where ``rfftn`` scales once by 1/N^3.  The
    passes run on ``grid.workers`` threads.
    """
    kc = grid.kc

    def leg(x, block):
        spec = block[2][: len(samples)]
        rfftn(samples[:, x], axes=(-1,), norm="forward", out=spec)
        low[:, x] = spec[..., :kc]

    _on_blocks(grid, blocks, leg)
    return _xy_forward(low, grid, out)


def flux_contraction(band, grid, speed=False):
    """k_i F_ij on the band, where F is Basdevant's flux
    (:func:`_kernels.convective_product`) of the band velocity u: the
    dealias band of the spectrum of (u . grad) u - grad(u_z^2), divided
    by i.  Callers must Leray-project it: the projection removes the
    gradient and leaves P[(u . grad) u] / i.

    Uses the divergence form  sum_i d F_ij / d x_i = i k_i F_ij  of the
    flux F_ij = u_i u_j - delta_ij u_z^2, whose zz component is zero: the
    3 inverse real 3-D transforms of u and the 5 forward ones of F, pruned
    to the band, in the arrays of :meth:`WaveGrid.take_workspace`.  The
    transforms are those of :func:`band_to_physical` and
    :func:`physical_to_band`, with the c2r pass, the product and the r2c
    pass fused by blocks of x-planes (:func:`_on_blocks`), so u and F
    exist one block at a time.  The 2/3 rule makes the retained modes of
    each product alias-free.  The sum is accumulated in place, in the
    order (k_x F_xj + k_y F_yj) + k_z F_zj, on x-slabs (:func:`_on_slabs`).
    With ``speed``, returns ``(out, max |u|)``: the largest velocity
    component on the collocation grid.
    """
    n, kc = grid.n, grid.kc
    low, spec, f, _, blocks = work = grid.take_workspace()
    tops = []  # the blocks' max u and -min u
    try:
        _xy_inverse(band, grid, low)

        def leg(x, block):
            u, flux, zspec = block
            irfftn(low[:, x], s=(n,), axes=(-1,), norm="forward", out=u)
            if speed:
                tops.extend((u.max(), -u.min()))
            _kernels.convective_product(u, out=flux)
            rfftn(flux, axes=(-1,), norm="forward", out=zspec)
            spec[:, x] = zspec[..., :kc]

        _on_blocks(grid, blocks, leg)
        _xy_forward(spec, grid, f)
        kx, ky, kz = grid.kx_band[:, None, None], grid.kx_band[None, :, None], grid.kz_band
        out = np.empty((3,) + f.shape[1:], dtype=np.complex128)

        def contract(x):
            term = np.empty_like(out[0, x])
            for row, (fx, fy, fz) in zip(out[:, x], ((0, 1, 2), (1, 3, 4), (2, 4, None))):
                np.multiply(kx[x], f[fx, x], out=row)
                row += np.multiply(ky, f[fy, x], out=term)
                if fz is not None:
                    row += np.multiply(kz, f[fz, x], out=term)

        _on_slabs(grid, len(grid.kx_band), contract)
    finally:
        grid.give_back_workspace(work)
    return (out, float(np.max(tops))) if speed else out


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
    the dealias band by :func:`physical_to_band`; the
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
    low, _, _, noise, blocks = work = grid.take_workspace()
    try:
        # the noise on buffer Y, its compact spectrum on buffer X: they must not share one
        physical_to_band(rng.standard_normal(out=noise), grid, low, c, blocks)
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


