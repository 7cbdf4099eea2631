"""Tests for the spectral field representation and its operators."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import fftn

from nsreg import (
    ConfigurationError,
    GridMismatchError,
    SpectralVelocity,
    inner_product,
    leray_project,
    load_field,
    make_wavegrid,
    nonlinear_term,
    random_divfree_field,
    save_field,
    shear_field,
    sobolev_norm,
    to_physical,
    trilinear_b,
)
from nsreg import _kernels, spectral
from nsreg.solver import ForcingSpec, SolverConfig, _Stepper, kolmogorov_forcing, simulate
from nsreg.spectral import (
    convection_band,
    field_with_norms,
    hermitian_adjoint,
    hermitian_defect,
    hermitian_plane,
    physical_to_band,
    to_band,
)

from conftest import fine_quadrature_b, physical_l2_sq


TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- wave grid

def test_wavegrid_small_lattice():
    g = make_wavegrid(4)
    assert sorted(g.k_int.tolist()) == [-2, -1, 0, 1]


@pytest.mark.parametrize("n", [4, 16, 98, 196])
def test_wavenumbers_are_integers(n):
    # at N = 98 and 196, n * (1 / n) is not 1, and fftfreq(n, 1 / n) scales its integers by it
    k = make_wavegrid(n).k_int
    assert k.tolist() == list(range(n // 2)) + list(range(-(n // 2), 0))


def test_wavegrid_mode_count():
    g = make_wavegrid(8)
    assert g.n_modes == 512


def test_wavegrid_scaled_wavevectors():
    g = make_wavegrid(6, math.pi)
    ints = np.round(g.kx / 2.0)
    assert np.allclose(g.kx, 2.0 * ints)  # integer multiples of 2*pi/L = 2


@pytest.mark.parametrize("n", [3, 5, 2, 0, -4])
def test_wavegrid_rejects_bad_resolution(n):
    with pytest.raises(ConfigurationError):
        make_wavegrid(n)


def test_wavegrid_rejects_bad_length():
    with pytest.raises(ConfigurationError):
        make_wavegrid(8, 0.0)
    with pytest.raises(ConfigurationError):
        make_wavegrid(8, -1.0)


@pytest.mark.parametrize("length", [1e-300, 1e-160, 1e-100, 1e300])
def test_wavegrid_rejects_period_with_overflowing_grid_quantities(length):
    # L^3 or the largest band |k|^4 (the H2 weight) is not finite and positive
    with pytest.raises(ConfigurationError, match="domain period"):
        make_wavegrid(8, length)


def test_wavegrid_default_period_has_finite_grid_quantities():
    g = make_wavegrid(8)
    assert g.length == TWO_PI
    assert np.isfinite(g.volume) and np.isfinite(g.norm_weights_band).all()


# ------------------------------------------------------------ dealias band

@pytest.mark.parametrize("n", [8, 12, 16])
def test_band_layout_matches_dealias_mask(n):
    g = make_wavegrid(n)
    kc = g.kc
    assert g.band_index.tolist() == list(range(kc)) + list(range(n - kc + 1, n))
    assert np.all(np.abs(g.k_int[g.band_index]) < n / 3.0)
    assert (2 * kc - 1) ** 2 * kc == g.dealias_mask[..., : n // 2 + 1].sum()
    ones = np.ones((1, 2 * kc - 1, 2 * kc - 1, kc), dtype=np.complex128)
    full = spectral._scatter_band(ones, g, np.zeros((1, n, n, n), dtype=np.complex128))
    assert np.array_equal(full[0].real.astype(bool), g.dealias_mask)


def _half_with_energy_everywhere(g, seed):
    """Half spectrum of real noise, made exactly Hermitian: for N = 12 the
    kz = 0 plane of ``fftn`` is Hermitian only to rounding."""
    rng = np.random.default_rng(seed)
    full = np.fft.fftn(rng.standard_normal((3, g.n, g.n, g.n)), axes=(-3, -2, -1)) / g.n_modes
    return (0.5 * (full + hermitian_adjoint(full)))[..., : g.n // 2 + 1]


def _padded_half(band, g):
    """The half spectrum of a 3-component band, zero outside the band."""
    return SpectralVelocity.from_band(g, band.copy()).coefficients[..., : g.n // 2 + 1]


def _to_band(samples, g):
    """physical_to_band into NaN-filled buffers, so every value it returns
    was written by the call, as in a reused workspace, with block buffers
    of its own."""
    lead, n, b = samples.shape[:-3], g.n, 2 * g.kc - 1
    low = np.full(lead + (n, n, g.kc), np.nan, dtype=np.complex128)
    return physical_to_band(samples, g, low,
                            np.full(lead + (b, b, g.kc), np.nan, dtype=np.complex128), [])


@pytest.mark.parametrize("n", [8, 12, 16])
def test_band_transforms_match_full_transforms(n):
    g = make_wavegrid(n)
    half = _half_with_energy_everywhere(g, n)
    padded = _padded_half(to_band(half, g), g)
    assert np.array_equal(padded, half * g.dealias_mask[..., : n // 2 + 1])

    samples = np.fft.irfftn(padded, s=(n, n, n), axes=(-3, -2, -1)) * g.n_modes
    products = samples[[0, 0, 1]] * samples[[1, 2, 2]]
    want = to_band(np.fft.rfftn(products, axes=(-3, -2, -1)) / g.n_modes, g)
    got = _to_band(products, g)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_band_transforms_bitwise_for_power_of_two(n):
    from scipy.fft import irfftn, rfftn

    g = make_wavegrid(n)
    half = _half_with_energy_everywhere(g, n + 1)
    band = to_band(half, g)
    samples = irfftn(half * g.dealias_mask[..., : n // 2 + 1], s=(n, n, n), axes=(-3, -2, -1),
                     norm="forward")
    full = rfftn(samples, axes=(-3, -2, -1), norm="forward")
    assert np.array_equal(_to_band(samples, g), to_band(full, g))
    for _ in range(2):  # in the grid's workspace, as the random field uses it, stale on reuse
        low, _, _, noise, blocks = work = g.take_workspace()
        noise[...] = samples
        got = physical_to_band(noise, g, low, np.empty_like(band), blocks)
        assert np.array_equal(got, to_band(full, g))
        g.give_back_workspace(work)


def test_compact_c2r_equals_padded_c2r():
    # pocketfft's c2r reads N/2 + 1 planes: convection_band copies the
    # kz < kc planes into a block buffer and pads
    # them with zeros there, and the samples must be those of the padded
    # half spectrum bit for bit, also in a block's strided views
    rng = np.random.default_rng(3)
    for n in (8, 12, 16, 64):
        g = make_wavegrid(n)
        kc = g.kc
        low = rng.standard_normal((3, 5, n, kc)) + 1j * rng.standard_normal((3, 5, n, kc))
        padded = np.zeros((3, 5, n, n // 2 + 1), dtype=np.complex128)
        padded[..., :kc] = low
        want = np.fft.irfftn(padded, axes=(-1,), norm="forward")
        half = np.full((5, 7, n, n // 2 + 1), np.nan, dtype=np.complex128)[:3, :5]
        out = np.full((3, 7, n, n), np.nan)[:, :5]
        spectral._c2r(low, g, half, out)
        assert np.array_equal(out, want)


def _full_flux_contraction(band, g):
    """Samples u of a band and k_i F_ij of their five-component flux, from
    full 3-D irfftn/rfftn of the padded half spectrum, unprojected."""
    import scipy.fft

    n = g.n
    u = scipy.fft.irfftn(_padded_half(band, g), s=(n, n, n), axes=(-3, -2, -1), norm="forward")
    f = to_band(scipy.fft.rfftn(_kernels.convective_product(u), axes=(-3, -2, -1),
                                norm="forward"), g)
    kx, ky, kz = g.kx_band[:, None, None], g.kx_band[None, :, None], g.kz_band
    out = np.stack([kx * f[0] + ky * f[1] + kz * f[2], kx * f[1] + ky * f[3] + kz * f[4],
                    kx * f[2] + ky * f[4]])
    return u, out


def _full_convection(band, g):
    """convection_band and its speed from full transforms
    (:func:`_full_flux_contraction`), projected in one piece: the oracle
    of the block walk and the slab projection."""
    u, out = _full_flux_contraction(band, g)
    _kernels.leray_project_modes(out, g.kx_band, g.kx_band, g.kz_band, g.ksq_band)
    return out, float(max(u.max(), -u.min()))


def _full_physical_to_band(samples, grid, low, out, blocks):
    import scipy.fft

    out[...] = to_band(scipy.fft.rfftn(samples, axes=(-3, -2, -1), norm="forward"), grid)
    return out


def _assert_leg_matches_full_transforms(g, monkeypatch):
    band = to_band(random_divfree_field(g, 11, -2.0, 3.0).coefficients, g)
    want, want_speed = _full_convection(band, g)
    for _ in range(2):  # fresh, then reused block buffers
        got, speed = convection_band(band, g, speed=True)
        assert np.array_equal(got, want) and speed == want_speed
        assert np.array_equal(convection_band(band, g), want)
    got = random_divfree_field(g, 5, -5.0 / 3.0, 2.0).coefficients
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "physical_to_band", _full_physical_to_band)
        want = random_divfree_field(g, 5, -5.0 / 3.0, 2.0).coefficients
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_block_walk_equals_full_transforms_bitwise(monkeypatch, n):
    _assert_leg_matches_full_transforms(make_wavegrid(n), monkeypatch)


def test_block_walk_equals_full_transforms_at_n12():
    # N = 12 is not a power of two: the pruned passes scale by 1/N and
    # 1/N^2 where rfftn scales once, so the samples and the flux agree to rounding
    g = make_wavegrid(12)
    band = to_band(random_divfree_field(g, 11, -2.0, 3.0).coefficients, g)
    want, want_speed = _full_convection(band, g)
    got, speed = convection_band(band, g, speed=True)
    assert np.allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())
    assert speed == pytest.approx(want_speed, rel=1e-14)


@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_that_do_not_divide_the_slab(monkeypatch, workers):
    # r = 3 at N = 64: slabs of 64 or 32 x-planes end in a block of 1 or 2
    plane = spectral._BLOCK_BYTES // spectral._block_planes(64)
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 3 * plane + 1)
    assert spectral._block_planes(64) == 3
    g = make_wavegrid(64)
    monkeypatch.setattr(g, "workers", workers)
    _assert_leg_matches_full_transforms(g, monkeypatch)


def test_block_planes_fit_the_cache_budget():
    assert [spectral._block_planes(n) for n in (8, 16, 32, 64, 96, 128)] == [8, 16, 9, 2, 1, 1]


def test_workspace_at_n64_holds_no_full_grid_scratch(monkeypatch):
    # two compact buffers of 11.5 MB in all, where the half-spectrum
    # workspace took 21.3 MB, and at most 1 MiB of blocks per slab worker
    g = make_wavegrid(64)
    monkeypatch.setattr(g, "workers", 2)
    low, spec, fband, noise, blocks = g.take_workspace()
    assert np.shares_memory(low, fband) and np.shares_memory(spec, noise)
    assert not np.shares_memory(low, spec)
    assert max(low.nbytes, fband.nbytes) + max(spec.nbytes, noise.nbytes) <= 11.6e6
    assert len(blocks) == 2 and all(sum(a.nbytes for a in b) <= 2**20 for b in blocks)
    arrays = [low, spec, fband, noise] + [a for b in blocks for a in b]
    real_grids = [a for a in arrays if a.dtype == np.float64 and a.shape[-3:] == (64,) * 3]
    assert len(real_grids) == 1 and real_grids[0] is noise


def test_a_run_builds_no_full_grid_table():
    g = make_wavegrid(64)
    rk2 = SolverConfig(nu=0.1, dt=1e-3, t_end=1e-3, integrator="if_rk2", cfl=0.5)
    for forcing, cfg in ((ForcingSpec.zero(), SolverConfig(nu=0.1, dt=1e-3, t_end=1e-3)),
                         (kolmogorov_forcing(g, 5.0), rk2)):
        simulate(random_divfree_field(g, 1), forcing, cfg)
    assert not {"ksq_int", "ksq", "dealias_mask"} & set(vars(g))
    # built on first read, as the eager tables were
    assert np.array_equal(to_band(g.ksq, g), g.laplace_band)
    assert not g.ksq.flags.writeable and g.dealias_mask.sum() == (2 * g.kc - 1) ** 3


@pytest.mark.parametrize("n", [8, 12, 16, 32, 64])
def test_pocketfft_calls_equal_public_ffts_bitwise(monkeypatch, n):
    # every pass calls scipy's pocketfft module directly, with out=; the
    # results must be those of the public scipy.fft and numpy.fft bit for bit
    import scipy.fft

    g = make_wavegrid(n)
    kc, index = g.kc, g.band_index
    rng = np.random.default_rng(n)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x = rng.standard_normal((5, n, n, n))
    spec = np.full((5, n, n, n // 2 + 1), np.nan, dtype=np.complex128)
    spectral._r2c(x, spec)
    for lib in (scipy.fft, np.fft):
        assert np.array_equal(spec, lib.rfftn(x, axes=(-1,), norm="forward"))
    low, out = spec[:3, ..., :kc].copy(), np.full((3, n, n, n), np.nan)
    spectral._c2r(low, g, np.full_like(spec[:3], np.nan), out)
    assert np.array_equal(out, np.fft.irfftn(low, s=(n,), axes=(-1,), norm="forward"))
    padded = np.zeros_like(spec[:3])
    padded[..., :kc] = low
    assert np.array_equal(out, scipy.fft.irfftn(padded, axes=(-1,), norm="forward"))

    band, compact = noise((3, 2 * kc - 1, 2 * kc - 1, kc)), noise((5, n, n, kc))
    scattered = np.zeros((3, n, n, kc), dtype=np.complex128)
    scattered[:, index[:, None], index] = band
    want_inverse = scipy.fft.ifftn(scattered, axes=(-3, -2), norm="forward")
    want_forward = scipy.fft.fftn(compact, axes=(-3, -2), norm="forward")[:, index[:, None], index]
    for workers in (1, 2):
        monkeypatch.setattr(g, "workers", workers)
        got = spectral._xy_inverse(band, g, np.full((3, n, n, kc), np.nan, dtype=np.complex128))
        assert np.array_equal(got, want_inverse)
        out = np.full((5, 2 * kc - 1, 2 * kc - 1, kc), np.nan, dtype=np.complex128)
        assert np.array_equal(spectral._xy_forward(compact.copy(), g, out), want_forward)

        u = SpectralVelocity(g, noise((3, n, n, n)))
        assert np.array_equal(to_physical(u), np.real(scipy.fft.ifftn(u.coefficients,
                                                                       axes=(-3, -2, -1)) * n**3))
        assert np.array_equal(spectral.from_physical(g, x[:3]),
                              scipy.fft.fftn(x[:3], axes=(-3, -2, -1)) / n**3)


def test_pocketfft_is_imported_where_its_file_is_not_found(monkeypatch):
    import importlib.util

    import scipy.fft._pocketfft.pypocketfft as public

    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert spectral._load_pocketfft() is public


def test_stepper_rhs_makes_four_fft_calls(monkeypatch, grid16):
    # one 2-D pass and one z pass each way, whatever the field, each a
    # direct call of pocketfft that writes into the grid's workspace
    band = to_band(random_divfree_field(grid16, 4).coefficients, grid16)
    stepper = _Stepper(grid16, ForcingSpec.zero(), SolverConfig(nu=0.1, dt=1e-3, t_end=1e-3))
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append((name, kwargs.get("out") is not None))
            return fn(*args, **kwargs)
        return call

    names = ("c2c", "r2c", "c2r")
    monkeypatch.setattr(spectral, "_pocketfft", types.SimpleNamespace(
        **{name: counted(name, getattr(spectral._pocketfft, name)) for name in names}))
    stepper.rhs(band, 0.0)
    assert sorted(calls) == [("c2c", True), ("c2c", True), ("c2r", True), ("r2c", True)]
    assert not {"fftn", "ifftn", "rfftn", "irfftn"} & set(vars(spectral))


# ---------------------------------------------------------- leray projection

def test_leray_kills_pure_gradient(grid8):
    n = grid8.n
    raw = np.zeros((3, n, n, n), dtype=np.complex128)
    raw[0, 1, 0, 0] = 1.0  # uhat parallel to k = (1, 0, 0)
    raw[0, n - 1, 0, 0] = 1.0
    out = leray_project(SpectralVelocity(grid8, raw))
    assert np.abs(out.coefficients).max() == 0.0


def test_leray_keeps_transverse_mode(grid8):
    n = grid8.n
    raw = np.zeros((3, n, n, n), dtype=np.complex128)
    raw[1, 1, 0, 0] = 1.0  # uhat perpendicular to k = (1, 0, 0)
    raw[1, n - 1, 0, 0] = 1.0
    out = leray_project(SpectralVelocity(grid8, raw))
    assert np.allclose(out.coefficients, raw, atol=0, rtol=0)


@pytest.mark.parametrize("with_ksq", [True, False])
def test_leray_on_blocks_of_x_planes_equals_one_piece(grid16, with_ksq):
    # only the block that holds mode 0 zeroes it
    g = grid16
    noise = np.random.default_rng(5).standard_normal((3, g.n, g.n, g.n))
    band = to_band(np.fft.fftn(noise, axes=(-3, -2, -1)), g)
    want = _kernels.leray_project_modes(band.copy(), g.kx_band, g.kx_band, g.kz_band,
                                        g.ksq_band if with_ksq else None)
    got = band.copy()
    for lo, hi in ((0, 4), (4, 5), (5, 11)):
        _kernels.leray_project_modes(got[:, lo:hi], g.kx_band[lo:hi], g.kx_band, g.kz_band,
                                     g.ksq_band[lo:hi] if with_ksq else None)
    assert np.array_equal(got, want)
    # mode 0 is zeroed, and the first mode of the block at x = 4 keeps its
    # components across k = (k_4, 0, 0)
    assert np.all(want[:, 0, 0, 0] == 0.0) and np.all(want[1:, 4, 0, 0] != 0.0)


def test_leray_output_divergence_free(grid16):
    rng = np.random.default_rng(42)
    noise = rng.standard_normal((3, 16, 16, 16))
    raw = np.fft.fftn(noise, axes=(-3, -2, -1)) / 16**3
    out = leray_project(SpectralVelocity(grid16, np.ascontiguousarray(raw)))
    c = out.coefficients
    g = grid16
    div = (
        g.kx[:, None, None] * c[0]
        + g.kx[None, :, None] * c[1]
        + g.kx[None, None, :] * c[2]
    )
    scale = (np.sqrt(g.ksq) * np.abs(c).max()).max()
    assert np.abs(div).max() <= 1e-12 * scale
    assert np.abs(c[:, 0, 0, 0]).max() == 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_leray_idempotent(seed):
    g = make_wavegrid(8)
    rng = np.random.default_rng(seed)
    raw = np.fft.fftn(rng.standard_normal((3, 8, 8, 8)), axes=(-3, -2, -1)) / 512
    once = leray_project(SpectralVelocity(g, np.ascontiguousarray(raw)))
    twice = leray_project(once)
    peak = np.abs(once.coefficients).max()
    assert np.abs(twice.coefficients - once.coefficients).max() <= 1e-15 * peak


# ------------------------------------------------------ stokes eigenvalues

def test_stokes_eigenvalues_default_domain(grid16):
    # |k|^2 on the 2 pi box: lam1 = 1, and the lowest shell has 6 modes
    assert grid16.lam1 == 1.0
    values = np.unique(grid16.ksq)
    assert values[1:7].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert (grid16.ksq_int == 1).sum() == 6


def test_stokes_eigenvalues_multiplicities_by_enumeration(grid8):
    # independent oracle: enumerate the integer lattice directly
    import itertools

    counts = {}
    for kx, ky, kz in itertools.product(range(-4, 4), repeat=3):
        s = kx * kx + ky * ky + kz * kz
        counts[s] = counts.get(s, 0) + 1
    values, mults = np.unique(grid8.ksq_int, return_counts=True)
    assert dict(zip(values.tolist(), mults.tolist())) == counts


def test_stokes_eigenvalues_scaled_domain():
    g = make_wavegrid(8, math.pi)
    assert g.lam1 == 4.0
    assert np.unique(g.ksq)[1] == 4.0


@pytest.mark.parametrize("name", ["stokes_apply", "stokes_eigenvalues", "EigenvalueTable",
                                  "RealVelocity", "classical_bound_free", "classical_bound_forced"])
def test_names_without_callers_stay_removed(name):
    import nsreg.bounds
    import nsreg.spectral

    assert not any(hasattr(module, name) for module in (nsreg, nsreg.spectral, nsreg.bounds))


# ----------------------------------------------------------------- norms

def test_sobolev_norm_shear_l2(grid16):
    u = shear_field(grid16, 1.0)
    assert sobolev_norm(u, 0) == pytest.approx(math.sqrt(4 * math.pi**3), rel=1e-14)


def test_sobolev_norm_shear_h1(grid16):
    u = shear_field(grid16, 1.0)
    assert sobolev_norm(u, 1) == pytest.approx(math.sqrt(4 * math.pi**3), rel=1e-14)


def test_sobolev_norm_zero_field(grid8):
    z = SpectralVelocity(grid8, np.zeros((3, 8, 8, 8), dtype=np.complex128))
    assert sobolev_norm(z, 0) == 0.0


def test_sobolev_norm_rejects_negative_order(grid8):
    with pytest.raises(ValueError):
        sobolev_norm(shear_field(grid8), -1.0)


def test_sobolev_norm_fractional_order(grid16):
    # on a single-frequency field every order gives the same value
    u = shear_field(grid16, 2.0)
    assert sobolev_norm(u, 0.5) == pytest.approx(sobolev_norm(u, 0), rel=1e-14)


def test_parseval_against_physical_quadrature(rand_field):
    u = rand_field(7)
    spectral = sobolev_norm(u, 0) ** 2
    physical = physical_l2_sq(u)
    assert abs(spectral - physical) <= 1e-10 * spectral


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       slope=st.sampled_from([-3.0, -2.0, 0.0, 1.0]))
def test_poincare_inequality(seed, slope):
    g = make_wavegrid(8)
    u = random_divfree_field(g, seed, slope, 1.0)
    l2_sq = sobolev_norm(u, 0) ** 2
    h1_sq = sobolev_norm(u, 1) ** 2
    assert g.lam1 * l2_sq <= h1_sq * (1.0 + 1e-12)


def test_inner_product_matches_norm(rand_field):
    u = rand_field(11)
    assert inner_product(u, u) == pytest.approx(sobolev_norm(u, 0) ** 2, rel=1e-13)


# ------------------------------------------------------------ trilinear form

def test_trilinear_self_advection_of_shear_vanishes(grid16):
    u = shear_field(grid16, 1.0)
    assert abs(trilinear_b(u, u, u)) <= 1e-12


def test_trilinear_skew_symmetry(rand_field):
    u, v, w = rand_field(1), rand_field(2), rand_field(3)
    scale = sobolev_norm(u, 1) * sobolev_norm(v, 1) * sobolev_norm(w, 1)
    assert abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) <= 1e-10 * scale


def test_trilinear_closed_form_value(grid16):
    # u = (sin y, 0, 0), v = (0, sin x, 0), w = P (0, cos x sin y, 0):
    # the projected w halves the y-component, so b = pi^3.
    n = grid16.n
    u = shear_field(grid16, 1.0)
    vraw = np.zeros((3, n, n, n), dtype=np.complex128)
    vraw[1, 1, 0, 0] = -0.5j
    vraw[1, n - 1, 0, 0] = 0.5j
    v = SpectralVelocity(grid16, vraw)
    wraw = np.zeros((3, n, n, n), dtype=np.complex128)
    for sx in (1, n - 1):
        for sy in (1, n - 1):
            wraw[1, sx, sy, 0] = 0.5 * (-0.5j if sy == 1 else 0.5j)
    w = leray_project(SpectralVelocity(grid16, wraw))
    value = trilinear_b(u, v, w)
    assert value == pytest.approx(math.pi**3, rel=1e-12)


def test_trilinear_against_fine_quadrature_oracle(rand_field, grid16):
    u, v, w = rand_field(21), rand_field(22), rand_field(23)
    direct = trilinear_b(u, v, w)
    oracle = fine_quadrature_b(u, v, w, factor=4)
    scale = max(abs(oracle), 1e-12)
    assert abs(direct - oracle) <= 1e-10 * scale


def test_trilinear_grid_mismatch(grid8, grid16):
    with pytest.raises(GridMismatchError):
        trilinear_b(shear_field(grid8), shear_field(grid16), shear_field(grid16))


# ----------------------------------------------------------- nonlinear term

def test_nonlinear_term_shear_flow_vanishes(grid16):
    out = nonlinear_term(shear_field(grid16, 3.0))
    assert np.abs(out.coefficients).max() <= 1e-15


@pytest.mark.parametrize("n", [8, 12, 16])
def test_five_component_flux_projects_to_six_product_convection(n):
    from scipy.fft import rfftn

    g = make_wavegrid(n)
    band = to_band(random_divfree_field(g, n, -2.0, 3.0).coefficients, g)
    u, flux = _full_flux_contraction(band, g)
    kx, ky, kz = g.kx_band[:, None, None], g.kx_band[None, :, None], g.kz_band

    def band_spectrum(samples):
        return to_band(rfftn(samples, axes=(-3, -2, -1), norm="forward"), g)

    # sum_i d(u_i u_j)/dx_i from unpruned transforms of all six products
    f = {}
    for i in range(3):
        for j in range(i, 3):
            f[i, j] = f[j, i] = band_spectrum(u[i] * u[j])
    six = 1j * np.stack([kx * f[0, j] + ky * f[1, j] + kz * f[2, j] for j in range(3)])

    # unprojected, the two differ by the pure gradient grad(u_z^2) ...
    grad = 1j * np.stack(np.broadcast_arrays(kx, ky, kz)) * band_spectrum(u[2] * u[2])
    assert np.abs(six - 1j * flux - grad).max() <= 1e-13 * np.abs(six).max()

    # ... which the projection removes
    _kernels.leray_project_modes(six, g.kx_band, g.kx_band, g.kz_band)
    five = 1j * convection_band(band, g)
    assert np.abs(five - six).max() <= 1e-13 * np.abs(six).max()


def test_nonlinear_term_energy_neutral(rand_field):
    u = rand_field(31, amplitude=2.0)
    b_uu_u = inner_product(nonlinear_term(u), u)
    assert abs(b_uu_u) <= 1e-10 * sobolev_norm(u, 1) ** 3


def test_nonlinear_term_adjoint_consistency(rand_field):
    u = rand_field(41, amplitude=1.5)
    bu = nonlinear_term(u)
    for seed in range(10):
        w = rand_field(100 + seed)
        lhs = inner_product(bu, w)
        rhs = trilinear_b(u, u, w)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-12)


def test_nonlinear_term_is_divergence_free(rand_field):
    nonlinear_term(rand_field(51)).validate()


# ------------------------------------------------------------- random fields

def test_random_field_deterministic(grid16):
    a = random_divfree_field(grid16, 9, -2.0, 1.0)
    b = random_divfree_field(grid16, 9, -2.0, 1.0)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_random_field_zero_amplitude(grid16):
    u = random_divfree_field(grid16, 1, -2.0, 0.0)
    assert np.abs(u.coefficients).max() == 0.0


def test_random_field_unit_norm(grid16):
    u = random_divfree_field(grid16, 1, -2.0, 1.0)
    assert abs(sobolev_norm(u, 0) - 1.0) <= 1e-12


def test_random_field_invariants_and_band(grid16):
    u = random_divfree_field(grid16, 13, -1.0, 2.5)
    u.validate()
    outside = u.coefficients[:, ~grid16.dealias_mask]
    assert np.abs(outside).max() == 0.0


def full_grid_random_field(grid, seed, slope, amplitude):
    """The random field built on the full grid, then zeroed outside the band:
    the construction that random_divfree_field replaces, kept as its oracle."""
    n = grid.n
    rng = np.random.default_rng(seed)
    c = fftn(rng.standard_normal((3, n, n, n)), axes=(-3, -2, -1))
    c /= grid.n_modes
    _kernels.leray_project_modes(c, grid.kx, grid.kx, grid.kx)
    band = grid.dealias_mask & (grid.ksq_int > 0)
    mode_mag = np.sqrt(_kernels.squared_modulus(c))
    mode_mag[~(mode_mag > 0.0)] = 1.0
    target = np.zeros_like(grid.ksq)
    target[band] = grid.ksq[band] ** (slope / 4.0)
    c *= target / mode_mag
    c *= amplitude / sobolev_norm(SpectralVelocity(grid, c.view()), 0)
    return c


RANDOM_FIELD_CASES = [(0, -2.0, 1.0), (7, -3.0, 0.01), (123, 0.0, 40.0), (4242, 1.0, 2.5),
                      (9, -5.0 / 3.0, 1e-5)]


@pytest.mark.parametrize("length", [TWO_PI, 3.0])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_random_field_matches_full_grid_construction(n, length):
    g = make_wavegrid(n, length)
    for seed, slope, amplitude in RANDOM_FIELD_CASES:
        got = random_divfree_field(g, seed, slope, amplitude).coefficients
        want = full_grid_random_field(g, seed, slope, amplitude)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_random_field_is_exact_on_the_band(n):
    # exactly Hermitian, exactly zero outside the band, of L2 norm amplitude to rounding
    g = make_wavegrid(n)
    for seed, slope, amplitude in RANDOM_FIELD_CASES:
        u = random_divfree_field(g, seed, slope, amplitude)
        assert max(hermitian_defect(comp) for comp in u.coefficients) == 0.0
        assert not np.any(u.coefficients[:, ~g.dealias_mask])
        assert abs(sobolev_norm(u, 0) - amplitude) <= 1e-15 * amplitude


def test_random_field_gives_back_the_workspace(monkeypatch):
    # the same idle buffers after a call that returns and after calls that raise
    g = make_wavegrid(8)

    def idle_workspace():
        work = g.take_workspace()
        g.give_back_workspace(work)
        return work

    random_divfree_field(g, 1)
    work = idle_workspace()
    random_divfree_field(g, 2)
    assert idle_workspace() is work
    with pytest.raises(ConfigurationError, match="slope"):
        random_divfree_field(g, 1, 3000.0)
    assert idle_workspace() is work

    def failing_transform(*args):
        raise RuntimeError("transform failed")

    monkeypatch.setattr(spectral, "physical_to_band", failing_transform)
    with pytest.raises(RuntimeError, match="transform failed"):
        random_divfree_field(g, 1)
    assert idle_workspace() is work


@pytest.mark.parametrize("length,amplitudes", [
    (TWO_PI, [10.0**-k for k in range(300, 325)] + [5e-324, 1e300, 1.7e308]),
    (1e-30, [1.0, 1e250, 1e280, 1e300, 1.7e308])])
def test_random_field_never_fails_validate(length, amplitudes):
    # far out of range the scaled field underflows to subnormals or overflows:
    # it is refused as a configuration error, never returned unvalidatable
    g = make_wavegrid(8, length)
    refused = 0
    for amplitude in amplitudes:
        try:
            u = random_divfree_field(g, 3, -2.0, amplitude)
        except ConfigurationError as exc:
            assert "out of range" in str(exc)
            refused += 1
            continue
        u.validate()
    assert 0 < refused < len(amplitudes)


def test_random_field_rejects_negative_amplitude(grid16):
    with pytest.raises(ConfigurationError):
        random_divfree_field(grid16, 1, -2.0, -1.0)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_random_field_rejects_non_finite_amplitude(grid16, amplitude):
    with pytest.raises(ConfigurationError):
        random_divfree_field(grid16, 1, -2.0, amplitude)


def test_random_field_rejects_negative_seed(grid8):
    with pytest.raises(ConfigurationError, match="seed"):
        random_divfree_field(grid8, -1, -2.0, 1.0)


@pytest.mark.parametrize("slope", [1e308, 3000.0])
def test_random_field_rejects_slope_with_non_finite_norm(grid8, slope):
    with pytest.raises(ConfigurationError, match="slope"):
        random_divfree_field(grid8, 1, slope, 1.0)


def test_validate_rejects_nan_mode(grid8):
    # the peak is taken per component: a NaN in any of them must survive
    # the maximum, whether the other components are finite or zero
    field = random_divfree_field(grid8, 3, -2.0, 1.0).coefficients
    for others in (field, np.zeros_like(field)):
        for comp in range(3):
            c = others.copy()
            c[comp, 1, 0, 0] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                SpectralVelocity(grid8, c).validate()


def test_validate_rejects_nonzero_mean(grid8):
    c = np.array(random_divfree_field(grid8, 3, -2.0, 1.0).coefficients)
    c[2, 0, 0, 0] = 0.5  # real, so the field stays Hermitian
    with pytest.raises(ValueError, match="nonzero mean"):
        SpectralVelocity(grid8, c).validate()


def test_validate_refuses_a_divergence_that_overflows(grid8):
    # k . uhat = 2 (1.5e308 - 1e308) at k = (2, 2, 1) sums inf and -inf to NaN
    band = np.zeros((3,) + grid8.ksq_band.shape, dtype=np.complex128)
    band[:2, 2, 2, 1] = 1.5e308, -1e308
    u = SpectralVelocity.from_band(grid8, band)
    for field in (u, SpectralVelocity(grid8, u.coefficients.copy())):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="divergence-free.*nan"):
            field.validate()


def test_divergence_sums_in_the_order_of_its_callers(grid8):
    v = random_divfree_field(grid8, 4, -2.0, 1.0).coefficients + 0.1
    g = grid8.kx
    want = g[:, None, None] * v[0] + g[None, :, None] * v[1] + g * v[2]
    div, scratch = _kernels.divergence(v, g, g, g)
    assert np.array_equal(div, want) and np.abs(want).max() > 0.0
    assert scratch.shape == div.shape and scratch.dtype == div.dtype


def test_field_with_norms_hits_targets(grid16):
    u = field_with_norms(grid16, 5, 0.4, 1.0)
    u.validate()
    assert sobolev_norm(u, 0) == pytest.approx(0.4, rel=1e-12)
    assert sobolev_norm(u, 1) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_field_with_norms_rejects_infeasible(grid16):
    with pytest.raises(ConfigurationError):
        field_with_norms(grid16, 5, 0.01, 1.0)  # needs |k|^2 = 10^4
    with pytest.raises(ConfigurationError):
        field_with_norms(grid16, 5, 2.0, 1.0)  # below the Poincare line


# -------------------------------------------------------------- transforms

def test_round_trip_physical(rand_field):
    from nsreg import from_physical

    u = rand_field(61)
    samples = to_physical(u)
    assert samples.shape == (3, 16, 16, 16) and samples.dtype == np.float64
    back = from_physical(u.grid, samples)
    assert np.abs(back - u.coefficients).max() <= 1e-13


def _plant_sites(n):
    """One index per block pair of :func:`hermitian_defect`, kz >= 0 half
    (x, y in {0, 1..N-1}; z in {0, 1..N/2}, including the kz = N/2 plane),
    plus sites with kz < 0 only."""
    h = n // 2
    sites = [(x, y, z) for x in (0, 1, n - 1) for y in (0, 2, n - 1) for z in (0, 1, h)]
    return sites + [(1, 2, n - 1), (0, 0, h + 1), (n - 1, 0, n - 1)]


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_hermitian_defect_equals_full_adjoint_defect(n):
    rng = np.random.default_rng(n)
    g = make_wavegrid(n)
    base = random_divfree_field(g, n).coefficients
    for comp, site in enumerate(_plant_sites(n)):
        for size in (1e-9, 3.0):
            c = np.array(base)
            c[(comp % 3,) + site] += size * complex(*rng.standard_normal(2))
            want = float(np.abs(c - hermitian_adjoint(c)).max())
            assert want > 0.0
            assert hermitian_defect(c) == want
    assert hermitian_defect(base) == float(np.abs(base - hermitian_adjoint(base)).max())


@pytest.mark.parametrize("zero_base", [False, True])
def test_hermitian_defect_keeps_a_nan(zero_base):
    n = 8
    g = make_wavegrid(n)
    base = np.zeros((3, n, n, n), complex) if zero_base else random_divfree_field(g, 5).coefficients
    for comp, site in enumerate(_plant_sites(n)):
        c = np.array(base)
        c[(comp % 3,) + site] = complex(np.nan, 0.0)
        assert np.isnan(np.abs(c - hermitian_adjoint(c)).max())
        assert np.isnan(hermitian_defect(c)), site


@pytest.mark.parametrize("n", [4, 8])
def test_validate_rejects_planted_hermitian_defect(n):
    g = make_wavegrid(n)
    c = np.array(random_divfree_field(g, 1).coefficients)
    c[0, 0, 0, n // 2] += 1e-3j  # the kz = N/2 plane: its own mirror
    with pytest.raises(ValueError, match="Hermitian"):
        SpectralVelocity(g, c).validate()


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_worst_divergence_equals_the_unblocked_maximum(n):
    # blocks of x-planes give each mode's k . c bit for bit, so the same maximum
    g = make_wavegrid(n)
    rng = np.random.default_rng(n)
    c = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    band = to_band(c, g)
    for arr, kxy, kz in ((c, g.kx, g.kx), (band, g.kx_band, g.kz_band)):
        want = float(np.abs(_kernels.divergence(arr, kxy, kxy, kz)[0]).max())
        assert spectral._worst_divergence(arr, kxy, kz) == want
    c[1, n - 1, 0, 1] = np.nan  # in the last block
    assert np.isnan(spectral._worst_divergence(c, g.kx, g.kx))


def test_validate_peak_is_about_one_component():
    # the divergence check holds a block of x-planes at a time, so the
    # Hermitian check's temporaries, about one component, set the peak
    # (2.25 components when the divergence was formed over the whole field);
    # a field that holds its band is checked there, below a tenth of that
    g = make_wavegrid(32)
    on_band = random_divfree_field(g, 1)
    full = SpectralVelocity(g, on_band.coefficients.copy())
    component = full.coefficients[0].nbytes
    for u, bound in ((full, 1.25 * component), (on_band, 0.1 * component)):
        u.validate()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            u.validate()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound


def _verdict(u):
    try:
        u.validate()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([8, 16]), seed=st.integers(0, 10_000),
       log_amplitude=st.floats(-323.0, 2.0),
       plant=st.sampled_from(["none", "nan", "inf", "mean", "divergence"]),
       site=st.tuples(st.integers(0, 2), st.integers(0, 10), st.integers(0, 10),
                      st.integers(0, 5)),
       factor=st.floats(0.5, 2.0))
def test_validate_gives_the_same_verdict_on_both_layouts(n, seed, log_amplitude, plant, site,
                                                         factor):
    g = make_wavegrid(n)
    band = random_divfree_field(g, seed).band * 10.0**log_amplitude  # down to subnormal
    comp, x, y, z = (i % s for i, s in zip(site, (3,) + g.ksq_band.shape))
    peak = np.abs(band).max()
    if plant in ("nan", "inf"):
        band[comp, x, y, z] = getattr(np, plant)
    elif plant == "mean":  # about the 1e-13 relative bound
        band[comp, 0, 0, 0] = factor * 1e-13 * peak
    elif plant == "divergence" and (x, y, z) != (0, 0, 0):  # along k, about the tolerance
        k = np.array([g.kx_band[x], g.kx_band[y], g.kz_band[z]])
        band[:, x, y, z] += factor * spectral._divergence_tolerance(g, peak) * k / (k @ k)
    with np.errstate(all="ignore"):
        u = SpectralVelocity.from_band(g, band)
        full = SpectralVelocity(g, u.coefficients.copy())
        assert full.band is None
        assert _verdict(u) == _verdict(full)


def test_hermitian_plane_leaves_a_hermitian_plane_unchanged():
    g = make_wavegrid(16)
    rng = np.random.default_rng(2)
    b = g.ksq_band.shape[0]
    neg = -np.arange(b) % b
    plane = rng.standard_normal((3, b, b)) + 1j * rng.standard_normal((3, b, b))
    plane[:, 0, 0] = plane[:, 0, 0].real  # its own mirror: real, +0.0 imaginary part
    upper = (np.arange(b)[:, None] * b + np.arange(b)) > (neg[:, None] * b + neg)
    plane[:, upper] = np.conj(plane[:, neg][:, :, neg][:, upper])  # mode -k from mode k
    planes = [plane] + [random_divfree_field(g, s, -2.0, a).band[..., 0]
                        for s, a in ((1, 1.0), (2, 1e-300), (3, 1e100))]
    for want in planes:
        got = hermitian_plane(want[..., None])
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_field_from_band_holds_it_read_only(grid8):
    u = random_divfree_field(grid8, 4)
    assert u.band is not None and not u.band.flags.writeable
    assert "_coefficients" not in vars(u)
    c = u.coefficients
    assert not c.flags.writeable and u.coefficients is c and "_coefficients" in vars(u)
    assert np.array_equal(to_band(c, grid8), u.band)
    again = SpectralVelocity.from_band(grid8, u.band)  # read-only: taken as a copy
    assert again.band is not u.band and np.array_equal(again.band, u.band)
    with pytest.raises(AttributeError, match="immutable"):
        u.grid = make_wavegrid(16)
    for bad in (u.band[:2], u.band.astype(np.complex64)):
        with pytest.raises(GridMismatchError):
            SpectralVelocity.from_band(grid8, bad)


def test_hermitian_adjoint_involution(rand_field):
    u = rand_field(71)
    c = u.coefficients
    assert np.allclose(hermitian_adjoint(hermitian_adjoint(c)), c)
    assert np.abs(c - hermitian_adjoint(c)).max() <= 1e-13 * np.abs(c).max()


# ------------------------------------------------------------- snapshot io

def test_snapshot_round_trip(tmp_path, rand_field):
    u = rand_field(81, amplitude=0.7)
    path = tmp_path / "field.nsrc"
    save_field(u, path, seed=81, provenance={"note": "test"})
    loaded = load_field(path)
    assert loaded.grid == u.grid
    assert np.array_equal(loaded.coefficients, u.coefficients)

    sidecar = path.with_name(path.name + ".json")
    assert sidecar.exists()
    import json

    meta = json.loads(sidecar.read_text())
    assert meta["seed"] == 81
    assert meta["n"] == 16
    assert meta["note"] == "test"


def test_snapshot_header_layout(tmp_path, grid8):
    u = shear_field(grid8, 1.0)
    path = tmp_path / "f.nsrc"
    save_field(u, path)
    blob = path.read_bytes()
    assert blob[:5] == b"NSRC1"
    import struct

    magic, n, length, ncomp = struct.unpack("<5sIdI", blob[:21])
    assert (n, ncomp) == (8, 3)
    assert length == pytest.approx(TWO_PI)
    assert len(blob) == 21 + 3 * 8**3 * 16


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.nsrc"
    path.write_bytes(b"NOPE!" + b"\0" * 64)
    with pytest.raises(ConfigurationError):
        load_field(path)
