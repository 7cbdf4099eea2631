"""Tests for the empirical embedding-constant calibration."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import ifftn

from nsreg import (
    ConfigurationError,
    SpectralVelocity,
    make_wavegrid,
    random_divfree_field,
    shear_field,
    sobolev_norm,
)
from nsreg import calibrate
from nsreg.calibrate import calibrate_constants, embedding_ratios
from nsreg.spectral import hermitian_adjoint


# closed forms for u = a (sin y, 0, 0):
#   |u|_L6 = a (5 pi^3 / 2)^(1/6),      |grad u| = |Lap u| = a sqrt(4 pi^3)
#   |grad u|_L3 = a (32 pi^2 / 3)^(1/3)
SHEAR_L6_RATIO = (2.5 * math.pi**3) ** (1.0 / 6.0) / math.sqrt(4.0 * math.pi**3)
SHEAR_L3_RATIO = (32.0 * math.pi**2 / 3.0) ** (1.0 / 3.0) / math.sqrt(4.0 * math.pi**3)


def test_shear_ratios_match_closed_form():
    grid = make_wavegrid(8)
    ratios = embedding_ratios(shear_field(grid, 1.3), oversample=24)
    assert abs(ratios.l6_over_grad - SHEAR_L6_RATIO) <= 1e-8
    assert abs(ratios.l3_over_interp - SHEAR_L3_RATIO) <= 1e-8


def test_ratios_are_scale_invariant():
    grid = make_wavegrid(8)
    small = embedding_ratios(shear_field(grid, 0.01), oversample=4)
    large = embedding_ratios(shear_field(grid, 10.0), oversample=4)
    assert small.l6_over_grad == pytest.approx(large.l6_over_grad, rel=1e-12)
    assert small.l3_over_interp == pytest.approx(large.l3_over_interp, rel=1e-12)


def test_ratios_reject_zero_field():
    grid = make_wavegrid(8)
    with pytest.raises(ConfigurationError):
        embedding_ratios(shear_field(grid, 0.0))


def test_ratios_reject_bad_oversample():
    grid = make_wavegrid(8)
    with pytest.raises(ConfigurationError):
        embedding_ratios(shear_field(grid, 1.0), oversample=1)


@pytest.mark.parametrize("oversample", [math.nan, math.inf, -math.inf, "4", 2.5, True, None])
def test_ratios_reject_non_integer_oversample(oversample):
    grid = make_wavegrid(8)
    with pytest.raises(ConfigurationError):
        embedding_ratios(shear_field(grid, 1.0), oversample=oversample)


@pytest.mark.parametrize("n_ensemble", [2.5, True, "2", math.nan, math.inf, 0])
def test_calibration_rejects_non_integer_ensemble(n_ensemble):
    with pytest.raises(ConfigurationError):
        calibrate_constants(make_wavegrid(8), n_ensemble, oversample=2)


def test_integral_float_counts_are_accepted():
    grid = make_wavegrid(8)
    u = shear_field(grid, 1.0)
    assert embedding_ratios(u, oversample=2.0) == embedding_ratios(u, oversample=2)
    result = calibrate_constants(grid, 2.0, oversample=2.0)
    assert type(result.n_ensemble) is int
    assert result == calibrate_constants(grid, 2, oversample=2)


def test_ratios_are_plain_floats():
    ratios = embedding_ratios(random_divfree_field(make_wavegrid(8), 1, -2.0, 1.0))
    assert type(ratios.l6_over_grad) is float
    assert type(ratios.l3_over_interp) is float


def test_single_member_ensemble_equals_field_ratio():
    grid = make_wavegrid(16)
    u = random_divfree_field(grid, 3, -2.0, 1.0)
    direct = embedding_ratios(u, oversample=4)
    result = calibrate_constants(grid, 1, seed=3, oversample=4)
    assert result.max_l6_ratio == pytest.approx(direct.l6_over_grad, rel=1e-14)
    assert result.max_l3_ratio == pytest.approx(direct.l3_over_interp, rel=1e-14)


def test_growing_ensemble_maxima_nondecreasing():
    grid = make_wavegrid(16)
    maxima6, maxima3 = [], []
    for size in (1, 2, 4):
        r = calibrate_constants(grid, size, seed=0, oversample=2)
        maxima6.append(r.max_l6_ratio)
        maxima3.append(r.max_l3_ratio)
    assert maxima6 == sorted(maxima6)
    assert maxima3 == sorted(maxima3)


def test_defaults_not_exceeded_by_random_ensemble():
    grid = make_wavegrid(16)
    result = calibrate_constants(grid, 6, seed=0, oversample=2)
    assert result.warnings == ()
    assert result.max_l6_ratio < result.default_c_sobolev
    assert result.max_l3_ratio < result.default_c_interp


def test_warning_when_defaults_exceeded():
    grid = make_wavegrid(8)
    result = calibrate_constants(grid, 1, seed=0, oversample=2,
                                 c_sobolev=1e-6, c_interp=1e-6)
    assert len(result.warnings) == 2


def test_calibration_json_dict():
    grid = make_wavegrid(8)
    payload = calibrate_constants(grid, 2, seed=1, oversample=2).to_json_dict()
    assert set(payload) == {"n_ensemble", "empirical_lower_bounds",
                            "argmax_seeds", "defaults", "warnings"}
    assert payload["n_ensemble"] == 2


# ------------------------------------------- quadrature against the padded-copy formula

def _padded_samples(comp_hat, n, m):
    """Fine-grid samples by shifting, zero padding and shifting back."""
    padded = np.zeros((m, m, m), dtype=np.complex128)
    lo = (m - n) // 2
    padded[lo : lo + n, lo : lo + n, lo : lo + n] = np.fft.fftshift(comp_hat)
    return np.real(ifftn(np.fft.ifftshift(padded), axes=(-3, -2, -1)) * m**3)


def _oracle_ratios(u, oversample):
    grid = u.grid
    n, m = grid.n, oversample * grid.n
    cell = (grid.length / m) ** 3
    speed_sq = np.zeros((m, m, m))
    gradmag_sq = np.zeros((m, m, m))
    axes_k = (grid.kx[:, None, None], grid.kx[None, :, None], grid.kx[None, None, :])
    for j in range(3):
        comp = _padded_samples(u.coefficients[j], n, m)
        speed_sq += comp * comp
        for i in range(3):
            d = _padded_samples(1j * axes_k[i] * u.coefficients[j], n, m)
            gradmag_sq += d * d
    l6 = (float((speed_sq**3).sum()) * cell) ** (1.0 / 6.0)
    l3 = (float((gradmag_sq**1.5).sum()) * cell) ** (1.0 / 3.0)
    grad_l2, lap_l2 = sobolev_norm(u, 1), sobolev_norm(u, 2)
    return l6 / grad_l2, l3 / np.sqrt(grad_l2 * lap_l2)


def _field_with_nyquist(n, seed=7):
    """A Hermitian field with content in every mode, the Nyquist planes included
    (zero mean, not divergence-free: the quadrature does not need it)."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    c = 0.5 * (c + hermitian_adjoint(c))
    c[:, 0, 0, 0] = 0.0
    assert np.all(np.abs(c[:, n // 2]) > 0)  # Nyquist content
    return SpectralVelocity(make_wavegrid(n), c)


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("oversample", [2, 3, 4, 5])
def test_ratios_bitwise_equal_padded_copy_formula(n, oversample, monkeypatch):
    u = _field_with_nyquist(n)
    l6, l3 = _oracle_ratios(u, oversample)
    # the default blocks, then blocks of 7 x-planes, a count that divides no m here
    for planes in (None, 7):
        if planes is not None:
            assert (oversample * n) % planes != 0
            monkeypatch.setattr(calibrate, "_block_planes", lambda m, n: planes)
        ratios = embedding_ratios(u, oversample=oversample)
        assert ratios.l6_over_grad.hex() == float(l6).hex()
        assert ratios.l3_over_interp.hex() == float(l3).hex()


@pytest.mark.parametrize("n", [16, 32])
def test_ratios_peak_is_one_fine_accumulator_and_a_compact_spectrum(n):
    u = random_divfree_field(make_wavegrid(n), 3, -2.0, 1.0)
    embedding_ratios(u, oversample=4)  # warm: first-call caches of the FFT library
    m = 4 * n
    tracemalloc.start()
    try:
        embedding_ratios(u, oversample=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the real (m, m, m) accumulator, the complex (m, n, n) spectrum after
    # the x pass, and the block buffers (about 1 MiB) with slack
    assert peak <= 8 * m**3 + 16 * m * n * n + 1.5 * 2**20, peak / 2**20
