"""Pointwise and modewise kernels of the stepper's inner loop.

Each kernel is a sequential numpy expression, deterministic for fixed
inputs.  Callers look them up on this module at call time.
"""

import numpy as np

# (i, j) of the flux components returned by convective_product; the flux is
# symmetric, and FLUX_INDEX[i][j] is the component that holds u_i u_j
FLUX_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
FLUX_INDEX = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def convective_product(u_phys):
    """Convective flux u_i * u_j on the collocation grid, pairs i <= j.

    u_phys: (3, n, n, n) float64.  Returns (6, n, n, n) float64 ordered as
    :data:`FLUX_PAIRS` (xx, xy, xz, yy, yz, zz).
    """
    out = np.empty((len(FLUX_PAIRS),) + u_phys.shape[1:])
    for p, (i, j) in enumerate(FLUX_PAIRS):
        np.multiply(u_phys[i], u_phys[j], out=out[p])
    return out


def leray_project_modes(vhat, kx, ky, kz):
    """Remove the gradient part of each Fourier mode, in place.

    vhat: (3, Nx, Ny, Nz) complex128; kx, ky, kz: scaled wavenumbers of
    each axis (Nz = N for the full layout, N/2 + 1 for the half layout).
    Mode 0 is zeroed.  Returns vhat.
    """
    gx = kx[:, None, None]
    gy = ky[None, :, None]
    gz = kz[None, None, :]
    ksq = gx * gx + gy * gy + gz * gz
    ksq[0, 0, 0] = 1.0  # avoid 0/0; mode 0 is overwritten below
    div = (gx * vhat[0] + gy * vhat[1] + gz * vhat[2]) / ksq
    vhat[0] -= gx * div
    vhat[1] -= gy * div
    vhat[2] -= gz * div
    vhat[:, 0, 0, 0] = 0.0
    return vhat


def weighted_spectral_sum(vhat, weight):
    """sum_k weight(k) * |vhat(k)|^2, summed over the three components.

    ``weight`` has the shape of one component of ``vhat``, and the result
    is a float; or it stacks such weights along a leading axis, and the
    result is a list with one sum per weight, |vhat|^2 formed once.
    """
    mag = (vhat.real * vhat.real + vhat.imag * vhat.imag).sum(axis=0)
    if weight.ndim == mag.ndim:
        return float((weight * mag).sum())
    return [float((w * mag).sum()) for w in weight]
