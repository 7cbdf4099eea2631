"""Pointwise and modewise kernels of the stepper's inner loop.

Each kernel is a sequential numpy expression, deterministic for fixed
inputs.  Callers look them up on this module at call time.  The flux of
:func:`convective_product` is Basdevant's five-component form: it gives
the convection term only after a Leray projection.
"""

import numpy as np


def convective_product(u_phys, out=None):
    """Basdevant's five-component flux on the collocation grid.

    u_phys: (3, n, n, n) float64.  Returns (5, n, n, n) float64 holding
    (u_x^2 - u_z^2, u_x u_y, u_x u_z, u_y^2 - u_z^2, u_y u_z): the flux
    u_i u_j minus delta_ij u_z^2, whose zz component is zero.  Its
    divergence is (u . grad) u minus grad(u_z^2), so it gives the
    convection only after a Leray projection.  ``out``, when given, is
    written and returned; it must not overlap ``u_phys``.
    """
    ux, uy, uz = u_phys
    if out is None:
        out = np.empty((5,) + u_phys.shape[1:])
    zz = np.multiply(uz, uz, out=out[2])  # slot 2 holds u_z^2 until u_x u_z
    np.subtract(np.multiply(ux, ux, out=out[0]), zz, out=out[0])
    np.subtract(np.multiply(uy, uy, out=out[3]), zz, out=out[3])
    np.multiply(ux, uy, out=out[1])
    np.multiply(ux, uz, out=out[2])
    np.multiply(uy, uz, out=out[4])
    return out


def leray_project_modes(vhat, kx, ky, kz, ksq=None):
    """Remove the gradient part of each Fourier mode, in place.

    vhat: (3, Nx, Ny, Nz) complex128; kx, ky, kz: scaled wavenumbers of
    each axis (N each for the full layout, B, B and kc for the band).
    ``ksq`` is kx^2 + ky^2 + kz^2 on the modes with 1 at mode 0 (such as
    ``WaveGrid.ksq_band``); it is formed here when None.  Mode 0 is
    zeroed.  Returns vhat.
    """
    gx = kx[:, None, None]
    gy = ky[None, :, None]
    gz = kz[None, None, :]
    if ksq is None:
        ksq = gx * gx + gy * gy + gz * gz
        ksq[0, 0, 0] = 1.0  # avoid 0/0; mode 0 is overwritten below
    div = np.multiply(gx, vhat[0])
    term = np.multiply(gy, vhat[1])
    div += term
    div += np.multiply(gz, vhat[2], out=term)
    div /= ksq
    for v, g in zip(vhat, (gx, gy, gz)):
        v -= np.multiply(g, div, out=term)
    vhat[:, 0, 0, 0] = 0.0
    return vhat


def weighted_spectral_sum(vhat, weight):
    """sum_k weight(k) * |vhat(k)|^2, summed over the three components.

    ``weight`` has the shape of one component of ``vhat``, and the result
    is a float; or it stacks such weights along a leading axis, and the
    result is a list with one sum per weight, |vhat|^2 formed once.
    """
    mag = squared_modulus(vhat)
    if weight.ndim == mag.ndim:
        return float((weight * mag).sum())
    return [float((w * mag).sum()) for w in weight]


def squared_modulus(vhat):
    """|vhat|^2 summed over the leading (component) axis.

    Accumulated one component at a time, in the order (c0 + c1) + c2 of
    ``.sum(axis=0)``, so without a temporary of all components.
    """
    mag = vhat[0].real * vhat[0].real + vhat[0].imag * vhat[0].imag
    for comp in vhat[1:]:
        mag += comp.real * comp.real + comp.imag * comp.imag
    return mag
