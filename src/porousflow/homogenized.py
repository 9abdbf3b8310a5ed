"""Homogenized elliptic problem div[(I + k M) grad psi_c] = f, with M = 2I
for disk inclusions (``M_DISK``).

Solved by the fixed-point iteration grad psi_n = grad Delta^{-1} f -
L[grad psi_{n-1}] with L g = grad Delta^{-1} div(k M g), which contracts for
small sup k. The operator L has two interchangeable backends: a Fourier
multiplier xi (xi.g_hat)/|xi|^2 on a padded periodic box (real transforms,
multipliers cached per grid), and a direct principal-value quadrature of the
second-derivative kernel used as an independent cross-check. The
volume-fraction correction phi = -div Delta^{-1}(k M grad psi) and its
gradient have one quadrature, ``correction``: phi on a probe grid whose
spacing is a whole multiple of the k grid's (divcurl's probe) is one
zero-padded FFT convolution where that is less work than the direct sum, and
points (the Euler closure's particles), other grids and the gradient take the
direct sum. The grid solve
(spectral) and the Euler closure's full solve on the k cells (direct) share
one loop, ``_fixed_point``, and so one stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarGridField, VectorGridField, check_padding, gradient_multipliers, perp
from .potential import (
    _dipole_field,
    _displacements,
    _fft_convolve,
    _grad_kernel,
    grad_psi0_on_grid,
)

MAX_ITER = 50  # fixed-point iterations before a solve returns unconverged
# work of one cell of the correction's FFT box in direct pairs (2-core VM: 110 to
# 700 ns per cell, with the FFT length's factors, against 8 to 12 ns per pair)
FFT_CELL_PAIRS = 64
# The inclusions are disks, whose shape matrix is M = 2I (and so is the rotated
# M-hat of the modified curl relation), so k M g is M_DISK * k * g throughout.
M_DISK = 2.0


@dataclass
class HomogSolution:
    grad: VectorGridField
    first_order: VectorGridField  # the first iterate g0 - L g0 = grad psi_tilde
    increments: list[float]

    @property
    def iterations(self) -> int:
        return len(self.increments)


def apply_l_spectral(g: VectorGridField, k) -> VectorGridField:
    """grad Delta^{-1} div (k M g) by the periodic Fourier multiplier.

    The grid itself is the padded box; the support of k must keep clearance
    at least its own extent from every edge so periodization images stay
    negligible (their leading contributions cancel by lattice symmetry).
    w = k M g takes one batched real transform each way, with the cached
    ``fields.gradient_multipliers``. Killing the zero mode forces a zero box
    mean, whereas the free-space field of a density with integral P has box
    mean P/(2 |box|) (the kernel integrated over a large disk contributes
    exactly P/2); that constant is restored so the output follows the
    decay-at-infinity convention.
    """
    check_padding(k)
    if k.shape != g.values.shape[:2]:
        raise ValueError("k and g must share the grid")
    # one contiguous (nx, ny) block per component for the transforms and the sum
    w = np.stack([g.values[..., 0], g.values[..., 1]]) * (M_DISK * k.values)
    kx, ky, mx, my = gradient_multipliers(k.shape, g.h)
    w_hat = np.fft.rfft2(w)
    div_hat = mx * w_hat[0] + my * w_hat[1]
    out = np.moveaxis(np.fft.irfft2(np.stack([kx * div_hat, ky * div_hat]), s=k.shape), 0, 2)
    out += w.sum(axis=(1, 2)) / (2.0 * k.values.size)  # P / (2 |box|), P = h^2 sum w
    return VectorGridField(g.origin.copy(), g.h, out)


def k2_kernel_sum(
    src_centers: np.ndarray,
    src_values: np.ndarray,
    h: float,
    targets: np.ndarray,
    own: np.ndarray | None = None,
) -> np.ndarray:
    """Midpoint quadrature of the kernel (d_ij|z|^2 - 2 z_i z_j)/(2 pi |z|^4)
    applied to a vector density w: the unit-radius dipole gradient with
    A = w. ``own[i] >= 0`` removes source cell ``own[i]`` from target i (the
    excluded self cell of the PV sum)."""
    return _dipole_field(targets, src_centers, 1.0, src_values, True, own) * h * h / (2.0 * np.pi)


def k1_kernel_sum(
    src_centers: np.ndarray,
    src_values: np.ndarray,
    h: float,
    targets: np.ndarray,
) -> np.ndarray:
    """Midpoint quadrature of div Delta^{-1} applied to a vector density w:
    sum of (z . w)/(2 pi |z|^2), the unit-radius dipole value with A = w; the
    self cell (z = 0) contributes zero."""
    return _dipole_field(targets, src_centers, 1.0, src_values, False) * h * h / (2.0 * np.pi)


def _pv_on_cells(centers, w, h, targets, own) -> np.ndarray:
    """The direct PV operator: the k2 quadrature of the density w (K, 2) on
    the source cells ``centers``, without cell ``own[i]`` for target i, plus
    the local term +1/2 w[own[i]] at targets that land on a source cell."""
    out = k2_kernel_sum(centers, w, h, targets, own=own)
    hit = own >= 0
    out[hit] += 0.5 * w[own[hit]]
    return out


def apply_l_direct(g: VectorGridField, k, targets: np.ndarray) -> np.ndarray:
    """Independent backend: PV quadrature excluding the self cell plus the
    local term +1/2 (k M g)(x); evaluated at arbitrary target points."""
    if k.shape != g.values.shape[:2]:
        raise ValueError("k and g must share the grid")
    centers, kvals = k.nonzero_cells()
    w = (M_DISK * kvals)[:, None] * g.values[k.values != 0.0]
    return _pv_on_cells(centers, w, k.h, targets, k.nonzero_cell_index(targets))


def correction(k, g_cells: np.ndarray, targets, grad: bool = False):
    """The volume-fraction correction phi = -div Delta^{-1}(k M g) at
    ``targets`` (its gradient with ``grad``): the k1 (k2) quadrature of
    w = k M g over the nonzero cells of k, with ``g_cells`` the values of g
    at the centers of ``k.nonzero_cells()``, in that order.

    ``targets`` are points (T, 2) or a grid, whose cell centers are then the
    targets in ``centers_flat`` order. phi on a grid whose spacing is a whole
    multiple of ``k.h`` (to 1e-12 relative) is the same sum taken as one FFT
    convolution (``_k1_on_grid``) unless the direct sum is less work; points,
    any other grid and the gradient take the direct sum."""
    centers, kvals = k.nonzero_cells()
    w = (M_DISK * kvals)[:, None] * g_cells
    if isinstance(targets, ScalarGridField):
        ratio = targets.h / k.h
        step = round(ratio)
        if not grad and w.size and step >= 1 and abs(ratio - step) <= 1e-12 * ratio:
            phi = _k1_on_grid(k, w, targets, step)
            if phi is not None:
                return -phi
        targets = targets.centers_flat()
    if grad:
        return -k2_kernel_sum(centers, w, k.h, targets)
    return -k1_kernel_sum(centers, w, k.h, targets)


def _k1_on_grid(k, w: np.ndarray, probe: ScalarGridField, step: int) -> np.ndarray | None:
    """``k1_kernel_sum`` of the density w on the nonzero cells of k at every
    cell center of ``probe``, whose spacing is ``step`` cells of k. Every
    probe-to-cell separation lies on the shifted lattice (offset + n) k.h, so
    the sum is one zero-padded FFT convolution of w over the bounding box of
    the nonzero cells, read at every step-th output sample. None when the
    padded box, which grows with step, costs more than the direct sum."""
    ix, iy = np.nonzero(k.values)
    lo = np.array([ix.min(), iy.min()])
    n_src = (ix.max() - lo[0] + 1, iy.max() - lo[1] + 1)
    n_out = tuple((np.array(probe.shape) - 1) * step + 1)
    cells = (n_src[0] + n_out[0]) * (n_src[1] + n_out[1])
    if cells * FFT_CELL_PAIRS > probe.values.size * w.shape[0]:
        return None
    box = np.zeros(n_src + (2,))
    box[ix - lo[0], iy - lo[1]] = w
    # first probe center minus first box cell center, in cells of k
    offset = (probe.origin - k.origin) / k.h + 0.5 * (step - 1) - lo
    kx, ky = _grad_kernel(*_displacements(n_src, n_out, k.h, offset))
    s = _fft_convolve(box[..., 0], [kx], n_out)[0] + _fft_convolve(box[..., 1], [ky], n_out)[0]
    return s[::step, ::step].ravel() * k.h**2 / (2.0 * np.pi)


def _fixed_point(g0: np.ndarray, apply_l, h: float, tol: float):
    """Iterate g <- g0 - apply_l(g) from g = g0 over cell values of spacing h.

    Each increment is ||g_new - g|| / ||g0|| (h-weighted l2). Stops at the
    first increment below tol or after MAX_ITER iterations; three growing
    increments in a row raise RuntimeError. Returns (g, first iterate, increments).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    ref = max(float(np.sqrt((g0**2).sum() * h**2)), 1e-300)
    g = g0
    first = None
    increments: list[float] = []
    for _ in range(MAX_ITER):
        new = g0 - apply_l(g)
        inc = float(np.sqrt(((new - g) ** 2).sum() * h**2)) / ref
        increments.append(inc)
        g = new
        if first is None:
            first = new
        if inc < tol:
            break
        if len(increments) >= 3 and increments[-1] > increments[-2] > increments[-3]:
            raise RuntimeError(
                "fixed point is not contracting (two consecutive increment "
                "growths); reduce sup|k|"
            )
    return g, first, increments


def solve_psic_from_grad(psi0_grad: VectorGridField, k, tol: float = 1e-10) -> HomogSolution:
    """Fixed-point iteration on the grid (spectral backend) from a
    precomputed free-space gradient."""

    def apply_l(values):
        g = VectorGridField(psi0_grad.origin, psi0_grad.h, values)
        return apply_l_spectral(g, k).values

    values, first, increments = _fixed_point(psi0_grad.values, apply_l, psi0_grad.h, tol)
    grad = VectorGridField(psi0_grad.origin.copy(), psi0_grad.h, values)
    first_order = VectorGridField(psi0_grad.origin.copy(), psi0_grad.h, first)
    return HomogSolution(grad, first_order, increments)


def solve_psic(f: ScalarGridField, k, tol: float = 1e-10) -> HomogSolution:
    """Solve for grad psi_c with f given on the same (padded) grid as k."""
    return solve_psic_from_grad(grad_psi0_on_grid(f), k, tol)


def solve_on_cells(grad0: np.ndarray, k, tol: float = 1e-10) -> np.ndarray:
    """grad psi_c on the nonzero cells of k (direct backend), from
    grad0 = grad psi_0 at the centers of ``nonzero_cells()``, in that order."""
    centers, kvals = k.nonzero_cells()
    km = (M_DISK * kvals)[:, None]
    own = np.arange(centers.shape[0])  # each cell excludes itself

    def apply_l(g):
        return _pv_on_cells(centers, km * g, k.h, centers, own)

    return _fixed_point(grad0, apply_l, k.h, tol)[0]


def velocity_c(sol: HomogSolution, x) -> np.ndarray:
    """Bilinear interpolation of the perpendicular gradient at interior points."""
    x = np.asarray(x, dtype=float)
    g = sol.grad
    nx, ny = g.values.shape[:2]
    lo = g.origin + 0.5 * g.h
    hi = g.origin + (np.array([nx, ny]) - 0.5) * g.h
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("velocity requested outside the grid interior")
    return perp(g.sample_bilinear(x).reshape(x.shape))
