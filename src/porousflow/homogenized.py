"""Homogenized elliptic problem div[(I + k M) grad psi_c] = f, with M = 2I
for disk inclusions (``M_DISK``).

Solved by the fixed-point iteration grad psi_n = grad Delta^{-1} f -
L[grad psi_{n-1}] with L g = grad Delta^{-1} div(k M g), which contracts for
small sup k. The operator L has two interchangeable backends: a Fourier
multiplier xi (xi.g_hat)/|xi|^2 on a padded periodic box (real transforms
of the (2, nx, ny) component planes, the forward one over the rows of k
only, multipliers cached per grid), and a direct principal-value quadrature
of the second-derivative kernel used as an independent cross-check. The
volume-fraction correction phi = -div Delta^{-1}(k M grad psi) and its
gradient have one quadrature, ``correction``: phi on a probe grid whose
spacing is a whole multiple of the k grid's (divcurl's probe) is one
zero-padded FFT convolution where that is less work than the direct sum, and
points (the Euler closure's particles), other grids and the gradient take the
direct sum.

L is linear in k, so the iterates from grad psi_0 are the partial sums of the
Neumann series sum_j (-L)^j grad psi_0, the form of the method of
reflections, and the iterates for c k are those of k with term j scaled by
c^j. One loop, ``_fixed_point``, sums that series for one or more scales c
with one stopping rule: the grid solve (spectral, c = 1), the Euler closure's
full solve on the k cells (direct, c = 1) and the k-norm sweep
(``expansion_errors``, every norm from one series).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import (
    ScalarGridField,
    VectorGridField,
    check_padding,
    gradient_multipliers,
    irfft2_rows,
    perp,
    rfft2_rows,
)
from .potential import _displacements, _fft_convolve, _grad_kernel, grad_psi0_on_grid

MAX_ITER = 50  # fixed-point iterations before a solve returns unconverged
TOL = 1e-10  # default stopping increment of the fixed point
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
    w = k M g, stored as (2, nx, ny) planes like g, takes one batched real
    transform each way, with the cached ``fields.gradient_multipliers``; the
    forward one transforms only the rows where k is nonzero
    (``fields.rfft2_rows``). Killing the zero mode forces a zero box
    mean, whereas the free-space field of a density with integral P has box
    mean P/(2 |box|) (the kernel integrated over a large disk contributes
    exactly P/2); that constant is restored so the output follows the
    decay-at-infinity convention.
    """
    check_padding(k)
    if k.shape != g.values.shape[:2]:
        raise ValueError("k and g must share the grid")
    box = k.support_slices()
    rows = box[0] if box else slice(0, 0)
    w = np.zeros((2,) + k.shape)  # zero off the rows of k
    np.multiply(g.planes[:, rows], M_DISK * k.values[rows], out=w[:, rows])
    mean = w.sum(axis=(1, 2)) / (2.0 * k.values.size)  # P / (2 |box|), P = h^2 sum w
    kx, ky, mx, my = gradient_multipliers(k.shape, g.h)
    w_hat = rfft2_rows(w, rows)
    del w  # each spectrum (w_hat, div_hat, out) is live only while needed
    div_hat = mx * w_hat[0] + my * w_hat[1]
    np.multiply(kx, div_hat, out=w_hat[0])
    np.multiply(ky, div_hat, out=w_hat[1])
    del div_hat
    out = irfft2_rows(w_hat, k.shape[1])
    out += mean[:, None, None]
    return VectorGridField(g.origin.copy(), g.h, np.moveaxis(out, 0, 2))


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
    return kernels.pair_sum(targets, src_centers, src_values, 2, own=own) * h * h / (2.0 * np.pi)


def k1_kernel_sum(
    src_centers: np.ndarray,
    src_values: np.ndarray,
    h: float,
    targets: np.ndarray,
) -> np.ndarray:
    """Midpoint quadrature of div Delta^{-1} applied to a vector density w:
    sum of (z . w)/(2 pi |z|^2), the unit-radius dipole value with A = w; the
    self cell (z = 0) contributes zero."""
    return kernels.pair_sum(targets, src_centers, src_values, 1) * h * h / (2.0 * np.pi)


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
    box = k.support_slices()
    lo = np.array([sl.start for sl in box])
    n_src = tuple(sl.stop - sl.start for sl in box)
    n_out = tuple((np.array(probe.shape) - 1) * step + 1)
    cells = (n_src[0] + n_out[0]) * (n_src[1] + n_out[1])
    if cells * FFT_CELL_PAIRS > probe.values.size * w.shape[0]:
        return None
    planes = np.zeros((2,) + n_src)
    planes[:, k.values[box] != 0.0] = w.T  # nonzero_cells() order within the box
    # first probe center minus first box cell center, in cells of k
    offset = (probe.origin - k.origin) / k.h + 0.5 * (step - 1) - lo
    kx, ky = _grad_kernel(*_displacements(n_src, n_out, k.h, offset))
    s = _fft_convolve(planes[0], [kx], n_out)[0] + _fft_convolve(planes[1], [ky], n_out)[0]
    return s[::step, ::step].ravel() * k.h**2 / (2.0 * np.pi)


def _fixed_point(g0: np.ndarray, apply_l, h: float, tol: float, scales=(1.0,), where=...):
    """The fixed points of g = g0 - c L g, with L = ``apply_l`` linear, for
    every scale c of ``scales``, as partial sums of one Neumann series.

    Iterate n of g <- g0 - c L g from g = g0 is g0 + sum_{j=1..n} c^j p_j,
    with p_0 = g0 and p_j = -L p_{j-1}, so each step applies L once for every
    scale. Increment n of scale c is c^n ||p_n|| / ||g0|| (h-weighted l2).
    Scale c stops at its first increment below tol or after MAX_ITER steps;
    three growing increments in a row raise RuntimeError. Each scale keeps
    only T_c = sum_{j<n} c^j p_j, on ``where``, the part of its argument that
    apply_l reads: its last iterate is g0 - c L T_c and its first g0 + c p_1.
    Returns (the T_c, p_1, the increments of each scale).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    ref = max(float(np.sqrt(np.vdot(g0, g0))) * h, 1e-300)
    sums = [np.zeros_like(g0[where]) for _ in scales]
    increments: list[list[float]] = [[] for _ in scales]
    active = list(range(len(scales)))
    p, first = g0, None
    for n in range(1, MAX_ITER + 1):
        for i in active:
            sums[i] += scales[i] ** (n - 1) * p[where]
        p = apply_l(p)
        np.negative(p, out=p)
        if n == 1:
            first = p
        norm = float(np.sqrt(np.vdot(p, p))) * h / ref
        for i in active[:]:
            incs = increments[i]
            incs.append(scales[i] ** n * norm)
            if incs[-1] < tol:
                active.remove(i)
            elif len(incs) >= 3 and incs[-1] > incs[-2] > incs[-3]:
                raise RuntimeError(
                    "fixed point is not contracting (two consecutive increment "
                    "growths); reduce sup|k|"
                )
        if not active:
            break
    return sums, first, increments


def _spectral_solves(psi0_grad: VectorGridField, k, tol: float, scales):
    """Per scale c, (c, L T_c, p_1, increments) of ``_fixed_point`` with the
    spectral backend on the planes of psi0_grad. T_c is kept on k's support
    box, and each L T_c is made only when the caller takes it."""
    origin, h = psi0_grad.origin, psi0_grad.h

    def apply_l(planes):
        return apply_l_spectral(VectorGridField(origin, h, np.moveaxis(planes, 0, 2)), k).planes

    box = k.support_slices()
    where = (slice(None),) + box if box else slice(0, 0)
    g0 = psi0_grad.planes
    sums, first, increments = _fixed_point(g0, apply_l, h, tol, scales, where)
    full = np.zeros_like(g0)  # T_c on the grid, zero off ``where``
    for c, t, incs in zip(scales, sums, increments):
        full[where] = t
        yield c, apply_l(full), first, incs


def solve_psic_from_grad(psi0_grad: VectorGridField, k, tol: float = TOL) -> HomogSolution:
    """The fixed point on the grid (spectral backend) from a precomputed
    free-space gradient: ``_fixed_point`` at the one scale c = 1."""
    ((_, lt, p1, increments),) = _spectral_solves(psi0_grad, k, tol, (1.0,))
    g0 = psi0_grad.planes
    origin, h = psi0_grad.origin, psi0_grad.h
    grad = VectorGridField(origin.copy(), h, np.moveaxis(g0 - lt, 0, 2))
    first_order = VectorGridField(origin.copy(), h, np.moveaxis(g0 + p1, 0, 2))
    return HomogSolution(grad, first_order, increments)


def expansion_errors(psi0_grad: VectorGridField, k, scales,
                     tol: float = TOL) -> list[tuple[float, float, list[float]]]:
    """The solves with c k for every scale c of ``scales`` from one series:
    per scale, the h-weighted l2 norms of grad psi_c - grad psi_0 and of
    grad psi_c - grad psi_tilde, and the increments. Each is
    ``solve_psic_from_grad`` with c k up to roundoff."""
    rows = []
    h = psi0_grad.h
    for c, lt, p1, increments in _spectral_solves(psi0_grad, k, tol, scales):
        err_psi0 = c * float(np.sqrt(np.vdot(lt, lt))) * h  # psi_c - psi_0 = -c L T_c
        lt += p1  # psi_c - psi_tilde = -c (L T_c + p_1)
        rows.append((err_psi0, c * float(np.sqrt(np.vdot(lt, lt))) * h, increments))
        del lt  # the next scale's L T_c is made without this one alive
    return rows


def solve_psic(f: ScalarGridField, k, tol: float = TOL) -> HomogSolution:
    """Solve for grad psi_c with f given on the same (padded) grid as k."""
    return solve_psic_from_grad(grad_psi0_on_grid(f), k, tol)


def solve_on_cells(grad0: np.ndarray, k, tol: float = TOL) -> np.ndarray:
    """grad psi_c on the nonzero cells of k (direct backend), from
    grad0 = grad psi_0 at the centers of ``nonzero_cells()``, in that order:
    ``_fixed_point`` at the one scale c = 1."""
    centers, kvals = k.nonzero_cells()
    km = (M_DISK * kvals)[:, None]
    own = np.arange(centers.shape[0])  # each cell excludes itself

    def apply_l(g):
        return _pv_on_cells(centers, km * g, k.h, centers, own)

    (t,), _, _ = _fixed_point(grad0, apply_l, k.h, tol)
    return grad0 - apply_l(t)


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
