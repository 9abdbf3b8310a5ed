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
(``expansion_errors``, every norm from one series). L reads its argument only
where k is nonzero, so the spectral series runs in spectral space
(``_SpectralL``): each term lives on k's support box, each step's norm comes
from its spectrum by Parseval, and the inverse transform runs over k's rows
only, and only when another step follows. The sweep's norms take no inverse
at all; the grid solve makes its solution and first iterate with one
whole-grid inverse each.
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
    spectral_power,
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


class _SpectralL:
    """L on the grid of g in spectral space, for arguments given on k's
    support box ``box`` (empty for the zero k), the only part of its argument
    that L reads.

    ``forward(p)`` forms w = k M p on the box, in a full-grid buffer that is
    zero off it, takes the mean of L p, transforms w over the rows of k only
    (``fields.rfft2_rows``) into the one spectrum buffer ``spec`` that every
    call reuses, and applies the cached ``fields.gradient_multipliers`` there.
    Killing the zero mode forces a zero box mean, whereas the free-space field
    of a density with integral P has box mean P/(2 |box|) (the kernel
    integrated over a large disk contributes exactly P/2); that constant is
    returned so that L p = irfft2(spec) + mean follows the decay-at-infinity
    convention. ``norm``, ``on_box`` and ``on_grid`` read such a spectrum and
    mean; the inverses overwrite the spectrum.
    """

    def __init__(self, g: VectorGridField, k):
        check_padding(k)
        if k.shape != g.values.shape[:2]:
            raise ValueError("k and g must share the grid")
        self.box = k.support_slices() or (slice(0, 0), slice(0, 0))
        self.where = (slice(None),) + self.box  # both planes on the box
        self.km = M_DISK * k.values[self.box]
        # whole-grid planes, so the mean is the whole-grid sum bit for bit
        # (a sum over the box alone rounds differently)
        self.w = np.zeros((2,) + k.shape)
        self.spec = np.empty((2, k.shape[0], k.shape[1] // 2 + 1), dtype=complex)
        self.multipliers = gradient_multipliers(k.shape, g.h)

    def forward(self, p: np.ndarray) -> np.ndarray:
        """The spectrum of L p without its zero mode into ``spec``, for p
        (2, bx, by) on the box; returns the box mean of L p (one per plane)."""
        np.multiply(p, self.km, out=self.w[self.where])
        mean = self.w.sum(axis=(1, 2)) / (2.0 * self.w[0].size)  # P / (2 |box|), P = h^2 sum w
        kx, ky, mx, my = self.multipliers
        spec = rfft2_rows(self.w, self.box[0], out=self.spec)
        div_hat = mx * spec[0]
        div_hat += np.multiply(my, spec[1], out=spec[1])
        np.multiply(kx, div_hat, out=spec[0])
        np.multiply(ky, div_hat, out=spec[1])
        return mean

    def norm(self, spec: np.ndarray, mean: np.ndarray) -> float:
        """The l2 norm over the grid of irfft2(spec) + mean, by Parseval:
        the half spectrum's power over nx ny, plus nx ny |mean|^2 (spec
        carries no zero mode)."""
        nx, ny = self.w.shape[1:]
        return float(np.sqrt(spectral_power(spec, ny) / (nx * ny) + nx * ny * np.vdot(mean, mean)))

    def on_box(self, mean: np.ndarray) -> np.ndarray:
        """irfft2(spec) + mean on the box: the inverse over its rows only."""
        rows, cols = self.box
        return irfft2_rows(self.spec, self.w.shape[2], rows)[:, :, cols] + mean[:, None, None]

    def on_grid(self, spec: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """irfft2(spec) + mean on the whole grid."""
        out = irfft2_rows(spec, self.w.shape[2])
        out += mean[:, None, None]
        return out


def apply_l_spectral(g: VectorGridField, k) -> VectorGridField:
    """grad Delta^{-1} div (k M g) by the periodic Fourier multiplier.

    The grid itself is the padded box; the support of k must keep clearance
    at least its own extent from every edge so periodization images stay
    negligible (their leading contributions cancel by lattice symmetry).
    g is read on k's support box only: ``_SpectralL.forward`` makes the
    spectrum of L g and its mean, and one batched inverse real transform of
    both planes gives L g on the whole grid.
    """
    op = _SpectralL(g, k)
    mean = op.forward(g.planes[op.where])
    return VectorGridField(g.origin.copy(), g.h, np.moveaxis(op.on_grid(op.spec, mean), 0, 2))


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


def _fixed_point(g0: np.ndarray, step, h: float, tol: float, scales=(1.0,), where=...):
    """The fixed points of g = g0 - c L g, with L linear, for every scale c
    of ``scales``, as partial sums of one Neumann series.

    Iterate n of g <- g0 - c L g from g = g0 is g0 + sum_{j=1..n} c^j p_j,
    with p_0 = g0 and p_j = -L p_{j-1}, so each step applies L once for every
    scale. ``step(p)`` takes p_{j-1} on ``where``, the part of its argument
    that L reads, and returns ||p_j|| (l2 over the whole grid) and a function
    that gives p_j on ``where``, called only when another step follows.
    Increment n of scale c is c^n ||p_n|| / ||g0|| (h-weighted l2). Scale c
    stops at its first increment below tol or after MAX_ITER steps; three
    growing increments in a row raise RuntimeError. Each scale keeps only
    T_c = sum_{j<n} c^j p_j on ``where``: its last iterate is g0 - c L T_c and
    its first g0 + c p_1. Returns (the T_c, the increments of each scale).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    ref = max(float(np.sqrt(np.vdot(g0, g0))) * h, 1e-300)
    p = g0[where]
    sums = [np.zeros_like(p) for _ in scales]
    increments: list[list[float]] = [[] for _ in scales]
    active = list(range(len(scales)))
    for n in range(1, MAX_ITER + 1):
        for i in active:
            sums[i] += scales[i] ** (n - 1) * p
        norm, advance = step(p)
        norm = norm * h / ref
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
        p = advance()
    return sums, increments


def _spectral_series(psi0_grad: VectorGridField, k, tol: float, scales):
    """``_fixed_point`` with the spectral backend, in spectral space: each
    step makes the spectrum of L p from p on k's support box, takes ||p_j||
    from it by Parseval, and inverts it over the box's rows only, when
    another step follows. Returns the operator, the T_c on the box, the
    spectrum and mean of L g0 = -p_1, and the increments."""
    op = _SpectralL(psi0_grad, k)
    l_g0 = []  # the first step's spectrum and mean, kept

    def step(p):
        mean = op.forward(p)
        if not l_g0:
            l_g0.append((op.spec.copy(), mean))

        def advance():
            p = op.on_box(mean)
            return np.negative(p, out=p)

        return op.norm(op.spec, mean), advance

    sums, increments = _fixed_point(psi0_grad.planes, step, psi0_grad.h, tol, scales, op.where)
    return op, sums, l_g0[0], increments


def solve_psic_from_grad(psi0_grad: VectorGridField, k, tol: float = TOL) -> HomogSolution:
    """The fixed point on the grid (spectral backend) from a precomputed
    free-space gradient: ``_fixed_point`` at the one scale c = 1, whose
    solution g0 - L T and first iterate g0 - L g0 are the two whole-grid
    inverses."""
    op, (t,), (l_g0, mean_g0), (increments,) = _spectral_series(psi0_grad, k, tol, (1.0,))
    g0 = psi0_grad.planes
    origin, h = psi0_grad.origin, psi0_grad.h
    mean = op.forward(t)
    grad = VectorGridField(origin.copy(), h, np.moveaxis(g0 - op.on_grid(op.spec, mean), 0, 2))
    first = g0 - op.on_grid(l_g0, mean_g0)
    return HomogSolution(grad, VectorGridField(origin.copy(), h, np.moveaxis(first, 0, 2)),
                         increments)


def expansion_errors(psi0_grad: VectorGridField, k, scales,
                     tol: float = TOL) -> list[tuple[float, float, list[float]]]:
    """The solves with c k for every scale c of ``scales`` from one series:
    per scale, the h-weighted l2 norms of grad psi_c - grad psi_0 and of
    grad psi_c - grad psi_tilde, and the increments. Each is
    ``solve_psic_from_grad`` with c k up to roundoff. Both norms come from
    the spectrum of L T_c by Parseval, with no inverse transform."""
    op, sums, (l_g0, mean_g0), increments = _spectral_series(psi0_grad, k, tol, scales)
    rows = []
    h = psi0_grad.h
    for c, t, incs in zip(scales, sums, increments):
        mean = op.forward(t)
        err_psi0 = c * op.norm(op.spec, mean) * h  # psi_c - psi_0 = -c L T_c
        op.spec -= l_g0  # psi_c - psi_tilde = -c (L T_c + p_1) = -c L (T_c - g0)
        rows.append((err_psi0, c * op.norm(op.spec, mean - mean_g0) * h, incs))
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

    def step(p):
        p = apply_l(p)
        np.negative(p, out=p)
        return float(np.sqrt(np.vdot(p, p))), lambda: p

    (t,), _ = _fixed_point(grad0, step, k.h, tol)
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
