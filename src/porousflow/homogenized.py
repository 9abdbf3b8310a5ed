"""Homogenized elliptic problem div[(I + k M) grad psi_c] = f, with M = 2I
for disk inclusions (``M_DISK``).

Solved by the fixed-point iteration grad psi_n = grad Delta^{-1} f -
L[grad psi_{n-1}] with L g = grad Delta^{-1} div(k M g), which contracts for
small sup k. L has two forms: the Fourier multiplier xi (xi.g_hat)/|xi|^2
on the padded periodic grid (``apply_l_spectral``, and ``_BoxL`` on k's
support box), and the principal-value quadrature of the second-derivative
kernel plus the self cell's local term on the nonzero cells of k
(``solve_on_cells``). The tests take that quadrature at any targets
(``references.apply_l_direct``), the independent cross-check of the
multiplier. The volume-fraction correction
phi = -div Delta^{-1}(k M grad psi) and its gradient have one quadrature,
``correction``; phi on a probe grid whose spacing is a whole multiple of k's
(divcurl's probe) is a convolution where that is less work than the direct
sum.

L is linear in k, so the iterates from grad psi_0 are the partial sums of
the Neumann series sum_j (-L)^j grad psi_0 (the form of the method of
reflections), and those for c k scale term j by c^j. One loop,
``_fixed_point``, sums it for one or more scales c with one stopping rule:
the grid solve, the Euler closure's full solve on the k cells (direct) and
the k-norm sweep (``expansion_errors``). L reads its argument only where k is
nonzero, so the spectral series runs on k's support box (``_BoxL``), where L
is a convolution with the grid's own periodic kernel. Every norm is a box
sum: with w = k M q, L q = P w + mean (P the longitudinal projection, mean
the constant of ``_l_on_grid``), so ||L q||^2 = <w, L q> - nx ny |mean|^2.
The series keeps L of each partial sum, so the sweep's norms and the Euler
closure's solution take no further L; the grid solve's solution and first
iterate take one whole-grid L each, from one set of multipliers. The
increments are relative to ||grad psi_0|| over the whole grid, which
``_fixed_point`` takes as an argument: the grid solve and the Euler closure
take it from the g0 they hold, and the sweep, which holds g0 on k's box
only, from ``potential.grad_psi0_on_grid``'s pass with that window.

Both convolutions, L on the box and phi on the probe grid, are
``potential._fft_convolve``, the one zero-padded FFT convolution (Hockney &
Eastwood 1988) that also gives ``potential.grad_psi0_on_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import (
    ScalarGridField,
    VectorGridField,
    check_padding,
    irfft2_rows,
    multipliers,
    rfft2_rows,
)
from .potential import (
    _fast_length,
    _fft_convolve,
    _grad_kernel,
    _wrapped,
    grad_psi0_on_grid,
)

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


def _support_box(k, shape) -> tuple[slice, slice]:
    """k's support box (empty for the zero k), the only part of its argument
    that L reads, after the checks that L needs of k and of the ``shape``
    of its argument's grid."""
    check_padding(k)
    if k.shape != shape:
        raise ValueError("k and g must share the grid")
    return k.support_slices() or (slice(0, 0), slice(0, 0))


def _l_on_grid(p: np.ndarray, k, box, mult) -> np.ndarray:
    """L p on the whole grid (2, nx, ny) for p (2, bx, by) on k's support box:
    w = k M p in a whole-grid buffer that is zero off the box, transformed
    over the rows of k only (``fields.rfft2_rows``), times ``mult``, the
    grid's ``fields.multipliers``, and inverted. Killing the zero mode forces
    a zero box mean, whereas the free-space field of a density with integral
    P has box mean P/(2 |box|) (the kernel integrated over a large disk contributes
    exactly P/2); that constant is added so that L p follows the
    decay-at-infinity convention. The mean is the whole-grid sum, which
    rounds differently from a sum over the box alone."""
    w = np.zeros((2,) + k.shape)
    np.multiply(p, M_DISK * k.values[box], out=w[(slice(None),) + box])
    mean = w.sum(axis=(1, 2)) / (2.0 * w[0].size)  # P / (2 |box|), P = h^2 sum w
    kx, ky, mx, my = mult
    spec = rfft2_rows(w, box[0])
    div_hat = mx * spec[0]
    div_hat += np.multiply(my, spec[1], out=spec[1])
    np.multiply(kx, div_hat, out=spec[0])
    np.multiply(ky, div_hat, out=spec[1])
    del w, div_hat  # freed before the inverse allocates its output
    out = irfft2_rows(spec, k.shape[1])
    out += mean[:, None, None]
    return out


def _box_kernel(shape, h: float, extent, size) -> list[list[np.ndarray]]:
    """The spectra [[xx, xy], [xy, yy]] of L's kernel on the (Mx, My) box
    ``size``: the grid's own periodic kernel (the inverse transform of the
    multipliers kx kx/|xi|^2, kx ky/|xi|^2 and ky ky/|xi|^2 of
    ``fields.multipliers``) at the displacements |d| < ``extent`` per axis,
    laid out as ``potential._wrapped``. The multipliers are real, so the
    inverse along nx is the conjugate of a real forward transform, taken over
    column blocks of ``kernels.BLOCK`` bytes and kept on its first rows, whose
    conjugates are the rows of negative dx. The kernel is even, so its
    spectra are real (the imaginary roundoff goes)."""
    (nx, ny), (bx, by) = shape, extent
    if not bx:  # the zero k: no displacement is kept
        return [[np.zeros((size[0], size[1] // 2 + 1))] * 2] * 2
    dx, dy = (_wrapped(b, m) for b, m in zip(extent, size))
    halves = np.empty((3, bx, ny // 2 + 1), dtype=complex)
    for cols in kernels.blocks(ny // 2 + 1, 8 * nx):
        kx, ky, mx, my = multipliers(shape, h, cols)
        for half, product in zip(halves, (kx * mx, kx * my, ky * my)):
            # nx ifft along nx, dx = 0..bx-1
            half[:, cols] = np.fft.rfft(product, axis=0)[:bx].conj()
    spectra = []
    for half in halves:
        kern = np.fft.irfft(np.concatenate([half, half[:0:-1].conj()]), n=ny, axis=1)
        # kern's rows hold dx = 0..bx-1, then -(bx-1)..-1, and its columns are
        # the grid's periodic ones, so a negative d wraps to the back of both
        planes = kern.take(dx, axis=0, mode="wrap").take(dy, axis=1, mode="wrap")
        planes[np.abs(dx) >= bx] = 0.0
        planes[:, np.abs(dy) >= by] = 0.0
        spectra.append(np.fft.rfft2(planes).real / nx)
    xx, xy, yy = spectra
    return [[xx, xy], [xy, yy]]


class _BoxL:
    """L on k's support box (bx, by), for arguments given there: the output
    on the box of ``_l_on_grid``, as one circular convolution with the
    grid's periodic kernel on the smallest fast box (Mx, My) =
    (``_fast_length(2 bx - 1)``, ``_fast_length(2 by - 1)``). Box
    displacements satisfy |i - j| <= b - 1 < M, so each box output is the
    whole-grid sum up to roundoff.

    ``op(p)`` is L p on the box: w = k M p in the corner of one reused
    (2, Mx, My) buffer, convolved with the kernel spectra by
    ``potential._fft_convolve``, plus the mean of L p (``_l_on_grid``'s
    convention). ``norm(q, lq)`` is ||L q|| over the whole grid as the box
    sum <w, L q> - nx ny |mean|^2 (see the module docstring).
    """

    def __init__(self, k, h: float, shape):
        self.box = _support_box(k, shape)
        self.where = (slice(None),) + self.box  # both planes on the box
        self.km = M_DISK * k.values[self.box]
        self.cells = k.values.size
        extent = self.km.shape
        size = tuple(_fast_length(2 * b - 1) for b in extent)
        self.kernel = _box_kernel(k.shape, h, extent, size)
        self.w = np.zeros((2,) + size)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        """L p on the box, for p (2, bx, by) on the box."""
        bx, by = self.km.shape
        w = self.w[:, :bx, :by]
        np.multiply(p, self.km, out=w)
        mean = w.sum(axis=(1, 2)) / (2.0 * self.cells)
        # each output's first spectrum is a copy, which takes its product
        kernel = ([row[0].astype(complex), row[1]] for row in self.kernel)
        return _fft_convolve(self.w, bx, kernel, (2, bx, by)) + mean[:, None, None]

    def norm(self, q: np.ndarray, lq: np.ndarray) -> float:
        """||L q|| over the whole grid, for q and lq = L q on the box."""
        w = q * self.km
        total = w.sum(axis=(1, 2))  # 2 nx ny times the mean
        power = kernels.dot(w, lq) - kernels.dot(total, total) / (4.0 * self.cells)
        return float(np.sqrt(max(power, 0.0)))  # roundoff can take a vanishing form below zero


def apply_l_spectral(g: VectorGridField, k) -> VectorGridField:
    """grad Delta^{-1} div (k M g) by the periodic Fourier multiplier.

    The grid itself is the padded box; the support of k must keep clearance
    at least its own extent from every edge so periodization images stay
    negligible (their leading contributions cancel by lattice symmetry).
    g is read on k's support box only (``_l_on_grid``), and one batched
    inverse real transform of both planes gives L g on the whole grid.
    """
    box = _support_box(k, g.values.shape[:2])
    out = _l_on_grid(g.planes[(slice(None),) + box], k, box, multipliers(k.shape, g.h))
    return VectorGridField(g.origin.copy(), g.h, np.moveaxis(out, 0, 2))


def k2_kernel_sum(
    src_centers: np.ndarray,
    src_values: np.ndarray,
    h: float,
    targets: np.ndarray,
) -> np.ndarray:
    """Midpoint quadrature of the kernel (d_ij|z|^2 - 2 z_i z_j)/(2 pi |z|^4)
    applied to a vector density w: the unit-radius dipole gradient with
    A = w; the self cell (z = 0) contributes zero."""
    return kernels.pair_sum(targets, src_centers, src_values, 2) * h * h / (2.0 * np.pi)


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
    n_out = tuple((n - 1) * step + 1 for n in probe.shape)
    size = tuple(_fast_length(ns + no) for ns, no in zip(n_src, n_out))
    if size[0] * size[1] * FFT_CELL_PAIRS > probe.values.size * w.shape[0]:
        return None
    planes = np.zeros((2,) + size)
    planes[:, :n_src[0], :n_src[1]][:, k.values[box] != 0.0] = w.T  # nonzero_cells() order
    # first probe center minus first box cell center, in cells of k
    offset = (probe.origin - k.origin) / k.h + 0.5 * (step - 1) - lo
    kern = [list(_grad_kernel(n_src, size, k.h, offset))]
    s = _fft_convolve(planes, n_src[0], kern, (1,) + n_out)[0]
    return s[::step, ::step].ravel() * k.h**2 / (2.0 * np.pi)


def _fixed_point(g0: np.ndarray, g0_norm: float, apply_l, norm, h: float, tol: float,
                 scales=(1.0,)):
    """The fixed points of g = g0 - c L g, with L linear, for every scale c
    of ``scales``, as partial sums of one Neumann series.

    Iterate n of g <- g0 - c L g from g = g0 is g0 + sum_{j=1..n} c^j p_j,
    with p_0 = g0 and p_j = -L p_{j-1}, so each step applies L once for every
    scale. g0 is given where L reads its argument, and ``g0_norm`` is its l2
    norm over the whole grid. ``apply_l(p)`` is L p there, for p given
    there, and ``norm(p, lp)`` is ||L p|| (l2 over the whole grid) for
    lp = L p. Increment n of scale c is c^n ||p_n|| / ||g0|| (h-weighted
    l2). Scale c stops at its first increment below tol or after MAX_ITER
    steps; three growing increments in a row raise RuntimeError. Each scale
    keeps only T_c = sum_{j<n} c^j p_j and L T_c where L reads: its last
    iterate is g0 - c L T_c and its first g0 - c L g0. Returns (the T_c, the
    L T_c, L g0, the increments of each scale).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    ref = max(g0_norm * h, 1e-300)
    p = g0
    sums = [np.zeros_like(p) for _ in scales]
    l_sums = [np.zeros_like(p) for _ in scales]
    increments: list[list[float]] = [[] for _ in scales]
    active = list(range(len(scales)))
    for n in range(1, MAX_ITER + 1):
        lp = apply_l(p)
        if n == 1:
            l_g0 = lp
        for i in active:
            sums[i] += scales[i] ** (n - 1) * p
            l_sums[i] += scales[i] ** (n - 1) * lp
        inc = norm(p, lp) * h / ref
        for i in active[:]:
            incs = increments[i]
            incs.append(scales[i] ** n * inc)
            if incs[-1] < tol:
                active.remove(i)
            elif len(incs) >= 3 and incs[-1] > incs[-2] > incs[-3]:
                raise RuntimeError(
                    "fixed point is not contracting (two consecutive increment "
                    "growths); reduce sup|k|"
                )
        if not active:
            break
        p = -lp
    return sums, l_sums, l_g0, increments


def _l2(a: np.ndarray) -> float:
    """The l2 norm of every value of a."""
    return float(np.sqrt(kernels.dot(a, a)))


def solve_psic_from_grad(psi0_grad: VectorGridField, k, tol: float = TOL) -> HomogSolution:
    """The fixed point on the grid (spectral backend) from a precomputed
    free-space gradient: ``_fixed_point`` at the one scale c = 1 on k's
    box (``_BoxL``), whose solution g0 - L T and first iterate g0 - L g0 are
    the two whole-grid applications of L (``_l_on_grid``), which share one
    set of multipliers."""
    g0, origin, h = psi0_grad.planes, psi0_grad.origin, psi0_grad.h
    # made before the series: made after it, they left divcurl's peak RSS
    # 1 MB higher (glibc heap layout), before it 1 MB lower than one per L
    mult = multipliers(k.shape, h)
    op = _BoxL(k, h, g0.shape[1:])
    (t,), _, _, (increments,) = _fixed_point(g0[op.where], _l2(g0), op, op.norm, h, tol)
    grad = g0 - _l_on_grid(t, k, op.box, mult)
    first = g0 - _l_on_grid(g0[op.where], k, op.box, mult)
    return HomogSolution(VectorGridField(origin.copy(), h, np.moveaxis(grad, 0, 2)),
                         VectorGridField(origin.copy(), h, np.moveaxis(first, 0, 2)),
                         increments)


def expansion_errors(g0: np.ndarray, g0_norm: float, k, scales,
                     tol: float = TOL) -> list[tuple[float, float, list[float]]]:
    """The solves with c k for every scale c of ``scales`` from one series:
    per scale, the h-weighted l2 norms of grad psi_c - grad psi_0 and of
    grad psi_c - grad psi_tilde, and the increments. Each is
    ``solve_psic_from_grad`` with c k up to roundoff. g0 = grad psi_0 is
    given on k's support box (``k.support_slices()``, empty for the zero
    k) as (2, bx, by) planes, and ``g0_norm`` is its l2 norm over the whole
    grid: ``potential.grad_psi0_on_grid`` with that window gives both.
    Both norms are box inner products of the sums that the series keeps
    (``_BoxL.norm``), with no transform."""
    op = _BoxL(k, k.h, k.shape)
    if g0.shape != (2,) + op.km.shape:
        raise ValueError("g0 must be given on k's support box")
    h = k.h
    sums, l_sums, l_g0, increments = _fixed_point(g0, g0_norm, op, op.norm, h, tol, scales)
    # psi_c - psi_0 = -c L T_c and psi_c - psi_tilde = -c L (T_c - g0)
    return [(c * op.norm(t, lt) * h, c * op.norm(t - g0, lt - l_g0) * h, incs)
            for c, t, lt, incs in zip(scales, sums, l_sums, increments)]


def solve_psic(f: ScalarGridField, k, tol: float = TOL) -> HomogSolution:
    """Solve for grad psi_c with f given on the same (padded) grid as k."""
    return solve_psic_from_grad(grad_psi0_on_grid(f), k, tol)


def solve_on_cells(grad0: np.ndarray, k, tol: float = TOL) -> np.ndarray:
    """grad psi_c on the nonzero cells of k (direct backend), from
    grad0 = grad psi_0 at the centers of ``nonzero_cells()``, in that order:
    ``_fixed_point`` at the one scale c = 1, whose solution grad0 - L T takes
    L T from the series' own sum."""
    centers, kvals = k.nonzero_cells()
    km = (M_DISK * kvals)[:, None]

    def apply_l(g):  # the PV sum (the self-sum drops each cell's z = 0) and local term
        w = km * g
        return k2_kernel_sum(centers, w, k.h, centers) + 0.5 * w

    def norm(p, lp):
        return _l2(lp)

    _, (lt,), _, _ = _fixed_point(grad0, _l2(grad0), apply_l, norm, k.h, tol)
    return grad0 - lt
