"""The direct reference of each fast path, written once, and ``TABLE``: fast
path -> (its reference, the largest relative difference allowed from it).
Also the evaluators that only tests read, built on the run path's
functions: the oracle's and the reflections' stream function and gradient,
the oracle's flux, circulation, boundary deviation and dipoles, L by
principal-value quadrature and the reading of a saved configuration.
The tier-1 tests import them as they import ``conftest``
(``from references import ...``), and ``tools/layers.py --check`` compares
its cases with them at the workloads' shapes. Uses numpy and porousflow
only."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from porousflow import analysis, homogenized, kernels, oracle, potential
from porousflow.fields import ScalarGridField, VectorGridField, make_grid, perp
from porousflow.geometry import Box, PorousConfig, fluid_mask, rasterize_mu


def dense_reference(targets, sources, q, m, blob=0.0, own=None):
    """sum_j q_j K_m(t_i - s_j) in real arithmetic, returned as (Re, Im, each
    target's sum of |term|), in the complex convention K_0 = log|z|,
    K_1 = conj(z) / (|z|^2 + blob^2), K_2 = 1/z^2. Pairs at z = 0 without a
    blob drop out, and so does source ``own[i]`` for each target i with
    ``own[i] >= 0``."""
    q = np.asarray(q, dtype=complex)
    dx = targets[:, 0:1] - sources[None, :, 0]
    dy = targets[:, 1:2] - sources[None, :, 1]
    r2 = dx * dx + dy * dy + blob * blob
    drop = r2 == 0.0
    if own is not None:
        rows = np.flatnonzero(own >= 0)
        drop[rows, own[rows]] = True
    safe = np.where(drop, 1.0, r2)
    if m == 0:
        kr = np.where(drop, 0.0, 0.5 * np.log(safe))
        ki = np.zeros_like(kr)
    elif m == 1:  # conj(z) / (|z|^2 + blob^2)
        kr = np.where(drop, 0.0, dx / safe)
        ki = np.where(drop, 0.0, -dy / safe)
    else:  # 1/z^2 = conj(z)^2 / |z|^4
        kr = np.where(drop, 0.0, (dx * dx - dy * dy) / safe**2)
        ki = np.where(drop, 0.0, -2.0 * dx * dy / safe**2)
    re = kr @ q.real - ki @ q.imag
    im = kr @ q.imag + ki @ q.real
    scale = (np.abs(kr) + np.abs(ki)) @ np.abs(q)
    return re, im, scale


def pair_sum_reference(targets, sources, q, m, blob=0.0, own=None):
    """``dense_reference`` in the real layout of ``kernels.pair_sum`` for
    real strengths q (S,) or vector strengths q (S, 2) = (Re, Im): (the sum,
    each target's sum of |term|)."""
    vector = np.ndim(q) == 2
    re, im, scale = dense_reference(targets, sources, q[:, 0] + 1j * q[:, 1] if vector else q,
                                    m, blob, own)
    if m == 0:
        return re, scale
    if m == 1:
        return (re if vector else np.stack([re, -im], axis=1)), scale
    return np.stack([-re, im], axis=1), scale


def psi0_grid_reference(grid, pts):
    """2 pi psi_0 of the grid field at ``pts``, each in a grid cell: the dense
    m = 0 sum of h^2 f over every cell but the target's own, plus that
    cell's exact integral (``cell_log_integral``), and each target's sum of
    both parts' |term|."""
    h = grid.h
    cell = np.floor((pts - grid.origin) / h)
    own = cell.astype(int) @ [grid.shape[1], 1]
    lo = cell * h + grid.origin - pts  # the own cell's corner from the target
    vals = grid.values.ravel()
    ref, scale = pair_sum_reference(pts, grid.centers_flat(), vals * h * h, 0, own=own)
    exact = vals[own] * potential.cell_log_integral(lo[:, 0], lo[:, 0] + h, lo[:, 1], lo[:, 1] + h)
    return ref + exact, scale + np.abs(exact)


def apply_l_direct(g, k, targets):
    """L g at ``targets`` by principal-value quadrature, independent of the
    Fourier multiplier: the k2 sum of w = k M g over the nonzero cells of k
    less each target's own cell, plus the local term +1/2 w of that cell."""
    if k.shape != g.values.shape[:2]:
        raise ValueError("k and g must share the grid")
    centers, kvals = k.nonzero_cells()
    w = (homogenized.M_DISK * kvals)[:, None] * g.values[k.values != 0.0]
    own = k.nonzero_cell_index(targets)
    out = kernels.pair_sum(targets, centers, w, 2, own=own) * k.h * k.h / (2.0 * np.pi)
    hit = own >= 0
    out[hit] += 0.5 * w[own[hit]]
    return out


def fixed_point(g0, apply_l, h, tol):
    """The fixed point iterated directly, as the reference of the series:
    g <- g0 - apply_l(g) from g = g0, with increments ||g_new - g|| / ||g0||,
    stopping below tol or after MAX_ITER iterations, raising on three growing
    increments. Returns (g, first iterate, increments)."""
    ref = max(float(np.sqrt((g0**2).sum() * h**2)), 1e-300)
    g = g0
    first = None
    increments = []
    for _ in range(homogenized.MAX_ITER):
        new = g0 - apply_l(g)
        inc = float(np.sqrt(((new - g) ** 2).sum() * h**2)) / ref
        increments.append(inc)
        g = new
        if first is None:
            first = new
        if inc < tol:
            break
        if len(increments) >= 3 and increments[-1] > increments[-2] > increments[-3]:
            raise RuntimeError("fixed point is not contracting")
    return g, first, increments


def spectral_fixed_point(g0, k, tol):
    """``fixed_point`` of the whole-grid gradient field g0 with the spectral L of k."""
    def apply_l(values):
        return homogenized.apply_l_spectral(VectorGridField(g0.origin, g0.h, values), k).values

    return fixed_point(g0.values, apply_l, g0.h, tol)


def sweep_reference(g0, k, scales, tol=homogenized.TOL):
    """The rows of ``expansion_errors`` by ``spectral_fixed_point`` with c k
    for each scale c, from the whole-grid g0: (||g - g0||, ||g - first
    iterate||, increments), the norms over the whole grid."""
    rows = []
    for c in scales:
        g, first, increments = spectral_fixed_point(
            g0, ScalarGridField(k.origin, k.h, c * k.values), tol)
        rows.append(tuple(float(np.sqrt(((g - other) ** 2).sum())) * g0.h
                          for other in (g0.values, first)) + (increments,))
    return rows


def sweep_difference(rows, reference):
    """The largest difference of ``expansion_errors``' rows from
    ``sweep_reference``'s: relative to each norm, and to the largest
    increment; inf when a scale takes another number of iterations."""
    worst = 0.0
    for (*norms, increments), (*ref_norms, ref_increments) in zip(rows, reference, strict=True):
        if len(increments) != len(ref_increments):
            return np.inf
        ref = np.array(ref_increments)
        worst = max(worst, np.abs(np.array(increments) - ref).max() / ref.max(),
                    *(abs(got - norm) / norm for got, norm in zip(norms, ref_norms)))
    return worst


def embedded(g):
    """The values of a window field on its whole periodic box (a field
    without a window is its own box)."""
    whole = np.zeros(getattr(g, "period", g.shape))
    ox, oy = getattr(g, "offset", (0, 0))
    whole[ox:ox + g.shape[0], oy:oy + g.shape[1]] = g.values
    return whole


def hminus1_fft2(g):
    """H^-1 norm of g over the full complex spectrum (fft2) of its whole
    periodic box, every mode once: the reference for the half-spectrum sum
    over the window."""
    values = embedded(g)
    nx, ny = values.shape
    ghat = np.fft.fft2(values) * g.h**2
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=g.h)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(ny, d=g.h)[None, :]
    return float(np.sqrt((np.abs(ghat) ** 2 / (1.0 + kx**2 + ky**2)).sum() / (nx * ny * g.h**2)))


def mu_minus_k_every_cell(cfg, k, grid):
    """mu - k on ``grid`` with k sampled at every cell. Bilinear samples are
    pointwise, so blocks of rows give the values of one sample_bilinear call
    on grid.centers_flat() in a fraction of its memory."""
    xs, ys = grid.cell_centers()
    kvals = np.empty(grid.shape)
    for rows in np.array_split(np.arange(xs.size), 16):
        gx, gy = np.meshgrid(xs[rows], ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        kvals[rows] = k.sample_bilinear(pts).reshape(gx.shape)
    return rasterize_mu(cfg, grid).values - kvals


def basis_matrix(config, order, pts):
    """Values of every multipole basis function at every point.

    Column layout: hole-major, then (cos_1, sin_1, ..., cos_M, sin_M): the
    float view of conj(w)^m = Re w^m - i Im w^m, m = 1..M, filled one hole
    at a time, so no other array grows with npts N: the dense form of
    ``oracle._Basis``.
    """
    zp = pts[:, 0] + 1j * pts[:, 1]
    zc = config.centers[:, 0] + 1j * config.centers[:, 1]
    powers = np.empty((pts.shape[0], config.n_holes, order), dtype=complex)
    for j, c in enumerate(zc):
        w = np.conj(config.a / (zp - c))  # |w| <= 1 on and outside the boundaries
        np.cumprod(np.broadcast_to(w[:, None], (w.size, order)), axis=1, out=powers[:, j])
    return powers.view(float).reshape(pts.shape[0], config.n_holes * 2 * order)


def center_per_hole(arr, n_holes):
    blocks = arr.reshape(n_holes, -1, *arr.shape[1:])
    return (blocks - blocks.mean(axis=1, keepdims=True)).reshape(arr.shape)


def lstsq_fit(source, config, order=oracle.ORDER, pts_per_hole=oracle.POINTS):
    """The dense SVD least-squares fit of the per-hole-centered basis: the
    coefficients, residual, the centered matrix and max|psi_0| on the
    boundaries."""
    pts = config.boundary_points(pts_per_hole)
    psi0 = potential.psi0_eval(source, pts)
    basis = basis_matrix(config, order, pts)
    a_mat = center_per_hole(basis, config.n_holes)
    coeffs, _, rank, _ = np.linalg.lstsq(a_mat, -center_per_hole(psi0, config.n_holes),
                                         rcond=None)
    if rank < a_mat.shape[1]:
        raise np.linalg.LinAlgError(f"rank {rank} < {a_mat.shape[1]} columns")
    residual = float(np.abs(center_per_hole(psi0 + basis @ coeffs, config.n_holes)).max())
    return coeffs, residual, a_mat, np.abs(psi0).max()


def _at_points(x, evaluate):
    """``evaluate`` at points x (n, 2), or at one point x (2,) as its one row."""
    out = evaluate(np.atleast_2d(np.asarray(x, dtype=float)))
    return out[0] if np.ndim(x) == 1 else out


def oracle_value(source, sol, x):
    """The oracle's stream function: psi_0 of ``source`` plus the dense basis
    times the coefficients of ``sol``, its fit for ``source``."""
    return _at_points(x, lambda pts: potential.psi0_eval(source, pts) + basis_matrix(
        sol.config, sol.order, pts) @ sol.coeffs.ravel())


def oracle_gradient(source, sol, x):
    """The oracle's gradient: grad psi_0 plus the run's hole series."""
    return _at_points(x, lambda pts: potential.grad_psi0_eval(source, pts)
                      + oracle.multipole_part_grad(sol, pts))


def equivalent_dipoles(sol):
    """The oracle's m = 1 coefficients as the dipole vectors A of V^a[A]."""
    return sol.coeffs[:, :2] / sol.config.a


def _circle(center, radius, samples, phase):
    """``samples`` points on a circle at angles (j + phase) 2 pi / samples,
    their unit normals and the arc length per point."""
    theta = (np.arange(samples) + phase) / samples * 2.0 * np.pi
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return center + radius * normals, normals, 2.0 * np.pi * radius / samples


def flux_integral(source, sol, hole):
    """Midpoint rule for the normal derivative around one hole's boundary, at
    512 points (zero: the series has no log term)."""
    pts, normals, arc = _circle(sol.config.centers[hole], sol.config.a, 512, 0.5)
    return float((oracle_gradient(source, sol, pts) * normals).sum() * arc)


def circulation(source, sol, hole):
    """Midpoint rule for velocity . tangent on the circle of radius 1.5 a
    around one hole, at 512 points (zero: no log terms)."""
    pts, normals, arc = _circle(sol.config.centers[hole], 1.5 * sol.config.a, 512, 0.5)
    return float((perp(oracle_gradient(source, sol, pts)) * perp(normals)).sum() * arc)


def boundary_deviation(source, sol):
    """The largest standard deviation of the oracle's stream function over a
    hole boundary, at 256 angles offset from the collocation angles."""
    return max(float(oracle_value(source, sol, _circle(c, sol.config.a, 256, 0.3)[0]).std())
               for c in sol.config.centers)


def stream_value(stream, x):
    """The reflections' stream function: psi_0 plus the dipole corrections."""
    return _at_points(x, lambda pts: potential.psi0_eval(stream.base, pts)
                      + stream.correction_eval(pts))


def stream_gradient(stream, x):
    """The reflections' gradient: grad psi_0 plus the dipole corrections'."""
    return _at_points(x, lambda pts: potential.grad_psi0_eval(stream.base, pts)
                      + stream.correction_grad(pts))


def load_config(path):
    """The configuration that ``geometry.save_config`` wrote to ``path`` and
    its sibling .centers.csv."""
    kv = {}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.partition("=")
            if val:
                kv[key.strip()] = float(val)
    with open(str(path) + ".centers.csv") as fh:
        assert fh.readline().strip() == "x,y"
        centers = np.array([[float(v) for v in line.split(",")] for line in fh]).reshape(-1, 2)
    box = Box(kv["box.x0"], kv["box.y0"], kv["box.x1"], kv["box.y1"])
    return PorousConfig(centers, kv["a"], kv["d"], kv["eps0"], box)


def term_scale(config, mags, pts, grad=True):
    """Roundoff scale of the hole series per point: the sum over holes j and
    orders m of mags[j, m - 1] (a/|z_j|)^m, times m/|z_j| for the gradient."""
    diff = pts[:, None, :] - config.centers[None, :, :]
    z = np.hypot(diff[..., 0], diff[..., 1])
    ms = np.arange(1, mags.shape[1] + 1)
    terms = (config.a / z)[:, :, None] ** ms
    if grad:
        terms = ms * terms / z[:, :, None]
    return np.einsum("pjm,jm->p", terms, mags)


def part_grad_reference(sol, pts):
    """(the hole gradients of ``sol`` at ``pts`` contracted from every basis
    column's materialized gradient, (npts, N, 2 order, 2), each point's
    ``term_scale`` of |gamma_m|)."""
    config, coeffs = sol.config, sol.coeffs.reshape(sol.config.n_holes, -1)
    z = (pts[:, 0] + 1j * pts[:, 1])[:, None] - (
        config.centers[:, 0] + 1j * config.centers[:, 1])[None, :]
    out = np.empty((pts.shape[0], config.n_holes, 2 * sol.order, 2))
    am, zpow = 1.0, 1.0 / z
    for m in range(1, sol.order + 1):
        am *= config.a
        zpow = zpow / z
        deriv = -m * am * zpow
        out[:, :, 2 * m - 2] = np.stack([deriv.real, -deriv.imag], axis=2)
        out[:, :, 2 * m - 1] = np.stack([-deriv.imag, -deriv.real], axis=2)
    grad = np.einsum("pjcd,jc->pd", out, coeffs)
    return grad, term_scale(config, np.hypot(coeffs[:, 0::2], coeffs[:, 1::2]), pts)


def whole_probe_h1(stream, oracle_sol, region, h):
    """``analysis.reflection_vs_oracle_h1`` over the whole probe grid at once:
    its fluid mask, its fluid cell centers and their oracle-minus-reflections
    gradient as arrays over every cell, and one sum of squares."""
    probe = make_grid(region.as_tuple(), h)
    mask = fluid_mask(stream.config, probe)
    pts = probe.centers_flat()[mask.ravel()]
    diff = analysis._oracle_minus_reflections_grad(stream, oracle_sol, pts)
    return float(np.sqrt((diff**2).sum() * h**2))


class Reference(NamedTuple):
    reference: Callable
    tol: float


# fast path -> its reference and the largest relative difference from it:
# pair sums per target, of its sum of |term|; the grid gradient of
# max|grad|; the sweep of each norm and of the largest increment; the fit of
# max|coefficient|; the hole gradients per point, of its term_scale; the
# probe norm of itself (band sums against one sum)
TABLE = {
    "pair_sum": Reference(pair_sum_reference, 1e-12),
    "pair_sum_far": Reference(pair_sum_reference, 1e-14),
    "psi0_eval_grid": Reference(psi0_grid_reference, 1e-12),
    "grad_psi0_on_grid": Reference(potential.grad_psi0_eval, 1e-13),
    "expansion_errors": Reference(sweep_reference, 1e-12),
    "mu_minus_k_field": Reference(mu_minus_k_every_cell, 0.0),  # bit for bit
    "hminus1": Reference(hminus1_fft2, 1e-13),
    "solve_collocation": Reference(lstsq_fit, 1e-12),
    "multipole_part": Reference(part_grad_reference, 1e-12),
    "reflection_vs_oracle_h1": Reference(whole_probe_h1, 1e-14),
}
