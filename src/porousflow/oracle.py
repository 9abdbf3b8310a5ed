"""Brute-force reference solver for the exact perforated problem at small N.

Each hole carries a truncated exterior multipole series r^-m cos(m t),
r^-m sin(m t), m = 1..M (no log term, so every hole is automatically
flux-free). The coefficients are fit by least-squares collocation so that the
total stream function is constant on every hole boundary; the unknown
boundary constants are eliminated by subtracting per-hole means inside the
objective. Used as ground truth when validating the method of reflections.

With z = x - c and w = a/z, the cos_m and sin_m columns are (a/r)^m cos(m t)
= Re w^m and (a/r)^m sin(m t) = -Im w^m. A hole's coefficient pair (alpha_m,
beta_m) therefore contributes Re(gamma_m w^m) with gamma_m = alpha_m +
i beta_m, so the hole's field is Re P(w) with P(w) = sum_m gamma_m w^m and its
gradient is conj(P'(w) dw/dz) = conj(-(w/z) P'(w)). Probe-point evaluation
sums these complex polynomials over holes by Horner's rule instead of
materializing one real column per basis function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, potential
from .fields import perp
from .geometry import PorousConfig

MAX_ORACLE_HOLES = 64  # desk-scale guard
RESIDUAL_TOL = 1e-6  # boundary oscillation above which a solution is flagged


@dataclass
class MultipoleSolution:
    config: PorousConfig
    source: object
    order: int
    coeffs: np.ndarray  # (N, 2*order): [cos_1, sin_1, cos_2, sin_2, ...]
    boundary_constants: np.ndarray  # (N,)
    residual: float
    rank: int
    cond: float
    flagged: bool

    def __post_init__(self):
        if not np.isfinite(self.residual):
            raise ValueError("collocation residual must be finite")


def _basis_matrix(config: PorousConfig, order: int, pts: np.ndarray) -> np.ndarray:
    """Values of every multipole basis function at every point.

    Column layout: hole-major, then (cos_1, sin_1, ..., cos_M, sin_M).
    """
    z = (pts[:, 0] + 1j * pts[:, 1])[:, None] - (
        config.centers[:, 0] + 1j * config.centers[:, 1]
    )[None, :]
    w = config.a / z  # (npts, N); |w| <= 1 on and outside the boundaries
    cols = np.empty((pts.shape[0], config.n_holes, 2 * order))
    power = np.ones_like(w)
    for m in range(1, order + 1):
        power = power * w
        cols[:, :, 2 * (m - 1)] = power.real
        cols[:, :, 2 * (m - 1) + 1] = -power.imag
    return cols.reshape(pts.shape[0], config.n_holes * 2 * order)


def _center_per_hole(arr: np.ndarray, n_holes: int) -> np.ndarray:
    """Subtract each hole's per-block mean along the first axis."""
    blocks = arr.reshape(n_holes, -1, *arr.shape[1:])
    blocks = blocks - blocks.mean(axis=1, keepdims=True)
    return blocks.reshape(arr.shape)


def solve_collocation(
    source,
    config: PorousConfig,
    order: int = 8,
    pts_per_hole: int = 64,
) -> MultipoleSolution:
    """Least-squares fit of the multipole coefficients.

    Only the boundary oscillation is fit (per-hole means subtracted), which
    eliminates the unknown boundary constants; they are recovered afterwards
    as the mean of the solved field on each boundary.
    """
    if config.n_holes > MAX_ORACLE_HOLES:
        raise ValueError(
            f"oracle guard: N = {config.n_holes} exceeds {MAX_ORACLE_HOLES}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    if pts_per_hole < 4 * order:
        raise ValueError("need pts_per_hole >= 4*order collocation points")
    pts = config.boundary_points(pts_per_hole)
    psi0 = potential.psi0_eval(source, pts)
    basis = _basis_matrix(config, order, pts)
    a_mat = _center_per_hole(basis, config.n_holes)
    rhs = -_center_per_hole(psi0, config.n_holes)
    coeffs, _, rank, sing = np.linalg.lstsq(a_mat, rhs, rcond=None)
    if rank < a_mat.shape[1]:
        cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf
        raise RuntimeError(
            f"rank-deficient collocation system: rank {rank} < {a_mat.shape[1]}, "
            f"condition estimate {cond:.3e}"
        )
    total = psi0 + basis @ coeffs
    osc = _center_per_hole(total, config.n_holes)
    residual = float(np.abs(osc).max()) if osc.size else 0.0
    constants = total.reshape(config.n_holes, -1).mean(axis=1)
    cond = float(sing[0] / sing[-1]) if sing.size and sing[-1] > 0 else 1.0
    return MultipoleSolution(
        config=config,
        source=source,
        order=order,
        coeffs=coeffs.reshape(config.n_holes, 2 * order),
        boundary_constants=constants,
        residual=residual,
        rank=int(rank),
        cond=cond,
        flagged=bool(residual > RESIDUAL_TOL),
    )


def _hole_series(sol: MultipoleSolution, pts: np.ndarray, derivative: bool) -> np.ndarray:
    """Sum over holes of P(w), or of -(w/z) P'(w) when ``derivative`` is set,
    evaluated by Horner's rule in blocks of points."""
    config = sol.config
    gamma = sol.coeffs[:, 0::2] + 1j * sol.coeffs[:, 1::2]  # (N, M)
    if derivative:
        gamma = gamma * np.arange(1, sol.order + 1)
    zp = pts[:, 0] + 1j * pts[:, 1]
    zc = config.centers[:, 0] + 1j * config.centers[:, 1]
    out = np.empty(pts.shape[0], dtype=complex)
    for sl in kernels.chunks(pts.shape[0], config.n_holes):
        z = zp[sl, None] - zc[None, :]
        w = config.a / z
        acc = np.zeros_like(z)
        for m in range(sol.order - 1, -1, -1):
            acc *= w
            acc += gamma[:, m]
        acc *= -w / z if derivative else w
        out[sl] = acc.sum(axis=1)
    return out


def multipole_part_eval(sol: MultipoleSolution, x) -> np.ndarray:
    """The hole corrections alone (without psi_0)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    return _hole_series(sol, pts, derivative=False).real


def multipole_part_grad(sol: MultipoleSolution, x) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    s = _hole_series(sol, pts, derivative=True)
    return np.stack([s.real, -s.imag], axis=1)


def oracle_eval(sol: MultipoleSolution, x):
    pts, single = potential._as_points(x)
    _check_outside(sol.config, pts)
    out = potential.psi0_eval(sol.source, pts) + multipole_part_eval(sol, pts)
    return float(out[0]) if single else out


def oracle_gradient(sol: MultipoleSolution, x) -> np.ndarray:
    pts, single = potential._as_points(x)
    _check_outside(sol.config, pts)
    out = potential.grad_psi0_eval(sol.source, pts) + multipole_part_grad(sol, pts)
    return out[0] if single else out


def oracle_velocity(sol: MultipoleSolution, x) -> np.ndarray:
    return perp(oracle_gradient(sol, x))


def _check_outside(config, pts):
    if np.any(config.contains(pts)):
        raise ValueError("oracle evaluated inside a hole")


def equivalent_dipoles(sol: MultipoleSolution) -> np.ndarray:
    """The m=1 coefficients expressed as dipole vectors of V^a[A]."""
    return sol.coeffs[:, 0:2] / sol.config.a


def boundary_deviation(sol: MultipoleSolution) -> float:
    """Max sampled standard deviation of the solution over hole boundaries,
    at 256 angles offset from the collocation angles."""
    theta = (np.arange(256) + 0.3) / 256 * 2.0 * np.pi
    ring = sol.config.a * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    worst = 0.0
    for c in sol.config.centers:
        vals = oracle_eval(sol, c[None, :] + ring)
        worst = max(worst, float(vals.std()))
    return worst


def _ring(sol: MultipoleSolution, hole: int, radius_factor: float):
    """Midpoint rule on the circle of radius radius_factor * a around one
    hole: 512 points, their unit normals and the arc length per point."""
    r = sol.config.a * radius_factor
    theta = (np.arange(512) + 0.5) / 512 * 2.0 * np.pi
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = sol.config.centers[hole][None, :] + r * normals
    return pts, normals, 2.0 * np.pi * r / 512


def flux_integral(sol: MultipoleSolution, hole: int) -> float:
    """Quadrature of the normal derivative around one hole's boundary (should vanish)."""
    pts, normals, arc = _ring(sol, hole, 1.0)
    return float((oracle_gradient(sol, pts) * normals).sum() * arc)


def circulation(sol: MultipoleSolution, hole: int) -> float:
    """Line integral of velocity . tangent on the circle of radius 1.5 a
    around one hole (zero: no log terms)."""
    pts, normals, arc = _ring(sol, hole, 1.5)
    return float((oracle_velocity(sol, pts) * perp(normals)).sum() * arc)
