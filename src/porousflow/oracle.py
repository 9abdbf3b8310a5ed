"""Brute-force reference solver for the exact perforated problem at small N.

Each hole carries a truncated exterior multipole series r^-m cos(m t),
r^-m sin(m t), m = 1..M (no log term, so every hole is automatically
flux-free). The coefficients are fit by least-squares collocation so that the
total stream function is constant on every hole boundary; the unknown
boundary constants are eliminated by subtracting per-hole means inside the
objective. Used as ground truth when validating the method of reflections.

The fit is block CGLS on the basis centered per hole, read as an operator
that rebuilds its columns from the (rows x N) point-to-hole map on blocks of
rows, so no (rows x cols) matrix is held. Each hole's own columns on its own
ring are cos(m t) and sin(m t) at equispaced angles, which are orthogonal, so
A^T A is (pts_per_hole / 2) I plus an inter-hole coupling that is small when
a/d is: cond(A) is 1.07 at a/d = 0.1 and 1.48 at 0.24, and CG converges in
7-20 iterations. Full rank is certified by a second right-hand side with a known
solution (see ``solve_collocation``).

With z = x - c and w = a/z, the cos_m and sin_m columns are (a/r)^m cos(m t)
= Re w^m and (a/r)^m sin(m t) = -Im w^m. A hole's coefficient pair (alpha_m,
beta_m) therefore contributes Re(gamma_m w^m) with gamma_m = alpha_m +
i beta_m, so the hole's field is Re P(w) with P(w) = sum_m gamma_m w^m and its
gradient is conj(P'(w) dw/dz) = conj(-(w/z) P'(w)). At probe points this
gradient is summed one hole at a time (``multipole_part_grad``), by Horner's
rule in w on blocks of points with scalar coefficients. A reflections dipole
V^a[A] = a^2 A.z/|z|^2 is the m = 1 term Re(gamma_1 w), gamma_1 =
a (A_x + i A_y), so the oracle's gradient less the reflections' is one such
series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, potential
from .geometry import PorousConfig

MAX_ORACLE_HOLES = 64  # desk-scale guard
ORDER = 8  # multipole order per hole
POINTS = 64  # collocation points per hole
# stop a right-hand side at ||A^T r|| <= _CG_TOL ||A^T b|| or, for data mostly
# outside range(A), at ||A^T r|| <= _CG_TOL ||A||_F ||r|| (LSQR's test)
_CG_TOL = 1e-14
_CG_MAX_ITERATIONS = 200  # far above the 7-20 that cond(A) < 1.5 needs
_CERT_TOL = 1e-8  # relative recovery error of the rank certificate v0


@dataclass
class MultipoleSolution:
    config: PorousConfig
    order: int
    coeffs: np.ndarray  # (N, 2*order): [cos_1, sin_1, cos_2, sin_2, ...]
    residual: float
    iterations: int  # CGLS block iterations
    cond: float  # Lanczos estimate of cond(A), A the per-hole-centered basis

    def __post_init__(self):
        if not np.isfinite(self.residual):
            raise ValueError("collocation residual must be finite")


class _Basis:
    """The per-ring-centered multipole basis A as an operator on rows
    (x -> A x, r -> A^T r) that holds only the (npts, N) map v = conj(a/(z - c)).
    A's columns are hole-major, (cos_1, sin_1, ..., cos_M, sin_M) per hole.
    Its order-m columns, the float view of v^m, are made by p *= v on blocks
    of whole rings of ``kernels.BLOCK`` bytes: cumprod's values to an ulp, as
    numpy's contiguous complex multiply fuses a multiply-add."""

    def __init__(self, config: PorousConfig, order: int, pts: np.ndarray, ring: int):
        zc = config.centers[:, 0] + 1j * config.centers[:, 1]
        self.v = np.subtract.outer(pts[:, 0] + 1j * pts[:, 1], zc)
        np.conjugate(np.divide(config.a, self.v, out=self.v), out=self.v)
        self.order, self.ring = order, ring

    def powers(self):
        """(rows, m - 1, v^m on those rows as floats) per block and order m."""
        row_blocks = list(kernels.blocks(len(self.v), 16 * self.v.shape[1], align=self.ring))
        buf = np.empty_like(self.v[row_blocks[0]])
        for rows in row_blocks:
            vb = self.v[rows]
            p = buf[:len(vb)]
            p[...] = vb
            for m in range(self.order):
                if m:
                    p *= vb
                yield rows, m, p.view(float)

    def _center(self, r):
        rings = r.reshape(len(r), -1, self.ring)
        return (rings - rings.mean(axis=2, keepdims=True)).reshape(r.shape)

    def matvec(self, x):
        """A x for each row x."""
        xm = x.reshape(len(x), -1, self.order, 2).transpose(2, 1, 3, 0)
        xm = xm.reshape(self.order, -1, len(x))
        out = np.zeros((len(self.v), len(x)))
        for rows, m, p in self.powers():
            out[rows] += p @ xm[m]
        return self._center(out.T)

    def rmatvec(self, r, frobenius=False):
        """A^T r for each row r, and ||A||_F^2 if ``frobenius``."""
        r, norm2 = self._center(r), 0.0
        out = np.zeros((self.order, len(r), 2 * self.v.shape[1]))
        for rows, m, p in self.powers():
            out[m] += r[:, rows] @ p
            if frobenius:  # each ring's sum of squares less ring * its mean squared
                sums = np.ones(self.ring) @ p.reshape(-1, self.ring, p.shape[1])
                norm2 += kernels.dot(p, p) - kernels.dot(sums, sums) / self.ring
        out = np.moveaxis(out.reshape(self.order, len(r), -1, 2), 0, 2).reshape(len(r), -1)
        return (out, norm2) if frobenius else out


def _cgls(a, b: np.ndarray):
    """Block CGLS for min ||a x - b_j|| on each row b_j of ``b``, ``a`` an
    operator with ``_Basis``'s row-wise ``matvec`` and ``rmatvec``.

    Conjugate gradients on the normal equations (Hestenes & Stiefel 1952),
    with the right-hand sides sharing each product with ``a``. A row stops
    when ||a.T r|| <= _CG_TOL ||a.T b_j||, so a zero row stops at once with
    x = 0, or when ||a.T r|| <= _CG_TOL ||a||_F ||r||: r is then orthogonal
    to range(a) to roundoff, which the first test cannot see when r is much
    larger than the fittable part of b_j (Paige & Saunders 1982). Returns
    the solutions (one row each), the number of block iterations and each
    row's CG step lengths and direction updates (alpha_k, beta_k), which
    define the Lanczos tridiagonal of a.T a.
    """
    r = b.copy()
    p, frobenius = a.rmatvec(r, frobenius=True)
    x = np.zeros_like(p)
    gamma = np.einsum("ij,ij->i", p, p)
    stop = _CG_TOL**2 * gamma
    ls_stop = _CG_TOL**2 * frobenius  # times ||r||^2
    rr = np.einsum("ij,ij->i", r, r)
    steps = [([], []) for _ in range(b.shape[0])]
    iterations = 0
    while (live := np.flatnonzero((gamma > stop) & (gamma > ls_stop * rr))).size:
        if iterations == _CG_MAX_ITERATIONS:
            raise RuntimeError(
                f"rank-deficient collocation system: CGLS did not converge in "
                f"{_CG_MAX_ITERATIONS} iterations"
            )
        iterations += 1
        q = a.matvec(p[live])
        alpha = gamma[live] / np.einsum("ij,ij->i", q, q)
        x[live] += alpha[:, None] * p[live]
        r[live] -= alpha[:, None] * q
        rr[live] = np.einsum("ij,ij->i", r[live], r[live])
        s = a.rmatvec(r[live])
        gamma_new = np.einsum("ij,ij->i", s, s)
        beta = gamma_new / gamma[live]
        p[live] = s + beta[:, None] * p[live]
        gamma[live] = gamma_new
        for j, al, be in zip(live, alpha, beta):
            steps[j][0].append(al)
            steps[j][1].append(be)
    return x, iterations, steps


def _lanczos_cond(alphas, betas) -> float:
    """Condition number of ``a`` estimated from the Ritz values of a.T a: the
    eigenvalues of the Lanczos tridiagonal that CG's step lengths and
    direction updates define (as LSQR estimates it; Paige & Saunders 1982)."""
    alphas = np.asarray(alphas)
    betas = np.asarray(betas[:-1])
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    off = np.sqrt(betas) / alphas[:-1]
    ritz = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return float(np.sqrt(ritz[-1] / ritz[0]))


def solve_collocation(
    source,
    config: PorousConfig,
    order: int = ORDER,
    pts_per_hole: int = POINTS,
) -> MultipoleSolution:
    """Least-squares fit of the multipole coefficients.

    Only the boundary oscillation is fit: the basis and psi_0 are centered
    per hole, which eliminates the unknown boundary constants. The centered
    basis A is the operator ``_Basis``, which holds the (rows, N) complex map
    v and no (rows x cols) matrix.

    The fit is block CGLS with two right-hand sides: the data, and a rank
    certificate A v0 for a fixed random v0. A direction in the null space
    of A never enters the data's Krylov space, but it leaves v0
    unrecovered, so a recovery error above _CERT_TOL (or the iteration cap)
    raises ``RuntimeError``. ``cond`` is the Lanczos estimate from the
    certificate's CG coefficients.
    """
    if config.n_holes > MAX_ORACLE_HOLES:
        raise ValueError(
            f"oracle guard: N = {config.n_holes} exceeds {MAX_ORACLE_HOLES}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    if pts_per_hole < 4 * order:
        raise ValueError("need pts_per_hole >= 4*order collocation points")
    n = config.n_holes
    pts = config.boundary_points(pts_per_hole)
    psi0 = potential.psi0_eval(source, pts).reshape(n, pts_per_hole)
    basis = _Basis(config, order, pts, pts_per_hole)
    rhs = (psi0.mean(axis=1)[:, None] - psi0).ravel()
    v0 = np.random.default_rng(0).standard_normal(2 * order * n)
    x, iterations, steps = _cgls(basis, np.concatenate([rhs[None], basis.matvec(v0[None])]))
    coeffs = x[0]
    miss = np.linalg.norm(x[1] - v0) / np.linalg.norm(v0)
    if miss > _CERT_TOL:
        raise RuntimeError(
            f"rank-deficient collocation system: the certificate v0 is "
            f"recovered to {miss:.3e} relative (> {_CERT_TOL:g})"
        )
    return MultipoleSolution(
        config=config,
        order=order,
        coeffs=coeffs.reshape(n, 2 * order),
        residual=float(np.abs(basis.matvec(coeffs[None]) - rhs).max()),
        iterations=iterations,
        cond=_lanczos_cond(*steps[1]),
    )


def multipole_part_grad(sol: MultipoleSolution, x) -> np.ndarray:
    """The gradient of the hole series alone (without psi_0) at points x,
    (n, 2): the sum over holes of (Re, -Im) of -(w/z) P'(w) =
    w^2 sum_m (-m gamma_m / a) w^(m-1), one hole at a time, by Horner's rule
    in w on blocks of ``kernels.BLOCK`` bytes, 16 per point, with scalar
    coefficients. Each block's sum is taken in the float pairs of the output,
    so the call holds three complex blocks beside it."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    config = sol.config
    gamma = sol.coeffs[:, 0::2] + 1j * sol.coeffs[:, 1::2]  # (N, M)
    gamma = gamma * (-np.arange(1, sol.order + 1) / config.a)  # -m gamma_m / a
    zc = config.centers[:, 0] + 1j * config.centers[:, 1]
    out = np.zeros((pts.shape[0], 2))
    total = out.view(complex)[:, 0]  # (Re, Im) of the sum at each point
    for sl in kernels.blocks(pts.shape[0], 16):
        zb = np.empty(sl.stop - sl.start, dtype=complex)
        zb.real, zb.imag = pts[sl, 0], pts[sl, 1]
        block, w, acc = total[sl], np.empty_like(zb), np.empty_like(zb)
        for c, g in zip(zc, gamma):
            np.divide(config.a, np.subtract(zb, c, out=w), out=w)
            np.multiply(w, g[-1], out=acc)
            for gm in g[-2::-1]:
                acc += gm
                acc *= w
            acc *= w
            block += acc
    return np.conjugate(total, out=total).view(float).reshape(-1, 2)  # (Re, -Im)
