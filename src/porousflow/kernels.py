"""Pairwise sums of the 2D Laplace kernel K(z) = 1/2 log(|z|^2 + blob^2), z the
target minus the source. Every point-source field in porousflow is D^m K
contracted with real strengths q and summed over the S sources, at T targets:

    m  q       result  sum of           field
    0  (S,)    (T,)    q_j K            the log potential
    1  (S,)    (T, 2)  q_j grad K       its gradient (Biot-Savart)
    1  (S, 2)  (T,)    q_j . grad K     the disk-dipole value A.z/|z|^2
    2  (S, 2)  (T, 2)  H K q_j          the dipole's gradient (no blob)

with grad K = (u, v) = (dx, dy) / (|z|^2 + blob^2) and, without a blob,
H K = -[[P0, P1], [P1, -P0]] for (P0, P1) = (u^2 - v^2, 2 u v).
``laplacian_sum`` sums q_j Delta K = q_j 2 blob^2 / (|z|^2 + blob^2)^2.

Every block is three real planes in one buffer that the call reuses: (dx, dy)
and |z|^2 + blob^2, from which K (1/2 log of the third), grad K, H K and
Delta K (2 blob^2 / the third squared) are made in place, then summed by real
matrix products with q.

Targets go in blocks of at most ``PAIR_BUDGET`` pairs, so memory stays bounded.
1 << 16 pairs stay in cache: a 1316 x 1316 m = 1 blob sum took 55.6, 12.1, 11.3
and 11.9 ns/pair at 1 << 22, 1 << 18, 1 << 16 and 1 << 14 (2-core VM).

Far targets sum over proxy sources, as in the black-box FMM (Fong & Darve
2009). Without ``own`` and for targets that are not the sources: with r the
half-widths of the sources' bounding box and dist the least target distance to
it, no singularity of K(t - s) (any m and blob, and Delta K) lies inside each
axis's Bernstein ellipse rho = u + sqrt(u^2 + 1), u = dist / r. So the p_x x p_y
Chebyshev nodes of the box, p = ceil(53 ln 2 / ln rho) + 2 per axis, with the
strengths Q = Lx^T diag(q) Ly (Lx, Ly the (S, p) Lagrange weights) stand for the
S sources to roundoff. Direct when rho < 4, p_x p_y > S / 2, the call has at
most ``PAIR_BUDGET`` pairs or the box is flat. In euler-compare (particles 5.3
from the k cells and holes: 15 x 15 nodes) the particle -> cell, particle ->
hole and cell -> particle sums take it.

When the targets are the sources (and no ``own``), D^m K(-z) = (-1)^m D^m K(z)
lets one block serve both its rows and its columns, so only the upper
triangle of sqrt(PAIR_BUDGET)-square blocks is built (the diagonal blocks in
full). At 1316 particles with blob 0.025 (2-core VM, median of 30 runs),
the self-sum takes 5.8 ms against 8.3 ms over rectangular target blocks.
"""

from __future__ import annotations

import math

import numpy as np

PAIR_BUDGET = 1 << 16  # target x source pairs handled per vectorized block
_STRENGTHS = {0: ((),), 1: ((), (2,)), 2: ((2,),)}  # q.shape[1:] that each m takes
_LAPLACIAN = "laplacian"  # the block kind of ``laplacian_sum``
_FAR_RHO = 4.0  # the smallest Bernstein-ellipse parameter of the proxy path
_DIGITS = 53 * math.log(2.0)  # rho^-p reaches double precision at p = _DIGITS / ln rho


def chunks(n_targets: int, n_sources: int):
    """Slices of the targets, each holding at most ``PAIR_BUDGET`` pairs
    (and at least one target)."""
    step = max(PAIR_BUDGET // max(n_sources, 1), 1)
    for start in range(0, n_targets, step):
        yield slice(start, min(start + step, n_targets))


def pair_sum(targets, sources, q, m: int, blob: float = 0.0, own=None) -> np.ndarray:
    """D^m K(t_i - s_j) contracted with the real strengths ``q`` and summed
    over the sources, for points ``targets`` (T, 2) and ``sources`` (S, 2):
    (T,) or (T, 2), as in the module's table.

    Pairs where the kernel is singular (z = 0 without a blob) are dropped.
    ``own`` (T,) of source indices drops source ``own[i]`` for target i
    (-1 drops none). Raises ``ValueError`` for m outside {0, 1, 2}, for m = 2
    with a blob, and for strengths that are not real or fit no row of the
    table.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"kernel order m must be 0, 1 or 2, got {m!r}")
    blob2 = float(blob) ** 2
    if m == 2 and blob2 > 0.0:
        raise ValueError("the m = 2 kernel takes no blob")
    q = np.asarray(q)
    if q.dtype.kind not in "biuf" or q.ndim == 0 or q.shape[1:] not in _STRENGTHS[m]:
        raise ValueError(f"real strengths fit an m = {m} sum, not {q.dtype} {q.shape}")
    return _sum(targets, sources, q.astype(float, copy=False), m, blob2, own)


def laplacian_sum(targets, sources, q, blob: float) -> np.ndarray:
    """sum_j q_j Delta K(t_i - s_j) = sum_j q_j 2 blob^2 / (|z|^2 + blob^2)^2
    for real strengths ``q`` (S,), at points ``targets`` (T, 2): the
    Laplacian of the m = 0 sum, (T,). Without a blob it is 0 off the sources."""
    return _sum(targets, sources, np.asarray(q, dtype=float), _LAPLACIAN, float(blob) ** 2)


def _sum(targets, sources, q, m, blob2: float, own=None) -> np.ndarray:
    zt = _coords(targets)
    zs = _coords(sources)
    out = np.zeros((zt.shape[-1], 2) if m == q.ndim else zt.shape[-1])
    # one buffer for every block of the call, sized for its largest direct
    # block: fresh blocks are page-faulted in each time (560 minor faults per
    # 4096 x 256 m = 2 call, against none with the buffer; 2-core VM). Sized
    # for the proxies, it left euler-compare's peak RSS 0.4 MB higher (glibc)
    largest = min(zt.shape[-1] * zs.shape[-1], max(PAIR_BUDGET, zs.shape[-1]))
    self_sum = own is None and np.array_equal(zt, zs)
    if own is None and not self_sum:
        zs, q = _proxies(zt, zs, q)
    work = np.empty(3 * largest)
    if self_sum:
        _self_sum(out, zs, q, m, blob2, work)
        return out
    for sl in chunks(zt.shape[-1], zs.shape[-1]):
        kern = _kernel(zt[..., sl], zs, m, blob2, work)
        if own is not None:
            rows = np.flatnonzero(own[sl] >= 0)
            kern[..., rows, own[sl][rows]] = 0.0
        out[sl] = _apply(kern, q, m)
    return out


def _proxies(zt, zs, q):
    """(nodes, strengths) for the targets ``zt`` (2, T): the sources ``zs``
    (2, S) and ``q``, or the far path's Chebyshev nodes of their box and Q."""
    n_s = zs.shape[-1]
    # p >= 3 per axis, so p_x p_y > S / 2 below 18 sources: direct at once
    if zt.shape[-1] * n_s <= PAIR_BUDGET or n_s < 18:
        return zs, q
    lo, hi = zs.min(axis=1), zs.max(axis=1)
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if not np.all(half > 0.0):
        return zs, q
    dist2 = math.inf  # over blocks of targets: no (2, T) temporaries
    for start in range(0, zt.shape[-1], PAIR_BUDGET):
        gap = np.abs(zt[:, start:start + PAIR_BUDGET] - centre[:, None]) - half[:, None]
        np.maximum(gap, 0.0, out=gap)
        dist2 = min(dist2, float(np.einsum("ij,ij->j", gap, gap).min()))
    u = math.sqrt(dist2) / half
    rho = u + np.sqrt(u * u + 1.0)  # the Bernstein ellipse free of singularities
    if rho.min() < _FAR_RHO:
        return zs, q
    p = np.ceil(_DIGITS / np.log(rho)).astype(int) + 2
    if p[0] * p[1] > n_s / 2:
        return zs, q
    (x, lx), (y, ly) = (_chebyshev((zs[i] - centre[i]) / half[i], p[i]) for i in (0, 1))
    strengths = np.tensordot(lx, ly[:, :, None] * q.reshape(n_s, 1, -1), axes=(0, 0))
    nodes = np.stack([np.repeat(centre[0] + half[0] * x, p[1]),
                      np.tile(centre[1] + half[1] * y, p[0])])
    return nodes, strengths.reshape((p[0] * p[1],) + q.shape[1:])


def _chebyshev(xi: np.ndarray, p: int):
    """The p Chebyshev nodes of the first kind on [-1, 1] and the (n, p)
    Lagrange weights of the points ``xi`` on them,
    l_k(xi) = (1 + 2 sum_{n=1}^{p-1} T_n(xi) T_n(x_k)) / p."""
    angles = (np.arange(p) + 0.5) * (np.pi / p)
    orders = np.arange(p)
    at_points = np.cos(np.outer(np.arccos(np.clip(xi, -1.0, 1.0)), orders))
    at_points[:, 1:] *= 2.0
    return np.cos(angles), at_points @ np.cos(np.outer(orders, angles)) / p


def _self_sum(out, pts, q, m, blob2: float, work) -> None:
    """Adds the sum of the points on themselves to ``out`` over the upper
    triangle of square blocks of ``PAIR_BUDGET`` pairs: an off-diagonal block
    K(rows, cols) adds K q[cols] to its rows and K^T q[rows] to its columns,
    negated for the odd m = 1."""
    n = pts.shape[-1]
    side = math.isqrt(PAIR_BUDGET)
    for r in range(0, n, side):
        rows = slice(r, min(r + side, n))
        for c in range(r, n, side):
            cols = slice(c, min(c + side, n))
            kern = _kernel(pts[..., rows], pts[..., cols], m, blob2, work)
            out[rows] += _apply(kern, q[cols], m)
            if c > r:
                out[cols] += (-1 if m == 1 else 1) * _apply(np.swapaxes(kern, -1, -2), q[rows], m)


def _coords(pts) -> np.ndarray:
    """Points (n, 2) as a C-contiguous (2, n) array of x and y."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.ascontiguousarray(pts.T)


def _apply(kern: np.ndarray, q: np.ndarray, m) -> np.ndarray:
    """The block's rows of the sum: real matrix products of its (T, S) plane
    or its (2, T, S) planes, (u, v) for m = 1 and (P0, P1) for m = 2, with q."""
    if q.ndim == 1:  # K q, Delta K q or the gradient (u q, v q)
        return (kern @ q).T
    if m == 1:  # the dipole value u q_x + v q_y
        return kern[0] @ q[:, 0] + kern[1] @ q[:, 1]
    s = kern @ q  # s[k, :, j] = P_k q_j
    return np.stack([-(s[0, :, 0] + s[1, :, 1]), s[0, :, 1] - s[1, :, 0]], axis=1)


def _kernel(zt: np.ndarray, zs: np.ndarray, m, blob2: float, work) -> np.ndarray:
    """The block between the targets ``zt`` (2, T) and sources ``zs`` (2, S),
    held in ``work`` (3 T S floats): the (T, S) plane K for m = 0 and Delta K
    for ``_LAPLACIAN``, the (2, T, S) planes (u, v) for m = 1 and (P0, P1)
    for m = 2. Singular entries are 0."""
    size = zt.shape[1] * zs.shape[1]
    d = work[:2 * size].reshape(2, zt.shape[1], zs.shape[1])
    r2 = work[2 * size:3 * size].reshape(d.shape[1:])
    # dz = (xt, 1) @ (1, -xs) per plane: exact (one factor of each product is
    # 1), and up to 6x as fast as a broadcast subtraction (2-core VM)
    rows = np.stack([zt, np.ones_like(zt)], axis=2)
    np.matmul(rows, np.stack([np.ones_like(zs), -zs], axis=1), out=d)
    np.einsum("kij,kij->ij", d, d, out=r2)  # |z|^2
    if blob2 > 0.0:
        r2 += blob2
    elif m == 0:
        r2[r2 == 0.0] = 1.0  # log 1 = 0 drops the pair
    else:
        r2[r2 == 0.0] = np.inf  # 1 / inf = 0 drops the pair
    if m == 0:
        np.log(r2, out=r2)
        r2 *= 0.5
        return r2
    np.reciprocal(r2, out=r2)
    if m == _LAPLACIAN:
        np.square(r2, out=r2)
        r2 *= 2.0 * blob2
        return r2
    d *= r2  # (u, v) = grad K
    if m == 2:  # (P0, P1) = (u^2 - v^2, 2 u v)
        np.multiply(d[0], d[1], out=r2)
        d *= d
        d[0] -= d[1]
        np.add(r2, r2, out=d[1])
    return d
