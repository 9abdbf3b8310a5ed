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

Every bounded loop in porousflow takes its slices from ``blocks``, under one
budget, ``BLOCK`` bytes of its largest temporary, and every whole-array inner
product is ``dot``, whose digits do not depend on the BLAS thread count. Targets go in blocks of 8
bytes per pair: 1 << 16 pairs stay in cache, as a 1316 x 1316 m = 1 blob
sum took 55.6, 12.1, 11.3 and 11.9 ns/pair at 1 << 22, 1 << 18, 1 << 16 and
1 << 14 (2-core VM).

Far sums interpolate on Chebyshev nodes, as in the black-box FMM (Fong &
Darve 2009), without ``own`` and for targets that are not the sources. Both
sides take one distance, the gap between the targets' box and the sources'
box, which hold every target and target node, and every source and source
node. With r a box's half-widths and u = gap / r, no singularity of
K(t - s) (any m and blob, and Delta K) lies inside that axis's Bernstein
ellipse rho = u + sqrt(u^2 + 1) for t and s anywhere in their boxes, so
Lagrange interpolation on the p_x x p_y Chebyshev nodes of either box, p =
ceil(53 ln 2 / ln rho) + 2 per axis, reproduces K(t - s) as a function of
that box's points to roundoff, whichever points the other side sums over. A
side takes its nodes when rho >= 4 on both axes, p_x p_y <= half its point
count, the call has more than ``BLOCK // 8`` pairs and its box is not flat:

- source side: the nodes with the strengths Q = Lx^T diag(q) Ly (Lx, Ly the
  (S, p) Lagrange weights) stand for the S sources;
- target side: the sum runs at the target nodes, over the sources or their
  nodes, and out_i = sum_ab Lx[i, a] Ly[i, b] F[a, b] interpolates it back
  to the targets.

Boxes that meet (gap 0, targets around the sources included) sum directly.

In euler-compare (particles 5.3 from the k cells and holes: 14 or 15 nodes per
axis on each side) the particle -> cell and cell -> particle sums take both
sides, particle -> hole the source side only (196 or 225 nodes are more than
half of 256 holes) and hole -> particle the target side only (likewise).

When the targets are the sources (and no ``own``), D^m K(-z) = (-1)^m D^m K(z)
lets one block serve both its rows and its columns, so only the upper
triangle of square tiles of ``BLOCK`` bytes is built (the diagonal blocks in
full). At 1316 particles with blob 0.025 (2-core VM, median of 30 runs),
the self-sum takes 5.8 ms against 8.3 ms over rectangular target blocks.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 1 << 19  # bytes of a blocked loop's largest temporary (cache sized)
_STRENGTHS = {0: ((),), 1: ((), (2,)), 2: ((2,),)}  # q.shape[1:] that each m takes
_LAPLACIAN = "laplacian"  # the block kind of ``laplacian_sum``
_FAR_RHO = 4.0  # the smallest Bernstein-ellipse parameter of the far path
_DIGITS = 53 * math.log(2.0)  # rho^-p reaches double precision at p = _DIGITS / ln rho


def blocks(n: int, width: int, align: int = 1):
    """Slices of range(n), each of whole multiples of ``align`` items (the
    last one may be short) holding at most ``BLOCK`` bytes at ``width`` bytes
    per item, and at least one item (``align`` items when n allows).
    ``BLOCK`` is read at each call."""
    step = align * max(BLOCK // max(width * align, 1), 1)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of a * b over every value, by numpy's own loop (``einsum``
    without ``optimize``): BLAS ``ddot`` splits a long sum over its threads,
    so its last digits move with the BLAS thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


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
    n_t, n_s = zt.shape[-1], zs.shape[-1]
    out = np.zeros((n_t, 2) if m == q.ndim else n_t)
    # one buffer for every block of the call, sized for its largest direct
    # block: fresh blocks are page-faulted in each time (560 minor faults per
    # 4096 x 256 m = 2 call, against none with the buffer; 2-core VM). Sized
    # for the source nodes, it left euler-compare's peak RSS 0.4 MB higher (glibc)
    largest = min(n_t * n_s, max(BLOCK // 8, n_s))
    self_sum = own is None and np.array_equal(zt, zs)
    grid = None
    if own is None and not self_sum and 8 * n_t * n_s > BLOCK:
        box, s_box = _box(zt), _box(zs)
        gap = math.hypot(*np.maximum(np.abs(box[0] - s_box[0]) - box[1] - s_box[1], 0.0))
        grid = _far_grid(n_t, *box, gap)
        found = _far_grid(n_s, *s_box, gap)
        if found is not None:
            q = _strengths(zs, q, *s_box, found[0])
            zs = found[1]
    work = np.empty(3 * largest)
    if self_sum:
        _self_sum(out, zs, q, m, blob2, work)
    elif grid is None:
        _blocks(out, zt, zs, q, m, blob2, work, own)
    else:  # the sum at the target nodes, interpolated to the targets
        p, nodes = grid
        at_nodes = np.empty((nodes.shape[-1],) + out.shape[1:])
        _blocks(at_nodes, nodes, zs, q, m, blob2, work)
        # the interpolation's (T, p) arrays take the buffer's memory: held,
        # it left euler-compare's peak RSS 0.7 MB higher (glibc, 2-core VM)
        del work
        _interpolate(out, zt, *box, p, at_nodes)
    return out


def _blocks(out, zt, zs, q, m, blob2: float, work, own=None) -> None:
    """Writes the sum at the targets ``zt`` into ``out``, over blocks of
    targets of at most ``BLOCK`` bytes of pairs each."""
    for sl in blocks(zt.shape[-1], 8 * zs.shape[-1]):
        kern = _kernel(zt[..., sl], zs, m, blob2, work)
        if own is not None:
            rows = np.flatnonzero(own[sl] >= 0)
            kern[..., rows, own[sl][rows]] = 0.0
        out[sl] = _apply(kern, q, m)


def _interpolate(out, zt, centre, half, p, at_nodes) -> None:
    """Writes out_i = sum_ab Lx[i, a] Ly[i, b] F[a, b] into ``out`` for the
    targets ``zt`` (2, T), F the sum ``at_nodes`` at the nodes of the box
    (centre, half), over blocks of at most ``BLOCK`` bytes of weights."""
    # (p_x, c p_y) for c = 1 or 2 components: with p_y, not c, as the einsum's
    # inner axis it took half the time (2-core VM)
    at_nodes = np.moveaxis(at_nodes.reshape(p[0], p[1], -1), 2, 1).reshape(p[0], -1)
    for sl in blocks(zt.shape[-1], 8 * (p[0] + p[1])):
        lx, ly = _weights(zt[:, sl], centre, half, p)
        rows = (lx @ at_nodes).reshape(len(lx), -1, p[1])
        np.einsum("icb,ib->ic", rows, ly, out=out[sl].reshape(len(lx), -1))


def _strengths(zs, q, centre, half, p):
    """The strengths Q of the Chebyshev nodes of the box (centre, half) that
    stand for the sources ``zs`` (2, S) with ``q``: (p_x p_y,) + q.shape[1:]."""
    lx, ly = _weights(zs, centre, half, p)
    # (c, S, p_y) for c = 1 or 2 components: with p_y, not c, as the inner
    # axis the product took 17 us instead of 185 (S = 1024, c = 2, 2-core VM)
    weighted = q.reshape(len(q), -1).T[:, :, None] * ly
    strengths = np.moveaxis(lx.T @ weighted, 0, -1)  # (p_x, p_y, c)
    return strengths.reshape((p[0] * p[1],) + q.shape[1:])


def _box(pts):
    """The centre and half-widths (2,) of the bounding box of ``pts`` (2, n)."""
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _far_grid(n: int, centre, half, dist: float):
    """(p, nodes): per axis the p of the far path on the box (centre, half)
    of n points at the gap ``dist`` from the other side's box, and the box's
    (2, p_x p_y) Chebyshev nodes; None where the side stays at its points (a
    flat box, rho < 4 on an axis or p_x p_y > n / 2)."""
    p = []
    for r in half.tolist():  # Python floats: a numpy call on 2 values costs ~1 us
        if not r > 0.0:
            return None
        u = dist / r
        rho = u + math.sqrt(u * u + 1.0)  # the Bernstein ellipse free of singularities
        if rho < _FAR_RHO:
            return None
        p.append(math.ceil(_DIGITS / math.log(rho)) + 2)
    if p[0] * p[1] > n / 2:
        return None
    x, y = (centre[i] + half[i] * np.cos((np.arange(p[i]) + 0.5) * (np.pi / p[i]))
            for i in (0, 1))
    nodes = np.empty((2, p[0], p[1]))  # node a p_y + b at (x_a, y_b)
    nodes[0] = x[:, None]
    nodes[1] = y
    return p, nodes.reshape(2, -1)


def _weights(pts, centre, half, p):
    """The Lagrange weights (n, p_x) and (n, p_y) of ``pts`` (2, n) on the
    Chebyshev nodes of the box (centre, half)."""
    return [_chebyshev((pts[i] - centre[i]) / half[i], p[i]) for i in (0, 1)]


def _chebyshev(xi: np.ndarray, p: int) -> np.ndarray:
    """The (n, p) Lagrange weights of the points ``xi`` on the p Chebyshev
    nodes x_k = cos((k + 1/2) pi / p) of the first kind on [-1, 1],
    l_k(xi) = (1 + 2 sum_{n=1}^{p-1} T_n(xi) T_n(x_k)) / p, with T_n(xi) by
    the recurrence T_{n+1} = 2 xi T_n - T_{n-1}: 0.062 ms at 1316 points and
    p = 15, against 0.311 ms with cos(n arccos xi) (min of 300, 2-core VM)."""
    xi = np.clip(xi, -1.0, 1.0)
    at_points = np.empty((p, xi.size))
    at_points[0] = 1.0
    if p > 1:
        at_points[1] = xi
    twice = 2.0 * xi
    for n in range(2, p):
        np.multiply(twice, at_points[n - 1], out=at_points[n])
        at_points[n] -= at_points[n - 2]
    orders = np.arange(p)
    at_nodes = np.cos(np.outer(orders, (orders + 0.5) * (np.pi / p)))
    at_nodes[0] = 1.0 / p
    at_nodes[1:] *= 2.0 / p
    return at_points.T @ at_nodes


def _self_sum(out, pts, q, m, blob2: float, work) -> None:
    """Adds the sum of the points on themselves to ``out`` over the upper
    triangle of square tiles of at most ``BLOCK`` bytes of pairs: an
    off-diagonal tile K(rows, cols) adds K q[cols] to its rows and K^T q[rows]
    to its columns, negated for the odd m = 1."""
    side = math.isqrt(BLOCK // 8)
    tiles = list(blocks(pts.shape[-1], BLOCK // side))  # side points each
    for i, rows in enumerate(tiles):
        for cols in tiles[i:]:
            kern = _kernel(pts[..., rows], pts[..., cols], m, blob2, work)
            out[rows] += _apply(kern, q[cols], m)
            if cols != rows:
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
