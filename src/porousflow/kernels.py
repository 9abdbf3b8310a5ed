"""Pairwise sums of the 2D Laplace kernel in complex form: every point-source
field in porousflow is a sum over sources of q_j K_m(z - z_j), z = x + i y, with

- m = 0: K_0(z) = 1/2 log(|z|^2 + blob^2), the (blob-regularized) log potential;
- m = 1: K_1(z) = conj(z) / (|z|^2 + blob^2), which is 1/z without a blob;
- m = 2: K_2(z) = 1/z^2 (no blob).

For real q, (Re, -Im) of the m = 1 sum is the gradient of the m = 0 sum. For
q = A_x + i A_y, Re of the m = 1 sum is the dipole field sum A.z/|z|^2 and
(-Re, Im) of the m = 2 sum its gradient.

Every kernel is built in one block form: real planes in one buffer that every
block of a call reuses. Two planes hold (dx, dy) and the third |z|^2 + blob^2;
K_0 is 1/2 log of the third plane, K_1 the planes (u, v) = (dx, dy) / (|z|^2 +
blob^2) = (Re K_1, -Im K_1), and K_2 = (u - i v)^2 the planes (u^2 - v^2, 2 u v),
made in place. Each block is summed by real matrix products with q, or with
the (S, 2) columns (Re q, Im q) of a complex q.

Targets go in blocks of at most ``PAIR_BUDGET`` pairs, so memory stays bounded.
1 << 16 pairs stay in cache: a 1316 x 1316 m = 1 blob sum took 55.6, 12.1, 11.3
and 11.9 ns/pair at 1 << 22, 1 << 18, 1 << 16 and 1 << 14 (2-core VM).

When the targets are the sources (and no ``own``), K_m(-z) = (-1)^m K_m(z)
lets one block serve both its rows and its columns, so only the upper
triangle of sqrt(PAIR_BUDGET)-square blocks is built (the diagonal blocks in
full). At 1316 particles with blob 0.025 (2-core VM, median of 30 runs),
the self-sum takes 5.8 ms against 8.3 ms over rectangular target blocks.
"""

from __future__ import annotations

import math

import numpy as np

PAIR_BUDGET = 1 << 16  # target x source pairs handled per vectorized block


def chunks(n_targets: int, n_sources: int):
    """Slices of the targets, each holding at most ``PAIR_BUDGET`` pairs
    (and at least one target)."""
    step = max(PAIR_BUDGET // max(n_sources, 1), 1)
    for start in range(0, n_targets, step):
        yield slice(start, min(start + step, n_targets))


def pair_sum(targets, sources, q, m: int, blob: float = 0.0, own=None) -> np.ndarray:
    """sum_j q_j K_m(t_i - s_j) for points ``targets`` (T, 2) and ``sources``
    (S, 2) with strengths ``q`` (S,), real or complex.

    Pairs where the kernel is singular (z = 0 without a blob) are dropped.
    ``own`` (T,) of source indices drops source ``own[i]`` for target i
    (-1 drops none). The result is real for m = 0 with real q, else complex.
    Raises ``ValueError`` for m outside {0, 1, 2} and for m = 2 with a blob.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"kernel order m must be 0, 1 or 2, got {m!r}")
    blob2 = float(blob) ** 2
    if m == 2 and blob2 > 0.0:
        raise ValueError("the m = 2 kernel takes no blob")
    zt = _coords(targets)
    zs = _coords(sources)
    q = np.asarray(q)
    w = np.stack([q.real, q.imag], axis=1) if np.iscomplexobj(q) else q
    out = np.zeros(zt.shape[-1], dtype=np.result_type(q, float if m == 0 else complex))
    # one buffer for every block of the call, sized for its largest block:
    # fresh blocks are page-faulted in each time (560 minor faults per
    # 4096 x 256 m = 2 call, against none with the buffer; 2-core VM)
    largest = min(zt.shape[-1] * zs.shape[-1], max(PAIR_BUDGET, zs.shape[-1]))
    work = np.empty(3 * largest)
    if own is None and np.array_equal(zt, zs):
        _self_sum(out, zs, w, m, blob2, work)
        return out
    for sl in chunks(zt.shape[-1], zs.shape[-1]):
        kern = _kernel(zt[..., sl], zs, m, blob2, work)
        if own is not None:
            rows = np.flatnonzero(own[sl] >= 0)
            kern[..., rows, own[sl][rows]] = 0.0
        out[sl] = _apply(kern, w)
    return out


def _self_sum(out, pts, w, m: int, blob2: float, work) -> None:
    """Adds the sum of the points on themselves to ``out`` over the upper
    triangle of square blocks of ``PAIR_BUDGET`` pairs: an off-diagonal block
    K(rows, cols) adds K @ q[cols] to its rows and (-1)^m q[rows] @ K to its
    columns."""
    n = pts.shape[-1]
    side = math.isqrt(PAIR_BUDGET)
    for r in range(0, n, side):
        rows = slice(r, min(r + side, n))
        for c in range(r, n, side):
            cols = slice(c, min(c + side, n))
            kern = _kernel(pts[..., rows], pts[..., cols], m, blob2, work)
            out[rows] += _apply(kern, w[cols])
            if c > r:
                out[cols] += (-1) ** m * _apply(np.swapaxes(kern, -1, -2), w[rows])


def _coords(pts) -> np.ndarray:
    """Points (n, 2) as a C-contiguous (2, n) array of x and y."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.ascontiguousarray(pts.T)


def _apply(kern: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K @ q at the block's rows from real matrix products: a (T, S) block is
    K itself (m = 0), a (2, T, S) block the planes (Re K, -Im K); ``w`` is q,
    or the (S, 2) columns (Re q, Im q) of a complex q."""
    s = kern @ w
    if kern.ndim == 3:
        s = s[0] - 1j * s[1]
    return s if w.ndim == 1 else s[..., 0] + 1j * s[..., 1]


def _kernel(zt: np.ndarray, zs: np.ndarray, m: int, blob2: float, work) -> np.ndarray:
    """K_m between the targets ``zt`` (2, T) and sources ``zs`` (2, S), held
    in ``work`` (3 T S floats): the (T, S) block K_0 for m = 0, else the
    (2, T, S) planes (Re K_m, -Im K_m). Singular entries are 0."""
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
    d *= r2  # (u, v) = (Re K_1, -Im K_1)
    if m == 2:  # K_2 = (u - i v)^2 = u^2 - v^2 - 2 i u v
        np.multiply(d[0], d[1], out=r2)
        d *= d
        d[0] -= d[1]
        np.add(r2, r2, out=d[1])
    return d
