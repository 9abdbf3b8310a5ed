"""Pairwise sums of the 2D Laplace kernel in complex form: every point-source
field in porousflow is a sum over sources of q_j K_m(z - z_j), z = x + i y, with

- m = 0: K_0(z) = 1/2 log(|z|^2 + blob^2), the (blob-regularized) log potential;
- m = 1: K_1(z) = conj(z) / (|z|^2 + blob^2), which is 1/z without a blob;
- m = 2: K_2(z) = 1/z^2 (no blob).

For real q, (Re, -Im) of the m = 1 sum is the gradient of the m = 0 sum. For
q = A_x + i A_y, Re of the m = 1 sum is the dipole field sum A.z/|z|^2 and
(-Re, Im) of the m = 2 sum its gradient.

Targets go in blocks of at most ``PAIR_BUDGET`` pairs, so memory stays bounded.
1 << 16 pairs (1 MB of complex data) stay in cache: a 1316 x 1316 m = 1 blob sum
took 55.6, 12.1, 11.3 and 11.9 ns/pair at 1 << 22, 1 << 18, 1 << 16 and 1 << 14
(2-core VM), as fresh large blocks are page-faulted in on every call.

The m = 1 blob kernel is built as a real block, (dx, dy) / (|z|^2 + blob^2),
in one buffer reused by every block of a call, and summed by two real matrix
products (complex q as the (S, 2) columns Re q, Im q). The other kernels keep
the complex block, where a real form measured no faster (m = 2 slower).

When the targets are the sources (and no ``own``), K_m(-z) = (-1)^m K_m(z)
lets one block serve both its rows and its columns, so only the upper
triangle of sqrt(PAIR_BUDGET)-square blocks is built (the diagonal blocks in
full). At 1316 particles with blob 0.025 (2-core VM, median of five runs), the
complex blocks took 30.2 ms for the self-sum, 23.7 ms at 1024 targets and
5.5 ms at 256 targets; the real blocks take 8.1 ms (13.4 ms over rectangular
target blocks), 9.8 ms and 2.6 ms.
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
    """
    blob2 = float(blob) ** 2
    real = m == 1 and blob2 > 0.0
    zt = _coords(targets, real)
    zs = _coords(sources, real)
    q = np.asarray(q)
    w = np.stack([q.real, q.imag], axis=1) if real and np.iscomplexobj(q) else q
    out = np.zeros(zt.shape[-1], dtype=np.result_type(q, float if m == 0 else complex))
    # one buffer for every real block of the call, sized for its largest
    # block: a fresh 1 MB array per block is page-faulted in each time (a
    # 49 x 1316 block took 2.7x as long, 2-core VM)
    largest = min(zt.shape[-1] * zs.shape[-1], max(PAIR_BUDGET, zs.shape[-1]))
    work = np.empty(3 * largest) if real else None
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


def _coords(pts, real: bool) -> np.ndarray:
    """Points as a (2, n) real array for the real blob block, else as (n,)
    complex z = x + i y."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.ascontiguousarray(pts.T) if real else pts[:, 0] + 1j * pts[:, 1]


def _apply(kern: np.ndarray, w: np.ndarray) -> np.ndarray:
    """kern @ w at the block's rows. A real blob block holds (Re K, -Im K);
    its products with w (q, or the columns Re q, Im q) are joined into the
    complex sum."""
    s = kern @ w
    if kern.ndim == 2:
        return s
    s = s[0] - 1j * s[1]
    return s if w.ndim == 1 else s[:, 0] + 1j * s[:, 1]


def _kernel(zt: np.ndarray, zs: np.ndarray, m: int, blob2: float, work) -> np.ndarray:
    """K_m between the targets ``zt`` and sources ``zs`` (see ``_coords``):
    a real (2, T, S) block (dx, dy) / (|z|^2 + blob^2) for the m = 1 blob
    kernel, held in ``work`` (3 T S floats), else a complex (T, S) block
    (real for m = 0); singular entries are 0."""
    if zt.ndim == 2:  # m = 1 with a blob, never singular
        size = zt.shape[1] * zs.shape[1]
        d = work[:2 * size].reshape(2, zt.shape[1], zs.shape[1])
        inv = work[2 * size:3 * size].reshape(d.shape[1:])
        np.subtract(zt[:, :, None], zs[:, None, :], out=d)
        np.einsum("kij,kij->ij", d, d, out=inv)  # |z|^2
        inv += blob2
        np.reciprocal(inv, out=inv)
        d *= inv
        return d
    z = zt[:, None] - zs[None, :]
    if m == 0:
        r2 = z.real * z.real
        r2 += z.imag * z.imag
        r2 += blob2
        r2[r2 == 0.0] = 1.0  # log 1 = 0 drops the pair
        np.log(r2, out=r2)
        r2 *= 0.5
        return r2
    # numpy's complex reciprocal is about twice as fast as conj(z) / |z|^2
    zero = z == 0.0
    z[zero] = 1.0
    np.reciprocal(z, out=z)
    if m == 2:
        z *= z
    z[zero] = 0.0
    return z
