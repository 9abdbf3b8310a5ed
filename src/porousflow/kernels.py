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
"""

from __future__ import annotations

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
    zt = _complex(targets)
    zs = _complex(sources)
    out = np.zeros(zt.shape[0], dtype=np.result_type(q, float if m == 0 else complex))
    for sl in chunks(zt.shape[0], zs.shape[0]):
        kern = _kernel(zt[sl, None] - zs[None, :], m, blob)
        if own is not None:
            rows = np.flatnonzero(own[sl] >= 0)
            kern[rows, own[sl][rows]] = 0.0
        out[sl] = kern @ q
    return out


def _complex(pts) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return pts[:, 0] + 1j * pts[:, 1]


def _kernel(z: np.ndarray, m: int, blob: float) -> np.ndarray:
    """K_m at the complex separations ``z``, overwriting ``z`` where it can;
    singular entries are 0."""
    blob2 = float(blob) ** 2
    if m == 0:
        r2 = z.real * z.real
        r2 += z.imag * z.imag
        r2 += blob2
        r2[r2 == 0.0] = 1.0  # log 1 = 0 drops the pair
        np.log(r2, out=r2)
        r2 *= 0.5
        return r2
    if blob2:  # m = 1 with a blob: conj(z) / (|z|^2 + blob^2), never singular
        inv = z.real * z.real
        inv += z.imag * z.imag
        inv += blob2
        np.reciprocal(inv, out=inv)
        z.real *= inv
        np.negative(inv, out=inv)
        z.imag *= inv
        return z
    # numpy's complex reciprocal is about twice as fast as conj(z) / |z|^2
    zero = z == 0.0
    z[zero] = 1.0
    np.reciprocal(z, out=z)
    if m == 2:
        z *= z
    z[zero] = 0.0
    return z
