"""Free-space potential theory for compactly supported vorticity.

Evaluates the Newtonian potential psi_0 = (1/2pi) int ln|x-y| f(y) dy and its
gradient from either a grid field (midpoint quadrature with an exact analytic
integral on the cell containing the target) or a set of blob-regularized
vortex particles. The gradient at every cell of a grid field is one
zero-padded FFT convolution over the bounding box of f's nonzero cells
(after Hockney & Eastwood 1988) by ``_fft_convolve``, the one such
convolution, which ``homogenized`` also uses for L and for the correction on
a probe grid. It runs over column blocks of the half spectrum of
``kernels.BLOCK`` bytes: each source is transformed along y on its own rows
only, and per block along x, multiplied and inverted along x, so the only
whole array per output is the one that takes its rows (here the kernel
spectrum being built). The homog sweep reads the gradient only on k's box,
and its norm over the whole grid: given that window, the same pass keeps the
window and sums each output plane's squares where it is inverted, so no
whole-grid output is made. Also provides the disk-dipole correction field
V^a[A](x) = a^2 A.(x-c)/|x-c|^2, summed over holes, with its exact gradient.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .fields import ScalarGridField, VectorGridField, perp
from .geometry import inside_holes


def _is_particles(source) -> bool:
    return hasattr(source, "positions") and hasattr(source, "weights")


# ---------------------------------------------------------------------------
# exact cell integral of the log kernel
# ---------------------------------------------------------------------------

def _log_primitive(u, v):
    """Primitive P with d2P/dudv = ln(u^2 + v^2); P -> 0 on the axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r2 = u * u + v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(r2 > 0.0, u * v * (np.log(np.where(r2 > 0, r2, 1.0)) - 3.0), 0.0)
    return term + u * u * np.arctan(_safe_div(v, u)) + v * v * np.arctan(_safe_div(u, v))


def _safe_div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), 0.0)
    return out


def cell_log_integral(dx0, dx1, dy0, dy1):
    """Exact integral of ln|y| over the rectangle [dx0,dx1] x [dy0,dy1]."""
    return 0.5 * (
        _log_primitive(dx1, dy1)
        - _log_primitive(dx0, dy1)
        - _log_primitive(dx1, dy0)
        + _log_primitive(dx0, dy0)
    )


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def psi0_eval(source, x) -> np.ndarray:
    """psi_0 at points x (n, 2): (n,)."""
    pts = np.asarray(x, dtype=float)
    out, cells = _source_sum(source, pts, 0)
    if cells is not None:
        # replace the containing cell's contribution by the exact integral
        centers, vals, own = cells
        live = np.flatnonzero(own >= 0)
        lo = centers[own[live]] - source.h / 2 - pts[live]
        hi = centers[own[live]] + source.h / 2 - pts[live]
        out[live] += vals[own[live]] * cell_log_integral(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])
    return out / (2.0 * np.pi)


def grad_psi0_eval(source, x) -> np.ndarray:
    """grad psi_0 at points x (n, 2): (n, 2)."""
    # a grid's containing cell adds its exact symmetric value, 0
    return _source_sum(source, np.asarray(x, dtype=float), 1)[0] / (2.0 * np.pi)


def velocity0_eval(source, x) -> np.ndarray:
    """Free-space velocity perp-grad psi_0 = (-d2 psi, d1 psi) at points x (n, 2)."""
    return perp(grad_psi0_eval(source, x))


def _source_sum(source, pts, m: int):
    """2 pi psi_0 (m = 0) or 2 pi grad psi_0 (m = 1) at pts, summed over the
    particles with their blob, or over the nonzero cells times h^2 less each
    target's own cell; returns also a grid's (centers, values, own), else None."""
    if _is_particles(source):
        return kernels.pair_sum(pts, source.positions, source.weights, m, source.blob), None
    centers, vals = source.nonzero_cells()
    own = source.nonzero_cell_index(pts)
    return kernels.pair_sum(pts, centers, vals, m, own=own) * source.h**2, (centers, vals, own)


# ---------------------------------------------------------------------------
# whole-grid evaluation via zero-padded FFT convolution
# ---------------------------------------------------------------------------

def grad_psi0_on_grid(f: ScalarGridField, window=None):
    """grad psi_0 sampled at every cell center of f's own grid (free space,
    exact discrete sum: identical to grad_psi0_eval at the centers up to FFT
    roundoff).

    The sum is one zero-padded FFT convolution of f cropped to the bounding
    box of its nonzero cells, placed on the grid by the box's offset; the
    padded box is rounded up to a 2^a 3^b 5^c length per axis, where the
    transforms are fastest. The source is transformed along y once; each
    output plane takes its kernel's spectrum, in whose memory it is inverted.

    With ``window``, a pair of slices of the grid, returns instead
    (grad psi_0 on the window as (2, wx, wy) planes, equal bit for bit to
    the whole-grid field there, and its l2 norm over the whole grid,
    unweighted) from the same convolution: each output plane is read where
    it is inverted, its squares summed over row blocks of ``kernels.BLOCK``
    bytes, so no whole-grid gradient is made."""
    scale = f.h**2 / (2.0 * np.pi)
    where = ... if window is None else tuple(window)
    out = np.zeros((2,) + f.values[where].shape)
    total = 0.0  # the whole grid's sum of squares, with a window
    box = f.support_slices()
    if box is not None:
        (nx, ny), src = f.shape, f.values[box]
        offset = tuple(-sl.start for sl in box)
        size = tuple(_fast_length(ns + no) for ns, no in zip(src.shape, f.shape))
        src_hat = np.fft.rfft(src[None], n=size[1], axis=-1)
        rows = slice(0, src.shape[0])
        spectra = _grad_kernel(src.shape, size, f.h, offset)
        for i in range(2):
            # next(), unlike a for over enumerate, whose cached result tuple
            # holds the spent spectrum while the next one is made
            kern = next(spectra)
            plane = _fft_convolve(src_hat, rows, size, lambda cols, x: np.multiply(
                x, kern[:, cols], out=x), kern[None, :nx])[0, :, :ny]
            np.multiply(plane[where], scale, out=out[i])
            if window is not None:
                for sl in kernels.blocks(nx, 8 * ny):
                    block = plane[sl] * scale
                    total += kernels.dot(block, block)
                    del block  # freed before the next block is made
            del kern, plane  # the spent spectrum, freed before the next is made
    if window is None:
        return VectorGridField(f.origin.copy(), f.h, np.moveaxis(out, 0, 2))
    return out, float(np.sqrt(total))


def _fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            length = p35
            while length < n:
                length *= 2
            best = min(best, length)
            p35 *= 3
        p5 *= 5
    return best


def _wrapped(n_src: int, size: int) -> np.ndarray:
    """The signed displacement n at each index of a box axis of ``size``
    samples whose circular convolution over n_src source samples is a linear
    one: n = 0..size - n_src at the front, -(n_src - 1)..-1 at the back."""
    n = np.arange(size)
    return np.where(n <= size - n_src, n, n - size)


def _grad_kernel(n_src, size, h, offset):
    """Per axis, x then y, the spectrum (``rfft2`` on the box ``size``) of
    d / |d|^2, 0 at d = 0, at the target-minus-source displacements
    d = (offset + n) h per axis, n as ``_wrapped`` on the box (at least
    n_src + n_out - 1 for n_out outputs); ``offset`` (in cells) places
    output 0 relative to source 0. Each is made when it is reached, as
    ``rfft2``'s two passes (so equal to it bit for bit): the ``rfft`` of
    row blocks built in one buffer in place, then the ``fft`` along Mx."""
    dx, dy = ((_wrapped(ns, nb) + off) * h for ns, nb, off in zip(n_src, size, offset))
    row_blocks = list(kernels.blocks(size[0], 8 * size[1]))
    for axis in (0, 1):
        spec = np.empty((size[0], size[1] // 2 + 1), dtype=complex)
        buf = np.empty((row_blocks[0].stop, size[1]))
        for rows in row_blocks:
            x = dx[rows, None]
            r2 = np.multiply(dy, dy, out=buf[:x.shape[0]])
            r2 += x * x
            np.divide(1.0, r2, out=r2, where=r2 > 0.0)  # 1 / |d|^2, 0 at d = 0
            r2 *= dy if axis else x
            np.fft.rfft(r2, axis=1, out=spec[rows])
        del buf, r2  # not held while the caller reads the spectrum
        yield np.fft.fft(spec, axis=0, out=spec)
        del spec  # the caller's is freed before the next is made


def _row_spectra(values, n: int, out, col: int = 0):
    """The ``rfft`` of length n of each row of ``values`` (..., r, c), placed
    at columns col..col + c - 1 of a zero row, into ``out`` (..., r,
    n // 2 + 1), over row blocks of ``kernels.BLOCK`` bytes. ``values`` may
    be a view of ``out``'s memory, each row in its own row: a block is copied
    before its rows of ``out`` are written."""
    lead = values.shape[:-2]
    for sl in kernels.blocks(values.shape[-2], 8 * n * math.prod(lead)):
        padded = np.zeros(lead + (sl.stop - sl.start, n))
        padded[..., col:col + values.shape[-1]] = values[..., sl, :]
        np.fft.rfft(padded, axis=-1, out=out[..., sl, :])
        del padded  # freed before the next block's is made
    return out


def _fft_convolve(src, rows: slice, size, product, out) -> np.ndarray:
    """The one zero-padded FFT convolution on the (Mx, My) box ``size``.

    ``src`` (n, r, My // 2 + 1) holds the ``rfft`` along y of the n sources'
    rows, which are rows ``rows`` of the box (zero elsewhere). The loop runs
    over column blocks of the half spectrum, ``kernels.BLOCK`` bytes of
    sources each: the sources' block is transformed along x,
    ``product(cols, x)`` returns the outputs' spectra (n_out, Mx, c) on those
    columns from the sources' x (n, Mx, c), which it may overwrite, and rows
    0..m-1 of their inverse along x go to ``out`` (n_out, m, My // 2 + 1).
    ``out`` is the only whole array per output: it may share ``src``'s memory
    or be a kernel spectrum that ``product`` reads, as each block reads its
    own columns before it writes them. Returns those rows inverted along y
    over row blocks, each block's output over its own rows of ``out``: an
    (n_out, m, My) view of its memory. Every pass is numpy's ``rfft2`` /
    ``irfft2`` pass along that axis on the same values, so the result equals
    the whole-array transforms bit for bit."""
    mx, my = size
    for cols in kernels.blocks(src.shape[-1], 16 * mx * src.shape[0]):
        x = np.zeros((src.shape[0], mx, cols.stop - cols.start), dtype=complex)
        x[:, rows] = src[..., cols]
        spec = product(cols, np.fft.fft(x, axis=1, out=x))
        out[..., cols] = np.fft.ifft(spec, axis=1, out=spec)[:, :out.shape[1]]
        del x, spec  # freed before the next block's are made
    res = out.view(float)[..., :my]
    for sl in kernels.blocks(out.shape[1], 16 * out.shape[0] * out.shape[2]):
        # the copy is freed before the next one is made: one block at a time
        np.fft.irfft(out[:, sl].copy(), n=my, axis=-1, out=res[:, sl])
    return res


# ---------------------------------------------------------------------------
# disk-dipole reflection fields
# ---------------------------------------------------------------------------

def dipole_sum(centers, a, vectors, x, grad: bool = False):
    """Sum over holes of the disk-dipole field V^a[A](x) = a^2 A.(x-c)/|x-c|^2
    (one center gives the single-disk field), batched over targets.

    Returns values (m,) or gradients (m, 2). Raises if any target lies
    inside a hole (``geometry.inside_holes``).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    centers = np.atleast_2d(centers)
    if np.any(inside_holes(centers, a, pts)):
        raise ValueError("evaluation point inside a hole")
    return a * a * kernels.pair_sum(pts, centers, np.atleast_2d(vectors), 2 if grad else 1)
