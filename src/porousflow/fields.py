"""Cell-centered Cartesian grid fields.

A field samples a compactly supported function at cell centers
``origin + (i + 1/2) * h`` with uniform spacing ``h`` in both directions.
Scalar fields hold vorticity sources and volume fractions; vector fields
hold gradient iterates of the homogenized solver.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np


def perp(g: np.ndarray) -> np.ndarray:
    """(g1, g2) -> (-g2, g1) on the last axis: the velocity of a stream gradient."""
    return np.stack([-g[..., 1], g[..., 0]], axis=-1)


def fmt(v) -> str:
    """Stable float formatting for CSV output (shortest round-trip repr)."""
    return repr(float(v))


def write_table(path, header, rows) -> None:
    """CSV table at ``path``: the header row, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class ScalarGridField:
    """Scalar samples on a uniform grid, indexed ``values[ix, iy]``."""

    origin: np.ndarray  # (2,) lower-left corner of the grid
    h: float
    values: np.ndarray  # (nx, ny)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.h <= 0.0:
            raise ValueError("grid spacing h must be positive")
        if self.values.ndim != 2:
            raise ValueError("values must be a 2D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """1D arrays of x and y cell-center coordinates."""
        nx, ny = self.values.shape
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.h
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.h
        return xs, ys

    def centers_flat(self) -> np.ndarray:
        """All cell centers as an (nx*ny, 2) array, C-order."""
        xs, ys = self.cell_centers()
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    def integral(self) -> float:
        return float(self.values.sum() * self.h**2)

    def inf_norm(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum() * self.h**2)

    def support_box(self) -> tuple[float, float, float, float] | None:
        """Bounding box of nonzero cells, or None for the zero field."""
        ix = np.flatnonzero(self.values.any(axis=1))
        if ix.size == 0:
            return None
        iy = np.flatnonzero(self.values.any(axis=0))
        x0 = self.origin[0] + ix[0] * self.h
        x1 = self.origin[0] + (ix[-1] + 1) * self.h
        y0 = self.origin[1] + iy[0] * self.h
        y1 = self.origin[1] + (iy[-1] + 1) * self.h
        return (float(x0), float(y0), float(x1), float(y1))

    def nonzero_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(centers, values) restricted to nonzero cells."""
        ix, iy = np.nonzero(self.values)
        centers = np.stack(
            [
                self.origin[0] + (ix + 0.5) * self.h,
                self.origin[1] + (iy + 0.5) * self.h,
            ],
            axis=1,
        )
        return centers, self.values[ix, iy]

    def cell_index(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell indices containing points x (m, 2); third output flags in-grid."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        fx = (x[:, 0] - self.origin[0]) / self.h
        fy = (x[:, 1] - self.origin[1]) / self.h
        ix = np.floor(fx).astype(int)
        iy = np.floor(fy).astype(int)
        nx, ny = self.values.shape
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        return ix, iy, inside

    def nonzero_cell_index(self, x: np.ndarray) -> np.ndarray:
        """Position in ``nonzero_cells()`` of the nonzero cell containing each
        point, or -1 when the point lies in a zero cell or off the grid."""
        ix, iy, inside = self.cell_index(x)
        index = np.full(self.values.shape, -1)
        nonzero = self.values != 0.0
        index[nonzero] = np.arange(np.count_nonzero(nonzero))
        out = np.full(ix.shape, -1)
        out[inside] = index[ix[inside], iy[inside]]
        return out

    def sample_bilinear(self, x: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of the field at points x, clamped at edges."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _bilinear(self.origin, self.h, self.values[..., None], x)[:, 0]


@dataclass
class VectorGridField:
    """Two-component field on the same cell-centered layout."""

    origin: np.ndarray
    h: float
    values: np.ndarray  # (nx, ny, 2)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[2] != 2:
            raise ValueError("vector field values must have shape (nx, ny, 2)")
        if self.h <= 0.0:
            raise ValueError("grid spacing h must be positive")

    def sample_bilinear(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _bilinear(self.origin, self.h, self.values, x)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            nx, ny = self.values.shape[:2]
            fh.write("origin_x,origin_y,h,nx,ny,components\n")
            fh.write(f"{fmt(self.origin[0])},{fmt(self.origin[1])},{fmt(self.h)},{nx},{ny},2\n")
            flat = self.values.reshape(nx * ny, 2)
            for gx, gy in flat:
                fh.write(f"{fmt(gx)},{fmt(gy)}\n")


def check_padding(f: ScalarGridField) -> None:
    """Raise unless the support of f keeps clearance at least its own extent
    from every edge of the grid, so that the grid's periodic box emulates the
    plane."""
    box = f.support_box()
    if box is None:
        return
    nx, ny = f.shape
    x1 = f.origin[0] + nx * f.h
    y1 = f.origin[1] + ny * f.h
    extent = max(box[2] - box[0], box[3] - box[1])
    clearance = min(box[0] - f.origin[0], box[1] - f.origin[1], x1 - box[2], y1 - box[3])
    if clearance < extent - 1e-12:
        raise ValueError(
            "insufficient padding: the support needs clearance >= its extent on "
            f"every side of the periodic box (clearance {clearance:.3g}, extent {extent:.3g})"
        )


def wavenumbers(shape: tuple[int, int], h: float) -> tuple[np.ndarray, np.ndarray]:
    """Angular wavenumbers of the periodic box of an (nx, ny) grid in the half
    spectrum of ``rfft2``: kx as an (nx, 1) column, ky as a (1, ny // 2 + 1) row."""
    nx, ny = shape
    return (2.0 * np.pi * np.fft.fftfreq(nx, d=h)[:, None],
            2.0 * np.pi * np.fft.rfftfreq(ny, d=h)[None, :])


@functools.lru_cache(maxsize=4)
def gradient_multipliers(shape: tuple[int, int], h: float) -> tuple[np.ndarray, ...]:
    """(kx, ky, kx/|xi|^2, ky/|xi|^2) of ``wavenumbers``, cached per grid and
    read-only. The multipliers vanish at xi = 0 and on the unpaired Nyquist
    lines of an even axis, which break the Hermitian symmetry of the cross
    terms (their content is below the truncation error of resolved fields)."""
    kx, ky = wavenumbers(shape, h)
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0  # xi = 0 there, so m = 0 / 1
    if shape[0] % 2 == 0:
        k2[shape[0] // 2, :] = np.inf
    if shape[1] % 2 == 0:
        k2[:, -1] = np.inf
    out = (kx, ky, kx / k2, ky / k2)
    for a in out:
        a.flags.writeable = False
    return out


def bilinear_stencil(origin: float, h: float, n: int, c: np.ndarray):
    """Along one axis of an n-cell grid: the lower stencil cell i0 (the stencil
    is i0, i0 + 1, clamped to the edge cells) and the weight t of cell i0 + 1
    for coordinates c."""
    f = (c - origin) / h - 0.5
    i0 = np.clip(np.floor(f).astype(int), 0, n - 2)
    return i0, np.clip(f - i0, 0.0, 1.0)


def _bilinear(origin, h, values, x):
    """Shared bilinear kernel on cell-centered data; clamps to the edge cells."""
    nx, ny = values.shape[:2]
    i0, tx = bilinear_stencil(origin[0], h, nx, x[:, 0])
    j0, ty = bilinear_stencil(origin[1], h, ny, x[:, 1])
    tx = tx[:, None]
    ty = ty[:, None]
    v00 = values[i0, j0]
    v10 = values[i0 + 1, j0]
    v01 = values[i0, j0 + 1]
    v11 = values[i0 + 1, j0 + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


def make_grid(box: tuple[float, float, float, float], h: float) -> ScalarGridField:
    """Zero scalar field covering ``box`` with spacing h (box snapped outward)."""
    x0, y0, x1, y1 = box
    nx = int(np.ceil((x1 - x0) / h - 1e-12))
    ny = int(np.ceil((y1 - y0) / h - 1e-12))
    return ScalarGridField(np.array([x0, y0]), h, np.zeros((max(nx, 1), max(ny, 1))))


def rasterize(box, h, func) -> ScalarGridField:
    """Sample ``func(x, y)`` (vectorized) at the cell centers of a new grid."""
    g = make_grid(box, h)
    xs, ys = g.cell_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    g.values = np.asarray(func(gx, gy), dtype=float)
    return g


def radial_bump(center, radius, amplitude=1.0, power=2):
    """Compactly supported C^(power-1) profile amp*(1 - (r/R)^2)^power."""
    cx, cy = center

    def profile(x, y):
        r2 = ((x - cx) ** 2 + (y - cy) ** 2) / radius**2
        return amplitude * np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** power, 0.0)

    return profile


def disk_indicator(center, radius, amplitude=1.0):
    cx, cy = center

    def profile(x, y):
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        return amplitude * (r2 < radius**2).astype(float)

    return profile
