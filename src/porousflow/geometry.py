"""Porous-medium configurations: many small disks inside a containment box.

A configuration holds the disk centers, the common radius ``a``, the declared
minimum center separation ``d`` and a smallness parameter ``eps0`` with
``a/d <= eps0 < 1/2``. Constructors build periodic lattices and seeded random
clouds; ``rasterize_mu`` produces the indicator density of the union of disks
and ``lattice_fraction`` its continuum limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import ScalarGridField, fmt, write_table


@dataclass(frozen=True)
class Box:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("box must have positive extent")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.x1, self.y1)

    def contains_disk(self, center, radius) -> bool:
        return (
            center[0] - radius >= self.x0
            and center[0] + radius <= self.x1
            and center[1] - radius >= self.y0
            and center[1] + radius <= self.y1
        )

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from points (m,2) to the box (0 inside)."""
        points = np.atleast_2d(points)
        dx = np.maximum(
            np.maximum(self.x0 - points[:, 0], points[:, 0] - self.x1), 0.0
        )
        dy = np.maximum(
            np.maximum(self.y0 - points[:, 1], points[:, 1] - self.y1), 0.0
        )
        return np.hypot(dx, dy)

    def inflate(self, margin: float) -> "Box":
        return Box(self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin)


@dataclass
class PorousConfig:
    """Disk centers plus the (a, d, eps0) parameters of the medium."""

    centers: np.ndarray  # (N, 2)
    a: float
    d: float
    eps0: float
    kpm_box: Box

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        if centers.size == 0:
            centers = centers.reshape(0, 2)
        if centers.ndim != 2 or centers.shape[1] != 2:
            raise ValueError(f"centers must have shape (N, 2), got {centers.shape}")
        self.centers = centers

    @property
    def n_holes(self) -> int:
        return self.centers.shape[0]

    @property
    def aspect(self) -> float:
        """The ratio a/d driving every estimate."""
        return self.a / self.d

    def min_center_distance(self) -> float:
        pts = self.centers
        if pts.shape[0] < 2:
            return np.inf
        best = np.inf
        for sl in kernels.blocks(pts.shape[0], 8 * pts.shape[0]):
            diff = pts[sl, None, :] - pts[None, :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            rows = np.arange(diff.shape[0])
            dist[rows, sl.start + rows] = np.inf
            best = min(best, float(dist.min()))
        return best

    def distance_to_holes(self, x: np.ndarray) -> np.ndarray:
        """Distance from points (m,2) to the nearest disk boundary (negative inside)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.sqrt(nearest_center_sq(self.centers, x)) - self.a

    def boundary_points(self, samples: int) -> np.ndarray:
        """``samples`` points on each hole boundary, at angles (j + 1/2) 2 pi /
        samples; hole-major, shape (n_holes * samples, 2)."""
        theta = (np.arange(samples) + 0.5) / samples * 2.0 * np.pi
        ring = self.a * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return (self.centers[:, None, :] + ring[None, :, :]).reshape(-1, 2)


def build_lattice(
    n_per_side: int, epsilon: float, box: Box, eps0: float = 0.25
) -> PorousConfig:
    """Uniform n x n lattice of disks in a square box with a = epsilon*side/n.

    The center spacing is d = side/n, so a/d = epsilon independently of n.
    A single hole uses d = side of the box (a finite convention; d only ever
    enters through a/d).
    """
    if n_per_side < 1:
        raise ValueError("n_per_side must be >= 1")
    if epsilon <= 0.0 or 2.0 * epsilon >= 1.0:
        raise ValueError("epsilon must satisfy 0 < 2*epsilon < 1")
    if abs(box.width - box.height) > 1e-12 * max(box.width, box.height):
        raise ValueError("lattice configurations require a square box")
    side = box.width
    n = n_per_side
    spacing = side / n
    a = epsilon * side / n
    d = spacing if n > 1 else side
    if a / d > eps0 or not eps0 < 0.5:
        raise ValueError(
            f"lattice violates a/d <= eps0 < 1/2: a/d = {a / d:.4g}, eps0 = {eps0:.4g}"
        )
    xs = box.x0 + (np.arange(n) + 0.5) * spacing
    ys = box.y0 + (np.arange(n) + 0.5) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return PorousConfig(centers, a, d, eps0, box)


def build_random(
    n_holes: int,
    a: float,
    d: float,
    box: Box,
    eps0: float = 0.25,
    seed: int = 0,
    max_attempts: int = 100_000,
) -> PorousConfig:
    """Seeded rejection sampling of centers with pairwise separation >= d."""
    if a / d > eps0 or not eps0 < 0.5:
        raise ValueError("random config violates a/d <= eps0 < 1/2")
    rng = np.random.default_rng(seed)
    lo = np.array([box.x0 + a, box.y0 + a])
    hi = np.array([box.x1 - a, box.y1 - a])
    if np.any(hi <= lo):
        raise ValueError("box too small for disks of radius a")
    centers: list[np.ndarray] = []
    for _ in range(n_holes):
        for attempt in range(max_attempts):
            p = lo + rng.random(2) * (hi - lo)
            if not centers:
                break
            arr = np.asarray(centers)
            if np.hypot(arr[:, 0] - p[0], arr[:, 1] - p[1]).min() >= d:
                break
        else:
            raise RuntimeError(
                f"rejection sampling failed after {max_attempts} attempts "
                f"(placed {len(centers)}/{n_holes} holes)"
            )
        centers.append(p)
    return PorousConfig(np.asarray(centers), a, d, eps0, box)


def lattice_fraction(config: PorousConfig, grid: ScalarGridField) -> ScalarGridField:
    """Continuum volume fraction k of a lattice config: N*pi*a^2/|box| on the box.

    For the standard lattice with a = epsilon*side/n this value equals
    pi*epsilon^2 regardless of n. Raises ValueError when it exceeds the
    declared bound eps0^2.
    """
    box = config.kpm_box
    value = config.n_holes * np.pi * config.a**2 / box.area
    if value > config.eps0**2 + 1e-12:
        raise ValueError(
            f"volume fraction N pi a^2/|box| = {value:.4g} exceeds "
            f"eps0^2 = {config.eps0**2:.4g}"
        )
    xs, ys = grid.cell_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    inside = (
        (gx > box.x0) & (gx < box.x1) & (gy > box.y0) & (gy < box.y1)
    )
    return ScalarGridField(grid.origin.copy(), grid.h, np.where(inside, value, 0.0))


def rasterize_mu(config: PorousConfig, grid: ScalarGridField) -> ScalarGridField:
    """Area-fraction rasterization of the union-of-disks indicator.

    Requires h <= a/4 so each disk spans several cells. Each disk adds to the
    cells overlapping its bounding box the share of the cell inside it, over
    16 x 16 midpoints; only cells near a disk are touched. On a window of a
    grid (``ScalarGridField.offset``) the cells come from the grid's origin
    and index, so they equal that window of the whole grid's bit for bit.
    """
    h, a = grid.h, config.a
    if h > a / 4 + 1e-15:
        raise ValueError(
            f"rasterize_mu resolution guard: h = {h:.4g} exceeds a/4 = {a / 4:.4g}"
        )
    values = np.zeros(grid.shape)
    (nx, ny), (ox, oy) = grid.shape, grid.offset
    off = (np.arange(16) + 0.5) / 16 * h
    for cx, cy in config.centers:
        i0 = max(int(np.floor((cx - a - grid.origin[0]) / h)) - 1, ox)
        i1 = min(int(np.ceil((cx + a - grid.origin[0]) / h)) + 1, ox + nx)
        j0 = max(int(np.floor((cy - a - grid.origin[1]) / h)) - 1, oy)
        j1 = min(int(np.ceil((cy + a - grid.origin[1]) / h)) + 1, oy + ny)
        if i0 >= i1 or j0 >= j1:
            continue
        bx = grid.origin[0] + np.arange(i0, i1)[:, None] * h + off[None, :]
        by = grid.origin[1] + np.arange(j0, j1)[:, None] * h + off[None, :]
        dx2 = (bx - cx) ** 2  # (bi, s)
        dy2 = (by - cy) ** 2  # (bj, s)
        inside = dx2[:, None, :, None] + dy2[None, :, None, :] < a**2
        values[i0 - ox:i1 - ox, j0 - oy:j1 - oy] += inside.mean(axis=(2, 3))
    np.clip(values, 0.0, 1.0, out=values)
    return ScalarGridField(grid.origin.copy(), grid.h, values, grid.offset, grid.period)


def validate(config: PorousConfig) -> list[str]:
    """The broken configuration invariants, one message each (distance, aspect,
    containment); empty when all hold. Reports rather than raises."""
    broken = []
    min_dist = config.min_center_distance()
    if not min_dist >= config.d * (1.0 - 1e-12):
        broken.append(f"center distance {min_dist:.4g} below d = {config.d:.4g}")
    if not (config.aspect <= config.eps0 and config.eps0 < 0.5):
        broken.append(f"a/d = {config.aspect:.4g} above eps0 = {config.eps0:.4g}")
    box = config.kpm_box
    if not all(box.contains_disk(c, config.a) for c in config.centers):
        broken.append("a disk outside the box " + " ".join(f"{v:g}" for v in box.as_tuple()))
    return broken


def save_config(config: PorousConfig, path, seed=None):
    """Flat key-value serialization plus a sibling .centers.csv file."""
    box = config.kpm_box
    lines = [
        f"box.x0 = {fmt(box.x0)}",
        f"box.y0 = {fmt(box.y0)}",
        f"box.x1 = {fmt(box.x1)}",
        f"box.y1 = {fmt(box.y1)}",
        f"a = {fmt(config.a)}",
        f"d = {fmt(config.d)}",
        f"eps0 = {fmt(config.eps0)}",
    ]
    if seed is not None:
        lines.append(f"seed = {seed}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    write_table(str(path) + ".centers.csv", ["x", "y"],
                ([fmt(cx), fmt(cy)] for cx, cy in config.centers))


def fluid_mask(config: PorousConfig, grid: ScalarGridField) -> np.ndarray:
    """Boolean mask of cells lying fully outside every hole."""
    clearance = config.a + grid.h / np.sqrt(2.0)
    dist = np.sqrt(nearest_center_sq(config.centers, grid.centers_flat()))
    return (dist >= clearance).reshape(grid.shape)


def inside_holes(centers, a: float, x) -> np.ndarray:
    """The one inside-hole rule: True where |x - c|^2 < a^2 (1 - 1e-12) for some
    center c, so boundary points (up to roundoff) count as outside. Only the
    points ``_near_centers(centers, pts, a)`` are scanned."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros(pts.shape[0], dtype=bool)
    near = _near_centers(centers, pts, a)
    out[near] = nearest_center_sq(centers, pts[near]) < a * a * (1.0 - 1e-12)
    return out


def _near_centers(centers, pts: np.ndarray, reach: float) -> np.ndarray:
    """Indices of the points within 2 ``reach`` of the centers' bounding box,
    per axis. Every other point is farther than 2 ``reach`` from every center,
    so a rule that holds only within ``reach`` of a center holds for none of
    them."""
    if len(centers) == 0:
        return np.zeros(0, dtype=int)
    lo = centers.min(axis=0) - 2.0 * reach
    hi = centers.max(axis=0) + 2.0 * reach
    return np.flatnonzero(np.all((pts >= lo) & (pts <= hi), axis=1))


def nearest_center_sq(centers: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Squared distance from each point to its nearest center (inf with no
    centers).

    Keeps a running minimum of squared distance over centers, one block of
    ``kernels.BLOCK`` bytes (16 per point) at a time, so memory is O(points)
    whatever the number of centers.
    """
    best = np.full(pts.shape[0], np.inf)
    for sl in kernels.blocks(pts.shape[0], 16):
        px, py = pts[sl, 0].copy(), pts[sl, 1].copy()
        sq, dy2 = np.empty_like(px), np.empty_like(px)
        block_best = best[sl]
        for cx, cy in centers:
            np.subtract(px, cx, out=sq)
            sq *= sq
            np.subtract(py, cy, out=dy2)
            dy2 *= dy2
            sq += dy2
            np.minimum(block_best, sq, out=block_best)
    return best
