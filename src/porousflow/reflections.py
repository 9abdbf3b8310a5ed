"""Method of reflections for the stream function outside many small disks.

Level 1 places a dipole at each hole cancelling the local gradient of the
hole-free solution psi_0; each further level cancels the gradients induced at
every hole by all other holes' dipoles from the previous level. The resulting
stream function is psi_0 plus the analytic disk-dipole corrections from all
levels; the corrections and their exact gradient are evaluable pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels, potential
from .fields import fmt, write_table
from .geometry import PorousConfig, _near_centers

# The standard working depth: the iteration corrects only the linear part of
# each boundary trace, so the error plateaus at the quadratic-trace level and
# deeper reflections stop paying off.
DEPTH = 3
# The deepest accepted iteration: each level costs an O(N^2) pair sum, and on
# a 4-hole lattice the boundary residual is flat to 16 digits from about
# level 8 on, so a deeper request is a configuration error, not a long run.
MAX_DEPTH = 100


@dataclass
class DipoleSet:
    """One reflection level: a 2-vector per hole."""

    level: int
    vectors: np.ndarray  # (N, 2)

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if self.level < 1:
            raise ValueError("reflection levels are numbered from 1")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("dipole vectors must be finite")

    def norm(self, q: float) -> float:
        mags = np.hypot(self.vectors[:, 0], self.vectors[:, 1])
        if np.isinf(q):
            return float(mags.max()) if mags.size else 0.0
        return float((mags**q).sum() ** (1.0 / q))


@dataclass
class HybridStream:
    """psi_0 (grid or particle source) plus dipole corrections, levels 1..n."""

    base: object  # ScalarGridField or VortexParticles
    config: PorousConfig
    levels: list[DipoleSet] = field(default_factory=list)

    def __post_init__(self):
        for j, lev in enumerate(self.levels, start=1):
            if lev.level != j:
                raise ValueError("levels must be consecutive starting at 1")
            if lev.vectors.shape[0] != self.config.n_holes:
                raise ValueError("dipole set size must match the hole count")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def combined_vectors(self) -> np.ndarray:
        """Sum of dipole vectors over levels (dipole fields are linear in A)."""
        if not self.levels:
            return np.zeros((self.config.n_holes, 2))
        return np.sum([lev.vectors for lev in self.levels], axis=0)

    def correction_eval(self, x) -> np.ndarray:
        """Dipole part only: sum over levels and holes of V^a[A](x - x_l).
        Raises ValueError at points inside a hole (``dipole_sum``'s check)."""
        return potential.dipole_sum(
            self.config.centers, self.config.a, self.combined_vectors(), x
        )

    def correction_grad(self, x) -> np.ndarray:
        return potential.dipole_sum(
            self.config.centers, self.config.a, self.combined_vectors(), x, grad=True
        )

    def norms(self, q: float) -> list[float]:
        return [lev.norm(q) for lev in self.levels]

    def boundary_residuals(self, depth: int | None = None) -> list[float]:
        """For j = 1..depth (every level by default), the max over holes of the
        oscillation of psi^(j) over 64 points of the hole boundary, in one
        pass: psi_0 on the ring once, then one dipole sum per level of the
        running sum of the level vectors, so depth d costs d sums."""
        ring = self.config.boundary_points(64)
        base = potential.psi0_eval(self.base, ring)
        sums = np.cumsum([lev.vectors for lev in self.levels[:depth]], axis=0)
        out = []
        for vectors in sums:
            vals = base + potential.dipole_sum(self.config.centers, self.config.a, vectors, ring)
            vals = vals.reshape(-1, 64)
            out.append(float(np.abs(vals - vals.mean(axis=1, keepdims=True)).max(initial=0.0)))
        return out


def overlaps_hole(source, config: PorousConfig) -> bool:
    """True when a particle, or a nonzero cell of a grid source, reaches a
    hole (distance to it <= 0, or <= the cell half-diagonal). Only the points
    within 2 (a + that margin) of the centers' bounding box are scanned."""
    if config.n_holes == 0:
        return False
    if potential._is_particles(source):
        pts, margin = source.positions, 0.0
    else:
        pts, margin = source.nonzero_cells()[0], source.h / np.sqrt(2.0)
    near = pts[_near_centers(config.centers, pts, config.a + margin)]
    return near.shape[0] > 0 and bool(np.any(config.distance_to_holes(near) <= margin))


def init_dipoles(source, config: PorousConfig) -> DipoleSet:
    """Level-1 vectors A_l = -grad psi_0(x_l)."""
    if overlaps_hole(source, config):
        raise ValueError("vorticity support overlaps a hole")
    return DipoleSet(1, -potential.grad_psi0_eval(source, config.centers))


def iterate_dipoles(prev: DipoleSet, config: PorousConfig) -> DipoleSet:
    """Next level: A'_l = - sum_{m != l} grad V^a[A_m](x_l - x_m), direct O(N^2)."""
    # the targets are the sources, and the m = 2 kernel drops each hole on itself
    out = -config.a**2 * kernels.pair_sum(config.centers, config.centers, prev.vectors, 2)
    return DipoleSet(prev.level + 1, out)


def run_reflections(source, config: PorousConfig, n_levels: int = DEPTH) -> HybridStream:
    """Build levels 1..n_levels."""
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    levels = [init_dipoles(source, config)]
    for _ in range(n_levels - 1):
        levels.append(iterate_dipoles(levels[-1], config))
    return HybridStream(source, config, levels)


def contraction_report(norms) -> float:
    """Geometric mean of successive norm ratios; truncates at a zero norm.

    ``norms`` is the per-level sequence of l^q norms of one stream.
    """
    norms = [float(v) for v in norms]
    if len(norms) < 2:
        raise ValueError("need at least two levels to estimate a ratio")
    ratios = []
    for lo, hi in zip(norms, norms[1:]):
        if lo == 0.0:
            break
        ratios.append(hi / lo)
    if not ratios or min(ratios) == 0.0:
        return 0.0
    return float(np.exp(np.mean(np.log(ratios))))


def export_dipoles_csv(levels: list[DipoleSet], path) -> None:
    write_table(path, ["level", "hole_index", "Ax", "Ay"], (
        [lev.level, idx, fmt(ax), fmt(ay)]
        for lev in levels for idx, (ax, ay) in enumerate(lev.vectors)
    ))


def export_norms_csv(stream: HybridStream, path) -> None:
    """Every level's l^q norm for q = 2, 4 and infinity."""
    write_table(path, ["level", "q", "norm"], (
        [lev.level, "inf" if np.isinf(q) else q, fmt(lev.norm(q))]
        for q in (2.0, 4.0, np.inf) for lev in stream.levels
    ))
