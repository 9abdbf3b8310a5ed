"""Vorticity transport by characteristics in two velocity closures.

Vorticity is discretized as blob-regularized particles whose weights never
change (transport). The perforated setting closes the velocity with the
3-level method of reflections built from the current particles; the
homogenized setting uses the first-order corrected field u_0 + perp-grad phi
with phi the volume-fraction correction, recomputed each step by direct
quadrature over the k grid (a full fixed-point solve sits behind a flag).
Side-by-side runs from identical particles produce the stability time series.

A closure (either setting) carries its rules: its ``margin`` (0 for no
support control), ``correction_grad(pts, particles)`` added to grad psi_0,
the ``cfl_gap()`` and ``support_box()`` that bound a step and the support,
and the hole-halt rule ``in_hole(particles)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import homogenized, kernels, potential, reflections
from .fields import ScalarGridField, fmt, perp, write_table
from .geometry import Box, PorousConfig


@dataclass
class VortexParticles:
    positions: np.ndarray  # (P, 2)
    weights: np.ndarray  # (P,)
    blob: float

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float)).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.positions.shape[0] != self.weights.shape[0]:
            raise ValueError("positions and weights must have matching lengths")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("particle positions must be finite")
        if self.blob < 0.0:
            raise ValueError("blob radius must be nonnegative")

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass
class FlowState:
    t: float
    particles: VortexParticles

    def __post_init__(self):
        if self.t < 0.0:
            raise ValueError("time must be nonnegative")


def discretize_vorticity(
    omega0: ScalarGridField,
    h_p: float,
    blob: float,
    kpm_box: Box | None = None,
    margin: float = 0.0,
) -> VortexParticles:
    """Particles at spacing h_p carrying weight omega * h_p^2.

    The initial support must stay at least ``margin`` away from the porous
    box when one is given.
    """
    box = omega0.support_box()
    if box is None:
        return VortexParticles(np.zeros((0, 2)), np.zeros(0), blob)
    nx = max(int(np.ceil((box[2] - box[0]) / h_p)), 1)
    ny = max(int(np.ceil((box[3] - box[1]) / h_p)), 1)
    xs = box[0] + (np.arange(nx) + 0.5) * h_p
    ys = box[1] + (np.arange(ny) + 0.5) * h_p
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = omega0.sample_bilinear(pts)
    keep = vals != 0.0
    pts, vals = pts[keep], vals[keep]
    if kpm_box is not None and pts.shape[0]:
        if float(kpm_box.distance(pts).min()) < margin:
            raise ValueError(
                "vorticity support violates the required margin from the porous box"
            )
    return VortexParticles(pts, vals * h_p**2, blob)


@dataclass
class PerforatedSetting:
    config: PorousConfig
    n_levels: int = reflections.DEPTH
    margin: float = 0.0  # support-control distance delta

    def correction_grad(self, pts, particles: VortexParticles) -> np.ndarray:
        """grad of the reflections' dipole corrections at pts."""
        if self.config.n_holes == 0:
            return np.zeros((pts.shape[0], 2))
        stream = reflections.run_reflections(particles, self.config, self.n_levels)
        return stream.correction_grad(pts)

    def cfl_gap(self) -> float:
        cfg = self.config
        return max(cfg.d - 2.0 * cfg.a, 0.0) if cfg.n_holes else np.inf

    def support_box(self) -> Box | None:
        return self.config.kpm_box if self.config.n_holes else None

    def in_hole(self, particles: VortexParticles) -> bool:
        return reflections.overlaps_hole(particles, self.config)


@dataclass
class HomogenizedSetting:
    k: ScalarGridField
    margin: float = 0.0
    full_solve: bool = False
    tol: float = homogenized.TOL

    def correction_grad(self, pts, particles: VortexParticles) -> np.ndarray:
        """grad of the volume-fraction correction phi at pts.

        First order: phi = -div Delta^{-1}(k M grad psi_0); the full solve
        iterates grad psi on the k cells with the direct backend before the
        final evaluation.
        """
        grad_cells = potential.grad_psi0_eval(particles, self.k.nonzero_cells()[0])
        if self.full_solve:
            grad_cells = homogenized.solve_on_cells(grad_cells, self.k, self.tol)
        return homogenized.correction(self.k, grad_cells, pts, grad=True)

    def cfl_gap(self) -> float:
        return np.inf

    def support_box(self) -> Box | None:
        box = self.k.support_box()
        return Box(*box) if box is not None else None

    def in_hole(self, particles: VortexParticles) -> bool:
        return False


def velocity(pts: np.ndarray, particles: VortexParticles, setting) -> np.ndarray:
    """Velocity of the closure ``setting`` at points pts (n, 2) from the particles."""
    if particles.count == 0:
        return np.zeros((pts.shape[0], 2))
    u = potential.velocity0_eval(particles, pts)
    return u + perp(setting.correction_grad(pts, particles))


def step(state: FlowState, dt: float, setting) -> FlowState:
    """One RK4 step of all particles; weights are carried unchanged."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    parts = state.particles

    def rate(pos):
        return velocity(pos, _at(parts, pos), setting)

    p0 = parts.positions
    k1 = rate(p0)
    speed = float(np.hypot(k1[:, 0], k1[:, 1]).max()) if parts.count else 0.0
    limit = 0.5 * min(setting.cfl_gap(), setting.margin or np.inf)
    if np.isfinite(limit) and speed * dt > limit:
        raise ValueError(
            f"CFL guard violated: dt*max|u| = {speed * dt:.3g} exceeds {limit:.3g}"
        )
    k2 = rate(p0 + 0.5 * dt * k1)
    k3 = rate(p0 + 0.5 * dt * k2)
    k4 = rate(p0 + dt * k3)
    new_pos = p0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return FlowState(state.t + dt, _at(parts, new_pos))


def _at(parts: VortexParticles, positions) -> VortexParticles:
    return VortexParticles(positions, parts.weights, parts.blob)


def run_status(state: FlowState, setting) -> str:
    """'running', or 'halted' when a particle has entered a hole or the
    support control fails (the analogue of the exit time T_N)."""
    parts = state.particles
    if setting.in_hole(parts):
        return "halted"
    box = setting.support_box() if setting.margin and parts.count else None
    if box is not None and float(box.distance(parts.positions).min()) < 0.5 * setting.margin:
        return "halted"
    return "running"


def smoothed_vorticity(particles: VortexParticles, pts: np.ndarray) -> np.ndarray:
    """Blob-kernel smoothing of the empirical vorticity measure, the
    Laplacian of the particles' psi_0 (``kernels.laplacian_sum`` / 2 pi);
    raises ValueError for particles with blob 0, which have no smoothing."""
    if particles.count and particles.blob == 0.0:
        raise ValueError("the smoothed vorticity needs a blob radius above zero")
    sums = kernels.laplacian_sum(pts, particles.positions, particles.weights, particles.blob)
    return sums / (2.0 * np.pi)


@dataclass
class ComparisonRecord:
    t: float
    traj_div_max: float
    vel_diff_sup: float
    omega_diff: float
    status_perforated: str
    status_homogenized: str


def step_count(t_final: float, dt: float) -> int:
    """Number of steps of size dt that reach t_final; raises ValueError
    unless t_final/dt is an integer to 1e-9 relative."""
    ratio = t_final / dt
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * abs(ratio):
        raise ValueError(
            f"t_final = {t_final!r} is not a whole number of steps dt = {dt!r}"
        )
    return n_steps


def run_comparison(
    particles: VortexParticles,
    perforated: PerforatedSetting,
    homogenized_setting: HomogenizedSetting,
    t_final: float,
    dt: float,
    probe_points: np.ndarray,
) -> list[ComparisonRecord]:
    """Evolve the two closures side by side from identical particles.

    Records, at the start and after every step, the max over matched
    particles of the trajectory separation, the sup over the probe set of the
    velocity difference, and the sup over the probe set of the blob-smoothed
    vorticity difference. An early halt of either run is recorded, not fatal;
    after a particle of the perforated run enters a hole its velocity
    difference is nan.
    """
    n_steps = step_count(t_final, dt)
    probe_points = np.atleast_2d(probe_points)
    state_n = state_c = FlowState(0.0, particles)
    status_n = run_status(state_n, perforated)
    status_c = run_status(state_c, homogenized_setting)
    records = [_record(state_n, state_c, perforated, homogenized_setting,
                       probe_points, status_n, status_c)]
    for _ in range(n_steps):
        if status_n == "running":
            state_n = step(state_n, dt, perforated)
            status_n = run_status(state_n, perforated)
        if status_c == "running":
            state_c = step(state_c, dt, homogenized_setting)
            status_c = run_status(state_c, homogenized_setting)
        records.append(
            _record(state_n, state_c, perforated, homogenized_setting,
                    probe_points, status_n, status_c)
        )
        if status_n != "running" and status_c != "running":
            break
    return records


def _record(state_n, state_c, perf, homog, probe, status_n, status_c):
    div = float(
        np.hypot(
            *(state_n.particles.positions - state_c.particles.positions).T
        ).max()
    ) if state_n.particles.count else 0.0
    if status_n == "halted" and perf.in_hole(state_n.particles):
        vel_diff = np.nan  # the reflections reject particles in a hole
    else:
        un = velocity(probe, state_n.particles, perf)
        uc = velocity(probe, state_c.particles, homog)
        vel_diff = float(np.hypot(*(un - uc).T).max()) if probe.size else 0.0
    wn = smoothed_vorticity(state_n.particles, probe)
    wc = smoothed_vorticity(state_c.particles, probe)
    omega_diff = float(np.abs(wn - wc).max()) if probe.size else 0.0
    return ComparisonRecord(
        t=max(state_n.t, state_c.t),
        traj_div_max=div,
        vel_diff_sup=vel_diff,
        omega_diff=omega_diff,
        status_perforated=status_n,
        status_homogenized=status_c,
    )


def export_timeseries_csv(records: list[ComparisonRecord], path) -> None:
    """One row per record; the status is the perforated run's once it has
    stopped running, the homogenized run's until then."""
    write_table(
        path, ["t", "traj_div_max", "vel_diff_sup_O", "smoothed_omega_diff", "status"],
        ([fmt(r.t), fmt(r.traj_div_max), fmt(r.vel_diff_sup), fmt(r.omega_diff),
          r.status_perforated if r.status_perforated != "running" else r.status_homogenized]
         for r in records),
    )
