"""Vorticity transport by characteristics in two velocity closures.

Vorticity is discretized as blob-regularized particles whose weights never
change (transport). The perforated setting closes the velocity with the
3-level method of reflections built from the current particles; the
homogenized setting uses the first-order corrected field u_0 + perp-grad phi
with phi the volume-fraction correction, recomputed each step by direct
quadrature over the k grid (a full fixed-point solve sits behind a flag).
Side-by-side runs from identical particles produce the stability time series.
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
    n_levels: int = 3
    margin: float = 0.0  # support-control distance delta


@dataclass
class HomogenizedSetting:
    k: ScalarGridField
    margin: float = 0.0
    full_solve: bool = False
    tol: float = 1e-10

    def kpm_box(self) -> Box | None:
        box = self.k.support_box()
        return Box(*box) if box is not None else None


def velocity_field(state: FlowState, setting, x) -> np.ndarray:
    """Velocity of the chosen closure at points x from the state's particles."""
    pts, single = potential._as_points(x)
    out = _velocity_batch(pts, state.particles, setting)
    return out[0] if single else out


def _velocity_batch(pts: np.ndarray, particles: VortexParticles, setting) -> np.ndarray:
    if particles.count == 0:
        return np.zeros((pts.shape[0], 2))
    u = potential.velocity0_eval(particles, pts)
    if isinstance(setting, PerforatedSetting):
        cfg = setting.config
        if cfg.n_holes == 0:
            return u
        stream = reflections.run_reflections(particles, cfg, setting.n_levels)
        return u + perp(stream.correction_grad(pts))
    if isinstance(setting, HomogenizedSetting):
        return u + perp(_homog_correction_grad(pts, particles, setting))
    raise TypeError(f"unknown velocity setting {setting!r}")


def _homog_correction_grad(pts, particles, setting: HomogenizedSetting) -> np.ndarray:
    """grad of the volume-fraction correction phi at the evaluation points.

    First order: phi = -div Delta^{-1}(k M grad psi_0); the full solve
    iterates grad psi on the k cells with the direct backend before the final
    evaluation.
    """
    k = setting.k
    grad_cells = potential.grad_psi0_eval(particles, k.nonzero_cells()[0])
    if setting.full_solve:
        grad_cells = homogenized.solve_on_cells(grad_cells, k, setting.tol)
    return homogenized.correction(k, grad_cells, pts, grad=True)


def _min_gap(setting) -> float:
    if isinstance(setting, PerforatedSetting):
        cfg = setting.config
        if cfg.n_holes:
            return max(cfg.d - 2.0 * cfg.a, 0.0)
    return np.inf


def _support_distance(particles: VortexParticles, setting) -> float:
    box = None
    if isinstance(setting, PerforatedSetting) and setting.config.n_holes:
        box = setting.config.kpm_box
    elif isinstance(setting, HomogenizedSetting):
        box = setting.kpm_box()
    if box is None or particles.count == 0:
        return np.inf
    return float(box.distance(particles.positions).min())


def step(state: FlowState, dt: float, setting) -> FlowState:
    """One RK4 step of all particles; weights are carried unchanged."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    parts = state.particles

    def velocity(pos):
        return _velocity_batch(pos, _at(parts, pos), setting)

    p0 = parts.positions
    k1 = velocity(p0)
    speed = float(np.hypot(k1[:, 0], k1[:, 1]).max()) if parts.count else 0.0
    limit = 0.5 * min(_min_gap(setting), setting.margin or np.inf)
    if np.isfinite(limit) and speed * dt > limit:
        raise ValueError(
            f"CFL guard violated: dt*max|u| = {speed * dt:.3g} exceeds {limit:.3g}"
        )
    k2 = velocity(p0 + 0.5 * dt * k1)
    k3 = velocity(p0 + 0.5 * dt * k2)
    k4 = velocity(p0 + dt * k3)
    new_pos = p0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return FlowState(state.t + dt, _at(parts, new_pos))


def _at(parts: VortexParticles, positions) -> VortexParticles:
    return VortexParticles(positions, parts.weights, parts.blob)


def run_status(state: FlowState, setting) -> str:
    """'running', or 'halted' when the support control fails (the analogue of
    the exit time T_N) or a particle has entered a hole."""
    if isinstance(setting, PerforatedSetting) and reflections.overlaps_hole(
        state.particles, setting.config
    ):
        return "halted"
    if setting.margin and _support_distance(state.particles, setting) < 0.5 * setting.margin:
        return "halted"
    return "running"


def smoothed_vorticity(particles: VortexParticles, pts: np.ndarray) -> np.ndarray:
    """Blob-kernel smoothing of the empirical vorticity measure."""
    if particles.count == 0:
        return np.zeros(np.atleast_2d(pts).shape[0])
    pts = np.atleast_2d(pts)
    d2 = max(float(particles.blob) ** 2, 1e-300)
    out = np.empty(pts.shape[0])
    for sl in kernels.chunks(pts.shape[0], particles.count):
        dx = pts[sl, 0:1] - particles.positions[None, :, 0]
        dy = pts[sl, 1:2] - particles.positions[None, :, 1]
        r2 = dx * dx + dy * dy + d2
        out[sl] = (particles.weights[None, :] * d2 / (np.pi * r2 * r2)).sum(axis=1)
    return out


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
    if status_n == "halted" and reflections.overlaps_hole(state_n.particles, perf.config):
        vel_diff = np.nan  # the reflections reject particles in a hole
    else:
        un = _velocity_batch(probe, state_n.particles, perf)
        uc = _velocity_batch(probe, state_c.particles, homog)
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
