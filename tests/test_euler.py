from __future__ import annotations

import numpy as np
import pytest

from conftest import scan_points
from porousflow import euler as eu
from porousflow import potential as pot
from porousflow import reflections as refl
from porousflow.fields import ScalarGridField, make_grid, radial_bump, rasterize
from porousflow.geometry import (
    Box,
    PorousConfig,
    build_lattice,
    lattice_fraction,
    nearest_center_sq,
)

UNIT = Box(0.0, 0.0, 1.0, 1.0)
FAR_BOX = Box(100.0, 100.0, 101.0, 101.0)


def empty_setting(margin=0.0):
    cfg = PorousConfig(np.zeros((0, 2)), 1e-6, 1.0, 0.25, FAR_BOX)
    return eu.PerforatedSetting(cfg, margin=margin)


def corotating_pair(rho=0.5, gamma=np.pi, blob=0.02):
    parts = eu.VortexParticles(
        np.array([[-rho, 0.0], [rho, 0.0]]), np.array([gamma, gamma]), blob
    )
    return parts


def blob_omega0():
    return rasterize((-0.8, 5.6, 2.0, 8.0), 1 / 64, radial_bump((0.6, 6.8), 0.5, 4.0))


def test_discretize_zero_field_empty():
    parts = eu.discretize_vorticity(make_grid((0, 0, 1, 1), 0.1), 0.05, 0.02)
    assert parts.count == 0


def test_discretize_disk_mass():
    from porousflow.fields import disk_indicator

    omega = rasterize((-1.3, -1.3, 1.3, 1.3), 1 / 64, disk_indicator((0.1, -0.2), 1.0))
    parts = eu.discretize_vorticity(omega, 0.02, 0.02)
    assert parts.weights.sum() == pytest.approx(np.pi, rel=0.01)


def test_discretize_margin_guard():
    omega = rasterize((-0.5, 1.0, 0.5, 2.0), 1 / 32, radial_bump((0, 1.5), 0.4))
    with pytest.raises(ValueError, match="margin"):
        eu.discretize_vorticity(omega, 0.05, 0.05, kpm_box=UNIT, margin=1.0)
    parts = eu.discretize_vorticity(omega, 0.05, 0.05, kpm_box=UNIT, margin=0.05)
    assert parts.count > 0


def test_particle_refinement_stabilizes_far_velocity():
    omega = blob_omega0()
    x = np.array([[0.6, 3.0]])
    vels = []
    for h_p in (0.08, 0.04):
        parts = eu.discretize_vorticity(omega, h_p, h_p)
        vels.append(pot.velocity0_eval(parts, x))
    rel = np.linalg.norm(vels[1] - vels[0]) / np.linalg.norm(vels[1])
    assert rel < 1e-3


def test_velocity_field_empty_particles():
    parts = eu.VortexParticles(np.zeros((0, 2)), np.zeros(0), 0.05)
    u = eu.velocity(np.array([[0.3, 0.4]]), parts, empty_setting())
    assert np.allclose(u, 0.0)


def test_both_settings_agree_without_medium():
    # far blob, zero k: perforated (no holes) and homogenized (k = 0) both
    # reduce to the free blob velocity
    omega = blob_omega0()
    parts = eu.discretize_vorticity(omega, 0.08, 0.08)
    x = np.array([[0.6, 5.5], [1.5, 7.0]])
    k0 = lattice_fraction(build_lattice(2, 0.1, UNIT), make_grid((0, 0, 1, 1), 1 / 16))
    k0.values *= 0.0
    hset = eu.HomogenizedSetting(k0)
    u_perf = eu.velocity(x, parts, empty_setting())
    u_hom = eu.velocity(x, parts, hset)
    u_free = pot.velocity0_eval(parts, x)
    assert np.abs(u_perf - u_free).max() < 1e-6
    assert np.abs(u_hom - u_free).max() < 1e-6


def test_two_vortex_period_within_two_percent():
    rho, gamma = 0.5, np.pi
    parts = corotating_pair(rho, gamma, blob=rho / 25.0)
    analytic = 8.0 * np.pi**2 * rho**2 / gamma
    state = eu.FlowState(0.0, parts)
    dt = analytic / 256.0
    prev_ang, period = 0.0, None
    while state.t < 1.2 * analytic:
        state = eu.step(state, dt, empty_setting())
        d = state.particles.positions[1] - state.particles.positions[0]
        ang = float(np.arctan2(d[1], d[0]))
        while ang < prev_ang - 1e-9:
            ang += 2 * np.pi
        if period is None and ang >= 2 * np.pi:
            period = state.t - dt + (2 * np.pi - prev_ang) / (ang - prev_ang) * dt
            break
        prev_ang = ang
    assert period is not None
    assert abs(period - analytic) / analytic < 0.02


def test_rk4_halving_ratio():
    rho, gamma = 0.5, np.pi
    parts = corotating_pair(rho, gamma, blob=0.02)
    omega = gamma * 2 * rho / (2 * np.pi * (4 * rho**2 + parts.blob**2)) / rho

    def error_at(dt, t_final=1.0):
        state = eu.FlowState(0.0, parts)
        for _ in range(int(round(t_final / dt))):
            state = eu.step(state, dt, empty_setting())
        th = omega * t_final
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        return np.abs(state.particles.positions - parts.positions @ rot.T).max()

    e1, e2 = error_at(0.05), error_at(0.025)
    assert 12.0 <= e1 / e2 <= 20.0


def test_weights_never_mutate():
    parts = corotating_pair()
    w0 = parts.weights.copy()
    state = eu.FlowState(0.0, parts)
    for _ in range(10):
        state = eu.step(state, 0.05, empty_setting())
    assert np.array_equal(state.particles.weights, w0)
    assert state.particles.weights.sum() == w0.sum()


def test_centroid_conserved_free_space():
    rng = np.random.default_rng(2)
    parts = eu.VortexParticles(
        rng.random((12, 2)), rng.random(12) * 0.5 + 0.1, blob=0.05
    )
    centroid0 = (parts.weights[:, None] * parts.positions).sum(0) / parts.weights.sum()
    state = eu.FlowState(0.0, parts)
    for _ in range(20):
        state = eu.step(state, 0.05, empty_setting())
    centroid = (
        state.particles.weights[:, None] * state.particles.positions
    ).sum(0) / state.particles.weights.sum()
    assert np.linalg.norm(centroid - centroid0) < 1e-8 * state.t


def test_time_reversal_rk4():
    parts = corotating_pair()
    state = eu.FlowState(0.0, parts)
    fwd = eu.step(state, 0.05, empty_setting())
    # reverse by flipping circulations (velocity negates)
    back_parts = eu.VortexParticles(
        fwd.particles.positions, -fwd.particles.weights, fwd.particles.blob
    )
    back = eu.step(eu.FlowState(0.0, back_parts), 0.05, empty_setting())
    assert np.abs(back.particles.positions - parts.positions).max() < 5e-9


def test_single_blob_symmetric_config_stationary():
    # a single particle at the lattice center: velocity vanishes by symmetry
    cfg = build_lattice(2, 0.1, UNIT)
    parts = eu.VortexParticles(np.array([[0.5, 0.5]]), np.array([1.0]), 0.02)
    state = eu.FlowState(0.0, parts)
    setting = eu.PerforatedSetting(cfg, margin=0.0)
    stepped = eu.step(state, 0.01, setting)
    assert np.allclose(stepped.particles.positions, parts.positions, atol=1e-12)


class FreeSpaceClosure:
    """A closure double: a margin and the four members that step, run_status
    and run_comparison ask of a closure, with no correction and no holes."""

    margin = 1.0

    def correction_grad(self, pts, particles):
        return np.zeros((len(pts), 2))

    def cfl_gap(self):
        return np.inf

    def support_box(self):
        return FAR_BOX

    def in_hole(self, particles):
        return False


def test_any_closure_with_the_four_members_runs():
    parts = corotating_pair()
    state = eu.FlowState(0.0, parts)
    free = eu.step(state, 0.05, empty_setting())
    stepped = eu.step(state, 0.05, FreeSpaceClosure())
    assert np.array_equal(stepped.particles.positions, free.particles.positions)
    assert eu.run_status(stepped, FreeSpaceClosure()) == "running"
    for perforated, homogenized in ((empty_setting(), FreeSpaceClosure()),
                                    (FreeSpaceClosure(), empty_setting())):
        records = eu.run_comparison(parts, perforated, homogenized, t_final=0.2, dt=0.05,
                                    probe_points=np.array([[2.0, 2.0]]))
        assert len(records) == 5
        assert all(r.status_perforated == r.status_homogenized == "running" for r in records)
        assert all(r.traj_div_max == r.vel_diff_sup == r.omega_diff == 0.0 for r in records)


def test_cfl_guard():
    parts = corotating_pair(rho=0.1, gamma=10.0, blob=0.01)
    with pytest.raises(ValueError, match="CFL"):
        eu.step(eu.FlowState(0.0, parts), 1.0, empty_setting(margin=0.05))


def test_support_halt_detected():
    cfg = build_lattice(2, 0.1, UNIT)
    setting = eu.PerforatedSetting(cfg, margin=1.0)
    close = eu.VortexParticles(np.array([[0.5, 1.2]]), np.array([1.0]), 0.02)
    state = eu.FlowState(0.0, close)
    assert eu.run_status(state, setting) == "halted"
    far = eu.VortexParticles(np.array([[0.5, 3.0]]), np.array([1.0]), 0.02)
    state2 = eu.FlowState(0.0, far)
    assert eu.run_status(state2, setting) == "running"


def test_comparison_no_medium_zero_divergence():
    parts = corotating_pair()
    k0 = lattice_fraction(build_lattice(2, 0.1, FAR_BOX), make_grid(FAR_BOX.as_tuple(), 1 / 16))
    k0.values *= 0.0
    records = eu.run_comparison(
        parts,
        empty_setting(),
        eu.HomogenizedSetting(k0),
        t_final=0.5,
        dt=0.05,
        probe_points=np.array([[2.0, 2.0]]),
    )
    assert records[-1].traj_div_max < 1e-13
    assert records[-1].vel_diff_sup < 1e-13
    assert records[-1].omega_diff < 1e-13


def test_comparison_divergence_grows_gronwall_like(rng):
    # log of the trajectory divergence grows at most linearly in t
    omega = blob_omega0()
    parts = eu.discretize_vorticity(omega, 0.1, 0.1, kpm_box=UNIT, margin=5.0)
    cfg = build_lattice(4, 0.1, UNIT)
    k = lattice_fraction(cfg, make_grid((0, 0, 1, 1), 1 / 16))
    records = eu.run_comparison(
        parts,
        eu.PerforatedSetting(cfg, margin=5.0),
        eu.HomogenizedSetting(k, margin=5.0),
        t_final=1.0,
        dt=0.1,
        probe_points=np.array([[0.6, 3.0]]),
    )
    ts = np.array([r.t for r in records[1:]])
    divs = np.array([r.traj_div_max for r in records[1:]])
    assert np.all(divs > 0)
    assert np.all(np.diff(divs) >= -1e-16)  # monotone growth on this horizon
    # concave-or-linear in log space: second differences non-positive (loose)
    logs = np.log(divs)
    second = np.diff(logs, 2)
    assert second.max() < 0.5


def test_full_solve_flag_close_to_first_order():
    # the optional fixed-point closure differs from the first-order field by
    # O((sup k)^2) only
    omega = blob_omega0()
    parts = eu.discretize_vorticity(omega, 0.12, 0.12, kpm_box=UNIT, margin=5.0)
    cfg = build_lattice(4, 0.1, UNIT)
    k = lattice_fraction(cfg, make_grid((0, 0, 1, 1), 1 / 16))
    x = np.array([[0.5, 2.5], [1.5, 3.0]])
    u_first = eu.velocity(x, parts, eu.HomogenizedSetting(k))
    u_full = eu.velocity(x, parts, eu.HomogenizedSetting(k, full_solve=True, tol=1e-12))
    u_free = pot.velocity0_eval(parts, x)
    correction = np.abs(u_first - u_free).max()
    assert correction > 0.0
    # the two closures differ by a second-order fraction of the correction
    assert np.abs(u_full - u_first).max() < 0.1 * correction
    assert np.abs(u_full - u_first).max() > 0.0


def test_export_csv(tmp_path):
    parts = corotating_pair()
    k0 = lattice_fraction(build_lattice(2, 0.1, FAR_BOX), make_grid(FAR_BOX.as_tuple(), 1 / 16))
    k0.values *= 0.0
    records = eu.run_comparison(
        parts, empty_setting(), eu.HomogenizedSetting(k0),
        t_final=0.2, dt=0.05, probe_points=np.array([[2.0, 2.0]]),
    )
    eu.export_timeseries_csv(records, tmp_path / "ts.csv")
    lines = (tmp_path / "ts.csv").read_text().strip().splitlines()
    assert lines[0] == "t,traj_div_max,vel_diff_sup_O,smoothed_omega_diff,status"
    assert len(lines) == len(records) + 1


def test_step_count_requires_whole_steps():
    assert eu.step_count(0.3, 0.1) == 3  # 0.3/0.1 = 2.9999999999999996
    assert eu.step_count(0.25, 0.05) == 5
    assert eu.step_count(8.0, 0.5) == 16
    for t_final, dt in ((0.25, 0.1), (1.0, 0.3), (1e-3, 0.1)):
        with pytest.raises(ValueError, match="whole number of steps"):
            eu.step_count(t_final, dt)
    parts = corotating_pair()
    k0 = lattice_fraction(build_lattice(2, 0.1, FAR_BOX), make_grid(FAR_BOX.as_tuple(), 1 / 16))
    with pytest.raises(ValueError, match="whole number of steps"):
        eu.run_comparison(
            parts, empty_setting(), eu.HomogenizedSetting(k0),
            t_final=0.25, dt=0.1, probe_points=np.array([[2.0, 2.0]]),
        )


def test_full_solve_not_contracting_raises():
    # the Euler full solve shares the grid solve's guard instead of returning
    # a diverged field
    parts = eu.discretize_vorticity(blob_omega0(), 0.12, 0.12, kpm_box=UNIT, margin=5.0)
    k = lattice_fraction(build_lattice(4, 0.1, UNIT), make_grid((0, 0, 1, 1), 1 / 16))
    k.values *= 40.0
    setting = eu.HomogenizedSetting(k, full_solve=True)
    with pytest.raises(RuntimeError, match="not contracting"):
        eu.velocity(np.array([[0.5, 2.5]]), parts, setting)


def test_particle_in_hole_halts_and_is_recorded():
    cfg = build_lattice(2, 0.1, UNIT)
    parts = eu.discretize_vorticity(blob_omega0(), 0.2, 0.2)
    inside = eu.VortexParticles(
        np.concatenate([parts.positions, cfg.centers[:1]]),
        np.concatenate([parts.weights, [0.01]]),
        parts.blob,
    )
    k = lattice_fraction(cfg, make_grid((0, 0, 1, 1), 1 / 16))
    records = eu.run_comparison(
        inside, eu.PerforatedSetting(cfg), eu.HomogenizedSetting(k),
        t_final=0.1, dt=0.05, probe_points=np.array([[0.5, 2.5], [1.5, 3.0]]),
    )
    assert len(records) == 3
    assert all(r.status_perforated == "halted" for r in records)
    assert all(r.status_homogenized == "running" for r in records)
    assert all(np.isnan(r.vel_diff_sup) for r in records)
    assert records[-1].traj_div_max > 0.0
    assert np.isfinite(records[-1].omega_diff)


def test_hole_halt_predicate_matches_support_check():
    # a particle exactly on a hole boundary (distance 0) halts the run, as
    # the reflections reject it; a margin halt keeps the perforated closure
    cfg = PorousConfig(np.array([[0.5, 0.5]]), 0.25, 1.0, 0.25, UNIT)
    on_boundary = eu.VortexParticles(np.array([[0.75, 0.5], [0.5, 2.0]]), np.ones(2), 0.05)
    assert cfg.distance_to_holes(on_boundary.positions)[0] == 0.0
    with pytest.raises(ValueError, match="overlaps a hole"):
        refl.run_reflections(on_boundary, cfg)
    setting = eu.PerforatedSetting(cfg)
    assert eu.run_status(eu.FlowState(0.0, on_boundary), setting) == "halted"
    clear = eu.VortexParticles(np.array([[0.5, 1.5]]), np.ones(1), 0.05)
    near = eu.PerforatedSetting(cfg, margin=2.0)
    state = eu.FlowState(0.0, clear)
    assert eu.run_status(state, near) == "halted"
    k0 = lattice_fraction(build_lattice(2, 0.1, UNIT), make_grid((0, 0, 1, 1), 1 / 16))
    rec = eu._record(state, state, near, eu.HomogenizedSetting(k0),
                     np.array([[0.5, 2.5]]), "halted", "running")
    assert np.isfinite(rec.vel_diff_sup)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_hole_scans_match_the_unpruned_rule(n):
    # overlaps_hole scans only points within 2 (a + margin) of the centers'
    # box: a particle (margin 0) and a grid cell (margin h / sqrt 2) overlap
    # a hole, and the perforated run halts, exactly where the distance rule
    # over every point says so
    lattice = build_lattice(max(n, 1), 0.1, UNIT)
    cfg = PorousConfig(lattice.centers[:n], lattice.a, lattice.d, 0.25, UNIT)
    setting = eu.PerforatedSetting(cfg)
    h = cfg.a / 2.0
    sources = {
        0.0: lambda p: eu.VortexParticles(p[None, :], np.ones(1), 0.01),
        h / np.sqrt(2.0): lambda p: ScalarGridField(p - 0.5 * h, h, np.ones((1, 1))),
    }
    for margin, source in sources.items():
        pts = scan_points(cfg.centers, cfg.a, cfg.a + margin, np.random.default_rng(n))
        hits = []
        for p in pts:
            src = source(p)
            at = src.positions if margin == 0.0 else src.nonzero_cells()[0]
            hits.append(bool(np.sqrt(nearest_center_sq(cfg.centers, at))[0] - cfg.a <= margin))
            assert refl.overlaps_hole(src, cfg) == hits[-1]
            if margin == 0.0:
                status = eu.run_status(eu.FlowState(0.0, src), setting)
                assert status == ("halted" if hits[-1] else "running")
        assert any(hits) == (n > 0) and not all(hits)
        everything = eu.VortexParticles(pts, np.ones(len(pts)), 0.01)
        assert refl.overlaps_hole(everything, cfg) == (n > 0)


def test_smoothed_vorticity_chunked_matches_dense(monkeypatch, taken_blocks):
    from porousflow import kernels

    rng = np.random.default_rng(4)
    parts = eu.VortexParticles(rng.uniform(-1, 1, (13, 2)), rng.standard_normal(13), 0.1)
    pts = rng.uniform(-1.5, 1.5, (301, 2))
    monkeypatch.setattr(kernels, "BLOCK", 8 * 13 * 20)  # 16 blocks of 20 targets
    d2 = parts.blob**2
    r2 = ((pts[:, None, :] - parts.positions[None, :, :]) ** 2).sum(axis=2) + d2
    dense = (parts.weights[None, :] * d2 / (np.pi * r2 * r2)).sum(axis=1)
    got = eu.smoothed_vorticity(parts, pts)
    assert [len(call) for call in taken_blocks] == [16]
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12 * np.abs(dense).max())


def test_smoothed_vorticity_rejects_zero_blob():
    # no smoothing to compare: point particles would give a denormal, not a field
    parts = eu.VortexParticles(np.array([[0.0, 0.0]]), np.ones(1), 0.0)
    with pytest.raises(ValueError, match="blob"):
        eu.smoothed_vorticity(parts, np.array([[1.0, 0.0]]))
