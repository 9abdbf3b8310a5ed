from __future__ import annotations

import numpy as np
import pytest

from conftest import point_vortex
from porousflow import potential as pot
from porousflow import reflections as refl
from porousflow.euler import VortexParticles
from porousflow.fields import disk_indicator, make_grid, perp, rasterize
from porousflow.geometry import Box, PorousConfig, build_lattice
from references import stream_gradient, stream_value

UNIT = Box(0.0, 0.0, 1.0, 1.0)


def two_hole_config(a=0.05, d=1.0):
    box = Box(-0.2, -0.2, d + 0.2, 0.2)
    return PorousConfig(np.array([[0.0, 0.0], [d, 0.0]]), a, d, 0.25, box)


def test_init_dipoles_zero_source():
    f = make_grid((2, 2, 3, 3), 0.1)
    cfg = build_lattice(2, 0.1, UNIT)
    ds = refl.init_dipoles(f, cfg)
    assert ds.level == 1
    assert np.allclose(ds.vectors, 0.0)


def test_init_dipoles_radial_source():
    # grad psi0(3,0) = (1/6, 0) for the unit disk of mass pi
    f = rasterize((-1.2, -1.2, 1.2, 1.2), 1 / 128, disk_indicator((0, 0), 1.0))
    cfg = PorousConfig(np.array([[3.0, 0.0]]), 0.05, 1.0, 0.25, Box(2.8, -0.2, 3.2, 0.2))
    ds = refl.init_dipoles(f, cfg)
    assert np.allclose(ds.vectors[0], [-1.0 / 6.0, 0.0], atol=1e-3)


def test_init_dipoles_mirror_symmetry():
    src = point_vortex(2.0, 0.0, 1.5)
    box = Box(-0.6, -0.6, 0.6, 0.6)
    cfg = build_lattice(2, 0.1, box)
    ds = refl.init_dipoles(src, cfg)
    # centers at (+-0.3, +-0.3); pair mirrored about the x-axis
    ys = cfg.centers[:, 1]
    for i in range(cfg.n_holes):
        j = np.argmin(np.abs(cfg.centers[:, 0] - cfg.centers[i, 0]) + np.abs(ys + ys[i]))
        assert ds.vectors[i, 0] == pytest.approx(ds.vectors[j, 0], abs=1e-14)
        assert ds.vectors[i, 1] == pytest.approx(-ds.vectors[j, 1], abs=1e-14)


def test_init_dipoles_rejects_overlapping_support():
    f = rasterize((-1.2, -1.2, 1.2, 1.2), 1 / 32, disk_indicator((0, 0), 1.0))
    cfg = PorousConfig(np.array([[0.5, 0.0]]), 0.05, 1.0, 0.25, Box(0.3, -0.2, 0.7, 0.2))
    with pytest.raises(ValueError, match="overlap"):
        refl.init_dipoles(f, cfg)


def test_iterate_two_hole_closed_form():
    # A^(n+1) = (a/d)^2 diag(1,-1) A^(n) for two holes on the x-axis
    cfg = two_hole_config(a=0.05, d=1.0)
    start = np.array([[-1.0, 0.3], [-1.0, 0.3]])
    a1 = refl.DipoleSet(1, start)
    a2 = refl.iterate_dipoles(a1, cfg)
    a3 = refl.iterate_dipoles(a2, cfg)
    r = (0.05 / 1.0) ** 2
    assert np.allclose(a2.vectors, r * start @ np.diag([1.0, -1.0]), rtol=1e-12)
    assert np.allclose(a3.vectors, r**2 * start, rtol=1e-12)


def test_iterate_single_hole_empty_sum():
    cfg = PorousConfig(np.array([[0.0, 0.0]]), 0.05, 1.0, 0.25, Box(-0.2, -0.2, 0.2, 0.2))
    nxt = refl.iterate_dipoles(refl.DipoleSet(1, np.array([[2.0, -1.0]])), cfg)
    assert np.allclose(nxt.vectors, 0.0)


def test_iterate_zero_in_zero_out():
    cfg = build_lattice(3, 0.1, UNIT)
    nxt = refl.iterate_dipoles(refl.DipoleSet(1, np.zeros((9, 2))), cfg)
    assert np.allclose(nxt.vectors, 0.0)


def test_run_reflections_levels_and_decreasing_norms():
    src = point_vortex(0.5, 2.0, 2.0)
    cfg = build_lattice(2, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 3)
    assert hs.depth == 3
    norms = hs.norms(2.0)
    assert norms[0] > norms[1] > norms[2] > 0.0


def test_run_reflections_depth_one_is_definition():
    src = point_vortex(0.5, 2.0, 2.0)
    cfg = build_lattice(2, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 1)
    x = np.array([0.5, 1.2])
    # closed form of the disk-dipole field: a^2 A.(x - c) / |x - c|^2
    expected = pot.psi0_eval(src, x[None])[0] + sum(
        cfg.a**2 * np.dot(v, x - c) / np.dot(x - c, x - c)
        for c, v in zip(cfg.centers, hs.levels[0].vectors)
    )
    assert stream_value(hs, x) == pytest.approx(expected, rel=1e-12)


def test_zero_source_gives_zero_stream():
    f = make_grid((2, 2, 3, 3), 0.1)
    cfg = build_lattice(2, 0.1, UNIT)
    hs = refl.run_reflections(f, cfg, 3)
    assert stream_value(hs, np.array([0.5, 1.5])) == 0.0


def test_no_holes_equals_psi0():
    src = point_vortex(0.0, 0.0, 1.0)
    cfg = PorousConfig(np.zeros((0, 2)), 0.01, 1.0, 0.25, Box(5, 5, 6, 6))
    hs = refl.run_reflections(src, cfg, 2)
    x = np.array([1.0, 1.0])
    assert stream_value(hs, x) == pytest.approx(pot.psi0_eval(src, x[None])[0], rel=1e-14)


def test_contraction_lattice_below_half():
    src = point_vortex(0.5, 1.5, 2.0)
    cfg = build_lattice(10, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 6)
    norms = hs.norms(2.0)
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    assert max(ratios) <= 0.5
    assert refl.contraction_report(norms) <= 0.5


def test_contraction_report_exact_geometric():
    assert refl.contraction_report([8.0, 4.0, 2.0, 1.0]) == pytest.approx(0.5, rel=1e-12)


def test_contraction_report_two_hole_ratio():
    cfg = two_hole_config(a=0.05, d=0.5)
    src = point_vortex(0.25, 2.0, 1.0)
    hs = refl.run_reflections(src, cfg, 4)
    ratio = refl.contraction_report(hs.norms(2.0))
    assert ratio == pytest.approx((cfg.a / cfg.d) ** 2, rel=1e-10)


def test_contraction_report_zero_truncates():
    assert refl.contraction_report([1.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        refl.contraction_report([1.0])


def test_boundary_residual_non_increasing_in_depth():
    src = point_vortex(0.5, 1.6, 2.0)
    cfg = build_lattice(3, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 3)
    res = hs.boundary_residuals(3)
    assert res[0] >= res[1] >= res[2]


def test_boundary_residual_evaluates_the_prefix_stream():
    src = point_vortex(0.5, 1.6, 2.0)
    cfg = build_lattice(3, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 3)
    for depth in (1, 2, 3):
        prefix = refl.run_reflections(src, cfg, depth)
        assert hs.boundary_residuals(depth) == prefix.boundary_residuals()


def test_boundary_residual_is_the_worst_hole_of_a_per_hole_loop():
    src = point_vortex(0.5, 1.6, 2.0)
    cfg = build_lattice(3, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 3)
    theta = (np.arange(64) + 0.5) / 64 * 2 * np.pi
    ring = cfg.a * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for depth in (1, 2, 3):
        prefix = refl.run_reflections(src, cfg, depth)
        per_hole = [stream_value(prefix, c + ring) for c in cfg.centers]
        expected = max(np.abs(v - v.mean()).max() for v in per_hole)
        assert hs.boundary_residuals(depth)[-1] == pytest.approx(expected, rel=1e-13)
    empty = PorousConfig(np.zeros((0, 2)), 0.01, 1.0, 0.25, Box(5, 5, 6, 6))
    assert refl.run_reflections(src, empty, 1).boundary_residuals() == [0.0]


def test_boundary_cancellation_single_hole():
    # level 1 cancels the linear trace: residual <= a * osc(grad psi0)
    src = point_vortex(0.0, 0.0, 3.0)
    cfg = PorousConfig(np.array([[2.5, 0.0]]), 0.05, 1.0, 0.25, Box(2.3, -0.2, 2.7, 0.2))
    hs = refl.run_reflections(src, cfg, 1)
    res, = hs.boundary_residuals(1)
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    ring = cfg.centers[0] + cfg.a * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    grads = pot.grad_psi0_eval(src, ring)
    center_grad, = pot.grad_psi0_eval(src, cfg.centers[:1])
    osc = np.linalg.norm(grads - center_grad[None, :], axis=1).max()
    assert res <= cfg.a * osc


def test_velocity_matches_stream_finite_difference():
    src = point_vortex(0.5, 1.6, 2.0)
    cfg = build_lattice(2, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 3)
    x = np.array([0.52, 0.47])
    eps = 1e-6
    dpsi_dx = (stream_value(hs, x + [eps, 0]) - stream_value(hs, x - [eps, 0])) / (2 * eps)
    dpsi_dy = (stream_value(hs, x + [0, eps]) - stream_value(hs, x - [0, eps])) / (2 * eps)
    fd_velocity = np.array([-dpsi_dy, dpsi_dx])
    u = perp(stream_gradient(hs, x))
    assert np.linalg.norm(u - fd_velocity) / np.linalg.norm(u) < 1e-4


def test_stream_inside_hole_rejected():
    src = point_vortex(0.5, 1.6, 2.0)
    cfg = build_lattice(2, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 2)
    with pytest.raises(ValueError, match="inside"):
        stream_value(hs, cfg.centers[0])


def test_mirror_symmetric_levels():
    src = point_vortex(2.0, 0.0, 1.5)
    cfg = build_lattice(4, 0.1, Box(-0.5, -0.5, 0.5, 0.5))
    hs = refl.run_reflections(src, cfg, 3)
    centers = cfg.centers
    for lev in hs.levels:
        for i in range(cfg.n_holes):
            j = np.argmin(
                np.hypot(centers[:, 0] - centers[i, 0], centers[:, 1] + centers[i, 1])
            )
            assert lev.vectors[i, 0] == pytest.approx(lev.vectors[j, 0], abs=1e-13)
            assert lev.vectors[i, 1] == pytest.approx(-lev.vectors[j, 1], abs=1e-13)


def test_csv_exports(tmp_path):
    src = point_vortex(0.5, 1.6, 2.0)
    cfg = build_lattice(2, 0.1, UNIT)
    hs = refl.run_reflections(src, cfg, 2)
    refl.export_dipoles_csv(hs.levels, tmp_path / "d.csv")
    refl.export_norms_csv(hs, tmp_path / "n.csv")
    lines = (tmp_path / "d.csv").read_text().strip().splitlines()
    assert lines[0] == "level,hole_index,Ax,Ay"
    assert len(lines) == 1 + 2 * cfg.n_holes
    nlines = (tmp_path / "n.csv").read_text().strip().splitlines()
    assert nlines[0] == "level,q,norm"


def test_blob_particles_as_source():
    parts = VortexParticles(np.array([[0.5, 2.0], [0.7, 2.2]]), np.array([1.0, -0.5]), 0.05)
    cfg = build_lattice(2, 0.1, UNIT)
    hs = refl.run_reflections(parts, cfg, 3)
    assert all(np.all(np.isfinite(lev.vectors)) for lev in hs.levels)


def test_stream_without_levels_still_rejects_inside_points():
    # dipole_sum's inside-hole check is the only guard, so it runs on zero
    # vectors when there are no levels
    src = point_vortex(0.5, 1.6, 2.0)
    cfg = build_lattice(2, 0.1, UNIT)
    hs = refl.HybridStream(src, cfg)
    outside = np.array([[0.5, 0.5], [0.1, 0.9]])
    assert np.all(hs.correction_eval(outside) == 0.0)
    assert np.all(hs.correction_grad(outside) == 0.0)
    for evaluate in (hs.correction_eval, hs.correction_grad, lambda x: stream_value(hs, x)):
        with pytest.raises(ValueError, match="inside"):
            evaluate(cfg.centers[1])
