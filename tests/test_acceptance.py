"""Acceptance suite: one test per exit criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured values and runtime.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import point_vortex
from porousflow import analysis as ana
from porousflow import euler as eu
from porousflow import homogenized as hom
from porousflow import oracle as orc
from porousflow import potential as pot
from porousflow import reflections as refl
from porousflow.fields import make_grid, radial_bump, rasterize
from porousflow.geometry import Box, PorousConfig, build_lattice, lattice_fraction

UNIT = Box(0.0, 0.0, 1.0, 1.0)


def report(num, ok, detail, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {detail} [{elapsed:.1f}s < {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def test_criterion_1_reflection_contraction():
    # lattices n in {4, 8, 16} at a/d = 0.1: every successive l2 ratio <= 1/2
    t0 = time.time()
    src = point_vortex(0.5, 1.5, 2.0)
    worst = 0.0
    for n in (4, 8, 16):
        cfg = build_lattice(n, 0.1, UNIT)
        stream = refl.run_reflections(src, cfg, 6)
        norms = stream.norms(2.0)
        ratios = [b / a for a, b in zip(norms, norms[1:])]
        assert len(ratios) == 5
        worst = max(worst, max(ratios))
    report(1, worst <= 0.5, f"max l2 contraction ratio {worst:.4f} <= 0.5", t0, 10.0)


def test_criterion_2_two_hole_closed_form():
    # A^(2), A^(3) follow the geometric recursion with ratio (a/d)^2
    t0 = time.time()
    a, d = 0.05, 1.0
    cfg = PorousConfig(
        np.array([[0.0, 0.0], [d, 0.0]]), a, d, 0.25, Box(-0.2, -0.2, 1.2, 0.2)
    )
    start = np.array([[-1.0, 0.4], [-1.0, 0.4]])
    a1 = refl.DipoleSet(1, start)
    a2 = refl.iterate_dipoles(a1, cfg)
    a3 = refl.iterate_dipoles(a2, cfg)
    mirror = np.diag([1.0, -1.0])
    ratio = (a / d) ** 2
    err2 = np.abs(a2.vectors - ratio * start @ mirror).max() / np.abs(start).max()
    err3 = np.abs(a3.vectors - ratio**2 * start).max() / np.abs(start).max()
    worst = max(err2, err3)
    report(2, worst < 1e-10, f"two-hole recursion rel err {worst:.2e} < 1e-10", t0, 1.0)


def test_criterion_3_oracle_validity():
    # single hole, order 8: dipole reproduction, boundary constancy, flux
    t0 = time.time()
    src = point_vortex(0.0, 0.0, 3.0)
    cfg = PorousConfig(
        np.array([[3.0, 0.0]]), 0.05, 1.0, 0.25, Box(2.8, -0.2, 3.2, 0.2)
    )
    sol = orc.solve_collocation(src, cfg, order=8, pts_per_hole=64)
    a_oracle = orc.equivalent_dipoles(sol)[0]
    a_lin = -pot.grad_psi0_eval(src, cfg.centers[0])
    dip_err = np.linalg.norm(a_oracle - a_lin) / np.linalg.norm(a_lin)
    flux = abs(orc.flux_integral(sol, 0))
    ok = dip_err < 1e-3 and sol.residual < 1e-6 and flux < 1e-8
    report(
        3, ok,
        f"dipole rel err {dip_err:.1e} < 1e-3, residual {sol.residual:.1e} < 1e-6, "
        f"flux {flux:.1e} < 1e-8", t0, 5.0,
    )


def test_criterion_4_reflection_accuracy_vs_oracle():
    # masked H1 error of psi^(3) against the oracle over the porous region:
    # (a) fixed d, a ~ (a/d): strictly decreasing, slope >= 1.0 (+-0.3);
    # (b) a ~ d^2 (box rescaled at fixed N = 16): slope >= 3.0 (+-0.3)
    t0 = time.time()
    src = point_vortex(0.5, 2.0, 2.0)
    ratios = (0.05, 0.1, 0.2)

    errs_a = []
    for ratio in ratios:
        cfg = build_lattice(4, ratio, UNIT)
        stream = refl.run_reflections(src, cfg, 3)
        sol = orc.solve_collocation(src, cfg, 8, 64)
        region = cfg.kpm_box.inflate(0.25)
        errs_a.append(ana.reflection_vs_oracle_h1(stream, sol, region, cfg.a / 4))
    slope_a, _ = ana.fit_exponent(ratios, errs_a)
    decreasing = errs_a[0] < errs_a[1] < errs_a[2]

    errs_b = []
    for ratio in ratios:
        side = ratio / max(ratios)
        box = Box(0.0, 0.0, side, side)
        cfg = build_lattice(4, ratio, box)  # d = side/4 so a = ratio*d ~ d^2
        stream = refl.run_reflections(src, cfg, 3)
        sol = orc.solve_collocation(src, cfg, 8, 64)
        region = cfg.kpm_box.inflate(0.25 * side)
        errs_b.append(ana.reflection_vs_oracle_h1(stream, sol, region, cfg.a / 4))
    slope_b, _ = ana.fit_exponent(ratios, errs_b)

    ok = decreasing and slope_a >= 1.0 - 0.3 and slope_b >= 3.0 - 0.3
    report(
        4, ok,
        f"errors decreasing {decreasing}, slope(a~d fixed d) {slope_a:.2f} >= 0.7, "
        f"slope(a~d^2) {slope_b:.2f} >= 2.7", t0, 120.0,
    )


def test_criterion_5_homogenized_expansion_rates():
    # ||grad(psi_c - psi_0)|| ~ sup k and ||grad(psi_c - psi_tilde)|| ~ (sup k)^2
    t0 = time.time()
    h = 1.0 / 64.0
    world = (-2.0, -2.0, 2.0, 2.0)
    f = rasterize(world, h, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
    g0 = pot.grad_psi0_on_grid(f)
    amps, e0s, ets = [], [], []
    for amp in (0.01, 0.02, 0.04):
        k = rasterize(world, h, radial_bump((0.0, 0.0), 0.5, amp, power=3))
        sol = hom.solve_psic_from_grad(g0, k, tol=1e-10)
        tilde = sol.first_order
        amps.append(amp)
        e0s.append(float(np.sqrt(((sol.grad.values - g0.values) ** 2).sum()) * h))
        ets.append(float(np.sqrt(((sol.grad.values - tilde.values) ** 2).sum()) * h))
    s0, _ = ana.fit_exponent(amps, e0s)
    s1, _ = ana.fit_exponent(amps, ets)
    ok = abs(s0 - 1.0) <= 0.2 and abs(s1 - 2.0) <= 0.2
    report(
        5, ok, f"slope(psi_c - psi_0) {s0:.3f} = 1 +- 0.2, "
        f"slope(psi_c - psi_tilde) {s1:.3f} = 2 +- 0.2", t0, 120.0,
    )


def test_criterion_6_elliptic_decomposition_trend():
    # at eps = 0.1 the measured |grad Gamma_1| + |Gamma_2| on a probe region
    # away from the porous box is non-increasing in n and beats the leading
    # scale pi eps^2 by 2x at n = 16
    t0 = time.time()
    eps = 0.1
    probe = Box(1.3, 0.0, 2.3, 1.0)
    h = 1.0 / 128.0
    world = rasterize(
        (-1.5, -1.5, 2.5, 2.5), h, radial_bump((0.5, 1.8), 0.3, 1.0, power=2)
    )
    g0 = pot.grad_psi0_on_grid(world)
    totals = []
    for n in (4, 8, 16):
        cfg = build_lattice(n, eps, UNIT)
        k = lattice_fraction(cfg, world)
        sol = hom.solve_psic_from_grad(g0, k, tol=1e-10)
        tilde = sol.first_order
        stream = refl.run_reflections(world, cfg, 3)
        osol = None
        if cfg.n_holes <= orc.MAX_ORACLE_HOLES:
            osol = orc.solve_collocation(world, cfg, 8, 64)
        rep = ana.gamma_decomposition_report(
            stream, g0, sol.grad, tilde, k, probe, 1.0 / 64.0, oracle_sol=osol,
        )
        totals.append(rep.total)
    lead = np.pi * eps**2
    ok = totals[0] >= totals[1] >= totals[2] and totals[-1] <= lead / 2.0
    report(
        6, ok,
        f"totals {', '.join(f'{v:.2e}' for v in totals)} non-increasing, "
        f"final <= {lead / 2:.2e}", t0, 300.0,
    )


def test_criterion_7_euler_conservation_and_oracles():
    t0 = time.time()
    rho, gamma = 0.5, np.pi
    blob = rho / 25.0
    parts = eu.VortexParticles(
        np.array([[-rho, 0.0], [rho, 0.0]]), np.array([gamma, gamma]), blob
    )
    empty = eu.PerforatedSetting(
        PorousConfig(np.zeros((0, 2)), 1e-6, 1.0, 0.25, Box(50, 50, 51, 51)),
        margin=0.0,
    )
    analytic = 8.0 * np.pi**2 * rho**2 / gamma
    # weights conserved exactly over a run
    state = eu.FlowState(0.0, parts)
    dt = analytic / 256.0
    prev_ang, period = 0.0, None
    while state.t < 1.2 * analytic:
        state = eu.step(state, dt, empty)
        d = state.particles.positions[1] - state.particles.positions[0]
        ang = float(np.arctan2(d[1], d[0]))
        while ang < prev_ang - 1e-9:
            ang += 2 * np.pi
        if period is None and ang >= 2 * np.pi:
            period = state.t - dt + (2 * np.pi - prev_ang) / (ang - prev_ang) * dt
            break
        prev_ang = ang
    weights_exact = np.array_equal(state.particles.weights, parts.weights)
    period_err = abs(period - analytic) / analytic if period else np.inf

    omega_rot = gamma * 2 * rho / (2 * np.pi * (4 * rho**2 + blob**2)) / rho

    def rk4_error(dt_):
        s = eu.FlowState(0.0, parts)
        for _ in range(int(round(1.0 / dt_))):
            s = eu.step(s, dt_, empty)
        th = omega_rot * 1.0
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        return np.abs(s.particles.positions - parts.positions @ rot.T).max()

    ratio = rk4_error(0.05) / rk4_error(0.025)
    ok = weights_exact and period_err < 0.02 and 12.0 <= ratio <= 20.0
    report(
        7, ok,
        f"weights exact {weights_exact}, period rel err {period_err:.2e} < 0.02, "
        f"RK4 halving ratio {ratio:.1f} in [12, 20]", t0, 60.0,
    )


def test_criterion_8_euler_stability_trend():
    # halving eps reduces the final trajectory divergence by >= 2x; the
    # support-control halt never fires for vorticity at distance >= 5
    t0 = time.time()
    omega0 = rasterize(
        (-0.2, 6.1, 1.2, 7.5), 1.0 / 64.0, radial_bump((0.5, 6.8), 0.5, 4.0, power=2)
    )
    parts = eu.discretize_vorticity(omega0, 0.1, 0.1, kpm_box=UNIT, margin=5.0)
    probe = make_grid((0.2, 2.0, 0.8, 2.6), 0.2).centers_flat()
    finals = {}
    halted = False
    for eps in (0.05, 0.1):
        cfg = build_lattice(8, eps, UNIT)
        k = lattice_fraction(cfg, make_grid((0, 0, 1, 1), 1.0 / 32.0))
        recs = eu.run_comparison(
            parts,
            eu.PerforatedSetting(cfg, 3, margin=5.0),
            eu.HomogenizedSetting(k, margin=5.0),
            t_final=1.0, dt=0.05, probe_points=probe,
        )
        finals[eps] = recs[-1]
        halted = halted or any(
            r.status_perforated != "running" or r.status_homogenized != "running"
            for r in recs
        )
    ratio = finals[0.1].traj_div_max / finals[0.05].traj_div_max
    ok = ratio >= 2.0 and not halted
    report(
        8, ok,
        f"trajectory divergence ratio {ratio:.2f} >= 2 when eps halves, "
        f"halt fired: {halted}", t0, 300.0,
    )


def test_criterion_9_cross_backend_agreement():
    t0 = time.time()
    # spectral vs direct apply_L at h = 1/128 on a disk-supported k
    h = 1.0 / 128.0
    world = (-4.0, -4.0, 4.0, 4.0)
    k = rasterize(world, h, radial_bump((0.0, 0.0), 0.5, 0.04, power=3))
    f = rasterize(world, h, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
    g0 = pot.grad_psi0_on_grid(f)
    sol = hom.solve_psic_from_grad(g0, k, tol=1e-10)
    spec = hom.apply_l_spectral(sol.grad, k)
    rng = np.random.default_rng(3)
    ang = rng.random(400) * 2 * np.pi
    rad = np.sqrt(rng.random(400)) * 0.8
    ix, iy, _ = k.cell_index(np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1))
    xs, ys = k.cell_centers()
    targets = np.stack([xs[ix], ys[iy]], axis=1)
    direct = hom.apply_l_direct(sol.grad, k, targets)
    backend_rel = float(
        np.linalg.norm(spec.values[ix, iy] - direct) / np.linalg.norm(direct)
    )

    # velocity_eval of the reflections stream vs finite differences of
    # stream_eval
    src = point_vortex(0.5, 2.0, 2.0)
    cfg = build_lattice(2, 0.1, UNIT)
    stream = refl.run_reflections(src, cfg, 3)
    worst = 0.0
    eps_fd = 1e-6
    for x in (np.array([0.52, 0.47]), np.array([1.4, 0.3]), np.array([0.1, 1.1])):
        dx = (stream.stream_eval(x + [eps_fd, 0]) - stream.stream_eval(x - [eps_fd, 0])) / (2 * eps_fd)
        dy = (stream.stream_eval(x + [0, eps_fd]) - stream.stream_eval(x - [0, eps_fd])) / (2 * eps_fd)
        fd = np.array([-dy, dx])
        u = stream.velocity_eval(x)
        worst = max(worst, float(np.linalg.norm(u - fd) / np.linalg.norm(u)))
    ok = backend_rel < 1e-3 and worst < 1e-4
    report(
        9, ok,
        f"backend rel err {backend_rel:.2e} < 1e-3, velocity-vs-FD rel err "
        f"{worst:.2e} < 1e-4", t0, 30.0,
    )
