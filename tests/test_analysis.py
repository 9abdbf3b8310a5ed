from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from porousflow import analysis as ana
from porousflow.fields import ScalarGridField, make_grid
from porousflow.geometry import Box, build_lattice, lattice_fraction, rasterize_mu


def test_hminus1_zero():
    assert ana.hminus1(make_grid((0, 0, 4, 4), 0.05)) == 0.0


def test_hminus1_single_mode_identity():
    # one-term multiplier sum: a pure cosine has H^-1 norm equal to its L^2
    # norm divided by sqrt(1 + |xi|^2); the padding check is bypassed since a
    # full-box mode has no compact support
    L, n = 4.0, 128
    g = make_grid((0, 0, L, L), L / n)
    xs, _ = g.cell_centers()
    g.values = np.cos(2 * np.pi * xs / L)[:, None] * np.ones((1, n))
    orig = ana.check_padding
    try:
        ana.check_padding = lambda f: None
        val = ana.hminus1(g)
    finally:
        ana.check_padding = orig
    l2 = np.sqrt((g.values**2).sum() * g.h**2)
    assert val == pytest.approx(l2 / np.sqrt(1 + (2 * np.pi / L) ** 2), rel=1e-12)


def test_hminus1_norm_axioms(rng):
    g = make_grid((-4, -4, 4, 4), 0.125)
    a = make_grid((-4, -4, 4, 4), 0.125)
    b = make_grid((-4, -4, 4, 4), 0.125)
    nx, ny = g.shape
    block = (slice(nx // 2 - 8, nx // 2 + 8), slice(ny // 2 - 8, ny // 2 + 8))
    for _ in range(5):
        a.values[block] = rng.standard_normal((16, 16))
        b.values[block] = rng.standard_normal((16, 16))
        na, nb = ana.hminus1(a), ana.hminus1(b)
        scaled = make_grid((-4, -4, 4, 4), 0.125)
        scaled.values = -2.5 * a.values
        assert ana.hminus1(scaled) == pytest.approx(2.5 * na, rel=1e-12)
        summed = make_grid((-4, -4, 4, 4), 0.125)
        summed.values = a.values + b.values
        assert ana.hminus1(summed) <= na + nb + 1e-12


def _hminus1_fft2(g):
    """H^-1 over the full complex spectrum (fft2), every mode once: the
    reference for the half-spectrum sum."""
    nx, ny = g.shape
    ghat = np.fft.fft2(g.values) * g.h**2
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=g.h)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(ny, d=g.h)[None, :]
    return float(np.sqrt((np.abs(ghat) ** 2 / (1.0 + kx**2 + ky**2)).sum() / (nx * ny * g.h**2)))


@pytest.mark.parametrize("shape", [(48, 48), (45, 45), (48, 39)])
def test_hminus1_matches_complex_fft_reference(shape):
    # even x even, odd x odd and a non-square even x odd box; a coarse h
    # and random data give the Nyquist column a visible share of the sum
    nx, ny = shape
    h = 0.5
    g = make_grid((0.0, 0.0, nx * h, ny * h), h)
    g.values[nx // 3: nx // 3 + nx // 4, ny // 3: ny // 3 + ny // 4] = np.random.default_rng(
        nx + ny
    ).standard_normal((nx // 4, ny // 4))
    assert ana.hminus1(g) == pytest.approx(_hminus1_fft2(g), rel=1e-13, abs=0.0)


def test_hminus1_padding_guard():
    g = make_grid((0, 0, 2, 2), 0.05)
    g.values[:, :] = 1.0
    with pytest.raises(ValueError, match="pad"):
        ana.hminus1(g)


def test_hminus1_lattice_discrepancy_decreases():
    vals = []
    for n in (4, 8, 16):
        cfg = build_lattice(n, 0.1, Box(0, 0, 1, 1))
        grid = make_grid((-1, -1, 2, 2), cfg.a / 4)
        k = lattice_fraction(cfg, grid)
        vals.append(ana.hminus1(ana.mu_minus_k_field(cfg, k)))
    assert vals[0] > vals[1] > vals[2]


def test_predictor_zero_config():
    budget = ana.ErrorBudget(a_over_d=0.0, mu_minus_k_hm1=0.0, k_inf=0.0)
    assert budget.f_value == 0.0


def test_predictor_aspect_term_at_eta_one_half():
    # the aspect term is (a/d)^(3 - eta) with eta = 1/2
    assert ana.ETA == 0.5
    for a_over_d in (0.05, 0.1, 0.3):
        assert ana.ErrorBudget(a_over_d, 0.0, 0.0).terms["aspect"] == a_over_d**2.5


def test_predictor_monotone_in_components():
    base = ana.ErrorBudget(0.1, 1e-3, 0.02)
    assert ana.ErrorBudget(0.2, 1e-3, 0.02).f_value > base.f_value
    assert ana.ErrorBudget(0.1, 2e-3, 0.02).f_value > base.f_value
    assert ana.ErrorBudget(0.1, 1e-3, 0.04).f_value > base.f_value


def test_predictor_smoothed_mu_dominated_by_aspect_and_kinf():
    # with k a lightly smoothed copy of mu the weak terms are subdominant
    cfg = build_lattice(4, 0.1, Box(0, 0, 1, 1))
    grid = make_grid((-1.2, -1.2, 2.2, 2.2), cfg.a / 4)
    from porousflow.geometry import rasterize_mu

    mu = rasterize_mu(cfg, grid)
    smoothed = mu.values.copy()
    for _ in range(2):
        smoothed[1:-1, 1:-1] = (
            smoothed[1:-1, 1:-1]
            + smoothed[2:, 1:-1] + smoothed[:-2, 1:-1]
            + smoothed[1:-1, 2:] + smoothed[1:-1, :-2]
        ) / 5.0
    k = make_grid((-1.2, -1.2, 2.2, 2.2), cfg.a / 4)
    k.values = smoothed
    budget = ana.predictor_f(cfg, k)
    weak = budget.terms["weak_low"] + budget.terms["weak_half"]
    assert weak < 0.2 * (budget.terms["aspect"] + budget.terms["kinf_sq"])


def _mu_minus_k_every_cell(cfg, k, grid):
    """mu - k on ``grid`` with k sampled at every cell. Bilinear samples are
    pointwise, so blocks of rows give the values of one sample_bilinear call
    on grid.centers_flat() in a fraction of its memory."""
    xs, ys = grid.cell_centers()
    kvals = np.empty(grid.shape)
    for rows in np.array_split(np.arange(xs.size), 16):
        gx, gy = np.meshgrid(xs[rows], ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        kvals[rows] = k.sample_bilinear(pts).reshape(gx.shape)
    return rasterize_mu(cfg, grid).values - kvals


@pytest.mark.parametrize("case", ["divcurl_n16", "smoothed_mu", "k_at_its_grid_edge"])
def test_mu_minus_k_field_matches_sampling_every_cell(case):
    # k is sampled only where its bilinear stencil meets a nonzero k cell;
    # the field must equal sampling k everywhere bit for bit
    if case == "divcurl_n16":
        cfg = build_lattice(16, 0.1, Box(0, 0, 1, 1))
        k = lattice_fraction(cfg, make_grid((-1.5, -1.5, 2.5, 2.5), 1 / 128))
    elif case == "smoothed_mu":
        # the k of test_predictor_smoothed_mu_dominated_by_aspect_and_kinf
        cfg = build_lattice(4, 0.1, Box(0, 0, 1, 1))
        k = make_grid((-1.2, -1.2, 2.2, 2.2), cfg.a / 4)
        k.values = rasterize_mu(cfg, k).values
        for _ in range(2):
            k.values[1:-1, 1:-1] = (
                k.values[1:-1, 1:-1]
                + k.values[2:, 1:-1] + k.values[:-2, 1:-1]
                + k.values[1:-1, 2:] + k.values[1:-1, :-2]
            ) / 5.0
    else:
        # the Euler closure's k fills its own grid, so the edge clamp extends
        # it over the whole world grid
        cfg = build_lattice(4, 0.1, Box(0, 0, 1, 1))
        k = lattice_fraction(cfg, make_grid(cfg.kpm_box.as_tuple(), 1 / 32))
        assert np.all(k.values != 0.0)
    field = ana.mu_minus_k_field(cfg, k)
    grid = ScalarGridField(field.origin, field.h, np.zeros(field.shape))
    assert field.values.tobytes() == _mu_minus_k_every_cell(cfg, k, grid).tobytes()


_PREDICTOR_N16_CHILD = """
import resource
from porousflow import analysis
from porousflow.fields import make_grid
from porousflow.geometry import Box, build_lattice, lattice_fraction
cfg = build_lattice(16, 0.1, Box(0.0, 0.0, 1.0, 1.0))
k = lattice_fraction(cfg, make_grid((-1.5, -1.5, 2.5, 2.5), 1.0 / 128.0))
budget = analysis.predictor_f(cfg, k)
print(repr(budget.mu_minus_k_hm1), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
def test_predictor_memory_bounded():
    # divcurl's n = 16 predictor: mu - k on a 2056^2 grid at h = a/4, with k
    # nonzero on the unit square only
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    # a forked child's ru_maxrss starts at its parent's peak, so the measured
    # process is started by a fresh, small interpreter rather than by pytest
    launcher = (
        "import subprocess, sys; "
        "sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, _PREDICTOR_N16_CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    hm1, maxrss_kib = proc.stdout.split()
    assert float(hm1) == pytest.approx(0.0008782516739463156, rel=1e-12)
    assert int(maxrss_kib) / 1024 < 300.0


def test_fit_exponent_exact_cubic():
    slope, r2 = ana.fit_exponent([1, 2, 4, 8], [1, 8, 64, 512])
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_exponent_two_points():
    slope, r2 = ana.fit_exponent([1.0, 2.0], [1.0, 2.0])
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_noisy_quadratic(rng):
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    ys = 5.0 * xs**2 * (1.0 + 0.01 * rng.standard_normal(xs.size))
    slope, r2 = ana.fit_exponent(xs, ys)
    assert abs(slope - 2.0) < 0.05
    assert r2 > 0.99


def test_fit_exponent_scale_invariance(rng):
    xs = np.array([1.0, 3.0, 9.0])
    ys = np.array([2.0, 11.0, 35.0])
    s1, _ = ana.fit_exponent(xs, ys)
    s2, _ = ana.fit_exponent(xs * 7.3, ys)
    s3, _ = ana.fit_exponent(xs, ys * 0.011)
    assert s1 == pytest.approx(s2, abs=1e-12)
    assert s1 == pytest.approx(s3, abs=1e-12)


def test_fit_exponent_rejects_bad_input():
    with pytest.raises(ValueError):
        ana.fit_exponent([1.0], [1.0])
    with pytest.raises(ValueError):
        ana.fit_exponent([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ana.fit_exponent([1.0, 2.0], [0.0, 2.0])


def _gamma_setup(n, eps=0.1, h=1 / 64):
    from porousflow import homogenized as hom
    from porousflow import oracle as orc
    from porousflow import potential as pot
    from porousflow import reflections as refl
    from porousflow.fields import radial_bump, rasterize

    world = rasterize((-1.5, -1.5, 2.5, 2.5), h, radial_bump((0.5, 1.8), 0.3, 1.0))
    g0 = pot.grad_psi0_on_grid(world)
    cfg = build_lattice(n, eps, Box(0, 0, 1, 1))
    k = lattice_fraction(cfg, world)
    sol = hom.solve_psic_from_grad(g0, k, tol=1e-10)
    tilde = sol.first_order
    stream = refl.run_reflections(world, cfg, 3)
    osol = orc.solve_collocation(world, cfg, 8, 64)
    return stream, g0, sol, tilde, k, osol


def test_gamma_report_no_medium_vanishes():
    # no holes, k = 0: both decomposition norms are quadrature-level zero
    from porousflow import homogenized as hom
    from porousflow import potential as pot
    from porousflow import reflections as refl
    from porousflow.fields import radial_bump, rasterize
    from porousflow.geometry import PorousConfig

    h = 1 / 64
    world = rasterize((-1.5, -1.5, 2.5, 2.5), h, radial_bump((0.5, 1.8), 0.3, 1.0))
    g0 = pot.grad_psi0_on_grid(world)
    empty = PorousConfig(np.zeros((0, 2)), 0.01, 1.0, 0.25, Box(0, 0, 1, 1))
    k0 = make_grid((-1.5, -1.5, 2.5, 2.5), h)
    stream = refl.run_reflections(world, empty, 1)
    sol = hom.solve_psic_from_grad(g0, k0)
    tilde = sol.first_order
    rep = ana.gamma_decomposition_report(
        stream, g0, sol.grad, tilde, k0, Box(1.3, 0.0, 2.3, 1.0), 1 / 32
    )
    assert rep.grad_gamma1 < 1e-14
    assert rep.gamma2 < 1e-14


def test_gamma_report_norms_shrink_with_lattice_refinement():
    probe = Box(1.3, 0.0, 2.3, 1.0)
    totals, g2s, ratios = [], [], []
    for n in (2, 4):
        stream, g0, sol, tilde, k, osol = _gamma_setup(n)
        rep = ana.gamma_decomposition_report(
            stream, g0, sol.grad, tilde, k, probe, 1 / 32, oracle_sol=osol
        )
        totals.append(rep.total)
        g2s.append(rep.gamma2)
        ratios.append(rep.gamma2 / rep.budget.f_value)
        assert rep.used_oracle
        # the measured error sits far below the unit-constant budget
        assert rep.gamma2 <= rep.budget.f_value
    assert totals[0] >= totals[1]
    assert g2s[0] >= g2s[1]
