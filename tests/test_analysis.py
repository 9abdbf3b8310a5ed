from __future__ import annotations


import numpy as np
import pytest

from conftest import child_output, point_vortex, traced_peak
from porousflow import analysis as ana
from porousflow import kernels
from porousflow.fields import ScalarGridField, grid_shape, make_grid
from porousflow.geometry import Box, build_lattice, lattice_fraction, rasterize_mu
from references import TABLE, embedded, hminus1_fft2, mu_minus_k_every_cell, whole_probe_h1


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
    assert ana.hminus1(g) == pytest.approx(hminus1_fft2(g), rel=TABLE["hminus1"].tol, abs=0.0)


@pytest.mark.parametrize("ny", [40, 41])
def test_hminus1_over_row_blocks_matches_the_fft2_reference(ny, monkeypatch, taken_blocks):
    # even and odd ny, two column blocks (16 and 5 of the 21 columns), and a
    # budget of six rows of the narrow block: 66 and 11 row blocks, each
    # doubled column (the Nyquist one of ny = 40 not) summed block by block
    nx, h = 66, 0.5
    g = make_grid((0.0, 0.0, nx * h, ny * h), h)
    g.values[22:30, 13:21] = np.random.default_rng(ny).standard_normal((8, 8))
    monkeypatch.setattr(kernels, "BLOCK", 6 * 64 * 5)
    got = ana.hminus1(g)
    assert [len(rows) for rows in taken_blocks] == [66, 11]
    assert got == pytest.approx(hminus1_fft2(g), rel=TABLE["hminus1"].tol, abs=0.0)


@pytest.mark.parametrize("period", [(48, 48), (45, 45), (48, 39)])
def test_hminus1_of_a_window_matches_the_embedded_field(period):
    # a window of random data standing for its whole periodic box, with zero
    # rows and columns inside the window around its support
    nx, ny = period
    rng = np.random.default_rng(nx * ny)
    support = rng.standard_normal((nx // 4, ny // 4))
    values = np.zeros((nx // 4 + 3, ny // 4 + 2))
    values[1:1 + nx // 4, 2:] = support
    window = ScalarGridField(np.zeros(2), 0.5, values, (nx // 3, ny // 3), period)
    assert ana.hminus1(window) == pytest.approx(hminus1_fft2(window), rel=TABLE["hminus1"].tol,
                                                abs=0.0)
    window.offset = (1, 1)  # the same support too close to the box's low edges
    with pytest.raises(ValueError, match="pad"):
        ana.hminus1(window)


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


@pytest.mark.parametrize(
    "case", ["divcurl_n4", "divcurl_n8", "divcurl_n16", "smoothed_mu", "k_at_its_grid_edge"]
)
def test_mu_minus_k_field_matches_sampling_every_cell(case):
    # k is sampled only where its bilinear stencil meets a nonzero k cell, and
    # only on a window of the padded world grid (clearance 1.1 extent + 4 h at
    # h = a/4): embedded in that grid, the field must equal sampling k at
    # every cell bit for bit, so it vanishes outside the window
    if case.startswith("divcurl"):
        cfg = build_lattice(int(case[len("divcurl_n"):]), 0.1, Box(0, 0, 1, 1))
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
    h = cfg.a / 4
    world = make_grid(cfg.kpm_box.inflate(1.1 + 4 * h).as_tuple(), h)
    assert field.period == world.shape and field.h == h
    assert np.array_equal(field.origin, world.origin)
    if case.startswith("divcurl"):
        assert field.values.size < world.values.size / 4
    assert embedded(field).tobytes() == mu_minus_k_every_cell(cfg, k, world).tobytes()


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


def test_predictor_traced_peak_bounded():
    # divcurl's n = 16 predictor builds no array over its 2056^2 periodic box
    # (34 MB each for the world field and its half spectrum)
    cfg = build_lattice(16, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    k = lattice_fraction(cfg, make_grid((-1.5, -1.5, 2.5, 2.5), 1.0 / 128.0))
    budget, peak = traced_peak(lambda: ana.predictor_f(cfg, k))
    assert budget.mu_minus_k_hm1 == pytest.approx(0.0008782516739463156, rel=1e-12)
    assert peak / 2**20 < 32.0


def test_predictor_memory_bounded():
    # divcurl's n = 16 predictor: mu - k on a 2056^2 grid at h = a/4, with k
    # nonzero on the unit square only
    hm1, maxrss_kib = child_output(_PREDICTOR_N16_CHILD)
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


def test_oracle_comparisons_reject_points_inside_a_hole(monkeypatch):
    # every probe cell counts as fluid, so cells inside the holes reach the
    # oracle-minus-reflections gradient, which raises as dipole_sum does
    from porousflow import oracle as orc
    from porousflow import reflections as refl
    from porousflow.euler import VortexParticles

    cfg = build_lattice(2, 0.2, Box(0.0, 0.0, 1.0, 1.0))
    src = VortexParticles(np.array([[0.5, 2.0]]), np.array([1.0]), blob=0.0)
    stream = refl.run_reflections(src, cfg, 3)
    osol = orc.solve_collocation(src, cfg, 4, 32)
    region = cfg.kpm_box
    probe = make_grid(region.as_tuple(), cfg.a / 4)
    homog = ana.HomogenizedProbe(probe, region, np.zeros((probe.values.size, 2)),
                                 np.zeros(probe.values.size))
    monkeypatch.setattr(ana, "fluid_mask", lambda config, grid: np.ones(grid.shape, dtype=bool))
    with pytest.raises(ValueError, match="inside a hole"):
        ana.reflection_vs_oracle_h1(stream, osol, region, cfg.a / 4)
    with pytest.raises(ValueError, match="inside a hole"):
        ana.gamma_report(stream, homog, probe, oracle_sol=osol)



def test_probe_norm_over_row_bands_is_the_whole_grid_sum(monkeypatch, taken_blocks):
    # a budget of three rows per band at 64 bytes per cell: 10+ bands against
    # one sum over the whole probe, of which the band sums are a reordering
    from porousflow import oracle as orc
    from porousflow import reflections as refl

    cfg = build_lattice(2, 0.2, Box(0.0, 0.0, 1.0, 1.0))
    src = point_vortex(0.5, 2.0, 2.0)
    stream = refl.run_reflections(src, cfg, 3)
    osol = orc.solve_collocation(src, cfg, 8, 64)
    region, h = cfg.kpm_box.inflate(0.25), cfg.a / 4
    nx, ny = grid_shape(region.as_tuple(), h)
    monkeypatch.setattr(kernels, "BLOCK", 3 * 64 * ny)
    taken_blocks.clear()
    got = ana.reflection_vs_oracle_h1(stream, osol, region, h)
    bands = taken_blocks[0]
    assert len(bands) >= 10 and bands[-1].stop == nx
    ref = whole_probe_h1(stream, osol, region, h)
    assert got == pytest.approx(ref, rel=TABLE["reflection_vs_oracle_h1"].tol, abs=0.0)
