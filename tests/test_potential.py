from __future__ import annotations

import numpy as np
import pytest

from conftest import point_vortex, traced_peak
from porousflow import kernels
from porousflow import potential as pot
from porousflow.euler import VortexParticles
from porousflow.fields import (
    ScalarGridField,
    disk_indicator,
    irfft2_rows,
    make_grid,
    radial_bump,
    rasterize,
    rfft2_rows,
)
from references import TABLE, pair_sum_reference

TOL = TABLE["pair_sum"].tol


def brute_cell_log(dx0, dx1, dy0, dy1, n=1500):
    """Midpoint brute force of the log integral, the independent oracle for
    the closed-form primitive."""
    u = dx0 + (np.arange(n) + 0.5) / n * (dx1 - dx0)
    v = dy0 + (np.arange(n) + 0.5) / n * (dy1 - dy0)
    gu, gv = np.meshgrid(u, v, indexing="ij")
    return 0.5 * np.log(gu**2 + gv**2).mean() * (dx1 - dx0) * (dy1 - dy0)


def test_general_cell_integral_matches_brute_force():
    val = pot.cell_log_integral(-0.1, 0.2, -0.05, 0.25)
    assert val == pytest.approx(brute_cell_log(-0.1, 0.2, -0.05, 0.25), abs=1e-7)


def test_psi0_zero_source():
    f = make_grid((0, 0, 1, 1), 0.1)
    assert pot.psi0_eval(f, np.array([2.0, 3.0])) == 0.0
    assert np.allclose(pot.grad_psi0_eval(f, np.array([2.0, 3.0])), 0.0)


def test_psi0_unit_disk_exterior(unit_disk_field):
    # radial solution psi0(r) = (mass/2pi) ln r outside the support, mass = pi
    val = pot.psi0_eval(unit_disk_field, np.array([2.0, 0.0]))
    assert val == pytest.approx(0.5 * np.log(2.0), abs=1e-3)


def test_grad_psi0_unit_disk(unit_disk_field):
    g_out = pot.grad_psi0_eval(unit_disk_field, np.array([2.0, 0.0]))
    assert np.allclose(g_out, [0.25, 0.0], atol=1e-3)
    # inside a unit-density disk the radial ODE gives psi' = r/2
    g_in = pot.grad_psi0_eval(unit_disk_field, np.array([0.5, 0.0]))
    assert np.allclose(g_in, [0.25, 0.0], atol=1e-3)
    # on the rim both formulas give the maximum |grad psi0| = 1/2
    g_rim = pot.grad_psi0_eval(unit_disk_field, np.array([1.0, 0.0]))
    assert np.hypot(*g_rim) == pytest.approx(0.5, rel=0.02)


def test_psi0_translation_covariance():
    f = rasterize((-0.6, -0.6, 0.6, 0.6), 1 / 64, disk_indicator((0, 0), 0.5))
    f_shift = rasterize((0.4, 1.4, 1.6, 2.6), 1 / 64, disk_indicator((1, 2), 0.5))
    x = np.array([0.3, -0.9])
    assert pot.psi0_eval(f, x) == pytest.approx(
        pot.psi0_eval(f_shift, x + np.array([1.0, 2.0])), abs=1e-10
    )


def test_far_field_decay_rate(unit_disk_field):
    # |grad psi0(x) - (int f / 2pi) x/|x|^2| decays like |x|^-2:
    # deviations at |x| = 10 and 20 should shrink by about 4
    mass = unit_disk_field.values.sum() * unit_disk_field.h**2
    devs = []
    for r in (10.0, 20.0):
        x = np.array([r, 0.0])
        lead = mass / (2 * np.pi) * x / r**2
        devs.append(np.linalg.norm(pot.grad_psi0_eval(unit_disk_field, x) - lead))
    ratio = devs[0] / devs[1]
    assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3


def test_grad_matches_finite_difference_away_from_support(unit_disk_field):
    x = np.array([1.7, 0.9])
    eps = 1e-5
    fd = np.array(
        [
            (pot.psi0_eval(unit_disk_field, x + [eps, 0])
             - pot.psi0_eval(unit_disk_field, x - [eps, 0])) / (2 * eps),
            (pot.psi0_eval(unit_disk_field, x + [0, eps])
             - pot.psi0_eval(unit_disk_field, x - [0, eps])) / (2 * eps),
        ]
    )
    g = pot.grad_psi0_eval(unit_disk_field, x)
    assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-4


def test_particle_source_matches_exact_log():
    p = point_vortex(0.0, 0.0, 2.0)
    x = np.array([3.0, 4.0])
    assert pot.psi0_eval(p, x) == pytest.approx(2.0 / (2 * np.pi) * np.log(5.0), rel=1e-12)
    g = pot.grad_psi0_eval(p, x)
    assert np.allclose(g, 2.0 / (2 * np.pi) * x / 25.0, rtol=1e-12)
    u = pot.velocity0_eval(p, x)
    assert np.allclose(u, 2.0 / (2 * np.pi) * np.array([-4.0, 3.0]) / 25.0, rtol=1e-12)


def test_blob_velocity_bounded_at_center():
    p = point_vortex(0.0, 0.0, 1.0)
    p.blob = 0.1
    u = pot.velocity0_eval(p, np.array([0.0, 0.0]))
    assert np.allclose(u, 0.0)
    near = pot.velocity0_eval(p, np.array([1e-4, 0.0]))
    assert np.isfinite(near).all()


def _per_kind_psi0(source, pts, grad):
    """psi_0 (grad psi_0) by a separate body per source kind: the reference
    for the one point-source sum, with the same operation order."""
    if hasattr(source, "positions"):
        s = kernels.pair_sum(pts, source.positions, source.weights, int(grad), source.blob)
        return s / (2.0 * np.pi)
    centers, vals = source.nonzero_cells()
    own = source.nonzero_cell_index(pts)
    if grad:
        s = kernels.pair_sum(pts, centers, vals, 1, own=own)
        return s * source.h**2 / (2.0 * np.pi)
    out = kernels.pair_sum(pts, centers, vals, 0, own=own) * source.h**2
    live = np.flatnonzero(own >= 0)
    lo = centers[own[live]] - source.h / 2 - pts[live]
    hi = centers[own[live]] + source.h / 2 - pts[live]
    out[live] += vals[own[live]] * pot.cell_log_integral(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])
    return out / (2.0 * np.pi)


def test_point_source_sum_matches_per_kind_reference():
    f = rasterize((-0.5, -0.5, 0.5, 0.5), 1 / 16, radial_bump((0.1, 0.0), 0.3, 2.0))
    # in a nonzero cell (twice), in a zero cell of the grid, off the grid
    pts = np.array([[0.13, 0.02], [0.0, -0.1], [-0.45, 0.45], [2.0, -1.3]])
    assert list(f.nonzero_cell_index(pts) >= 0) == [True, True, False, False]
    rng = np.random.default_rng(3)
    parts = VortexParticles(rng.uniform(-1, 1, (9, 2)), rng.normal(size=9), blob=0.05)
    for source, x in ((f, pts), (parts, np.concatenate([pts, parts.positions]))):
        assert np.array_equal(pot.psi0_eval(source, x), _per_kind_psi0(source, x, False))
        assert np.array_equal(pot.grad_psi0_eval(source, x), _per_kind_psi0(source, x, True))
        assert pot.psi0_eval(source, x[0]) == _per_kind_psi0(source, x[:1], False)[0]
        assert np.array_equal(pot.grad_psi0_eval(source, x[0]), _per_kind_psi0(source, x[:1], True)[0])


def test_grid_evaluation_matches_direct_sums():
    f = rasterize((-0.5, -0.5, 0.5, 0.5), 1 / 16, disk_indicator((0, 0), 0.4))
    pts = f.centers_flat()
    gg = pot.grad_psi0_on_grid(f)
    ref = pot.grad_psi0_eval(f, pts)
    assert np.abs(gg.values.reshape(-1, 2) - ref).max() <= TABLE["grad_psi0_on_grid"].tol * np.abs(
        ref).max()


def _full_box_gradient(f):
    """grad psi_0 by the zero-padded convolution of the whole grid over the
    (2 nx, 2 ny) box with numpy's own transforms: the reference for the
    support-box convolution."""
    (nx, ny), h = f.shape, f.h
    box = (2 * nx, 2 * ny)
    # displacements n h with n = 0..n - 1 at the front, negative ones at the back
    dx = np.fft.fftfreq(box[0], 1.0 / box[0])[:, None] * h
    dy = np.fft.fftfreq(box[1], 1.0 / box[1])[None, :] * h
    r2 = dx * dx + dy * dy
    r2[0, 0] = np.inf  # the self cell contributes 0
    spec = np.fft.rfft2(f.values, s=box)
    grad = [np.fft.irfft2(spec * np.fft.rfft2(d / r2), s=box)[:nx, :ny] for d in (dx, dy)]
    return np.stack(grad, axis=2) * h**2 / (2.0 * np.pi)


def _support_case(kind):
    f = ScalarGridField(np.array([-0.4, 0.3]), 1 / 16, np.zeros((40, 29)))
    if kind == "off_center":
        f.values[25:36, 3:12] = np.random.default_rng(1).standard_normal((11, 9))
    elif kind == "single_cell":
        f.values[7, 20] = 2.5
    elif kind == "edges":
        f.values[0, 5:9] = 1.0
        f.values[30:, -1] = -0.5
    return f


@pytest.mark.parametrize("kind", ["off_center", "single_cell", "edges", "zero"])
def test_grid_gradient_over_the_support_box_matches_full_box(kind):
    f = _support_case(kind)
    got = pot.grad_psi0_on_grid(f).values
    ref = _full_box_gradient(f)
    assert got.shape == ref.shape == f.shape + (2,)
    if kind == "zero":
        assert not got.any() and not ref.any()
        return
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-14 * scale
    direct = pot.grad_psi0_eval(f, f.centers_flat()).reshape(got.shape)
    assert np.abs(got - direct).max() <= TABLE["grad_psi0_on_grid"].tol * scale


def _single_plane_gradient(f):
    """grad_psi0_on_grid's sum as one transform of f's support box per
    kernel: f cropped to the box of its nonzero cells and zero-padded to a
    fast box, transformed over its own rows, times each kernel's spectrum in
    place (the source's spectrum first) and inverted over the grid's rows."""
    box = f.support_slices()
    src = f.values[box]
    size = [pot._fast_length(ns + no) for ns, no in zip(src.shape, f.shape)]
    # target-minus-source displacements, the negative ones at the back
    axes = []
    for nb, ns, sl in zip(size, src.shape, box):
        n = np.arange(nb)
        axes.append((np.where(n <= nb - ns, n, n - nb) - sl.start) * f.h)
    dx, dy = axes[0][:, None], axes[1][None, :]
    r2 = dx * dx + dy * dy
    inv = np.where(r2 > 0, 1.0 / np.where(r2 > 0, r2, 1.0), 0.0)
    padded = np.pad(src, [(0, nb - ns) for ns, nb in zip(src.shape, size)])
    src_hat = rfft2_rows(padded, slice(0, src.shape[0]))
    planes = []
    for kern in (dx * inv, dy * inv):
        prod = np.fft.rfft2(kern)
        np.multiply(src_hat, prod, out=prod)
        planes.append(irfft2_rows(prod, size[1], slice(0, f.shape[0]))[:, :f.shape[1]])
    return np.stack(planes, axis=2) * (f.h**2 / (2.0 * np.pi))


@pytest.mark.parametrize("kind", ["off_center", "single_cell", "edges", "sweep"])
def test_grid_gradient_is_the_single_plane_pipeline_bit_for_bit(kind):
    # the shared convolution changes no bit of the one-plane gradient
    if kind == "sweep":  # the homog sweep's f on a coarser grid
        f = rasterize((-2.0, -2.0, 2.0, 2.0), 1 / 64, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
    else:
        f = _support_case(kind)
    assert np.array_equal(pot.grad_psi0_on_grid(f).values, _single_plane_gradient(f))


def test_grid_gradient_holds_one_kernel_spectrum_at_a_time():
    # on the sweep's 1024^2 grid: the output (16 MiB), the source's and one
    # kernel's half spectrum on the (1200, 1200) box (11 MiB each) and row
    # blocks, 41 MiB; whole kernel planes and a stacked output peaked at 69,
    # the whole grid's (2048, 2048) box at about 200
    f = rasterize((-2.0, -2.0, 2.0, 2.0), 1 / 256, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
    peak = traced_peak(lambda: pot.grad_psi0_on_grid(f))[1]
    assert peak < 48 * 2**20


def _whole_plane_kernel(n_src, size, h, offset):
    """The kernels d / |d|^2 as whole box planes, the form the row blocks replace."""
    dx, dy = ((pot._wrapped(ns, nb) + off) * h for ns, nb, off in zip(n_src, size, offset))
    dx, dy = dx[:, None], dy[None, :]
    r2 = dx * dx + dy * dy
    inv = np.where(r2 > 0, 1.0 / np.where(r2 > 0, r2, 1.0), 0.0)
    return dx * inv, dy * inv


@pytest.mark.parametrize("size, offset", [((24, 20), (-3, -5)), ((25, 27), (2, -30)),
                                          ((30, 18), (0.5, -4.5))])
@pytest.mark.parametrize("rows", [1, 4, 64])
def test_kernel_spectra_from_row_blocks_are_rfft2_bit_for_bit(size, offset, rows, monkeypatch,
                                                              taken_blocks):
    # blocks of one row, of four (the last one short) and one block; even
    # and odd box sides, the self cell inside the box or not
    monkeypatch.setattr(kernels, "BLOCK", 8 * rows * size[1])
    got = list(pot._grad_kernel((7, 9), size, 0.1, offset))
    assert [len(call) for call in taken_blocks] == [-(-size[0] // rows)]
    for spec, plane in zip(got, _whole_plane_kernel((7, 9), size, 0.1, offset), strict=True):
        assert np.array_equal(spec, np.fft.rfft2(plane))


def test_fast_lengths_are_the_smallest_5_smooth():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for n in range(1, 400):
        assert pot._fast_length(n) == next(m for m in range(n, 2 * n + 1) if smooth(m))
    assert pot._fast_length(1178) == 1200


def test_dipole_boundary_value():
    c, a = (0, 0), 0.1
    assert pot.dipole_sum(c, a, (1.0, 0.0), (0.1, 0.0))[0] == pytest.approx(0.1, rel=1e-14)
    assert pot.dipole_sum(c, a, (1.0, 0.0), (1.0, 0.0))[0] == pytest.approx(0.01, rel=1e-14)
    assert pot.dipole_sum(c, a, (0.0, 0.0), (0.7, 0.3))[0] == 0.0


def test_dipole_gradient_closed_form():
    c, a, A = (0, 0), 0.1, (1.0, 0.0)
    assert np.allclose(pot.dipole_sum(c, a, A, (0.5, 0.0), grad=True)[0], [-0.04, 0.0], atol=1e-15)
    assert np.allclose(pot.dipole_sum(c, a, A, (0.0, 0.5), grad=True)[0], [0.04, 0.0], atol=1e-15)


def test_dipole_gradient_matches_finite_difference():
    c, a, A = (0.3, -0.2), 0.1, (0.7, -1.1)
    x = np.array([0.3 + 0.5, -0.2 + 0.1])  # |z| = 5.1a
    eps = 1e-7

    def value(p):
        return pot.dipole_sum(c, a, A, p)[0]

    fd = np.array(
        [
            (value(x + [eps, 0]) - value(x - [eps, 0])) / (2 * eps),
            (value(x + [0, eps]) - value(x - [0, eps])) / (2 * eps),
        ]
    )
    g = pot.dipole_sum(c, a, A, x, grad=True)[0]
    assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6


def test_dipole_decay_rates():
    c, a, A = (0, 0), 0.05, (0.3, 0.8)
    z = np.array([0.4, 0.3])
    v1 = pot.dipole_sum(c, a, A, z)[0]
    assert pot.dipole_sum(c, a, A, 2 * z)[0] == pytest.approx(v1 / 2, rel=1e-12)
    g1 = np.linalg.norm(pot.dipole_sum(c, a, A, z, grad=True)[0])
    g2 = np.linalg.norm(pot.dipole_sum(c, a, A, 2 * z, grad=True)[0])
    assert g2 == pytest.approx(g1 / 4, rel=1e-12)


def test_dipole_zero_flux():
    c, a, A = np.array([0.2, 0.1]), 0.05, (1.3, -0.4)
    n = 1024
    theta = (np.arange(n) + 0.5) / n * 2 * np.pi
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = c[None, :] + 2 * a * normals
    grads = pot.dipole_sum(c, a, A, pts, grad=True)
    flux = (grads * normals).sum() * (2 * np.pi * 2 * a / n)
    assert abs(flux) < 1e-10


def test_dipole_inside_hole_rejected():
    c, a, A = (0, 0), 0.1, (1.0, 0.0)
    with pytest.raises(ValueError, match="inside"):
        pot.dipole_sum(c, a, A, (0.05, 0.0))
    with pytest.raises(ValueError, match="inside"):
        pot.dipole_sum(c, a, A, (0.0, 0.01), grad=True)


@pytest.mark.parametrize("seed", range(5))
def test_dipole_sum_matches_real_arithmetic_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    a = rng.uniform(0.005, 0.05)
    centers = rng.uniform(0.0, 1.0, (n, 2))
    vectors = rng.standard_normal((n, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, (n, 4))
    radius = a * np.array([1.0, 1.0 + 1e-9, 1.5, 4.0])
    near = (centers[:, None, :] + radius[None, :, None] * np.stack(
        [np.cos(theta), np.sin(theta)], axis=2)).reshape(-1, 2)
    far = rng.uniform(-1.0, 1.0, (20, 2)) * 1e3
    bulk = rng.uniform(-0.5, 1.5, (300, 2))
    pts = np.concatenate([near, far, bulk])
    r = np.hypot(*(pts[:, None, :] - centers[None, :, :]).transpose(2, 0, 1))
    pts = pts[(r >= a).all(axis=1)]
    r = r[(r >= a).all(axis=1)]
    # roundoff scale per point: sum over holes of |q| / |z|^k
    qmag = a * a * np.hypot(vectors[:, 0], vectors[:, 1])
    val_scale = (qmag / r).sum(axis=1)
    grad_scale = (qmag / r**2).sum(axis=1)
    val = pot.dipole_sum(centers, a, vectors, pts)
    grad = pot.dipole_sum(centers, a, vectors, pts, grad=True)
    # a^2 sum_j A_j . z / |z|^2 is the m = 1 sum of the vectors a^2 A_j, its
    # gradient the m = 2 one
    ref_val, ref_grad = (pair_sum_reference(pts, centers, a * a * vectors, m)[0] for m in (1, 2))
    assert np.all(np.abs(val - ref_val) <= TOL * val_scale)
    assert np.all(np.abs(grad - ref_grad) <= TOL * grad_scale[:, None])


def test_dipole_sum_inside_hole_rejected():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    vectors = np.array([[1.0, 0.5], [-0.3, 0.2]])
    a = 0.1
    inside = np.array([[0.3, 0.0], [1.0, a * (1.0 - 1e-9)]])
    on_boundary = np.array([[0.0, a], [1.0 - a, 0.0]])
    for grad in (False, True):
        with pytest.raises(ValueError, match="evaluation point inside a hole"):
            pot.dipole_sum(centers, a, vectors, inside, grad=grad)
        assert np.all(np.isfinite(pot.dipole_sum(centers, a, vectors, on_boundary, grad=grad)))
