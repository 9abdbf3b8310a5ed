from __future__ import annotations

import numpy as np
import pytest

from conftest import traced_peak
from porousflow import fields
from porousflow import homogenized as hom
from porousflow import kernels
from porousflow import potential as pot
from porousflow.fields import VectorGridField, make_grid, perp, radial_bump, rasterize
from porousflow.geometry import Box, build_lattice, lattice_fraction
from references import (TABLE, apply_l_direct, fixed_point, spectral_fixed_point, sweep_difference,
                        sweep_reference)

WORLD = (-2.0, -2.0, 2.0, 2.0)
H = 1.0 / 64.0


def world_f(h=H):
    return rasterize(WORLD, h, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))


def world_k(amp, h=H):
    return rasterize(WORLD, h, radial_bump((0.0, 0.0), 0.5, amp, power=3))


def radial_vector_field(h=H, radius=0.8):
    """Smooth compactly supported gradient field g(r) r-hat with g(0) = 0."""
    grid = make_grid(WORLD, h)
    gx, gy = np.meshgrid(*grid.cell_centers(), indexing="ij")
    rr = np.hypot(gx, gy)
    prof = np.where(rr < radius, rr * (1 - (np.minimum(rr, radius) / radius) ** 2) ** 2, 0.0)
    with np.errstate(invalid="ignore"):
        ux = np.where(rr > 0, prof * gx / np.where(rr > 0, rr, 1.0), 0.0)
        uy = np.where(rr > 0, prof * gy / np.where(rr > 0, rr, 1.0), 0.0)
    return VectorGridField(grid.origin, h, np.stack([ux, uy], axis=2))


def test_apply_l_zero_k():
    g = radial_vector_field()
    out = hom.apply_l_spectral(g, make_grid(WORLD, H))
    assert np.abs(out.values).max() == 0.0


def test_apply_l_divergence_consistency():
    # Fourier-side identity: div(output) equals div(k M g) = div(2 k g) mode by mode
    g = radial_vector_field()
    k = world_k(0.04)
    out = hom.apply_l_spectral(g, k)
    w = 2.0 * k.values[:, :, None] * g.values
    nx, ny = k.shape
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=H)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(ny, d=H)[None, :]
    div_out = kx * np.fft.fft2(out.values[:, :, 0]) + ky * np.fft.fft2(out.values[:, :, 1])
    div_w = kx * np.fft.fft2(w[:, :, 0]) + ky * np.fft.fft2(w[:, :, 1])
    div_out[0, 0] = div_w[0, 0] = 0.0
    # the unpaired Nyquist modes are dropped by the operator by convention
    div_w[nx // 2, :] = div_out[nx // 2, :] = 0.0
    div_w[:, ny // 2] = div_out[:, ny // 2] = 0.0
    assert np.abs(div_out - div_w).max() <= 1e-10 * max(np.abs(div_w).max(), 1e-300)


def test_apply_l_radial_oracle():
    # independent 1D oracle for radial data: the output is the radial field
    # psi'(r) r-hat with psi'(r) = (1/r) int_0^r d(s w)/ds ds, computed by a
    # fine cumulative trapezoid quadrature of the analytic profiles; the
    # operator output is read off exactly at grid points along a center row
    def kprof(r, amp=0.04, radius=0.5, p=4):
        u = np.minimum((r / radius) ** 2, 1.0)
        return amp * np.where(r < radius, (1 - u) ** p, 0.0)

    def gprof(r, radius=0.8, p=3):
        u = np.minimum((r / radius) ** 2, 1.0)
        return np.where(r < radius, r * (1 - u) ** p, 0.0)

    grid = make_grid(WORLD, H)
    gx, gy = np.meshgrid(*grid.cell_centers(), indexing="ij")
    rr = np.hypot(gx, gy)
    prof = gprof(rr)
    with np.errstate(invalid="ignore"):
        ux = np.where(rr > 0, prof * gx / np.where(rr > 0, rr, 1.0), 0.0)
        uy = np.where(rr > 0, prof * gy / np.where(rr > 0, rr, 1.0), 0.0)
    g = VectorGridField(grid.origin, H, np.stack([ux, uy], axis=2))
    k = make_grid(WORLD, H)
    k.values = kprof(rr)
    out = hom.apply_l_spectral(g, k)
    nx, ny = k.shape
    iy0 = ny // 2
    xs, ys = k.cell_centers()
    ixs = np.arange(nx // 2 + 2, nx // 2 + int(0.9 / H))
    radii = np.hypot(xs[ixs], ys[iy0])
    rf = np.linspace(0.0, 1.2, 20001)
    sw = rf * 2.0 * kprof(rf) * gprof(rf)
    dsw = np.gradient(sw, rf)
    cums = np.concatenate([[0.0], np.cumsum(0.5 * (dsw[1:] + dsw[:-1]) * np.diff(rf))])
    oracle_1d = np.interp(radii, rf, cums / np.maximum(rf, 1e-12))
    expected_x = oracle_1d * xs[ixs] / radii
    got_x = out.values[ixs, iy0, 0]
    assert np.abs(got_x - expected_x).max() < 1e-4 * np.abs(oracle_1d).max()


def test_apply_l_backends_agree():
    # pad factor 8 keeps the periodization tail of the spectral route well
    # below the quadrature error of the direct route
    h = 1 / 64
    f = rasterize((-4, -4, 4, 4), h, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
    k = rasterize((-4, -4, 4, 4), h, radial_bump((0.0, 0.0), 0.5, 0.04, power=3))
    g0 = pot.grad_psi0_on_grid(f)
    sol = hom.solve_psic_from_grad(g0, k)
    spec = hom.apply_l_spectral(sol.grad, k)
    rng = np.random.default_rng(5)
    ang = rng.random(200) * 2 * np.pi
    rad = np.sqrt(rng.random(200)) * 0.8
    ix, iy, _ = k.cell_index(np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1))
    xs, ys = k.cell_centers()
    targets = np.stack([xs[ix], ys[iy]], axis=1)
    direct = apply_l_direct(sol.grad, k, targets)
    rel = np.linalg.norm(spec.values[ix, iy] - direct) / np.linalg.norm(direct)
    assert rel < 1e-3


def test_apply_l_padding_guard():
    h = 1 / 32
    k = rasterize((-1, -1, 1, 1), h, radial_bump((0.0, 0.0), 0.8, 0.04))
    g = VectorGridField(np.array([-1.0, -1.0]), h, np.ones((64, 64, 2)))
    with pytest.raises(ValueError, match="padding"):
        hom.apply_l_spectral(g, k)


def _apply_l_fft2(g, k):
    """The operator on the full complex spectrum (fft2/ifft2), with the same
    zero-mode, Nyquist and box-mean conventions: the reference for the
    real-transform operator, with w = k M g = 2 k g."""
    w = 2.0 * k.values[:, :, None] * g.values
    nx, ny = k.shape
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=g.h)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(ny, d=g.h)[None, :]
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0
    div_hat = (kx * np.fft.fft2(w[:, :, 0]) + ky * np.fft.fft2(w[:, :, 1])) / k2
    div_hat[0, 0] = 0.0
    if nx % 2 == 0:
        div_hat[nx // 2, :] = 0.0
    if ny % 2 == 0:
        div_hat[:, ny // 2] = 0.0
    out = np.stack([np.fft.ifft2(kx * div_hat).real, np.fft.ifft2(ky * div_hat).real], axis=2)
    return out + w.sum(axis=(0, 1)) / (2.0 * nx * ny)


@pytest.mark.parametrize("shape", [(48, 48), (45, 45), (48, 39)])
def test_apply_l_spectral_matches_complex_fft_reference(shape):
    # even x even, odd x odd and a non-square even x odd box; random g has
    # content up to the Nyquist lines
    nx, ny = shape
    h = 0.05
    rng = np.random.default_rng(nx * ny)
    k = make_grid((0.0, 0.0, nx * h, ny * h), h)
    k.values[nx // 3: nx // 3 + nx // 4, ny // 3: ny // 3 + ny // 4] = 0.05 * rng.random(
        (nx // 4, ny // 4)
    )
    g = VectorGridField(k.origin, h, rng.standard_normal((nx, ny, 2)))
    got = hom.apply_l_spectral(g, k).values
    ref = _apply_l_fft2(g, k)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _apply_l_rfft2(g, k):
    """The operator with the whole-grid rfft2/irfft2 of contiguous (2, nx, ny)
    components stacked from g: the form before plane storage and row pruning,
    which took the same operations in the same order."""
    w = np.stack([g.values[..., 0], g.values[..., 1]]) * (hom.M_DISK * k.values)
    kx, ky, mx, my = fields.multipliers(k.shape, g.h)
    w_hat = np.fft.rfft2(w)
    div_hat = mx * w_hat[0] + my * w_hat[1]
    out = np.moveaxis(np.fft.irfft2(np.stack([kx * div_hat, ky * div_hat]), s=k.shape), 0, 2)
    return out + w.sum(axis=(1, 2)) / (2.0 * k.values.size)


@pytest.mark.parametrize("shape", [(48, 48), (45, 45), (48, 39)])
def test_apply_l_spectral_equals_whole_grid_transforms(shape):
    nx, ny = shape
    h = 0.05
    rng = np.random.default_rng(nx + ny)
    k = make_grid((0.0, 0.0, nx * h, ny * h), h)
    k.values[nx // 3: nx // 3 + nx // 4, ny // 3: ny // 3 + ny // 4] = 0.05 * rng.random(
        (nx // 4, ny // 4)
    )
    g = VectorGridField(k.origin, h, rng.standard_normal((nx, ny, 2)))
    assert np.array_equal(hom.apply_l_spectral(g, k).values, _apply_l_rfft2(g, k))
    zero = make_grid((0.0, 0.0, nx * h, ny * h), h)
    assert not hom.apply_l_spectral(g, zero).values.any()


def _check_box_operator(k, g):
    """The box operator against the whole-grid output of apply_l_spectral:
    its convolution on the box, and its norm as the box sum <w, L q> with the
    mean's nx ny |mean|^2 taken off."""
    full = hom.apply_l_spectral(g, k).planes
    op = hom._BoxL(k, g.h, g.values.shape[:2])
    q = g.planes[op.where]
    lq = op(q)
    on_box = full[op.where]
    assert np.abs(lq - on_box).max() <= 1e-13 * np.abs(on_box).max()
    norm = np.sqrt(np.vdot(full, full))
    assert op.norm(q, lq) == pytest.approx(norm, rel=1e-13)
    assert np.sqrt(np.vdot(op.km * q, lq)) > (1.0 + 1e-6) * norm  # the mean's share counts


@pytest.mark.parametrize("shape", [(48, 48), (45, 45), (48, 39)])
def test_spectral_norm_and_rows_match_the_whole_grid_inverse(shape):
    nx, ny = shape
    h = 0.05
    rng = np.random.default_rng(nx - ny)
    k = make_grid((0.0, 0.0, nx * h, ny * h), h)
    k.values[nx // 3: nx // 3 + nx // 4, ny // 3: ny // 3 + ny // 4] = 0.05 * rng.random(
        (nx // 4, ny // 4)
    )
    g = VectorGridField(k.origin, h, 1.0 + rng.standard_normal((nx, ny, 2)))
    _check_box_operator(k, g)


def test_box_operator_at_the_minimal_padding():
    # nx = 3 bx: the support's clearance equals its extent, the least that
    # check_padding admits, so the kernel's 2 bx - 1 displacements per axis
    # cover the most of the grid's 3 bx
    n, b, h = 36, 12, 0.05
    rng = np.random.default_rng(n)
    k = make_grid((0.0, 0.0, n * h, n * h), h)
    k.values[b: 2 * b, b: 2 * b] = 0.05 * (0.5 + rng.random((b, b)))
    g = VectorGridField(k.origin, h, 1.0 + rng.standard_normal((n, n, 2)))
    op = hom._BoxL(k, g.h, g.values.shape[:2])
    assert op.km.shape == (b, b) and op.w.shape[1:] == (2 * b, 2 * b)  # fast lengths of 2b - 1
    _check_box_operator(k, g)


def _box_case(shape, b=None):
    """k on an (nx, ny) grid, nonzero on a (nx // 4, ny // 4) block (or a
    b x b block at the minimal padding nx = 3 b), and a g to go with it."""
    nx, ny = shape
    h = 0.05
    rng = np.random.default_rng(nx * ny)
    k = make_grid((0.0, 0.0, nx * h, ny * h), h)
    bx, by = (b, b) if b else (nx // 4, ny // 4)
    x0, y0 = (b, b) if b else (nx // 3, ny // 3)
    k.values[x0: x0 + bx, y0: y0 + by] = 0.05 * (0.5 + rng.random((bx, by)))
    return k, VectorGridField(k.origin, h, rng.standard_normal((nx, ny, 2)))


@pytest.mark.parametrize("shape, b", [((48, 48), None), ((45, 45), None), ((48, 39), None),
                                      ((36, 36), 12)])
def test_box_kernel_is_the_whole_grid_kernel_on_the_kept_displacements(shape, b):
    # each entry of L's kernel on the box, back in space, is the grid's own
    # periodic kernel (the inverse whole-grid transform of its multiplier) at
    # every displacement |d| < b per axis, wrapped to the back when
    # negative, and 0 at the box's other cells
    k, g = _box_case(shape, b)
    op = hom._BoxL(k, g.h, g.values.shape[:2])
    size, extent = op.w.shape[1:], op.km.shape
    kx, ky, mx, my = fields.multipliers(k.shape, k.h)
    whole = {"xx": kx * mx, "xy": kx * my, "yy": ky * my}
    at = []
    for m, b_axis in zip(size, extent):
        i = np.arange(m)
        d = np.where(i < b_axis, i, i - m)
        at.append((d, np.abs(d) < b_axis))
    (dx, keep_x), (dy, keep_y) = at
    keep = keep_x[:, None] & keep_y[None, :]
    assert not keep.all()  # the box has cells beyond the kept displacements
    (xx, xy), (yx, yy) = op.kernel
    assert xy is yx
    for name, spec in (("xx", xx), ("xy", xy), ("yy", yy)):
        on_box = np.fft.irfft2(spec, s=size)
        periodic = np.fft.irfft2(whole[name], s=k.shape)
        ref = np.where(keep, periodic[np.ix_(dx % k.shape[0], dy % k.shape[1])], 0.0)
        assert np.abs(on_box - ref).max() <= 1e-13 * np.abs(ref).max(), name


def _whole_grid_box_kernel(shape, h, extent, size):
    """L's kernel spectra on the box from whole-grid multipliers, each
    product transformed along nx over every column at once: the form the
    column blocks replace, with the multipliers' rule written out here."""
    (nx, ny), (bx, by) = shape, extent
    kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=h)[:, None]
    ky = 2.0 * np.pi * np.fft.rfftfreq(ny, d=h)[None, :]
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0
    if nx % 2 == 0:
        k2[nx // 2, :] = np.inf
    if ny % 2 == 0:
        k2[:, -1] = np.inf
    mx, my = kx / k2, ky / k2
    dx, dy = (pot._wrapped(b, m) for b, m in zip(extent, size))
    spectra = []
    for left, right in ((kx, mx), (kx, my), (ky, my)):
        half = np.fft.rfft(left * right, axis=0)[:bx].conj()
        kern = np.fft.irfft(np.concatenate([half, half[:0:-1].conj()]), n=ny, axis=1)
        planes = kern.take(dx, axis=0, mode="wrap").take(dy, axis=1, mode="wrap")
        planes[np.abs(dx) >= bx] = 0.0
        planes[:, np.abs(dy) >= by] = 0.0
        spectra.append(np.fft.rfft2(planes).real / nx)
    return spectra


@pytest.mark.parametrize("shape, b", [((48, 48), None), ((45, 45), None), ((48, 39), None),
                                      ((39, 48), None), ((36, 36), 12)])
@pytest.mark.parametrize("cols", [1, 5, None])
def test_box_kernel_over_column_blocks_is_the_whole_grid_form_bit_for_bit(shape, b, cols,
                                                                         monkeypatch,
                                                                         taken_blocks):
    # blocks of one spectral column, of five (the last one short) and one
    # block, on even and odd grid sides
    if cols is not None:
        monkeypatch.setattr(kernels, "BLOCK", 8 * cols * shape[0])
    k, g = _box_case(shape, b)
    op = hom._BoxL(k, g.h, g.values.shape[:2])  # its last blocks are the kernel's
    assert len(taken_blocks[-1]) == (1 if cols is None else -(-(shape[1] // 2 + 1) // cols))
    (xx, xy), (_, yy) = op.kernel
    ref = _whole_grid_box_kernel(k.shape, k.h, op.km.shape, op.w.shape[1:])
    for got, want in zip((xx, xy, yy), ref, strict=True):
        assert np.array_equal(got, want)


def test_box_operator_of_the_zero_k():
    # an empty support box: an empty L p of norm 0, and one step of increment 0
    g0 = pot.grad_psi0_on_grid(world_f(SWEEP_H))
    zero = make_grid(WORLD, SWEEP_H)
    op = hom._BoxL(zero, g0.h, g0.values.shape[:2])
    q = g0.planes[op.where]
    lq = op(q)
    assert lq.shape == (2, 0, 0) and op.norm(q, lq) == 0.0
    g0_norm = np.sqrt(np.vdot(g0.planes, g0.planes))
    sums, _, _, increments = hom._fixed_point(q, g0_norm, op, op.norm, g0.h, hom.TOL)
    assert increments == [[0.0]] and sums[0].size == 0


def test_solve_does_not_depend_on_the_layout_of_g0():
    k = world_k(0.04)
    g0 = pot.grad_psi0_on_grid(world_f())
    assert g0.planes.flags.c_contiguous
    interleaved = VectorGridField(g0.origin, g0.h, np.ascontiguousarray(g0.values))
    a = hom.solve_psic_from_grad(g0, k)
    b = hom.solve_psic_from_grad(interleaved, k)
    assert a.increments == b.increments
    assert np.array_equal(a.grad.values, b.grad.values)
    assert np.array_equal(a.first_order.values, b.first_order.values)


def test_solve_zero_k_converges_immediately():
    f = world_f()
    k = make_grid(WORLD, H)
    sol = hom.solve_psic(f, k)
    assert sol.iterations == 1
    g0 = pot.grad_psi0_on_grid(f)
    assert np.abs(sol.grad.values - g0.values).max() == 0.0


def test_zero_k_series_stops_after_one_step():
    # k's support box is empty: one step of increment 0, and no correction
    f = world_f(SWEEP_H)
    g0 = pot.grad_psi0_on_grid(f)
    zero = make_grid(WORLD, SWEEP_H)
    assert hom.expansion_errors(*sweep_g0(f, zero), zero, SWEEP_NORMS) == [(0.0, 0.0, [0.0])] * 3
    with pytest.raises(ValueError, match="support box"):  # g0 on another k's box
        hom.expansion_errors(*sweep_g0(f, world_k(1.0, SWEEP_H)), zero, SWEEP_NORMS)
    sol = hom.solve_psic_from_grad(g0, zero)
    assert sol.increments == [0.0]
    assert np.array_equal(sol.grad.values, g0.values)
    assert np.array_equal(sol.first_order.values, g0.values)


def test_solve_geometric_convergence():
    f = world_f()
    k = world_k(0.04)
    sol = hom.solve_psic(f, k, tol=1e-10)
    assert sol.iterations <= 10
    ratios = [b / a for a, b in zip(sol.increments, sol.increments[1:])]
    assert max(ratios) < 2.0 * 2.0 * 0.04  # contraction like C sup|k|


def test_first_increment_linear_in_k():
    f = world_f()
    g0 = pot.grad_psi0_on_grid(f)
    inc = []
    for amp in (0.02, 0.04):
        corr = hom.apply_l_spectral(g0, world_k(amp))
        inc.append(float(np.sqrt((corr.values**2).sum()) * H))
    assert inc[1] == pytest.approx(2.0 * inc[0], rel=1e-10)


def test_uniqueness_surrogate():
    # iterating from a different initial gradient lands on the same fixed point
    f = world_f()
    k = world_k(0.04)
    g0 = pot.grad_psi0_on_grid(f)
    sol_a = hom.solve_psic_from_grad(g0, k, tol=1e-12)
    perturbed = VectorGridField(g0.origin.copy(), g0.h, g0.values * 0.0)
    grad = perturbed
    for _ in range(60):
        corr = hom.apply_l_spectral(grad, k)
        grad = VectorGridField(g0.origin, g0.h, g0.values - corr.values)
    diff = np.abs(grad.values - sol_a.grad.values).max()
    assert diff < 1e-11


def test_non_contraction_detected():
    f = world_f()
    k = world_k(0.04)
    k.values *= 40.0  # sup k = 1.6: far beyond the contraction regime
    with pytest.raises(RuntimeError, match="not contracting"):
        hom.solve_psic(f, k)


def test_volume_fraction_bound_enforced():
    k = world_k(0.04)
    with pytest.raises(ValueError, match="eps0"):
        # pi 0.2^2 = 0.126 > eps0^2 = 0.0625
        lattice_fraction(build_lattice(4, 0.2, Box(0, 0, 1, 1)), make_grid((0, 0, 1, 1), 1 / 16))
    f = world_f()
    sol = hom.solve_psic(f, k)
    assert sol.iterations >= 1


def test_first_order_is_the_first_iterate():
    f = world_f()
    g0 = pot.grad_psi0_on_grid(f)
    k = world_k(0.04)
    expected = g0.values - hom.apply_l_spectral(g0, k).values
    full = hom.solve_psic_from_grad(g0, k, tol=1e-10)
    assert full.iterations > 1
    assert np.array_equal(full.first_order.values, expected)
    one = hom.solve_psic_from_grad(g0, k, tol=1.0)  # stops after one iteration
    assert one.iterations == 1
    assert np.array_equal(one.first_order.values, expected)
    assert np.array_equal(one.grad.values, expected)


def _assert_close(got, ref, rel=TABLE["expansion_errors"].tol):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


SWEEP_H = 1.0 / 32.0  # the grid of the CLI tests' homog sweep
SWEEP_NORMS = (0.01, 0.02, 0.04)


def sweep_g0(f, k):
    """(g0 on k's support box, ||g0|| over the whole grid), as the sweep
    takes them from f; the empty box for the zero k."""
    return pot.grad_psi0_on_grid(f, window=k.support_slices() or (slice(0, 0),) * 2)


def test_sweep_matches_the_per_norm_reference():
    f, k = world_f(SWEEP_H), world_k(1.0, SWEEP_H)
    rows = hom.expansion_errors(*sweep_g0(f, k), k, SWEEP_NORMS, tol=1e-10)
    assert [len(incs) for _, _, incs in rows] == [5, 6, 7]
    ref = sweep_reference(pot.grad_psi0_on_grid(f), k, SWEEP_NORMS, tol=1e-10)
    assert sweep_difference(rows, ref) <= TABLE["expansion_errors"].tol


@pytest.mark.parametrize("case", ["sweep", "edge", "zero_f"])
def test_windowed_gradient_is_the_whole_grid_gradient_on_the_window(case):
    # the sweep's g0 on k's box, a window on the grid's first rows and last
    # columns, and the zero f: the window bit for bit, the norm to roundoff
    f, k = world_f(SWEEP_H), world_k(1.0, SWEEP_H)
    window = k.support_slices()
    if case == "edge":
        window = (slice(0, 40), slice(100, f.shape[1]))
    elif case == "zero_f":
        f.values[...] = 0.0
    whole = pot.grad_psi0_on_grid(f).planes
    g0, g0_norm = pot.grad_psi0_on_grid(f, window=window)
    assert np.array_equal(g0, whole[(slice(None),) + window])
    ref = np.sqrt(np.vdot(whole, whole))
    assert abs(g0_norm - ref) <= 2e-15 * ref
    assert (ref == 0.0) == (case == "zero_f")


def test_sweep_from_f_memory_within_budget():
    # the homog sweep's 1024^2 grid, from f: the gradient on k's box with its
    # whole-grid norm, then the series. Measured 1.67 whole-grid g0 at the
    # peak; with the whole-grid g0 made and held through the series, 2.61
    h = 1.0 / 256.0
    f, k = world_f(h), world_k(1.0, h)
    whole = 2 * k.values.nbytes  # a whole-grid g0
    rows, peak = traced_peak(lambda: hom.expansion_errors(*sweep_g0(f, k), k, SWEEP_NORMS))
    assert [len(incs) for _, _, incs in rows] == [5, 6, 7]
    assert peak < 2.0 * whole


def test_expansion_errors_memory_within_budget():
    # the series runs on k's box: k M p, its spectrum and the kernel's
    # product with it on the (fast_length(2 bx - 1))^2 box, the three kernel
    # spectra there, the kernel's one-time inverse over bx rows of the grid,
    # and per scale T_c and L T_c on k's box beside L g0: measured 2.17 g0 at
    # the peak (the whole grid's multipliers are not read). The form with
    # each spectrum on the whole grid took 4.4 g0; the 3.0 g0 bound leaves a
    # 1.38x margin over 2.17 g0
    h = 1.0 / 64.0
    k = world_k(1.0, h)
    g0 = sweep_g0(world_f(h), k)
    whole = 2 * k.values.nbytes  # a whole-grid g0
    rows, peak = traced_peak(lambda: hom.expansion_errors(*g0, k, SWEEP_NORMS))
    assert [len(incs) for _, _, incs in rows] == [5, 6, 7]
    assert peak < 3.0 * whole


def test_sweep_series_makes_no_whole_grid_multiplier():
    # the homog sweep's 1024^2 grid: the box kernel takes the multipliers
    # over blocks of spectral columns, so it makes no whole-grid product or
    # transform. Measured 1.60 g0 at the peak; the whole-grid form read 2.08 g0
    h = 1.0 / 256.0
    k = world_k(1.0, h)
    g0 = sweep_g0(world_f(h), k)
    whole = 2 * k.values.nbytes  # a whole-grid g0
    rows, peak = traced_peak(lambda: hom.expansion_errors(*g0, k, SWEEP_NORMS))
    assert [len(incs) for _, _, incs in rows] == [5, 6, 7]
    assert peak < 1.8 * whole


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_solve_matches_the_reference_loop(tol):
    g0 = pot.grad_psi0_on_grid(world_f(SWEEP_H))
    k = world_k(0.04, SWEEP_H)
    sol = hom.solve_psic_from_grad(g0, k, tol=tol)
    grad, first, increments = spectral_fixed_point(g0, k, tol)
    assert sol.iterations == len(increments)
    _assert_close(sol.increments, increments)
    _assert_close(sol.grad.values, grad)
    _assert_close(sol.first_order.values, first)


def test_expansion_sweep_slopes():
    f = world_f()
    g0 = pot.grad_psi0_on_grid(f)
    from porousflow.analysis import fit_exponent

    amps, e0s, ets = [], [], []
    for amp in (0.01, 0.02, 0.04):
        k = world_k(amp)
        sol = hom.solve_psic_from_grad(g0, k, tol=1e-10)
        tilde = sol.first_order
        amps.append(amp)
        e0s.append(float(np.sqrt(((sol.grad.values - g0.values) ** 2).sum()) * H))
        ets.append(float(np.sqrt(((sol.grad.values - tilde.values) ** 2).sum()) * H))
    s0, _ = fit_exponent(amps, e0s)
    s1, _ = fit_exponent(amps, ets)
    assert abs(s0 - 1.0) <= 0.2
    assert abs(s1 - 2.0) <= 0.2


def test_homog_velocity_radial_value():
    # k = 0, f = unit disk of mass pi: u = perp-grad of the radial solution,
    # mass/(2 pi r) outside the disk and r/2 inside
    h = 1 / 128
    from porousflow.fields import disk_indicator

    box = (-2.5, -2.5, 2.5, 2.5)
    f = rasterize(box, h, disk_indicator((0, 0), 1.0))
    sol = hom.solve_psic(f, make_grid(box, h))
    u = perp(sol.grad.sample_bilinear(np.array([2.0, 0.0])))
    assert np.allclose(u, [0.0, 0.25], atol=2e-3)
    u2 = perp(sol.grad.sample_bilinear(np.array([0.5, 0.0])))
    assert np.allclose(u2, [0.0, 0.25], atol=2e-3)


def test_homog_velocity_nearly_divergence_free():
    # u = (-g2, g1) of the bilinear interpolant of the gradient; its own
    # divergence is an O(h^2 / feature-scale) residual of the cross-derivative
    # consistency, small but not machine zero
    f = world_f()
    k = world_k(0.04)
    sol = hom.solve_psic(f, k, tol=1e-10)
    rng = np.random.default_rng(1)
    pts = rng.random((200, 2)) * 2.0 - 1.0
    # exact divergence of the bilinear patch from its corner values
    gv = sol.grad.values
    ix = np.floor((pts[:, 0] - sol.grad.origin[0]) / H - 0.5).astype(int)
    iy = np.floor((pts[:, 1] - sol.grad.origin[1]) / H - 0.5).astype(int)
    tx = (pts[:, 0] - sol.grad.origin[0]) / H - 0.5 - ix
    ty = (pts[:, 1] - sol.grad.origin[1]) / H - 0.5 - iy
    u1 = -gv[:, :, 1]
    u2 = gv[:, :, 0]
    ddx = ((u1[ix + 1, iy] - u1[ix, iy]) * (1 - ty)
           + (u1[ix + 1, iy + 1] - u1[ix, iy + 1]) * ty) / H
    ddy = ((u2[ix, iy + 1] - u2[ix, iy]) * (1 - tx)
           + (u2[ix + 1, iy + 1] - u2[ix + 1, iy]) * tx) / H
    grad_scale = np.abs(np.diff(gv[:, :, 0], axis=0)).max() / H
    assert np.abs(ddx + ddy).max() < 0.05 * grad_scale


def test_modified_curl_recovers_source():
    # discrete curl((I + k Mhat) u_c) approximates f in the interior; for
    # disks Mhat = M = 2I
    h = 1 / 128
    f = rasterize(WORLD, h, radial_bump((1.2, 0.3), 0.45, 1.0, power=3))
    k = world_k(0.04, h)
    sol = hom.solve_psic(f, k, tol=1e-12)
    u = fields.perp(sol.grad.values)
    flux = u + 2.0 * k.values[:, :, None] * u
    curl = np.zeros_like(f.values)
    curl[1:-1, 1:-1] = (
        (flux[2:, 1:-1, 1] - flux[:-2, 1:-1, 1]) / (2 * h)
        - (flux[1:-1, 2:, 0] - flux[1:-1, :-2, 0]) / (2 * h)
    )
    interior = np.zeros_like(f.values, dtype=bool)
    interior[5:-5, 5:-5] = True
    err = np.abs(curl - f.values)[interior].max()
    assert err < 1e-3 * f.values.max()


def test_gradient_uniqueness_across_resolutions():
    # lem-regellip2-style diagnostic: sup |grad psi_c| away from supp k is
    # stable when the k grid is refined
    sups = []
    for h in (1 / 32, 1 / 64):
        f = world_f(h)
        k = world_k(0.04, h)
        sol = hom.solve_psic(f, k, tol=1e-10)
        gx, gy = np.meshgrid(*k.cell_centers(), indexing="ij")
        far = np.hypot(gx, gy) > 0.75  # distance > 0.25 from supp k
        mags = np.hypot(sol.grad.values[..., 0], sol.grad.values[..., 1])
        sups.append(mags[far].max())
    f = world_f()
    norm_f = np.abs(f.values).sum() * f.h**2 + f.inf_norm()
    c_measured = [s / norm_f for s in sups]
    assert abs(c_measured[0] - c_measured[1]) < 0.05 * c_measured[1]


def test_pad_doubling_converges():
    # doubling the padded box changes apply_L on supp k by a small amount,
    # and the change shrinks again when doubling once more
    h = 1 / 32
    vals = {}
    for half in (2.0, 4.0):
        box = (-half, -half, half, half)
        f = rasterize(box, h, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
        k = rasterize(box, h, radial_bump((0.0, 0.0), 0.5, 0.04, power=3))
        g0 = pot.grad_psi0_on_grid(f)
        out = hom.apply_l_spectral(g0, k)
        ix, iy, _ = k.cell_index(np.array([[0.2, 0.1], [-0.3, 0.2], [0.0, -0.4]]))
        xs, ys = k.cell_centers()
        vals[half] = out.values[ix, iy]
    scale = np.abs(vals[4.0]).max()
    assert np.abs(vals[2.0] - vals[4.0]).max() < 5e-3 * scale


def _pv_reference(k, g, targets):
    """Dense PV quadrature of (I |z|^2 - 2 z z^T) w / (2 pi |z|^4) over the
    nonzero k cells, w = k M g = 2 k g built on the whole grid, without the
    cell that holds the target, plus +1/2 w on that cell."""
    w_all = 2.0 * k.values[:, :, None] * g.values
    ix, iy = np.nonzero(k.values)
    w = w_all[ix, iy]
    centers = k.origin + (np.stack([ix, iy], axis=1) + 0.5) * k.h
    tx, ty, _ = k.cell_index(targets)
    z = targets[:, None, :] - centers[None, :, :]
    r2 = (z**2).sum(axis=2)
    own = (ix[None, :] == tx[:, None]) & (iy[None, :] == ty[:, None])
    r2 = np.where(own, 1.0, r2)
    zw = np.einsum("tsi,si->ts", z, w)
    kern = (w[None, :, :] * r2[..., None] - 2.0 * z * zw[..., None]) / r2[..., None] ** 2
    kern[own] = 0.0
    out = kern.sum(axis=1) * k.h**2 / (2.0 * np.pi)
    return out + 0.5 * np.einsum("ts,si->ti", own.astype(float), w)


def test_apply_l_direct_matches_dense_reference():
    h = 1 / 16
    k = rasterize((-1, -1, 1, 1), h, radial_bump((0.1, -0.1), 0.5, 0.04, power=3))
    rng = np.random.default_rng(11)
    g = VectorGridField(k.origin, h, rng.standard_normal(k.shape + (2,)))
    on_cells = k.nonzero_cells()[0][::7]
    off = rng.uniform(-1.0, 1.0, (40, 2))  # in zero cells, nonzero cells and between
    targets = np.concatenate([on_cells, off, [[3.0, 0.2]]])
    got = apply_l_direct(g, k, targets)
    ref = _pv_reference(k, g, targets)
    assert (k.nonzero_cell_index(targets) >= 0).sum() > on_cells.shape[0]
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def _on_cells_case():
    """k on a 16-hole lattice, a random grad0 on its nonzero cells, and the L
    of the Euler full solve there: the PV sum of w = 2 k g without each
    cell's own, plus w / 2."""
    k = lattice_fraction(build_lattice(4, 0.1, Box(0, 0, 1, 1)), make_grid((0, 0, 1, 1), 1 / 16))
    centers, kvals = k.nonzero_cells()
    own = np.arange(centers.shape[0])

    def apply_l(g):
        w = 2.0 * kvals[:, None] * g
        return kernels.pair_sum(centers, centers, w, 2, own=own) * k.h**2 / (2.0 * np.pi) + 0.5 * w

    return k, np.random.default_rng(3).standard_normal(centers.shape), apply_l


def test_solve_on_cells_matches_reference_iteration():
    k, grad0, apply_l = _on_cells_case()
    for tol in (1e-6, 1e-12):
        got = hom.solve_on_cells(grad0, k, tol)
        assert np.abs(got - grad0).max() > 1e-3 * np.abs(grad0).max()
        _assert_close(got, fixed_point(grad0, apply_l, k.h, tol)[0])


def test_solve_on_cells_applies_l_once_per_iteration(monkeypatch):
    # the solution grad0 - L T takes L T from the series' own sum, so the full
    # solve makes one PV application per iteration and none after the last
    k, grad0, apply_l = _on_cells_case()
    calls = []
    k2 = hom.k2_kernel_sum
    monkeypatch.setattr(hom, "k2_kernel_sum", lambda *a, **kw: calls.append(1) or k2(*a, **kw))
    for tol in (1e-6, 1e-12):
        iterations = len(fixed_point(grad0, apply_l, k.h, tol)[2])
        calls.clear()
        hom.solve_on_cells(grad0, k, tol)
        assert len(calls) == iterations > 1


def test_solve_on_cells_rejects_nonpositive_tol():
    k = world_k(0.04, h=1 / 8)
    grad0 = np.ones((np.count_nonzero(k.values), 2))
    with pytest.raises(ValueError, match="tol"):
        hom.solve_on_cells(grad0, k, tol=0.0)


def _correction_case(seed=5):
    """A k with zero cells inside its bounding box and random g on the
    nonzero cells, with the direct phi = -k1 reference of w = 2 k g."""
    h = 1 / 32
    k = rasterize((-1, -1, 1, 1), h, radial_bump((0.1, -0.2), 0.5, 0.04, power=3))
    k.values[30:34, 27:31] = 0.0  # a hole in the middle of the support
    centers, kvals = k.nonzero_cells()
    g = np.random.default_rng(seed).standard_normal(centers.shape)
    w = 2.0 * kvals[:, None] * g
    return k, g, lambda pts: -hom.k1_kernel_sum(centers, w, h, pts)


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("offset", [(0.0, 0.0), (0.4, 0.4), (0.37, -0.71)])
@pytest.mark.parametrize("start, shape", [((20, 25), (13, 9)), ((70, -5), (7, 11))],
                         ids=["overlapping", "far"])
def test_correction_on_grid_matches_direct_sum(step, offset, start, shape, monkeypatch):
    monkeypatch.setattr(hom, "FFT_CELL_PAIRS", 0)  # convolve however small the sum
    k, g, direct = _correction_case()
    # probe cell 0 starts ``start + offset`` cells of k from k's origin; offset 0
    # with an odd step puts probe centers on cell centers (dropped self pairs)
    lo = k.origin + (np.array(start) + np.array(offset)) * k.h
    hi = lo + np.array(shape) * step * k.h
    probe = make_grid((*lo, *hi), step * k.h)
    assert probe.shape == shape
    ref = direct(probe.centers_flat())

    def refused(*args, **kwargs):
        raise AssertionError("grid targets took the direct sum")

    monkeypatch.setattr(hom, "k1_kernel_sum", refused)
    got = hom.correction(k, g, probe)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("ratio", [1.5, 2.0 * (1 + 1e-9), None], ids=["1.5", "near_2", "points"])
def test_correction_falls_back_to_the_direct_sum(ratio):
    k, g, direct = _correction_case()
    probe = make_grid((0.3, -0.4, 0.3 + 11 * 2 * k.h, -0.4 + 9 * 2 * k.h), (ratio or 2.0) * k.h)
    pts = probe.centers_flat()
    expected = direct(pts)
    assert np.array_equal(hom.correction(k, g, pts if ratio is None else probe), expected)
    # the gradient always takes the direct k2 sum
    centers, kvals = k.nonzero_cells()
    grad = -hom.k2_kernel_sum(centers, 2.0 * kvals[:, None] * g, k.h, pts)
    assert np.array_equal(hom.correction(k, g, probe, grad=True), grad)
    # a zero k has no cells to convolve
    zero = make_grid((-1, -1, 1, 1), k.h)
    assert np.array_equal(hom.correction(zero, np.zeros((0, 2)), probe), np.zeros(pts.shape[0]))


def test_correction_convolves_only_when_it_is_less_work(monkeypatch):
    k, g, direct = _correction_case()
    # 41 x 41 probes at k's spacing: a 73 x 73 box against 1681 x 788 pairs
    fine = make_grid((-0.7, -0.8, -0.7 + 41 * k.h, -0.8 + 41 * k.h), k.h)
    # 5 x 5 probes 16 cells apart: a 97 x 97 box against 25 x 788 pairs
    coarse = make_grid((1.1, -0.6, 1.1 + 5 * 16 * k.h, -0.6 + 5 * 16 * k.h), 16 * k.h)
    ref_fine, ref_coarse = direct(fine.centers_flat()), direct(coarse.centers_flat())
    calls = []

    def counted(*args, _fn=hom.k1_kernel_sum):
        calls.append(args[3].shape[0])
        return _fn(*args)

    monkeypatch.setattr(hom, "k1_kernel_sum", counted)
    got = hom.correction(k, g, fine)
    np.testing.assert_allclose(got, ref_fine, rtol=0, atol=1e-12 * np.abs(ref_fine).max())
    assert calls == []
    assert np.array_equal(hom.correction(k, g, coarse), ref_coarse)
    assert calls == [25]
