from __future__ import annotations

import numpy as np
import pytest

from porousflow import fields
from porousflow import homogenized as hom
from porousflow import potential as pot
from porousflow.fields import VectorGridField, make_grid, radial_bump, rasterize
from porousflow.geometry import Box, build_lattice, lattice_fraction

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
    direct = hom.apply_l_direct(sol.grad, k, targets)
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


def test_gradient_multipliers_cache_is_bounded():
    maxsize = fields.gradient_multipliers.cache_info().maxsize
    assert maxsize is not None
    for n in range(maxsize + 3):
        fields.gradient_multipliers((16 + n, 12), 0.1)
        assert fields.gradient_multipliers.cache_info().currsize <= maxsize


def test_gradient_multipliers_are_read_only():
    # one cached set is shared by every call on the grid: no caller may write it
    for shape in ((16, 12), (15, 11)):
        for a in fields.gradient_multipliers(shape, 0.1):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0


def test_solve_zero_k_converges_immediately():
    f = world_f()
    k = make_grid(WORLD, H)
    sol = hom.solve_psic(f, k)
    assert sol.iterations == 1
    g0 = pot.grad_psi0_on_grid(f)
    assert np.abs(sol.grad.values - g0.values).max() == 0.0


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


def test_velocity_c_radial_value():
    # k = 0, f = unit disk of mass pi: u = perp-grad of the radial solution,
    # mass/(2 pi r) outside the disk and r/2 inside
    h = 1 / 128
    from porousflow.fields import disk_indicator

    box = (-2.5, -2.5, 2.5, 2.5)
    f = rasterize(box, h, disk_indicator((0, 0), 1.0))
    sol = hom.solve_psic(f, make_grid(box, h))
    u = hom.velocity_c(sol, np.array([2.0, 0.0]))
    assert np.allclose(u, [0.0, 0.25], atol=2e-3)
    u2 = hom.velocity_c(sol, np.array([0.5, 0.0]))
    assert np.allclose(u2, [0.0, 0.25], atol=2e-3)


def test_velocity_c_is_rotated_gradient_and_nearly_divergence_free():
    # the construction is exact: u = (-g2, g1) of the interpolated gradient;
    # the interpolant's own divergence is an O(h^2 / feature-scale) residual
    # of the cross-derivative consistency, small but not machine zero
    f = world_f()
    k = world_k(0.04)
    sol = hom.solve_psic(f, k, tol=1e-10)
    rng = np.random.default_rng(1)
    pts = rng.random((200, 2)) * 2.0 - 1.0
    u = hom.velocity_c(sol, pts)
    g = sol.grad.sample_bilinear(pts)
    assert np.abs(u - np.stack([-g[:, 1], g[:, 0]], axis=1)).max() == 0.0
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


def test_velocity_c_out_of_grid():
    f = world_f()
    sol = hom.solve_psic(f, make_grid(WORLD, H))
    with pytest.raises(ValueError, match="outside"):
        hom.velocity_c(sol, np.array([5.0, 0.0]))


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
    norm_f = world_f().l1_norm() + world_f().inf_norm()
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
    got = hom.apply_l_direct(g, k, targets)
    ref = _pv_reference(k, g, targets)
    assert (k.nonzero_cell_index(targets) >= 0).sum() > on_cells.shape[0]
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def _iterate_on_cells_reference(centers, kvals, h, grad0, tol, max_iter=50):
    """The Euler full solve as a standalone loop without a contraction guard."""
    own = np.arange(centers.shape[0])
    grad = grad0.copy()
    ref = max(float(np.sqrt((grad0**2).sum() * h * h)), 1e-300)
    for _ in range(max_iter):
        w = 2.0 * kvals[:, None] * grad
        corr = hom.k2_kernel_sum(centers, w, h, centers, own=own)
        corr += 0.5 * w
        new = grad0 - corr
        inc = float(np.sqrt(((new - grad) ** 2).sum() * h * h)) / ref
        grad = new
        if inc < tol:
            break
    return grad


def test_solve_on_cells_matches_reference_iteration():
    k = lattice_fraction(build_lattice(4, 0.1, Box(0, 0, 1, 1)), make_grid((0, 0, 1, 1), 1 / 16))
    centers, kvals = k.nonzero_cells()
    grad0 = np.random.default_rng(3).standard_normal(centers.shape)
    for tol in (1e-6, 1e-12):
        got = hom.solve_on_cells(grad0, k, tol)
        ref = _iterate_on_cells_reference(centers, kvals, k.h, grad0, tol)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(got - grad0).max() > 1e-3 * np.abs(grad0).max()


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
