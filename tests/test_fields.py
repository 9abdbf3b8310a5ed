from __future__ import annotations

import numpy as np
import pytest

from conftest import point_vortex, traced_peak
from porousflow import euler as eu
from porousflow import fields, kernels
from porousflow import potential as pot
from porousflow import reflections as refl
from porousflow.fields import (
    ScalarGridField,
    VectorGridField,
    fmt,
    irfft2_rows,
    make_grid,
    perp,
    rasterize,
    rfft2_rows,
)
from porousflow.geometry import Box, build_lattice, lattice_fraction
from references import stream_gradient


def test_cell_centers_layout():
    g = make_grid((0.0, 0.0, 1.0, 0.5), 0.25)
    xs, ys = g.cell_centers()
    assert np.allclose(xs, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(ys, [0.125, 0.375])


def test_integral_and_support():
    g = make_grid((0, 0, 1, 1), 0.25)
    g.values[1, 2] = 3.0
    centers, vals = g.nonzero_cells()
    assert centers.tolist() == [[0.375, 0.625]]
    assert vals.sum() * g.h**2 == pytest.approx(3.0 * 0.0625)
    assert g.support_box() == (0.25, 0.5, 0.5, 0.75)
    assert make_grid((0, 0, 1, 1), 0.25).support_box() is None
    assert make_grid((0, 0, 1, 1), 0.25).support_slices() is None


def test_support_box_matches_nonzero_cells():
    # the row/column scan gives the box of the full nonzero-index scan bit for bit
    rng = np.random.default_rng(4)
    for shape, cells in (((9, 7), [(0, 0)]), ((9, 7), [(8, 6)]), ((9, 7), [(3, 6), (8, 0)]),
                         ((40, 33), None)):
        g = ScalarGridField(np.array([-1.3, 0.7]), 0.1, np.zeros(shape))
        if cells is None:
            g.values[rng.random(shape) < 0.01] = -2.5
        else:
            for c in cells:
                g.values[c] = 1.0
        ix, iy = np.nonzero(g.values)
        expected = tuple(float(v) for v in (
            g.origin[0] + ix.min() * g.h, g.origin[1] + iy.min() * g.h,
            g.origin[0] + (ix.max() + 1) * g.h, g.origin[1] + (iy.max() + 1) * g.h,
        ))
        assert g.support_box() == expected
        assert g.support_slices() == (slice(ix.min(), ix.max() + 1), slice(iy.min(), iy.max() + 1))


def test_bilinear_reproduces_linear_fields():
    g = make_grid((0, 0, 1, 1), 0.05)
    xs, ys = g.cell_centers()
    g.values = 2.0 * xs[:, None] - 3.0 * ys[None, :] + 0.5
    pts = np.array([[0.333, 0.47], [0.5, 0.5], [0.81, 0.12]])
    vals = g.sample_bilinear(pts)
    assert np.allclose(vals, 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5, atol=1e-12)


@pytest.mark.parametrize("profile", [
    fields.radial_bump((0.3, -0.2), 0.45, 1.5, power=2),
    fields.radial_bump((0.3, -0.2), 0.45, 0.04, power=3),
    fields.disk_indicator((0.3, -0.2), 0.45, 2.0),
], ids=["bump2", "bump3", "disk"])
@pytest.mark.parametrize("box", [
    (-1.0, -1.0, 1.0, 1.0),  # the support inside the grid
    (0.1, -0.9, 1.1, 0.0),  # crossing the left and top edges
    (1.0, 1.0, 2.0, 2.0),  # wholly outside
], ids=["inside", "edge", "outside"])
def test_rasterize_matches_whole_grid_evaluation(profile, box):
    # only the support box widened by one cell is evaluated; the rest stays 0
    h = 1.0 / 64.0
    g = rasterize(box, h, profile)
    xs, ys = g.cell_centers()
    whole = profile(*np.meshgrid(xs, ys, indexing="ij"))
    assert g.values.shape == whole.shape
    assert np.array_equal(g.values, whole)
    assert np.any(whole) == (box[0] < 0.75)


def test_perp_rotates_the_last_axis():
    assert np.array_equal(perp(np.array([1.0, 2.0])), [-2.0, 1.0])
    rng = np.random.default_rng(5)
    for shape in ((2,), (7, 2), (3, 4, 2)):
        g = rng.standard_normal(shape)
        p = perp(g)
        assert p.shape == shape
        assert np.array_equal(p[..., 0], -g[..., 1])
        assert np.array_equal(p[..., 1], g[..., 0])


def test_velocities_are_perp_of_gradients():
    src = point_vortex(0.5, 2.0, 2.0)
    cfg = build_lattice(2, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    stream = refl.run_reflections(src, cfg, 3)
    homog = eu.HomogenizedSetting(lattice_fraction(cfg, make_grid((0.0, 0.0, 1.0, 1.0), 1 / 16)))
    batch = np.array([[0.3, 1.4], [-0.6, 0.2], [1.7, -0.4]])
    for x in (batch[0], batch):
        u = pot.velocity0_eval(src, x)
        assert u.shape == x.shape
        assert np.array_equal(u, perp(pot.grad_psi0_eval(src, x)))
    for setting, gradient in (
        (eu.PerforatedSetting(cfg, 3), stream_gradient(stream, batch)),
        (homog, pot.grad_psi0_eval(src, batch) + homog.correction_grad(batch, src)),
    ):
        assert np.array_equal(eu.velocity(batch, src, setting), perp(gradient))


def test_fmt_writes_numpy_floats_as_plain_numbers():
    # repr of a numpy 2 scalar is 'np.float64(0.1)'; a CSV cell holds the number
    assert fmt(np.float64(0.1)) == "0.1"
    assert fmt(0.1) == repr(0.1)


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        ScalarGridField(np.zeros(2), -1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ScalarGridField(np.zeros(2), 0.1, np.array([np.inf])[None, :])
    with pytest.raises(ValueError):
        VectorGridField(np.zeros(2), 0.1, np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(16, 12), (15, 13), (2, 16, 13), (2, 15, 12)])
@pytest.mark.parametrize("where", ["first", "middle", "last", "all"])
def test_pruned_transforms_equal_numpy_bit_for_bit(shape, where):
    # even and odd axes, batched planes, row ranges at both edges: the
    # pruned forward transform is rfft2 and the row-cropped inverse is rows
    # of irfft2, equal to the last bit on numpy's axis order
    nx, ny = shape[-2:]
    rows = {"first": slice(0, 4), "middle": slice(5, 9), "last": slice(nx - 3, nx),
            "all": slice(0, nx)}[where]
    rng = np.random.default_rng(nx * ny)
    values = np.zeros(shape)
    values[..., rows, :] = rng.standard_normal(values[..., rows, :].shape)
    spec = rfft2_rows(values, rows)
    assert np.array_equal(spec, np.fft.rfft2(values))
    full = np.fft.irfft2(spec, s=(nx, ny))
    assert np.array_equal(irfft2_rows(spec.copy(), ny, rows), full[..., rows, :])
    assert np.array_equal(irfft2_rows(spec, ny), full)


@pytest.mark.parametrize("shape", [(16, 12), (15, 13), (2, 16, 13), (2, 15, 12)])
def test_inverse_over_row_blocks_writes_into_the_spectrum(shape, monkeypatch, taken_blocks):
    # blocks of two rows, the last one short for even nx: still the rows of
    # irfft2 bit for bit, held in the spectrum's own memory
    nx, ny = shape[-2:]
    monkeypatch.setattr(kernels, "BLOCK", 2 * 16 * (ny // 2 + 1))
    spec = np.fft.rfft2(np.random.default_rng(nx * ny).standard_normal(shape))
    full = np.fft.irfft2(spec, s=(nx, ny))
    rows = slice(1, nx - 2)
    out = irfft2_rows(spec, ny, rows)
    assert [len(call) for call in taken_blocks] == [(nx - 2) // 2]
    assert np.array_equal(out, full[..., rows, :]) and np.shares_memory(out, spec)


def test_inverse_over_row_blocks_holds_one_block_copy():
    # each block's copy is freed before the next is made: the transforms
    # write into the spectrum, so the peak is one BLOCK (two when a copy
    # outlived its pass)
    spec = np.fft.rfft2(np.random.default_rng(4).standard_normal((1280, 512)))
    _, peak = traced_peak(lambda: irfft2_rows(spec, 512))
    assert peak < 1.5 * kernels.BLOCK


@pytest.mark.parametrize("shape", [(16, 12), (15, 13), (16, 13), (15, 12)])
def test_multipliers_on_column_blocks_are_the_whole_grid_columns(shape):
    # the one rule for the zeroed modes: xi = 0 and the Nyquist lines of an
    # even axis, whichever block of columns holds them
    nx, ny = shape
    kx, ky = fields.wavenumbers(shape, 0.1)
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0
    if nx % 2 == 0:
        k2[nx // 2, :] = np.inf
    if ny % 2 == 0:
        k2[:, -1] = np.inf
    whole = (kx, ky, kx / k2, ky / k2)
    for got, ref in zip(fields.multipliers(shape, 0.1), whole):
        assert np.array_equal(got, ref)
    for start in range(0, ny // 2 + 1, 3):
        cols = slice(start, start + 3)
        got = fields.multipliers(shape, 0.1, cols)
        assert np.array_equal(got[0], kx)
        for a, ref in zip(got[1:], whole[1:]):
            assert np.array_equal(a, ref[:, cols])


def test_vector_field_is_plane_backed_in_any_layout():
    rng = np.random.default_rng(2)
    interleaved = rng.standard_normal((6, 5, 2))  # C-order (nx, ny, 2)
    planes = np.ascontiguousarray(np.moveaxis(interleaved, 2, 0))
    a = VectorGridField(np.zeros(2), 0.1, interleaved)
    b = VectorGridField(np.zeros(2), 0.1, np.moveaxis(planes, 0, 2))
    for field in (a, b):
        assert field.values.shape == (6, 5, 2)
        assert np.array_equal(field.values, interleaved)
        assert field.planes.flags.c_contiguous
        assert np.shares_memory(field.values, field.planes)
    assert np.shares_memory(b.planes, planes)  # already planes: not copied
    assert np.array_equal(a.sample_bilinear([[0.23, 0.31]]), b.sample_bilinear([[0.23, 0.31]]))


def test_vector_csv_is_the_same_from_both_layouts(tmp_path):
    rng = np.random.default_rng(3)
    interleaved = rng.standard_normal((7, 4, 2))
    origin = np.array([-0.3, 0.2])
    planes = np.moveaxis(np.ascontiguousarray(np.moveaxis(interleaved, 2, 0)), 0, 2)
    VectorGridField(origin, 0.125, interleaved).to_csv(tmp_path / "a.csv")
    VectorGridField(origin, 0.125, planes).to_csv(tmp_path / "b.csv")
    # the per-cell rows of the C-order (nx, ny, 2) array, written directly
    lines = ["origin_x,origin_y,h,nx,ny,components", "-0.3,0.2,0.125,7,4,2"]
    lines += [f"{fmt(gx)},{fmt(gy)}" for gx, gy in interleaved.reshape(-1, 2)]
    reference = ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "a.csv").read_bytes() == reference
    assert (tmp_path / "b.csv").read_bytes() == reference
