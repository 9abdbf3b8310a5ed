from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from porousflow import cli, potential, reflections

REFLECT_TWOHOLE = """
[run]
experiment = reflect
[geometry]
kind = twohole
a = 0.02
dmin = 0.4
box = 0 0 1 1
[vorticity]
shape = point
center = 0.5 2.0
amplitude = 2.0
[solver]
reflection_depth = 4
"""

HOMOG_SWEEP = """
[run]
experiment = homog
[solver]
grid_h = 0.03125
tol = 1e-10
[sweep]
values = 0.01 0.02 0.04
"""

EULER_PAIR = """
[run]
experiment = euler
[vorticity]
shape = pair
center = 0.0 0.0
radius = 0.5
amplitude = 3.14159265358979
[euler]
dt = 0.03
t_final = 8.0
blob = 0.02
"""

SWEEP_RATIO = """
[run]
experiment = sweep
[geometry]
n = 2
[vorticity]
shape = point
center = 0.5 2.0
amplitude = 2.0
[analysis]
probe_h = 0.01
[sweep]
mode = ratio
values = 0.1 0.2
"""

DIVCURL_SMALL = """
[run]
experiment = divcurl
[geometry]
kind = lattice
n = 2
epsilon = 0.1
box = 0 0 1 1
[vorticity]
shape = bump
center = 0.5 1.8
radius = 0.3
amplitude = 1.0
grid_h = 0.015625
[solver]
grid_h = 0.03125
[analysis]
probe = 1.3 0.0 2.3 1.0
probe_h = 0.0625
"""

# divcurl with [sweep] values, which sets n: without [geometry] n
DIVCURL_SWEEP = DIVCURL_SMALL.replace("\nn = 2\n", "\n")


def run_cli(tmp_path, text, name="run", extra=()):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / f"{name}_out"
    code = cli.main(["--config", str(cfg), "--out", str(out), *extra])
    return code, out


def test_reflect_twohole_contraction(tmp_path):
    code, out = run_cli(tmp_path, REFLECT_TWOHOLE)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    ratio = summary["results"]["contraction_ratio"]["2.0"]
    expected = summary["results"]["two_hole_expected_ratio"]
    assert ratio == pytest.approx(expected, rel=1e-10)
    assert (out / "dipoles.csv").exists()
    assert (out / "norms.csv").exists()
    assert summary["schema_version"] == "v1"
    # the fixed settings are recorded from their one definition
    from porousflow import analysis, oracle

    assert summary["tolerances"]["oracle_order"] == oracle.ORDER == 8
    assert summary["tolerances"]["eta"] == analysis.ETA == 0.5


def test_reflect_writes_boundary_residual_per_level(tmp_path):
    code, out = run_cli(tmp_path, REFLECT_TWOHOLE)
    assert code == 0
    written = json.loads((out / "summary.json").read_text())["results"]["boundary_residual"]
    cfg = cli.RunConfig(REFLECT_TWOHOLE)
    stream = reflections.run_reflections(
        cli.source_from_config(cfg), cli.geometry_from_config(cfg, 0), 4
    )
    assert written == [stream.boundary_residuals(j)[-1] for j in (1, 2, 3, 4)]


def test_reflect_evaluates_psi0_on_the_ring_once(tmp_path, monkeypatch):
    # the per-level residuals share one psi_0 evaluation, so depth costs one
    # dipole sum per level
    calls = []
    psi0_eval = potential.psi0_eval
    monkeypatch.setattr(potential, "psi0_eval", lambda *a: calls.append(1) or psi0_eval(*a))
    text = REFLECT_TWOHOLE.replace("reflection_depth = 4", "reflection_depth = 50")
    code, out = run_cli(tmp_path, text)
    assert code == 0
    written = json.loads((out / "summary.json").read_text())["results"]["boundary_residual"]
    assert len(written) == 50 and len(calls) == 1


def test_homog_sweep_slopes(tmp_path):
    code, out = run_cli(tmp_path, HOMOG_SWEEP)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["slope_err_psi0"] == pytest.approx(1.0, abs=0.2)
    assert summary["results"]["slope_err_tilde"] == pytest.approx(2.0, abs=0.2)
    rows = (out / "homog_sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "knorm,err_psi0,err_tilde,iterations"
    assert len(rows) == 4
    # each k norm's increments, as the single solve writes them
    increments = summary["results"]["increments"]
    assert [len(incs) for incs in increments] == summary["results"]["iterations"]
    assert [int(row.split(",")[3]) for row in rows[1:]] == summary["results"]["iterations"]
    assert all(incs[-1] < 1e-10 <= incs[-2] for incs in increments)


def test_euler_pair_period(tmp_path):
    code, out = run_cli(tmp_path, EULER_PAIR)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["period_rel_err"] < 0.02


def test_euler_pair_takes_the_fewest_steps_reaching_t_final(tmp_path):
    # ten steps of 0.1 sum to 0.9999999999999999, short of 1.0 by roundoff only
    text = EULER_PAIR.replace("dt = 0.03", "dt = 0.1").replace("t_final = 8.0", "t_final = 1.0")
    code, out = run_cli(tmp_path, text)
    assert code == 0
    rows = (out / "pair_angle.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 11
    assert float(rows[-1].split(",")[0]) == pytest.approx(1.0, rel=1e-12)
    code, out = run_cli(tmp_path, EULER_PAIR, name="default")
    assert code == 0
    assert len((out / "pair_angle.csv").read_text().strip().splitlines()) == 1 + 1 + 267


def test_sweep_ratio_decreasing(tmp_path):
    code, out = run_cli(tmp_path, SWEEP_RATIO)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["decreasing"]
    assert summary["results"]["slope"] > 0.5


def test_oracle_iterations_and_cond_reach_the_outputs(tmp_path):
    code, out = run_cli(tmp_path, SWEEP_RATIO)
    assert code == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    assert header == "aspect,h1_error,oracle_residual,oracle_iterations,oracle_cond"
    assert len(rows) == 2
    for row in rows:
        iterations, cond = row.split(",")[3:]
        assert 0 < int(iterations) <= 25 and 1.0 <= float(cond) < 1.5
    code, out = run_cli(tmp_path, DIVCURL_SMALL, name="divcurl")
    assert code == 0
    record = json.loads((out / "gamma_n2.json").read_text())
    assert record["used_oracle"] and 0 < record["oracle_iterations"] <= 25
    assert 1.0 <= record["oracle_cond"] < 1.5


def test_sweep_probe_without_fluid_cells_exit_2(tmp_path):
    # one probe cell wider than the lattice covers a hole at every aspect:
    # refused before sweep.csv, instead of a table of zero errors
    code, out = run_cli(tmp_path, SWEEP_RATIO.replace("probe_h = 0.01", "probe_h = 10"),
                        name="coarse")
    assert code == 2
    _config_error(out, "[analysis] probe_h")
    assert not (out / "sweep.csv").exists()
    assert not (out / "summary.json").exists()


def test_divcurl_smoke(tmp_path):
    code, out = run_cli(tmp_path, DIVCURL_SMALL)
    assert code == 0
    rows = (out / "gamma.csv").read_text().strip().splitlines()
    assert rows[0].startswith("n_per_side,grad_gamma1,gamma2,total")
    assert len(rows) == 2
    assert (out / "gamma_n2.json").exists()


def test_determinism_byte_identical(tmp_path):
    code1, out1 = run_cli(tmp_path, REFLECT_TWOHOLE, name="a")
    code2, out2 = run_cli(tmp_path, REFLECT_TWOHOLE, name="b")
    assert code1 == code2 == 0
    assert (out1 / "dipoles.csv").read_bytes() == (out2 / "dipoles.csv").read_bytes()
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1 == s2


def test_invalid_config_exit_2(tmp_path):
    bad = REFLECT_TWOHOLE.replace("a = 0.02", "a = 0.3")  # violates a/d <= eps0
    code, out = run_cli(tmp_path, bad, name="bad")
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error_kind"] == "config"
    assert "eps0" in err["message"]


def test_missing_experiment_exit_2(tmp_path):
    code, out = run_cli(tmp_path, "[run]\n", name="empty")
    assert code == 2


def test_unknown_experiment_exit_2(tmp_path):
    code, _ = run_cli(tmp_path, "[run]\nexperiment = fly\n", name="fly")
    assert code == 2


def test_runtime_failure_exit_1(tmp_path, monkeypatch):
    # an oracle fit that does not converge is a numeric-stage error
    from porousflow import oracle

    monkeypatch.setattr(oracle, "_CG_MAX_ITERATIONS", 1)
    code, out = run_cli(tmp_path, SWEEP_RATIO, name="stall")
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error_kind"] == "runtime"
    assert "did not converge" in err["message"]


@pytest.mark.parametrize(
    "text, aspect",
    [
        pytest.param(REFLECT_TWOHOLE.replace("center = 0.5 2.0", "center = 0.3 0.5"), "0.05",
                     id="reflect"),
        # clear of the a/d = 0.1 holes, over the a/d = 0.2 ones: every sweep
        # point is checked before the first is solved
        pytest.param(SWEEP_RATIO.replace("center = 0.5 2.0", "center = 0.33 0.25"), "0.2",
                     id="sweep"),
        pytest.param(DIVCURL_SMALL.replace("center = 0.5 1.8", "center = 0.25 0.25"), "0.1",
                     id="divcurl"),
    ],
)
def test_vorticity_over_a_hole_exit_2(tmp_path, monkeypatch, text, aspect):
    from porousflow import oracle

    solves = []
    monkeypatch.setattr(reflections, "run_reflections", lambda *args: solves.append(args))
    monkeypatch.setattr(oracle, "solve_collocation", lambda *args: solves.append(args))
    code, out = run_cli(tmp_path, text, name="overlap")
    assert code == 2 and solves == []
    err = json.loads((out / "error.json").read_text())
    assert err["error_kind"] == "config"
    assert err["message"] == ("[vorticity] support overlaps a hole of the [geometry] "
                              f"configuration with a/d = {aspect}")


def test_bool_typo_exit_2(tmp_path):
    text = EULER_COMPARE.replace("[euler]\n", "[euler]\nfull_solve = ture\n")
    code, out = run_cli(tmp_path, text, name="typo")
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error_kind"] == "config"
    assert "full_solve" in err["message"]
    for raw, value in (("TRUE", True), ("On", True), ("1", True), ("no", False), ("OFF", False)):
        cfg = cli.RunConfig(f"[run]\nexperiment = euler\n[euler]\nfull_solve = {raw}\n")
        assert cfg.get("euler", "full_solve", bool, None) is value


def test_config_hash_stable_under_whitespace(tmp_path):
    c1 = cli.RunConfig(REFLECT_TWOHOLE)
    c2 = cli.RunConfig(REFLECT_TWOHOLE.replace("\n[solver]", "\n\n[solver]"))
    assert c1.hash() == c2.hash()


HOMOG_LATTICE = """
[run]
experiment = homog
[geometry]
kind = lattice
n = 2
epsilon = 0.1
box = 0 0 1 1
[vorticity]
shape = bump
center = 0.5 1.8
radius = 0.3
amplitude = 1.0
grid_h = 0.03125
[solver]
grid_h = 0.03125
"""


def test_homog_lattice_solve_exports_gradient(tmp_path):
    code, out = run_cli(tmp_path, HOMOG_LATTICE, name="hl")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["iterations"] >= 1
    grad_lines = (out / "psic_grad.csv").read_text().splitlines()
    assert grad_lines[0] == "origin_x,origin_y,h,nx,ny,components"


EULER_COMPARE = """
[run]
experiment = euler
[geometry]
kind = lattice
n = 4
epsilon = 0.1
box = 0 0 1 1
[vorticity]
shape = bump
center = 0.5 6.8
radius = 0.5
amplitude = 4.0
grid_h = 0.03125
[solver]
grid_h = 0.0625
[euler]
dt = 0.1
t_final = 0.3
blob = 0.12
particle_h = 0.12
margin = 5.0
[analysis]
probe = 0.2 2.0 0.8 2.6
probe_h = 0.3
"""


def test_euler_comparison_through_cli(tmp_path):
    # the vorticity sits far above the porous box, as in the transport setting
    code, out = run_cli(tmp_path, EULER_COMPARE, name="ec")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["status"] == ["running", "running"]
    assert summary["results"]["final_traj_div"] >= 0.0
    lines = (out / "timeseries.csv").read_text().strip().splitlines()
    assert lines[0] == "t,traj_div_max,vel_diff_sup_O,smoothed_omega_diff,status"
    assert len(lines) >= 3


def test_homog_sweep_byte_identical(tmp_path):
    code1, out1 = run_cli(tmp_path, HOMOG_SWEEP, name="a")
    code2, out2 = run_cli(tmp_path, HOMOG_SWEEP, name="b")
    assert code1 == code2 == 0
    assert (out1 / "homog_sweep.csv").read_bytes() == (out2 / "homog_sweep.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_homog_sweep_applies_l_once_per_step_and_once_per_norm(tmp_path, monkeypatch):
    # every k norm is a scale of one series, run on k's support box: each step
    # transforms k M p on the small convolution box over the support's rows
    # and inverts both planes there, and every norm, the step's and the
    # solutions', is a box sum of arrays the series holds, so no other
    # transform runs after grad_psi0_on_grid's
    from porousflow import homogenized, potential
    from porousflow.fields import radial_bump, rasterize
    from porousflow.potential import _fast_length

    forwards, inverses, full = [], [], []
    rfft2_rows, irfft2_rows = potential.rfft2_rows, potential.irfft2_rows
    apply_l = homogenized.apply_l_spectral

    def forward(values, rows):
        forwards.append((values.shape[-2],) + rows.indices(values.shape[-2]))
        return rfft2_rows(values, rows)

    def inverse(spec, ny, rows=slice(None)):
        inverses.append((spec.shape[-2],) + rows.indices(spec.shape[-2]))
        return irfft2_rows(spec, ny, rows)

    for module in (potential, homogenized):
        monkeypatch.setattr(module, "rfft2_rows", forward)
        monkeypatch.setattr(module, "irfft2_rows", inverse)
    monkeypatch.setattr(homogenized, "apply_l_spectral",
                        lambda *args: full.append(1) or apply_l(*args))
    code, out = run_cli(tmp_path, HOMOG_SWEEP)
    assert code == 0
    iterations = json.loads((out / "summary.json").read_text())["results"]["iterations"]
    assert max(iterations) == 7
    nx = round(4.0 / 0.03125)  # the sweep's 4 x 4 world at its grid_h
    # grad_psi0_on_grid: one forward over f's support rows and two inverses
    # over the grid's rows, on its padded box
    f = rasterize((-2.0, -2.0, 2.0, 2.0), 0.03125, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
    f_rows = f.support_slices()[0]
    f_box = _fast_length(f_rows.stop - f_rows.start + nx)
    assert forwards[0] == (f_box, 0, f_rows.stop - f_rows.start, 1)
    assert inverses[:2] == [(f_box, 0, nx, 1)] * 2
    # the unit bump of radius 0.5 at the world's center spans a quarter of the
    # rows, bx = nx / 4, so the box has fast_length(2 bx - 1) = 64 rows, not nx
    bx = nx // 4
    assert forwards[1:] == [(_fast_length(2 * bx - 1), 0, bx, 1)] * 7
    assert inverses[2:] == [(_fast_length(2 * bx - 1), 0, bx, 1)] * 2 * 7
    assert _fast_length(2 * bx - 1) == 64 and bx == 32
    assert not full


def test_homog_sweep_non_contracting_norm_exit_1(tmp_path):
    # sup k = 1.6 is far beyond the contraction regime
    text = HOMOG_SWEEP.replace("values = 0.01 0.02 0.04", "values = 0.01 0.02 1.6")
    code, out = run_cli(tmp_path, text)
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error_kind"] == "runtime" and "not contracting" in err["message"]
    assert not (out / "homog_sweep.csv").exists()


def _config_error(out, fragment):
    err = json.loads((out / "error.json").read_text())
    assert err["error_kind"] == "config"
    assert fragment in err["message"]


def test_threads_flag_rejected_where_it_does_nothing(tmp_path):
    # every experiment runs in the calling thread: the CLI has no --threads,
    # and run accepts only threads=1
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, HOMOG_SWEEP, extra=("--threads", "2"))
    assert exc.value.code == 2
    cfg = cli.RunConfig(REFLECT_TWOHOLE)
    for threads in (0, 2):
        with pytest.raises(cli.ConfigError, match="threads must be 1"):
            cli.run(cfg, tmp_path / f"t{threads}", threads=threads)
        assert not (tmp_path / f"t{threads}").exists()
    assert cli.run(cfg, tmp_path / "one", threads=1)["results"]["n_holes"] == 2


def test_volume_fraction_experiments_need_a_lattice(tmp_path):
    random_geometry = "[geometry]\nkind = random\ncount = 4\na = 0.02\ndmin = 0.2\nbox = 0 0 1 1\n"
    twohole_geometry = "[geometry]\nkind = twohole\na = 0.02\ndmin = 0.4\nbox = 0 0 1 1\n"
    lattice_geometry = "[geometry]\nkind = lattice\nn = 2\nepsilon = 0.1\nbox = 0 0 1 1\n"
    for name, text in (
        ("homog_random", HOMOG_LATTICE.replace(lattice_geometry, random_geometry)),
        ("homog_twohole", HOMOG_LATTICE.replace(lattice_geometry, twohole_geometry)),
        ("euler_random", EULER_COMPARE.replace(
            lattice_geometry.replace("n = 2", "n = 4"), random_geometry)),
        ("divcurl_random", DIVCURL_SMALL.replace(lattice_geometry, random_geometry)),
        ("divcurl_twohole", DIVCURL_SMALL.replace(lattice_geometry, twohole_geometry)),
        ("sweep_random", SWEEP_RATIO.replace("[geometry]\nn = 2\n", random_geometry)),
        ("sweep_twohole", SWEEP_RATIO.replace("[geometry]\nn = 2\n", twohole_geometry)),
    ):
        assert "kind = lattice" not in text
        assert "kind = random" in text or "kind = twohole" in text
        code, out = run_cli(tmp_path, text, name=name)
        assert code == 2, name
        _config_error(out, "kind")


def test_euler_t_final_must_be_whole_steps(tmp_path):
    text = EULER_COMPARE.replace("t_final = 0.3", "t_final = 0.25")
    code, out = run_cli(tmp_path, text, name="partial")
    assert code == 2
    _config_error(out, "t_final")
    assert not (out / "timeseries.csv").exists()


def test_solver_settings_out_of_range_exit_2(tmp_path):
    # checked before any numerics, whichever experiment would first use them
    euler_full = EULER_COMPARE.replace("[euler]\n", "[euler]\nfull_solve = true\n")
    for name, text, fragment in (
        ("depth", REFLECT_TWOHOLE.replace("reflection_depth = 4", "reflection_depth = 0"),
         "reflection_depth"),
        *((f"depth_{depth}", REFLECT_TWOHOLE.replace(
            "reflection_depth = 4", f"reflection_depth = {depth}"), "reflection_depth")
          for depth in (reflections.MAX_DEPTH + 1, 1000000000)),
        ("homog_tol", HOMOG_SWEEP.replace("tol = 1e-10", "tol = -1"), "tol"),
        ("euler_tol", euler_full.replace("[solver]\n", "[solver]\ntol = -1\n"), "tol"),
    ):
        code, out = run_cli(tmp_path, text, name=name)
        assert code == 2, name
        _config_error(out, fragment)
        assert not (out / "summary.json").exists()


def test_euler_full_solve_honours_tol(tmp_path):
    euler_full = EULER_COMPARE.replace("[euler]\n", "[euler]\nfull_solve = true\n")
    series = {}
    for name, tol in (("tight", 1e-10), ("loose", 0.5)):  # 0.5 stops after one iteration
        code, out = run_cli(
            tmp_path, euler_full.replace("[solver]\n", f"[solver]\ntol = {tol}\n"), name=name
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tolerances"]["solver_tol"] == tol
        series[name] = (out / "timeseries.csv").read_bytes()
    assert series["tight"] != series["loose"]


def test_sweep_geometry_errors_exit_2(tmp_path):
    # lattices built per sweep point reject bad parameters as config errors
    for name, text, fragment in (
        ("divcurl_epsilon", DIVCURL_SMALL.replace("epsilon = 0.1", "epsilon = 0.6"), "epsilon"),
        ("sweep_value", SWEEP_RATIO.replace("values = 0.1 0.2", "values = 0.1 0.6"), "epsilon"),
        ("sweep_n", SWEEP_RATIO.replace("n = 2", "n = 0"), "n_per_side"),
        ("divcurl_n", DIVCURL_SMALL.replace("n = 2", "n = 0"), "n_per_side"),
    ):
        assert text not in (DIVCURL_SMALL, SWEEP_RATIO)
        code, out = run_cli(tmp_path, text, name=name)
        assert code == 2, name
        _config_error(out, fragment)


def test_divcurl_probe_without_fluid_cells_exit_2(tmp_path, monkeypatch):
    # the probe's one cell is fluid at n = 4 and inside a hole at n = 2: the
    # run fails before any solve, n = 4's included, and writes no n's report
    solves = []
    monkeypatch.setattr(reflections, "run_reflections", lambda *args: solves.append(args))
    monkeypatch.setattr(potential, "grad_psi0_on_grid", lambda *args: solves.append(args))
    text = (DIVCURL_SWEEP.replace("probe = 1.3 0.0 2.3 1.0", "probe = 0.2 0.2 0.3 0.3")
            .replace("probe_h = 0.0625", "probe_h = 0.1") + "[sweep]\nvalues = 4 2\n")
    code, out = run_cli(tmp_path, text)
    assert code == 2 and solves == []
    _config_error(out, "[analysis] probe, probe_h: no probe cell at h = 0.1")
    assert not list(out.glob("gamma*"))
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("values", ["4.5", "0", "-2", "2 4.5"])
def test_divcurl_lattice_sizes_must_be_whole_and_positive(tmp_path, values):
    # checked for every sweep point before any numerics run
    text = DIVCURL_SWEEP + f"[sweep]\nvalues = {values}\n"
    code, out = run_cli(tmp_path, text, name="nsides")
    assert code == 2
    _config_error(out, "n_per_side")
    assert not list(out.glob("gamma*"))
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "name, text, fragment",
    [
        pytest.param("probe_h", DIVCURL_SMALL.replace("probe_h = 0.0625", "probe_h = 0"),
                     "probe_h", id="probe_h"),
        pytest.param("solver_grid_h", DIVCURL_SMALL.replace("grid_h = 0.03125", "grid_h = -0.01"),
                     "[solver] grid_h", id="solver_grid_h"),
        pytest.param("particle_h", EULER_COMPARE.replace("particle_h = 0.12", "particle_h = 0"),
                     "particle_h", id="particle_h"),
        pytest.param("vorticity_grid_h", EULER_COMPARE.replace("grid_h = 0.03125", "grid_h = 0"),
                     "[vorticity] grid_h", id="vorticity_grid_h"),
    ],
)
def test_non_positive_grid_spacing_exit_2(tmp_path, name, text, fragment):
    assert text not in (DIVCURL_SMALL, EULER_COMPARE)
    code, out = run_cli(tmp_path, text, name=name)
    assert code == 2
    _config_error(out, fragment)
    assert not (out / "summary.json").exists()


def test_non_finite_numbers_exit_2(tmp_path):
    # NaN fails every range check, so it is refused where numbers are read
    for name, text, fragment in (
        ("epsilon_nan", DIVCURL_SMALL.replace("epsilon = 0.1", "epsilon = nan"),
         "[geometry] epsilon"),
        ("values_inf", HOMOG_SWEEP.replace("values = 0.01 0.02 0.04", "values = 0.01 inf"),
         "[sweep] values"),
        ("probe_nan", DIVCURL_SMALL.replace("probe = 1.3 0.0 2.3 1.0", "probe = 1.3 0.0 nan 1.0"),
         "[analysis] probe"),
    ):
        assert text not in (DIVCURL_SMALL, HOMOG_SWEEP)
        code, out = run_cli(tmp_path, text, name=name)
        assert code == 2, name
        _config_error(out, fragment)
        assert not (out / "summary.json").exists()


def _divcurl_one_n(text, n, fraction):
    """The divcurl steps for one lattice size, every one rebuilt from scratch,
    with the oracle at its library defaults."""
    from porousflow import analysis, homogenized, oracle, potential, reflections

    cfg = cli.RunConfig(text)
    settings = cli.solver_settings(cfg)
    config = cli.geometry_from_config(cfg, 0, n=n)
    world = cli.world_grid_for(cfg, config.kpm_box, cli.source_from_config(cfg))
    k = fraction(config, world)
    g0 = potential.grad_psi0_on_grid(world)
    sol = homogenized.solve_psic_from_grad(g0, k, tol=settings.tol)
    stream = reflections.run_reflections(world, config, settings.reflection_depth)
    osol = None
    if config.n_holes <= oracle.MAX_ORACLE_HOLES:
        osol = oracle.solve_collocation(world, config)
    report = analysis.gamma_decomposition_report(
        stream, g0, sol.grad, sol.first_order, k,
        cfg.box("analysis", "probe"), cfg.get("analysis", "probe_h", float), oracle_sol=osol,
    )
    return report.to_json()


def test_divcurl_solves_once_per_distinct_k(tmp_path, monkeypatch):
    from porousflow import homogenized
    from porousflow.geometry import lattice_fraction

    def perturbed(config, grid):
        # a volume fraction that differs from one lattice size to the next
        k = lattice_fraction(config, grid)
        k.values *= 1.0 + 1e-3 * config.n_holes
        return k

    calls = {}
    for name in ("solve_psic_from_grad", "correction"):
        def counted(*args, _fn=getattr(homogenized, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(homogenized, name, counted)
    text = DIVCURL_SWEEP + "[sweep]\nvalues = 4 8\n"
    for label, fraction, expected_calls in (
        ("same_k", lattice_fraction, 1), ("k_per_n", perturbed, 2)
    ):
        monkeypatch.setattr(cli, "lattice_fraction", fraction)
        calls.update(solve_psic_from_grad=0, correction=0)
        code, out = run_cli(tmp_path, text, name=label)
        assert code == 0
        assert calls == {"solve_psic_from_grad": expected_calls, "correction": expected_calls}
        for n in (4, 8):
            assert (out / f"gamma_n{n}.json").read_text() == _divcurl_one_n(text, n, fraction)


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(EULER_COMPARE.replace("blob = 0.12", "blob = -0.12"), "[euler] blob",
                     id="blob"),
        pytest.param(EULER_COMPARE.replace("margin = 5.0", "margin = -0.5"), "[euler] margin",
                     id="margin"),
        pytest.param(EULER_PAIR.replace("blob = 0.02", "blob = -0.02"), "[euler] blob",
                     id="pair_blob"),
    ],
)
def test_negative_blob_or_margin_exit_2(tmp_path, text, fragment):
    assert text not in (EULER_COMPARE, EULER_PAIR)
    code, out = run_cli(tmp_path, text)
    assert code == 2
    _config_error(out, fragment)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(EULER_COMPARE.replace("blob = 0.12", "blob = 0"), "[euler] blob = 0",
                     id="blob"),
        pytest.param(EULER_COMPARE.replace("shape = bump", "shape = point")
                     .replace("radius = 0.5\n", "").replace("grid_h = 0.03125\n", ""),
                     "[vorticity] shape = point", id="point"),
    ],
)
def test_zero_blob_lattice_comparison_exit_2(tmp_path, text, fragment):
    # a zero blob leaves no smoothed vorticity to compare; the pair run keeps it
    assert text != EULER_COMPARE
    code, out = run_cli(tmp_path, text)
    assert code == 2
    _config_error(out, fragment)
    assert not (out / "summary.json").exists()
    text = EULER_PAIR.replace("blob = 0.02", "blob = 0").replace("t_final = 8.0", "t_final = 0.3")
    code, out = run_cli(tmp_path, text, name="pair")
    assert code == 0
    assert (out / "pair_angle.csv").exists()


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ("radius = 0.5", "radius = 0", "[vorticity] radius"),
        ("radius = 0.5", "radius = -0.5", "[vorticity] radius"),
        ("amplitude = 3.14159265358979", "amplitude = 0", "vortex pair"),
        ("amplitude = 3.14159265358979", "amplitude = -3.14159265358979", "vortex pair"),
        ("center = 0.0 0.0", "center = 0.0", "[vorticity] center"),
    ],
    ids=["radius_zero", "radius_negative", "amplitude_zero", "amplitude_negative",
         "center_one_number"],
)
def test_vortex_pair_settings_exit_2(tmp_path, old, new, fragment):
    # the period is read off a counterclockwise unwrap of the pair's angle
    text = EULER_PAIR.replace(old, new)
    assert text != EULER_PAIR
    code, out = run_cli(tmp_path, text, name="pair")
    assert code == 2
    _config_error(out, fragment)
    assert not (out / "pair_angle.csv").exists()


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(DIVCURL_SMALL.replace("shape = bump", "shape = point"), id="divcurl_point"),
        pytest.param(DIVCURL_SMALL.replace("shape = bump", "shape = pair"), id="divcurl_pair"),
        pytest.param(HOMOG_LATTICE.replace("shape = bump", "shape = point"), id="homog_point"),
        # the blob that a particle source would take is not the cause
        pytest.param(DIVCURL_SMALL.replace("shape = bump", "shape = point")
                     .replace("[analysis]", "[euler]\nblob = 0.1\n[analysis]"),
                     id="divcurl_point_blob"),
        pytest.param(DIVCURL_SMALL.replace("shape = bump", "shape = pair")
                     .replace("[analysis]", "[euler]\nblob = 0.1\n[analysis]"),
                     id="divcurl_pair_blob"),
        pytest.param(HOMOG_LATTICE.replace("shape = bump", "shape = pair") + "[euler]\nblob = 0.1\n",
                     id="homog_pair_blob"),
    ],
)
def test_grid_experiments_refuse_particle_sources(tmp_path, text):
    # f is resampled onto the world grid, which a particle source cannot fill
    assert text not in (DIVCURL_SMALL, HOMOG_LATTICE)
    code, out = run_cli(tmp_path, text)
    assert code == 2
    _config_error(out, "shape = bump | disk")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("text", [
    pytest.param(HOMOG_LATTICE, id="homog"),
    pytest.param(DIVCURL_SMALL, id="divcurl"),
    pytest.param(EULER_COMPARE, id="euler"),
])
def test_volume_fraction_above_eps0_squared_exit_2(tmp_path, monkeypatch, text):
    # k = pi epsilon^2 = 0.126 exceeds eps0^2 = 0.0625, known from the config alone
    from porousflow import potential

    calls = []
    monkeypatch.setattr(potential, "grad_psi0_on_grid", lambda *args: calls.append(args))
    code, out = run_cli(tmp_path, text.replace("epsilon = 0.1", "epsilon = 0.2"))
    assert code == 2
    _config_error(out, "eps0")
    assert not (out / "summary.json").exists()
    assert calls == []


REFLECT_RANDOM = REFLECT_TWOHOLE.replace("kind = twohole", "kind = random\ncount = 4").replace(
    "dmin = 0.4", "dmin = 0.2"
)


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(REFLECT_RANDOM.replace("count = 4", "count = 0"), "[geometry] count",
                     id="count_zero"),
        pytest.param(REFLECT_RANDOM.replace("count = 4", "count = -3"), "[geometry] count",
                     id="count_negative"),
        pytest.param(REFLECT_RANDOM.replace("count = 4", "count = 100000"),
                     "[geometry] count = 100000 centers dmin = 0.2 apart cannot fit in the box "
                     "0 0 1 1", id="count_cannot_fit"),
        pytest.param(REFLECT_RANDOM.replace("a = 0.02", "a = -0.05"), "[geometry] a",
                     id="random_a_negative"),
        pytest.param(REFLECT_RANDOM.replace("dmin = 0.2", "dmin = 0"), "[geometry] dmin",
                     id="random_dmin_zero"),
        pytest.param(REFLECT_TWOHOLE.replace("dmin = 0.4", "dmin = 0"), "[geometry] dmin",
                     id="twohole_dmin_zero"),
        pytest.param(REFLECT_TWOHOLE.replace("a = 0.02", "a = 0.2")
                     .replace("dmin = 0.4", "dmin = 3.0"),
                     "a disk outside the box 0 0 1 1", id="twohole_outside_box"),
        pytest.param(REFLECT_TWOHOLE.replace("shape = point", "shape = pair")
                     .replace("amplitude = 2.0", "amplitude = 2.0\nradius = -0.3"),
                     "[vorticity] radius must be positive", id="radius_negative"),
        pytest.param(EULER_COMPARE.replace("dt = 0.1", "dt = 0"), "[euler] dt", id="dt_zero"),
        pytest.param(EULER_COMPARE.replace("t_final = 0.3", "t_final = -0.3"),
                     "[euler] t_final", id="t_final_negative"),
    ],
)
def test_degenerate_sizes_and_times_exit_2(tmp_path, monkeypatch, text, fragment):
    assert text not in (REFLECT_RANDOM, REFLECT_TWOHOLE, EULER_COMPARE)
    # each is refused from the config alone, before a random center is drawn
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args))
    code, out = run_cli(tmp_path, text)
    assert code == 2 and draws == []
    _config_error(out, fragment)
    assert not (out / "summary.json").exists()


def test_random_reflect_baseline_runs(tmp_path):
    code, _ = run_cli(tmp_path, REFLECT_RANDOM)
    assert code == 0


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(REFLECT_TWOHOLE.replace("reflection_depth", "reflection_dpeth"),
                     "[solver] reflection_dpeth", id="misspelt_key"),
        pytest.param(REFLECT_TWOHOLE.replace("[vorticity]", "[vorticty]"), "[vorticty]",
                     id="misspelt_section"),
        pytest.param(REFLECT_TWOHOLE + "oracle_order = 10\n", "[solver] oracle_order",
                     id="removed_key"),
    ],
)
def test_unknown_section_or_key_exit_2(tmp_path, text, fragment):
    # an unread setting would otherwise run silently at its default
    code, out = run_cli(tmp_path, text)
    assert code == 2
    _config_error(out, fragment)
    assert not (out / "summary.json").exists()


# per branch (``cli.RunConfig.branch``), test configs that take it; together
# they take every source shape: a point, a pair with its blob, and a bump and a
# disk with their spacing
_GRID_SOURCE = "shape = bump\nradius = 0.3\ngrid_h = 0.05"
_PAIR_SOURCE = "shape = pair\nradius = 0.1"
_READ_CONFIGS = {
    ("reflect", "kind = twohole"): [REFLECT_TWOHOLE],
    ("reflect", "kind = random"): [REFLECT_RANDOM.replace("shape = point", _PAIR_SOURCE)
                                   + "[euler]\nblob = 0.01\n"],
    ("reflect", "kind = lattice"): [
        REFLECT_TWOHOLE.replace("kind = twohole\na = 0.02\ndmin = 0.4",
                                "kind = lattice\nn = 2\nepsilon = 0.1")
        .replace("shape = point", _GRID_SOURCE.replace("bump", "disk")),
    ],
    ("divcurl", ""): [DIVCURL_SMALL],
    ("divcurl", "[sweep] values"): [DIVCURL_SWEEP + "[sweep]\nvalues = 2\n"],
    ("homog", ""): [HOMOG_LATTICE],
    ("homog", "[sweep] values"): [HOMOG_SWEEP],
    ("euler", ""): [EULER_COMPARE],
    ("euler", "shape = pair"): [EULER_PAIR],
    ("sweep", ""): [
        SWEEP_RATIO,
        SWEEP_RATIO.replace("shape = point", _GRID_SOURCE),
        SWEEP_RATIO.replace("shape = point", _PAIR_SOURCE) + "[euler]\nblob = 0.01\n",
    ],
}
_RUNS = [(branch, text) for branch, texts in _READ_CONFIGS.items() for text in texts]


@pytest.fixture(scope="module")
def sealed_reads(tmp_path_factory):
    """Per run of ``_RUNS``, its exit code and, in order, each (section, key)
    that it read and each ``seal`` ("seal")."""
    tmp_path = tmp_path_factory.mktemp("reads")
    get, seal = cli.RunConfig.get, cli.RunConfig.seal
    log, runs = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.RunConfig, "get", lambda self, section, key, *args, **kwargs:
                   log.append((section, key)) or get(self, section, key, *args, **kwargs))
        mp.setattr(cli.RunConfig, "seal", lambda self: log.append("seal") or seal(self))
        for i, (_, text) in enumerate(_RUNS):
            log.clear()
            code, _ = run_cli(tmp_path, text, name=f"run{i}")
            runs.append((code, list(log)))
    return runs


def test_each_branch_seals_after_its_reads_and_before_any_solve(tmp_path, monkeypatch,
                                                                sealed_reads):
    # every branch runs, seals once and reads no key after; a key it does not
    # read exits 2 with the branch's name before the first solve of the run
    from porousflow import euler, homogenized, oracle

    assert {re.search(r"shape = (\w+)", text).group(1) for _, text in _RUNS
            if "shape =" in text} == {"point", "pair", "bump", "disk"}
    for (branch, text), (code, log) in zip(_RUNS, sealed_reads):
        assert cli.RunConfig(text).branch == branch
        assert code == 0 and log.count("seal") == 1 and log[-1] == "seal", branch
    solves = []

    def solve(*args, **kwargs):
        solves.append(args)
        raise RuntimeError("a solve ran before the config was sealed")

    for module, name in ((reflections, "run_reflections"), (potential, "grad_psi0_on_grid"),
                         (homogenized, "solve_psic"), (oracle, "solve_collocation"),
                         (euler, "run_comparison"), (euler, "step")):
        monkeypatch.setattr(module, name, solve)
    for i, ((experiment, selected), text) in enumerate(_RUNS):
        code, out = run_cli(tmp_path, text.replace("[run]\n", "[run]\nunread = 1\n"),
                            name=f"unread{i}")
        assert code == 2 and solves == [], (experiment, selected)
        with_branch = f" with {selected}" if selected else ""
        _config_error(out, f"unknown key [run] unread for the {experiment} experiment"
                           + with_branch)
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(HOMOG_SWEEP + "[vorticity]\ncenter = 9 9\n[geometry]\nepsilon = 0.4\n",
                     "[vorticity] center for the homog experiment with [sweep] values",
                     id="homog_sweep_source_epsilon"),
        pytest.param(EULER_PAIR + "[geometry]\nn = 7\nepsilon = 0.45\n",
                     "[geometry] epsilon, n for the euler experiment with shape = pair",
                     id="euler_pair_geometry"),
        pytest.param(EULER_PAIR.replace("blob = 0.02", "blob = 0.02\nparticle_h = 0.1\nmargin = 1"
                                        "\nfull_solve = yes"),
                     "[euler] full_solve, margin, particle_h", id="euler_pair_euler"),
        pytest.param(EULER_PAIR + "[analysis]\nprobe_h = 0.1\n", "[analysis] probe_h",
                     id="euler_pair_analysis"),
        pytest.param(EULER_PAIR + "[solver]\ngrid_h = 0.1\n", "[solver] grid_h",
                     id="euler_pair_grid_h"),
        pytest.param(DIVCURL_SMALL + "[sweep]\nvalues = 2 4\n", "[geometry] n",
                     id="divcurl_sweep_n"),
        pytest.param(REFLECT_RANDOM.replace("count = 4", "count = 4\nn = 2\nepsilon = 0.1"),
                     "[geometry] epsilon, n for the reflect experiment with kind = random",
                     id="random_lattice_keys"),
        pytest.param(REFLECT_TWOHOLE.replace("kind = twohole",
                                             "kind = lattice\nn = 2\nepsilon = 0.1\ncount = 4"),
                     "[geometry] a, count, dmin for the reflect experiment with kind = lattice",
                     id="lattice_random_keys"),
        pytest.param(REFLECT_TWOHOLE.replace("amplitude = 2.0", "amplitude = 2.0\ngrid_h = 0.05"),
                     "[vorticity] grid_h", id="point_grid_h"),
    ],
)
def test_key_the_branch_does_not_read_exit_2(tmp_path, text, fragment):
    # a key that only another branch of the same experiment reads, or another
    # source shape, would run silently at exit 0
    code, out = run_cli(tmp_path, text)
    assert code == 2
    _config_error(out, fragment)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(REFLECT_TWOHOLE + "[sweep]\nvalues = 0.1 0.2\nmode = ratio\n",
                     "[sweep] mode, values", id="reflect_sweep"),
        pytest.param(HOMOG_SWEEP + "[euler]\ndt = 0.1\n", "[euler] dt", id="homog_euler_dt"),
        pytest.param(SWEEP_RATIO.replace("n = 2", "n = 2\nepsilon = 0.1"), "[geometry] epsilon",
                     id="sweep_epsilon"),
        pytest.param(DIVCURL_SMALL.replace("[analysis]", "[euler]\nblob = 0.1\n[analysis]"),
                     "[euler] blob", id="divcurl_blob"),
    ],
)
def test_key_another_experiment_reads_exit_2(tmp_path, text, fragment):
    # a key that only some other experiment reads would run silently at exit 0
    code, out = run_cli(tmp_path, text)
    assert code == 2
    _config_error(out, fragment)
    assert not (out / "summary.json").exists()


SWEEP_QUADRATIC = SWEEP_RATIO.replace("mode = ratio", "mode = quadratic")


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(SWEEP_RATIO.replace("values = 0.1 0.2", "values = 0.1"), id="sweep_one"),
        pytest.param(SWEEP_RATIO.replace("values = 0.1 0.2", "values ="), id="sweep_empty"),
        pytest.param(SWEEP_RATIO.replace("values = 0.1 0.2", "values = -0.1 0.2"),
                     id="ratio_negative"),
        pytest.param(SWEEP_QUADRATIC.replace("values = 0.1 0.2", "values = 0 0.2"),
                     id="quadratic_zero"),
        pytest.param(SWEEP_QUADRATIC.replace("values = 0.1 0.2", "values = -0.1 0.2"),
                     id="quadratic_negative"),
        pytest.param(HOMOG_SWEEP.replace("values = 0.01 0.02 0.04", "values = 0.01"),
                     id="homog_one"),
        pytest.param(HOMOG_SWEEP.replace("values = 0.01 0.02 0.04", "values = 0 0.02 0.04"),
                     id="homog_zero"),
        pytest.param(HOMOG_SWEEP.replace("values = 0.01 0.02 0.04", "values ="),
                     id="homog_empty"),
        pytest.param(DIVCURL_SWEEP + "[sweep]\nvalues =\n", id="divcurl_empty"),
    ],
)
def test_sweep_values_checked_before_numerics(tmp_path, monkeypatch, text):
    # two values where a slope is fitted, one for divcurl; all finite and above 0
    from porousflow import potential

    calls = []
    monkeypatch.setattr(potential, "grad_psi0_on_grid", lambda *args: calls.append(args))
    code, out = run_cli(tmp_path, text)
    assert code == 2
    _config_error(out, "[sweep] values")
    assert not (out / "summary.json").exists()
    assert not list(out.glob("*.csv"))
    assert calls == []


def _readme_block(heading):
    """The first fenced block after ``heading`` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text[text.index(heading):]
    return after.split("```\n")[1]


def test_readme_config_keys_match_cli(tmp_path, sealed_reads):
    # each line: an optional [section] column, then ';'-separated entries
    # whose first word is a key, then (after two spaces) a description
    documented = {}
    for line in _readme_block("### Config format").splitlines():
        match = re.match(r"(?:\[(\w+)\])?\s*(.*)", line)
        if match.group(1):
            section = documented.setdefault(match.group(1), set())
        entries = re.split(r"\s{2,}", match.group(2))[0].split(";")
        section.update(re.match(r"\s*(\w+)", entry).group(1) for entry in entries)
    every = {}
    for _, log in sealed_reads:
        for section, key in log[:log.index("seal")]:
            every.setdefault(section, set()).add(key)
    assert documented == every
    code, _ = run_cli(tmp_path, _readme_block("### Example"))
    assert code == 0
