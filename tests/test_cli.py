from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from porousflow import cli

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


def test_homog_sweep_slopes(tmp_path):
    code, out = run_cli(tmp_path, HOMOG_SWEEP)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["slope_err_psi0"] == pytest.approx(1.0, abs=0.2)
    assert summary["results"]["slope_err_tilde"] == pytest.approx(2.0, abs=0.2)
    rows = (out / "homog_sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "knorm,err_psi0,err_tilde,iterations"
    assert len(rows) == 4


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


def test_runtime_failure_exit_1(tmp_path):
    # source support inside a hole triggers a numeric-stage error
    text = REFLECT_TWOHOLE.replace("center = 0.5 2.0", "center = 0.3 0.5")
    code, out = run_cli(tmp_path, text, name="clash")
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error_kind"] == "runtime"


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


def test_threads_flag_preserves_results(tmp_path):
    code1, out1 = run_cli(tmp_path, HOMOG_SWEEP, name="t1")
    code2, out2 = run_cli(tmp_path, HOMOG_SWEEP, name="t2", extra=("--threads", "3"))
    assert code1 == code2 == 0
    assert (out1 / "homog_sweep.csv").read_bytes() == (out2 / "homog_sweep.csv").read_bytes()


def _config_error(out, fragment):
    err = json.loads((out / "error.json").read_text())
    assert err["error_kind"] == "config"
    assert fragment in err["message"]


def test_threads_flag_rejected_where_it_does_nothing(tmp_path):
    for name, text, threads in (
        ("zero", HOMOG_SWEEP, "0"),
        ("negative", HOMOG_SWEEP, "-2"),
        ("reflect", REFLECT_TWOHOLE, "2"),
        ("homog_single", HOMOG_LATTICE, "2"),
    ):
        code, out = run_cli(tmp_path, text, name=name, extra=("--threads", threads))
        assert code == 2, name
        _config_error(out, "--threads")
    code, _ = run_cli(tmp_path, REFLECT_TWOHOLE, name="one", extra=("--threads", "1"))
    assert code == 0


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


@pytest.mark.parametrize("values", ["4.5", "0", "-2", "2 4.5"])
def test_divcurl_lattice_sizes_must_be_whole_and_positive(tmp_path, values):
    # checked for every sweep point before any numerics run
    text = DIVCURL_SMALL + f"[sweep]\nvalues = {values}\n"
    code, out = run_cli(tmp_path, text, name="nsides")
    assert code == 2
    _config_error(out, "n_per_side")
    assert not list(out.glob("gamma*"))
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "name, text, fragment",
    [
        ("probe_h", DIVCURL_SMALL.replace("probe_h = 0.0625", "probe_h = 0"), "probe_h"),
        ("solver_grid_h", DIVCURL_SMALL.replace("grid_h = 0.03125", "grid_h = -0.01"),
         "[solver] grid_h"),
        ("particle_h", EULER_COMPARE.replace("particle_h = 0.12", "particle_h = 0"),
         "particle_h"),
        ("vorticity_grid_h", EULER_COMPARE.replace("grid_h = 0.03125", "grid_h = 0"),
         "[vorticity] grid_h"),
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
    text = DIVCURL_SMALL + "[sweep]\nvalues = 4 8\n"
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
        pytest.param(REFLECT_RANDOM.replace("a = 0.02", "a = -0.05"), "[geometry] a",
                     id="random_a_negative"),
        pytest.param(REFLECT_RANDOM.replace("dmin = 0.2", "dmin = 0"), "[geometry] dmin",
                     id="random_dmin_zero"),
        pytest.param(REFLECT_TWOHOLE.replace("dmin = 0.4", "dmin = 0"), "[geometry] dmin",
                     id="twohole_dmin_zero"),
        pytest.param(REFLECT_TWOHOLE.replace("a = 0.02", "a = 0.2")
                     .replace("dmin = 0.4", "dmin = 3.0"),
                     "a disk outside the box 0 0 1 1", id="twohole_outside_box"),
        pytest.param(REFLECT_TWOHOLE.replace("amplitude = 2.0", "amplitude = 2.0\nradius = -0.3"),
                     "[vorticity] radius", id="radius_negative"),
        pytest.param(EULER_COMPARE.replace("dt = 0.1", "dt = 0"), "[euler] dt", id="dt_zero"),
        pytest.param(EULER_COMPARE.replace("t_final = 0.3", "t_final = -0.3"),
                     "[euler] t_final", id="t_final_negative"),
    ],
)
def test_degenerate_sizes_and_times_exit_2(tmp_path, text, fragment):
    assert text not in (REFLECT_RANDOM, REFLECT_TWOHOLE, EULER_COMPARE)
    code, out = run_cli(tmp_path, text)
    assert code == 2
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
        pytest.param(DIVCURL_SMALL + "[sweep]\nvalues =\n", id="divcurl_empty"),
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


def test_readme_config_keys_match_cli():
    # each line: an optional [section] column, then ';'-separated entries
    # whose first word is a key, then (after two spaces) a description
    documented = {}
    for line in _readme_block("### Config format").splitlines():
        match = re.match(r"(?:\[(\w+)\])?\s*(.*)", line)
        if match.group(1):
            section = documented.setdefault(match.group(1), set())
        entries = re.split(r"\s{2,}", match.group(2))[0].split(";")
        section.update(re.match(r"\s*(\w+)", entry).group(1) for entry in entries)
    assert documented == cli.CONFIG_KEYS
    cli.RunConfig(_readme_block("### Example"))
