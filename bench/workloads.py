"""The four benchmark workloads: config text, why each exists, and the
reference results each run is checked against.

Each workload is dominated by a different layer and bypasses at least one
layer that another workload stresses, so a change to one layer shows its gain
where its mechanism runs and shows no change where it does not:

=================  ==========================================  =================
workload           dominated by                                bypasses
=================  ==========================================  =================
oracle-sweep       oracle.multipole_part_grad (gradient of     FFT operator,
                   the collocation basis at 229k probes)       k1/k2 sums
divcurl            homogenized.k1_kernel_sum at far probes,    particle sums
                   analysis layer, rasterize_mu
homog-sweep        homogenized.apply_l_spectral (FFT only)     every pairwise
                                                               sum, the oracle
euler-compare      potential.grad_psi0_eval (particle P x P),  oracle, FFT
                   k2_kernel_sum, distance_to_holes            operator
=================  ==========================================  =================

The lattice inputs do not depend on the seed; the seed is forwarded to the
CLI and recorded in ``summary.json``.

Reference values were produced by the code these workloads were written
against. Integers and strings must match exactly. Floats are compared at a
relative tolerance that admits summation-order changes and catches a wrong
answer.
"""

from __future__ import annotations

# Relative tolerance for float references.
REL_TOL = 1e-6
# final_traj_div is a 5e-10 difference of O(1) particle positions, so one
# ulp of position roundoff is already ~2e-7 of it.
TRAJ_DIV_REL_TOL = 1e-4

WORKLOADS = {
    "oracle-sweep": {
        # Acceptance criterion 4(a): reflections against the collocation
        # oracle on a 16-hole lattice at three aspect ratios. The oracle
        # gradient evaluation materializes a (229k, 16, 16, 2) tensor: the
        # largest measured hot spot and the 1.2 GB memory peak.
        "why": "16-hole reflections vs collocation oracle; oracle gradient "
               "evaluation dominates time and peak memory",
        "config": """\
[run]
experiment = sweep

[sweep]
mode = ratio
values = 0.05 0.1 0.2

[geometry]
n = 4

[vorticity]
shape = point
center = 0.5 2.0
amplitude = 2.0
""",
        "reference": {
            "mode": "ratio",
            "errors": {
                "0.05": 9.354490263314028e-05,
                "0.1": 0.00037080129599393116,
                "0.2": 0.0015081842498231692,
            },
        },
    },
    "divcurl": {
        # Acceptance criterion 6, the paper's headline experiment. The only
        # workload that runs k1_kernel_sum at far probes, the analysis layer
        # and rasterize_mu; it also fits the oracle to a grid source.
        "why": "two-term error decomposition over n = 4, 8, 16; far-probe "
               "k1 kernel sum, analysis layer and grid-source oracle",
        "config": """\
[run]
experiment = divcurl

[geometry]
epsilon = 0.1

[vorticity]
shape = bump
center = 0.5 1.8
radius = 0.3

[sweep]
values = 4 8 16
""",
        "reference": {
            "totals": {
                "4": 2.940517706337976e-06,
                "8": 2.555077504329946e-06,
                "16": 2.4602800026023104e-06,
            },
        },
    },
    "homog-sweep": {
        # Acceptance criterion 5 scaled to a 1024^2 grid. All FFT: no
        # pairwise sums, no holes, no oracle. The no-change control for every
        # kernel, oracle or particle change.
        "why": "homogenized fixed point on a 1024^2 grid; only the spectral "
               "operator runs, the control for kernel and particle changes",
        "config": """\
[run]
experiment = homog

[solver]
grid_h = 0.00390625

[sweep]
values = 0.01 0.02 0.04
""",
        "reference": {
            "iterations": [5, 6, 7],
            "slope_err_psi0": 0.9836491312964405,
            "slope_err_tilde": 1.9771192671336058,
        },
    },
    "euler-compare": {
        # Acceptance criterion 8 at P ~ 1300 particles and N = 256 holes.
        # The only workload where direct particle sums dominate, and the only
        # one using the direct k2_kernel_sum backend of the homogenized
        # closure.
        "why": "vortex transport under both closures, 1316 particles past "
               "256 holes; direct particle sums and k2 kernel dominate",
        "config": """\
[run]
experiment = euler

[geometry]
n = 16
epsilon = 0.1

[vorticity]
shape = bump
center = 0.5 6.8
radius = 0.5
amplitude = 4.0

[euler]
particle_h = 0.025
blob = 0.025
dt = 0.05
t_final = 0.25
margin = 5

[analysis]
probe = 0.2 2.0 0.8 2.6
probe_h = 0.2
""",
        "reference": {
            "n_particles": 1316,
            "status": ["running", "running"],
            "final_traj_div": 4.731041150766549e-10,
        },
    },
}


def _tolerance(path: str) -> float:
    return TRAJ_DIV_REL_TOL if path == "final_traj_div" else REL_TOL


def check_results(reference, results, path: str = "") -> list[str]:
    """Differences between ``results`` and ``reference`` (empty when they
    agree); only the keys present in ``reference`` are compared."""
    where = path or "results"
    if isinstance(reference, dict):
        if not isinstance(results, dict):
            return [f"{where}: expected an object"]
        problems = []
        for key, ref in reference.items():
            if key not in results:
                problems.append(f"{where}.{key}: missing")
                continue
            problems += check_results(ref, results[key], f"{path}.{key}" if path else key)
        return problems
    if isinstance(reference, list):
        if not isinstance(results, list) or len(results) != len(reference):
            return [f"{where}: expected {reference!r}, got {results!r}"]
        problems = []
        for i, (ref, got) in enumerate(zip(reference, results)):
            problems += check_results(ref, got, f"{where}[{i}]")
        return problems
    if isinstance(reference, float):
        ok = (
            isinstance(results, (int, float))
            and not isinstance(results, bool)
            and abs(results - reference) <= _tolerance(path) * abs(reference)
        )
    else:
        ok = type(results) is type(reference) and results == reference
    return [] if ok else [f"{where}: expected {reference!r}, got {results!r}"]
