"""Benchmark of the porousflow CLI: four workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined, with the reason each exists, in ``workloads.py``.
Every experiment run is a fresh child process (``child.py``) that imports
porousflow from ``src/`` and calls ``porousflow.cli.run`` with one thread;
BLAS and OpenMP pools are pinned to ``BLAS_THREADS``. Experiment runs repeat,
in a closed loop of one client, until the next one would end after
``--seconds`` (at least two, so the determinism check has a pair); set-up is
sampled in ``SETUP_SAMPLES`` further children.

Each run's ``summary.json`` results are checked against the workload's
reference values, and every output file must be byte-identical to the first
run's. A run that exits non-zero or fails either check counts as failed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over runs of
the time from ``cli.run`` entry to ``summary.json`` written), ``setup_s``
(median import of porousflow and numpy plus config parsing) and
``peak_rss_mb`` (median child ``ru_maxrss``). No tail percentile is reported:
a run has too few samples for one with ten samples beyond it. The share of
failed runs is ``failed / attempted`` in the result line.

``--trace 1`` makes the untraced runs (at least one) and then one traced run
(see ``tracer.py``), whose outputs must match the untraced runs byte for byte,
and reports the per-layer metrics of the traced run plus ``trace.unattributed_s``
(traced ``wall_s`` minus the top-level spans) and ``trace.overhead_s``
(traced minus untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full report with the
environment record, every sample and every check lands in
``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_results

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 7
# every child must end by then, so the whole run ends within 180 s
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workdir: Path, tag: str, args: list[str], deadline: float) -> dict:
    """Run one child; returns its measurements plus ``rc`` and ``seconds``."""
    result_file = workdir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_file), *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
        rc, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        rc, err = -1, "timed out"
    out = {"rc": rc, "seconds": time.perf_counter() - start}
    if rc == 0:
        out.update(json.loads(result_file.read_text()))
    else:
        out["stderr"] = err[-2000:]
    return out


def output_files(outdir: Path) -> dict:
    return {
        str(p.relative_to(outdir)): p.read_bytes()
        for p in sorted(outdir.rglob("*")) if p.is_file()
    }


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "porousflow").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "porousflow" / "cli.py").is_file():
        print(f"porousflow sources not found under {SRC}", file=sys.stderr)
        return 2

    t_begin = time.perf_counter()
    deadline = t_begin + DEADLINE_S
    spec = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = workdir / "config.ini"
    config.write_text(spec["config"])
    common = ["--config", str(config), "--seed", str(args.seed)]

    setups = [
        run_child(workdir, f"setup{i}", [*common, "--setup-only"], deadline)
        for i in range(SETUP_SAMPLES)
    ]

    runs: list[dict] = []
    problems: list[str] = []
    reference_files = None

    def experiment(tag: str, trace: bool) -> dict:
        nonlocal reference_files
        outdir = workdir / tag
        extra = ["--trace"] if trace else []
        run = run_child(workdir, tag, [*common, "--out", str(outdir), *extra], deadline)
        run["tag"] = tag
        errors = []
        if run["rc"] != 0:
            errors.append(f"exit code {run['rc']}: {run.get('stderr', '').strip()}")
        elif not (outdir / "summary.json").is_file():
            errors.append("no summary.json written")
        else:
            summary = json.loads((outdir / "summary.json").read_text())
            errors += check_results(spec["reference"], summary.get("results"))
            files = output_files(outdir)
            if reference_files is None:
                reference_files = files
            elif files != reference_files:
                differ = sorted(
                    k for k in files.keys() | reference_files.keys()
                    if files.get(k) != reference_files.get(k)
                )
                errors.append(f"outputs differ from the first run: {differ}")
        run["failed"] = bool(errors)
        problems.extend(f"{tag}: {error}" for error in errors)
        runs.append(run)
        return run

    min_runs = 1 if args.trace else 2
    t_loop = time.perf_counter()
    untraced: list[dict] = []
    while len(untraced) < min_runs or (
        time.perf_counter() - t_loop
        + statistics.median(r["seconds"] for r in untraced) <= args.seconds
    ):
        untraced.append(experiment(f"run{len(untraced)}", trace=False))
    traced = experiment("traced", trace=True) if args.trace else None

    ok = [r for r in untraced if r["rc"] == 0]
    setup_ok = [r["setup_s"] for r in setups + runs if r["rc"] == 0]
    if not ok or not setup_ok or (traced is not None and traced["rc"] != 0):
        for line in problems:
            print(line, file=sys.stderr)
        print("no successful run to measure", file=sys.stderr)
        return 1

    if args.trace:
        from tracer import layer_metrics, top_level_s

        wall = traced["wall_s"]
        metrics = layer_metrics(traced["spans"])
        metrics["trace.unattributed_s"] = (wall - top_level_s(traced["spans"]), "s")
        metrics["trace.overhead_s"] = (wall - statistics.median(r["wall_s"] for r in ok), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in ok), "s"),
            "setup_s": (statistics.median(setup_ok), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
        }
    failed = sum(r["failed"] for r in runs)
    line = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    first = ok[0]
    report = {
        "environment": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "python": first["python"],
            "numpy": first["numpy"],
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "cli_threads": 1,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workload": args.workload,
        "why": spec["why"],
        "config": spec["config"],
        "result": line,
        "failed_frac": failed / len(runs),
        "problems": problems,
        "setup_samples_s": setup_ok,
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
        "total_s": time.perf_counter() - t_begin,
    }
    if traced is not None:
        (workdir / "spans.json").write_text(json.dumps(traced["spans"]))
        report["absent_layers"] = traced["absent"]
    (workdir / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    for text in problems:
        print(text, file=sys.stderr)
    print(
        f"{args.workload}: {len(ok)} of {len(untraced)} untraced runs exited 0, "
        f"{len(setup_ok)} set-up samples, failed_frac {failed / len(runs):.3g}"
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
