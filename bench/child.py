"""One benchmark child process: set up porousflow, optionally run one
experiment through ``porousflow.cli.run``, and write its measurements as JSON.

    python3 bench/child.py --config CFG --seed N --result FILE \
        (--setup-only | --out DIR [--trace])

``setup_s`` covers a fresh interpreter's import of porousflow (and numpy) and
the parsing of the config. ``wall_s`` runs from ``cli.run`` entry until
``summary.json`` is written. ``peak_rss_mb`` is this process's ``ru_maxrss``.
With ``--trace`` the layer functions are wrapped first (see tracer.py) and
the spans are written with the result when the run ends.
"""

import argparse
import json
import platform
import resource
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import numpy
    from porousflow import cli

    cfg = cli.RunConfig.from_file(args.config)
    result = {
        "setup_s": time.perf_counter() - t0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        cli.run(cfg, Path(args.out), seed=args.seed, threads=1)
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            result["spans"] = tracer.spans
            result["absent"] = tracer.absent
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
