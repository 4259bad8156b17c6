"""The measured process: one `nslab.cli.main` call on a generated scenario.

run.py starts one worker per repetition, with the thread-count pins set in
its environment before numpy loads.  The worker times the reference kernel
of calibrate.py, the CLI call, the kernel again, then the scenario set-up
alone several times, and writes these raw figures as JSON to the --result
path.  With --trace it runs the CLI call under the tracer and writes the
spans once, after the call.

    python3 perfbench/worker.py --command shift --scenario S --out DIR \
        --result R.json [--seed N] [--trace SPANS.json]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 30


def import_nslab():
    """Import nslab from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import nslab
    if os.path.dirname(os.path.dirname(os.path.abspath(nslab.__file__))) != src:
        raise ImportError(f"nslab imported from {nslab.__file__}, not {src}")


def time_setup(cli, scenario_path):
    """Scenario load plus the build_* calls the scenario needs, in seconds."""
    start = time.perf_counter()
    scenario = cli.load_scenario(scenario_path)
    system = cli.build_system(scenario)
    if "surface" in scenario:
        cli.build_surface(scenario, system.n)
    if "connection" in scenario:
        cli.build_gamma(scenario, system.n)
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", default=None, help="span file to write")
    args = parser.parse_args(argv)

    import_nslab()
    from nslab import cli
    argv_cli = [args.command, "--scenario", args.scenario, "--out", args.out]
    if args.seed is not None:
        argv_cli += ["--seed", str(args.seed)]

    tracer = None
    calibrate.kernel()
    calib_before = calibrate.pass_seconds()
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        with tracer:
            start = time.perf_counter()
            code = cli.main(argv_cli)
            wall = time.perf_counter() - start
    else:
        start = time.perf_counter()
        code = cli.main(argv_cli)
        wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib_after = calibrate.pass_seconds()
    setup = [time_setup(cli, args.scenario) for _ in range(SETUP_REPS)]

    result = {"exit": code, "wall_s": wall, "setup_s": setup,
              "calib_s": [calib_before, calib_after],
              "peak_rss_mb": peak_kib * 1024 / 1e6,
              "layers": tracer.metrics() if tracer else None}
    if tracer:
        tracer.write(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
