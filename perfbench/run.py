"""nslab benchmark: drives `nslab.cli.main` on one generated workload.

    python3 perfbench/run.py --workload shift-quartic-sphere --seed 1 --seconds 60 --trace 0

Each repetition is one fresh worker process (perfbench/worker.py) making
one CLI call, as a user running the tool does; repetitions run back to back
for --seconds seconds.  After each call the artifacts are checked
independently (perfbench/check.py).  Times are scaled to a reference machine
speed measured around each call (perfbench/calibrate.py); the raw wall times
are printed beside them and kept in the record.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced calls
and prints the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object.

A record of every run, with the machine and environment it ran on, is
written to .perfbench/results/ in the checkout; each traced call writes its
spans to .perfbench/spans/, the last one of a run remaining.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_PASS_S
from check import check_run
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

# The measured process uses at most one BLAS/OpenMP thread, so a run never
# asks for more threads than the machine's cores.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 100
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "artifact_mb": "MB"}


def is_time(name):
    """Per-layer metrics ending in .s are self times; all others are exact
    counts or ratios of counts, which must repeat between traced calls."""
    return name.endswith(".s")


def layer_unit(name):
    if is_time(name):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("cols_per_call"):
        return "cols/call"
    if name.endswith("per_point"):
        return "count/point"
    return "count"


def _read(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record():
    """Cores, CPU model, caches, Python/numpy/BLAS versions and git commit."""
    import numpy as np
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if index.startswith("index"):
            level = _read(os.path.join(base, index, "level")).strip()
            kind = _read(os.path.join(base, index, "type")).strip()
            caches[f"L{level} {kind}"] = _read(os.path.join(base, index, "size")).strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "commit": commit, "pinned_env": PINNED_ENV}


def digests(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_once(workload, scenario, scenario_path, seed, work, rep, spans):
    """One worker process: one CLI call, traced when `spans` names the file
    for its spans; returns the call's figures and problems."""
    out_dir = os.path.join(work, f"out{rep}")
    result_path = os.path.join(work, f"result{rep}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--command", workload.command, "--scenario", scenario_path,
           "--out", out_dir, "--result", result_path]
    if workload.seed_arg:
        cmd += ["--seed", str(seed)]
    if spans:
        cmd += ["--trace", spans]
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, [f"worker exceeded {WORKER_TIMEOUT_S} s"]
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, [f"worker exit {proc.returncode}: {tail[0]}"]
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    problems = check_run(workload.command, out_dir, scenario, res["exit"])
    if os.path.isdir(out_dir):
        res["artifact_mb"] = sum(os.path.getsize(os.path.join(out_dir, f))
                                 for f in os.listdir(out_dir)) / 1e6
        res["sha256"] = digests(out_dir)
        shutil.rmtree(out_dir)
    return res, problems


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def cross_check(reps):
    """Every call at one seed must write the same bytes, traced or not, and
    traced calls must repeat their exact counts."""
    ok = [r for r in reps if not r["problems"]]
    traced = [r for r in ok if r["traced"]]
    for r in ok:
        if r["res"]["sha256"] != ok[0]["res"]["sha256"]:
            r["problems"].append("artifacts differ from the first call's sha256")
        if r["traced"]:
            ref = traced[0]["res"]["layers"]
            diff = [k for k, v in r["res"]["layers"].items()
                    if not is_time(k) and v != ref[k]]
            if diff:
                r["problems"].append(f"exact counts differ between traced calls: {diff}")


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = os.path.join(STATE, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    scenario = workload.scenario(seed)
    scenario_path = os.path.join(work, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=1)

    # Traced runs start untraced, traced, traced, then alternate, so every
    # run has an untraced reference and two traced calls to compare.
    kinds = itertools.chain("UTT", itertools.cycle("UT")) if trace else itertools.repeat("U")
    minimum = 3 if trace else 1
    spans = os.path.join(STATE, "spans", f"{name}-seed{seed}.json")
    if trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    reps, slowest, started = [], 0.0, time.perf_counter()
    for rep, kind in enumerate(kinds):
        elapsed = time.perf_counter() - started
        if rep >= minimum and elapsed + slowest > seconds:
            break
        t0 = time.perf_counter()
        res, problems = run_once(workload, scenario, scenario_path, seed, work,
                                 rep, spans if kind == "T" else None)
        slowest = max(slowest, time.perf_counter() - t0)
        reps.append({"traced": kind == "T", "res": res, "problems": problems})

    cross_check(reps)
    shutil.rmtree(work)
    return scenario, reps


def normalised(seconds, res, after=False):
    """Seconds at the reference machine speed: scaled by the reference
    kernel's time around the call (after it, for the set-up that follows)."""
    calib = res["calib_s"][1] if after else statistics.mean(res["calib_s"])
    return seconds * REFERENCE_PASS_S / calib


def summarise(reps, trace):
    """Metrics from the successful calls of one run, and their samples."""
    good = [r["res"] for r in reps if not r["problems"]]
    untraced = [r for r in good if r["layers"] is None]
    traced = [r for r in good if r["layers"] is not None]
    samples = {}
    if untraced:
        samples["run_s"] = [normalised(r["wall_s"], r) for r in untraced]
        samples["run_s.raw"] = [r["wall_s"] for r in untraced]
        samples["setup_s"] = [normalised(s, r, after=True)
                              for r in untraced for s in r["setup_s"]]
        samples["setup_s.raw"] = [s for r in untraced for s in r["setup_s"]]
        samples["calib_s"] = [c for r in untraced for c in r["calib_s"]]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
        samples["artifact_mb"] = [r["artifact_mb"] for r in untraced]
    metrics = {}
    if not trace:
        for key, unit in END_TO_END_UNITS.items():
            if key in samples:
                metrics[key] = {"value": statistics.median(samples[key]), "unit": unit}
        return metrics, samples
    if traced:
        for key in traced[0]["layers"]:
            if is_time(key):
                samples[key] = [r["layers"][key] for r in traced]
                value = statistics.median(samples[key])
            else:
                value = traced[0]["layers"][key]
            metrics[key] = {"value": value, "unit": layer_unit(key)}
        samples["traced_run_s"] = [normalised(r["wall_s"], r) for r in traced]
        if untraced:
            overhead = (statistics.median(samples["traced_run_s"])
                        / statistics.median(samples["run_s"]) - 1.0)
            metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics, samples


def report(name, seed, reps, metrics, samples):
    """Print every metric by name with its unit; return the failed calls."""
    failed = sum(1 for r in reps if r["problems"])
    print(f"workload {name}  seed {seed}  calls {len(reps)}  failed {failed}")
    for r in reps:
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")
    for key, m in metrics.items():
        vals = samples.get(key, [])
        note = ""
        if len(vals) > 1:
            q1, q3 = quartiles(vals)
            note = f"median of {len(vals)}, quartiles {q1:.6g} .. {q3:.6g}"
        if f"{key}.raw" in samples:
            note += (f"; scaled to the reference speed, raw median "
                     f"{statistics.median(samples[key + '.raw']):.6g} s")
        if key == "trace.overhead":
            note = (f"traced median of {len(samples['traced_run_s'])} calls "
                    f"over untraced median of {len(samples['run_s'])}")
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}   {note}")
    print(f"  {'error_rate':34s} {failed / len(reps):.6g} ratio   "
          f"{failed} of {len(reps)} calls failed")
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description="nslab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nslab", "cli.py")):
        print(f"perfbench: no nslab sources under {ROOT}/src", file=sys.stderr)
        return 2

    scenario, reps = measure(args.workload, args.seed, args.seconds, args.trace)
    metrics, samples = summarise(reps, args.trace)
    failed = report(args.workload, args.seed, reps, metrics, samples)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "why": WORKLOADS[args.workload].why, "machine": machine_record(),
              "scenario": scenario, "metrics": metrics, "samples": samples,
              "problems": [r["problems"] for r in reps]}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    m = record["machine"]
    print(f"machine: {m['cpus_usable']}/{m['cpu_count']} cpus, {m['cpu_model']}, "
          f"Python {m['python']}, numpy {m['numpy']}, {m['blas']}; record {path}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
