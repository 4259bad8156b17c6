"""Independent check of the artifacts one CLI run left on disk.

The check reads the CSV and JSON files themselves and recomputes the
summary values from the rows; it never trusts the program's own `checks`
block.  Each function returns a list of problems, empty when the run is
correct, so that a failed run is counted in `error_rate`.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RESIDUAL_LIMIT = 1e-9
NORM_COLUMNS = ("weak_a", "weak_b", "add_sym", "add_proj")


class _Invalid(ValueError):
    pass


def _reject_constant(token):
    raise _Invalid(f"non-finite JSON token {token}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise _Invalid(f"non-finite JSON number {text}")
    return value


def read_json(path):
    """Parse strictly: NaN, Infinity and overflowing numbers are errors."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant,
                         parse_float=_finite_float)


def read_csv(path):
    """Return (header, rows) with every field a finite number."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    if rows.shape[1] != len(header):
        raise _Invalid(f"{os.path.basename(path)}: {rows.shape[1]} columns, "
                       f"header names {len(header)}")
    if not np.isfinite(rows).all():
        raise _Invalid(f"{os.path.basename(path)}: non-finite value")
    return header, rows


def _columns(header, rows, prefix):
    idx = [k for k, name in enumerate(header)
           if name.startswith(prefix) and name[len(prefix):].isdigit()]
    return rows[:, idx]


def _guard(fn):
    """Turn a parse failure of an artifact into a reported problem."""
    def wrapped(*args):
        try:
            return fn(*args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
    wrapped.__doc__ = fn.__doc__
    return wrapped


@_guard
def check_shift(out_dir, scenario):
    """shift.csv holds (steps + 1) x nodes finite rows, and its largest |phi|
    per component equals the summary's max_abs_phi and stays within max_phi."""
    run = scenario["run"]
    steps = max(int(round(run["t_end"] / run["step"])), 1)
    nodes = math.prod(run["grid"])
    header, rows = read_csv(os.path.join(out_dir, "shift.csv"))
    summary = read_json(os.path.join(out_dir, "shift_summary.json"))
    problems = []
    if rows.shape[0] != (steps + 1) * nodes:
        problems.append(f"shift.csv has {rows.shape[0]} rows, "
                        f"expected {(steps + 1) * nodes}")
    max_phi = np.abs(_columns(header, rows, "phi")).max(axis=0).tolist()
    if max_phi != summary["max_abs_phi"]:
        problems.append(f"max |phi| from shift.csv {max_phi} differs from "
                        f"summary {summary['max_abs_phi']}")
    limit = run["tolerances"]["max_phi"]
    if max(max_phi) > limit:
        problems.append(f"max |phi| {max(max_phi)} above {limit}")
    return problems


@_guard
def check_residuals(out_dir, scenario):
    """residuals.csv holds one finite row per sampled point, and each norm
    column's largest value equals residuals.json and is within 1e-9."""
    header, rows = read_csv(os.path.join(out_dir, "residuals.csv"))
    report = read_json(os.path.join(out_dir, "residuals.json"))
    problems = []
    count = scenario["run"]["samples"]
    if rows.shape[0] != count or report["count"] != count:
        problems.append(f"{rows.shape[0]} rows and count {report['count']}, "
                        f"expected {count}")
    for name in NORM_COLUMNS:
        worst = float(rows[:, header.index(name)].max())
        if worst != report[f"max_{name}"]:
            problems.append(f"max {name} from residuals.csv {worst} differs "
                            f"from residuals.json {report[f'max_{name}']}")
        if worst > RESIDUAL_LIMIT:
            problems.append(f"max {name} {worst} above {RESIDUAL_LIMIT}")
    return problems


CHECKS = {"shift": check_shift, "residuals": check_residuals}


def check_run(command, out_dir, scenario, exit_code):
    """All problems of one run: exit code, artifact values, recomputed maxima."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    return problems + CHECKS[command](out_dir, scenario)
