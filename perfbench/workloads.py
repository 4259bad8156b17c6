"""The benchmark workloads and the scenario generator behind them.

Every workload scenario is a pure function of the workload seed, so the same
seed gives byte-identical inputs.  Seed 0 reproduces the reference placement
(the shipped circle arc at angle 0, the shipped sphere patch centred at
(0.4, 0.4)); other seeds move the surface along a low-discrepancy sequence,
which keeps distinct seeds well spread without a random draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Irrational steps of the placement sequence: frac(seed * step) is 0 for
# seed 0 and equidistributed over [0, 1) for the other seeds.
_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)

QUARTIC_L3 = "0.25*(v1^2+v2^2+v3^2)^2"
RADIAL_FORCE3 = ["0.1*p1", "0.1*p2", "0.1*p3"]


def _placement(seed, k):
    return (seed * _STEPS[k]) % 1.0


def shift_circle(seed, nodes=201, t_end=1.0, step=0.001):
    """`circle_shift_radial` with the arc starting at a seed-chosen angle."""
    start = 2.0 * math.pi * _placement(seed, 0)
    return {
        "model": {"dimension": 2, "lagrangian": "0.5*(v1^2+v2^2)",
                  "x_box": [[-1, 1], [-1, 1]], "fiber_range": [0.1, 10.0]},
        "force": ["0.1*p1", "0.1*p2"],
        "surface": {"chart": ["cos(y1)", "sin(y1)"],
                    "box": [[start, start + 0.02]], "base": [start], "nu0": 1.0},
        "run": {"t_end": t_end, "step": step, "grid": [nodes], "seed": seed,
                "tolerances": {"max_phi": 1e-4}},
    }


def shift_quartic_sphere(seed, grid=17, t_end=0.5, step=0.001):
    """The `sphere_radial` patch under the quartic Lagrangian, whose
    Hamiltonian is derived by Newton inversion of the Legendre map.

    The seed moves the patch in longitude anywhere and its centre in
    latitude within (-0.4, 0.4], away from the poles where the chart
    degenerates.
    """
    dlon = 2.0 * math.pi * _placement(seed, 0)
    dlat = -0.8 * _placement(seed, 1)
    return {
        "model": {"dimension": 3, "lagrangian": QUARTIC_L3,
                  "x_box": [[-1, 1], [-1, 1], [-1, 1]], "fiber_range": [0.1, 10.0]},
        "force": RADIAL_FORCE3,
        "surface": {"chart": ["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"],
                    "box": [[0.2 + dlon, 0.6 + dlon], [0.2 + dlat, 0.6 + dlat]],
                    "base": [0.4 + dlon, 0.4 + dlat], "nu0": 1.0},
        "run": {"t_end": t_end, "step": step, "grid": [grid, grid], "seed": seed,
                "tolerances": {"max_phi": 1e-4}},
    }


def _affine_connection():
    """Connection affine in x and p: Gamma^k_ij = c + 0.1 x_m - 0.03 p_r,
    where c, m and r depend on k and the unordered pair {i, j} only, so
    Gamma is symmetric in its lower indices."""
    n = 3
    gamma = []
    for k in range(n):
        plane = []
        for i in range(n):
            row = []
            for j in range(n):
                lo, hi = min(i, j), max(i, j)
                c = 0.05 * (k + 1) - 0.02 * (lo + hi)
                m = (k + lo + hi) % n + 1
                row.append(f"{c:.2f}+0.1*x{m}-0.03*p{(k + hi) % n + 1}")
            plane.append(row)
        gamma.append(plane)
    return gamma


def residuals_quartic(seed, samples=2000):
    """Normality residuals of the quartic model with an affine connection;
    the seed reaches the program through the CLI `--seed` override."""
    return {
        "model": {"dimension": 3, "lagrangian": QUARTIC_L3,
                  "x_box": [[-1, 1], [-1, 1], [-1, 1]], "fiber_range": [0.1, 10.0]},
        "force": RADIAL_FORCE3,
        "connection": {"gamma": _affine_connection()},
        "run": {"samples": samples, "seed": 0,
                "tolerances": {"normal": 1e-9}},
    }


@dataclass(frozen=True)
class Workload:
    command: str                      # nslab subcommand
    scenario: Callable[[int], dict]   # seed -> scenario document
    seed_arg: bool                    # pass the seed as the CLI --seed too
    why: str                          # reason for choosing it, one line


# Each runs as a closed loop with one client: one CLI call at a time.
# BENCHMARK.json lists the two Newton workloads only: shift-circle's calls
# are mostly float formatting and file writes, whose slow-downs on a shared
# machine the reference kernel of calibrate.py tracks worst, so its
# run-to-run spread came too close to the run_s bound.  It stays runnable as
# the workload that bypasses Newton inversion and the per-point path.
WORKLOADS = {
    "shift-circle": Workload(
        "shift", shift_circle, False,
        "artifact emission and batched RK4 over 201 columns with closed-form "
        "quadratic Legendre inversion: no Newton, no per-point path"),
    "shift-quartic-sphere": Workload(
        "shift", shift_quartic_sphere, False,
        "the only Newton Legendre inversion inside RK4, plus the 2-D nu march "
        "and 24.9 MB of artifacts, so one layer's gain is weighed against others"),
    "residuals-quartic": Workload(
        "residuals", residuals_quartic, True,
        "the per-point path: tables and Legendre point by point through "
        "FieldPoint, no RK4, no nu march, little emission"),
}
