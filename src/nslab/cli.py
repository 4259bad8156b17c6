"""Scenario-driven command line front end.

A scenario is one JSON document describing the model, force, connection,
surface and run parameters of an experiment.  Subcommands orchestrate the
library and emit deterministic CSV/JSON artifacts: identical scenario and
seed give byte-identical outputs.  Exit codes: 0 all assertions pass,
2 validation or parse failure, 3 numeric failure, 4 tolerance failure.

Random sampling uses numpy's PCG64 generator seeded from the scenario (or
the --seed override), so sampled points are reproducible across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import expr
from .calculus import (CotangentState, HamiltonianModel, LagrangianModel,
                       SampleDomain, TangentState, check_regularity,
                       invert_legendre_array)
from .dynamics import ForceField, NewtonianSystem, integrate
from .errors import (NslabNumericError, NslabValidationError, ParseError,
                     ValidationError)
from .hypersurface import (Hypersurface, pfaff_compatibility_residual,
                           run_shift, solve_nu_curve, solve_nu_grid)
from .normality import (connection_invariance_check, evaluate_residuals,
                        in_blocks, point_columns)
from .tensorfields import (ConnectionShift, ExtendedConnection,
                           commutator_residual)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_TOLERANCE = 4


def _require(scenario, key, kind=None):
    if key not in scenario:
        raise ValidationError(key, "missing scenario section")
    value = scenario[key]
    if kind is not None and not isinstance(value, kind):
        raise ValidationError(key, f"expected {kind.__name__}")
    return value


def load_scenario(path):
    if not os.path.exists(path):
        raise ValidationError("scenario", f"file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise ValidationError("scenario", "top level must be an object")
    return doc


def build_model(scenario):
    model = _require(scenario, "model", dict)
    n = _require(model, "dimension", int)
    if n < 2:
        raise ValidationError("model.dimension", "needs n >= 2")
    lag = None
    if model.get("lagrangian"):
        lag = LagrangianModel(n, model["lagrangian"])
    if model.get("hamiltonian"):
        return HamiltonianModel.from_expression(n, model["hamiltonian"],
                                                lagrangian=lag)
    if lag is None:
        raise ValidationError("model", "needs a lagrangian or a hamiltonian")
    return HamiltonianModel.from_lagrangian(lag)


def build_system(scenario):
    hmodel = build_model(scenario)
    n = hmodel.n
    force = scenario.get("force")
    if force is None:
        return NewtonianSystem(hmodel, ForceField.zero(n))
    if not isinstance(force, list):
        raise ValidationError("force", "expected a list of component expressions")
    return NewtonianSystem(hmodel, ForceField(n, force))


def _connection_from(entry, n, cls):
    arr = np.asarray(entry, dtype=object)
    if arr.shape != (n, n, n):
        raise ValidationError("connection", f"expected {n}x{n}x{n} components")
    comps = np.empty((n, n, n), dtype=object)
    for idx in np.ndindex(n, n, n):
        comps[idx] = expr.parse(arr[idx]) if isinstance(arr[idx], str) else arr[idx]
    return cls(n, comps)


def build_gamma(scenario, n):
    section = scenario.get("connection") or {}
    entry = section.get("gamma")
    if entry is None:
        return ExtendedConnection.flat(n)
    return _connection_from(entry, n, ExtendedConnection)


def build_shift_tensor(scenario, n):
    section = scenario.get("connection") or {}
    entry = section.get("shift")
    if entry is None:
        return None
    return _connection_from(entry, n, ConnectionShift)


def build_surface(scenario, n):
    section = _require(scenario, "surface", dict)
    return Hypersurface(n, _require(section, "chart", list),
                        _require(section, "box", list),
                        base_point=section.get("base"))


def _run_section(scenario):
    return scenario.get("run") or {}


def _seed(scenario, override):
    if override is not None:
        return int(override)
    return int(_run_section(scenario).get("seed", 0))


def sample_costates(hmodel, scenario, seed):
    model = _require(scenario, "model", dict)
    n = hmodel.n
    box = np.asarray(model.get("x_box", [[-1.0, 1.0]] * n), dtype=float)
    lo, hi = model.get("fiber_range", [0.1, 10.0])
    count = int(_run_section(scenario).get("samples", 100))
    dom = SampleDomain(x_box=box, fiber_range=(lo, hi), count=count, seed=seed)
    xs, ps = dom.sample(n)
    return [CotangentState(xs[:, k], ps[:, k]) for k in range(count)]


def _json_ready(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def emit_json(payload, out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_ready(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def emit_csv(rows, header, out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(c)) if isinstance(c, (float, np.floating))
                              else str(c) for c in row) + "\n")
    return path


def _tolerances(scenario):
    return _run_section(scenario).get("tolerances") or {}


def cmd_check_regularity(scenario, out_dir, seed):
    model = _require(scenario, "model", dict)
    hmodel = build_model(scenario)
    if hmodel.lagrangian is None:
        raise ValidationError("model.lagrangian", "regularity check needs L")
    n = hmodel.n
    box = np.asarray(model.get("x_box", [[-1.0, 1.0]] * n), dtype=float)
    lo, hi = model.get("fiber_range", [0.1, 10.0])
    dom = SampleDomain(x_box=box, fiber_range=(lo, hi),
                       count=int(_run_section(scenario).get("samples", 100)),
                       seed=seed)
    report = check_regularity(hmodel.lagrangian, dom)
    payload = {"seed": seed, "count": report.count,
               "min_omega": report.min_omega,
               "min_abs_det": report.min_abs_det,
               "max_roundtrip": report.max_roundtrip,
               "passed": report.passed, "failures": report.failures}
    emit_json(payload, out_dir, "regularity.json")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_simulate(scenario, out_dir, seed):
    system = build_system(scenario)
    run = _run_section(scenario)
    init = _require(run, "init", dict)
    x0 = np.asarray(_require(init, "x", list), dtype=float)
    if "p" in init:
        state = CotangentState(x0, np.asarray(init["p"], dtype=float))
    elif "v" in init:
        state = TangentState(x0, np.asarray(init["v"], dtype=float))
    else:
        raise ValidationError("run.init", "needs p or v")
    traj = integrate(system, state, float(run.get("t_end", 1.0)),
                     float(run.get("step", 1e-3)))
    os.makedirs(out_dir, exist_ok=True)
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"))
    emit_json({"seed": seed, "rep": traj.rep, "steps": len(traj.t) - 1,
               "t_end": float(traj.t[-1]),
               "final_x": traj.xs[-1], "final_fiber": traj.fibers[-1]},
              out_dir, "simulate_summary.json")
    return EXIT_OK


def _solve_nu(surface, system, scenario):
    run = _run_section(scenario)
    section = _require(scenario, "surface", dict)
    nu0 = float(section.get("nu0", 1.0))
    grid = run.get("grid")
    if surface.m == 1:
        count = int(grid[0]) if grid else 201
        axis = np.linspace(surface.box[0, 0], surface.box[0, 1], count)
        return solve_nu_curve(surface, system, nu0, axis=axis)
    counts = [int(g) for g in grid] if grid else None
    return solve_nu_grid(surface, system, nu0, counts=counts)


def cmd_nu(scenario, out_dir, seed):
    system = build_system(scenario)
    surface = build_surface(scenario, system.n)
    nufield = _solve_nu(surface, system, scenario)
    theta = pfaff_compatibility_residual(surface, system, nufield, surface.y0)
    payload = {"seed": seed,
               "nu_min": float(nufield.values.min()),
               "nu_max": float(nufield.values.max()),
               "nu0": nufield.nu0,
               "path_discrepancy": nufield.path_discrepancy,
               "theta_residual_max": float(np.abs(theta).max()),
               "grid_shape": list(nufield.values.shape)}
    tol = _tolerances(scenario)
    checks = {}
    if "theta" in tol:
        checks["theta"] = {"limit": tol["theta"],
                           "value": payload["theta_residual_max"],
                           "passed": payload["theta_residual_max"] <= tol["theta"]}
    if "path_discrepancy" in tol and nufield.path_discrepancy is not None:
        checks["path_discrepancy"] = {
            "limit": tol["path_discrepancy"],
            "value": nufield.path_discrepancy,
            "passed": nufield.path_discrepancy <= tol["path_discrepancy"]}
    payload["checks"] = checks
    emit_json(payload, out_dir, "nu.json")
    ok = all(c["passed"] for c in checks.values())
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_shift(scenario, out_dir, seed):
    system = build_system(scenario)
    surface = build_surface(scenario, system.n)
    run = _run_section(scenario)
    nufield = _solve_nu(surface, system, scenario)
    family = run_shift(surface, system, nufield, float(run.get("t_end", 1.0)),
                       float(run.get("step", 1e-3)))
    grid_shape = nufield.values.shape
    rows = []
    n, m = surface.n, surface.m
    for k in range(len(family.t)):
        for flat, idx in enumerate(np.ndindex(*grid_shape)):
            sel = (k,) + idx
            rows.append([family.t[k], flat]
                        + [float(c) for c in family.xs[sel]]
                        + [float(c) for c in family.ps[sel]]
                        + [float(c) for c in family.phi[sel]])
    header = (["t", "node"] + [f"x{i+1}" for i in range(n)]
              + [f"p{i+1}" for i in range(n)]
              + [f"phi{i+1}" for i in range(m)])
    emit_csv(rows, header, out_dir, "shift.csv")
    theta = (pfaff_compatibility_residual(surface, system, nufield, surface.y0)
             if m >= 2 else np.zeros((m, m)))
    payload = {"seed": seed,
               "max_abs_phi": family.max_abs_phi,
               "nu_min": float(nufield.values.min()),
               "nu_max": float(nufield.values.max()),
               "path_discrepancy": nufield.path_discrepancy,
               "theta_residual_max": float(np.abs(theta).max()),
               "t_end": float(family.t[-1]), "grid_shape": list(grid_shape)}
    tol = _tolerances(scenario)
    checks = {}
    if "max_phi" in tol:
        worst = float(family.max_abs_phi.max())
        checks["max_phi"] = {"limit": tol["max_phi"], "value": worst,
                             "passed": worst <= tol["max_phi"]}
    payload["checks"] = checks
    emit_json(payload, out_dir, "shift_summary.json")
    ok = all(c["passed"] for c in checks.values())
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_residuals(scenario, out_dir, seed):
    system = build_system(scenario)
    gamma = build_gamma(scenario, system.n)
    states = sample_costates(system.model, scenario, seed)
    report = evaluate_residuals(system, gamma, states)
    rows = []
    for k, pt in enumerate(report.points):
        norms = pt.max_abs
        rows.append([k] + [float(c) for c in pt.x] + [float(c) for c in pt.p]
                    + [norms["weak_a"], norms["weak_b"],
                       norms["add_sym"] if norms["add_sym"] is not None else "",
                       norms["add_proj"] if norms["add_proj"] is not None else ""])
    n = system.n
    header = (["point"] + [f"x{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
              + ["weak_a", "weak_b", "add_sym", "add_proj"])
    emit_csv(rows, header, out_dir, "residuals.csv")
    payload = {"seed": seed, "count": len(report.points),
               "max_weak_a": report.max_weak_a, "max_weak_b": report.max_weak_b,
               "max_add_sym": report.max_add_sym,
               "max_add_proj": report.max_add_proj,
               "points": [{"x": pt.x, "p": pt.p,
                           "values": {"weak_a": pt.weak_a, "weak_b": pt.weak_b,
                                      "add_sym": pt.add_sym,
                                      "add_proj": pt.add_proj},
                           **pt.max_abs}
                          for pt in report.points]}
    tol = _tolerances(scenario)
    checks = {}
    if "normal" in tol:
        limit = float(tol["normal"])
        vals = [report.max_weak_a, report.max_weak_b]
        vals += [v for v in (report.max_add_sym, report.max_add_proj) if v is not None]
        worst = max(vals)
        checks["normal"] = {"limit": limit, "value": worst, "passed": worst <= limit}
    payload["checks"] = checks
    emit_json(payload, out_dir, "residuals.json")
    ok = all(c["passed"] for c in checks.values())
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_invariance(scenario, out_dir, seed):
    system = build_system(scenario)
    gamma = build_gamma(scenario, system.n)
    shift = build_shift_tensor(scenario, system.n)
    if shift is None:
        raise ValidationError("connection.shift", "invariance needs a shift tensor")
    states = sample_costates(system.model, scenario, seed)
    rep = connection_invariance_check(system, gamma, shift, states)
    payload = {"seed": seed, "count": len(states),
               "weak_a_diff": rep.weak_a_diff, "weak_b_diff": rep.weak_b_diff,
               "add_proj_diff": rep.add_proj_diff, "add_sym_diff": rep.add_sym_diff,
               "add_proj_magnitude": rep.add_proj_magnitude}
    tol = _tolerances(scenario)
    checks = {}
    if "invariance" in tol:
        limit = float(tol["invariance"])
        vals = [rep.weak_a_diff, rep.weak_b_diff]
        if rep.add_proj_diff is not None:
            vals.append(rep.add_proj_diff)
        worst = max(vals)
        checks["invariance"] = {"limit": limit, "value": worst,
                                "passed": worst <= limit}
    payload["checks"] = checks
    emit_json(payload, out_dir, "invariance.json")
    ok = all(c["passed"] for c in checks.values())
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_identities(scenario, out_dir, seed):
    system = build_system(scenario)
    hmodel = system.model
    gamma = build_gamma(scenario, system.n)
    states = sample_costates(hmodel, scenario, seed)
    lag = hmodel.lagrangian
    checks = {}

    def record(name, value, limit):
        checks[name] = {"value": float(value), "limit": limit,
                        "passed": bool(value <= limit)}

    n = system.n
    limits = {"unity_identity": 1e-12, "metric_duality": 1e-9,
              "legendre_roundtrip": 1e-9, "omega_representation_match": 1e-9}

    def block(x, p):
        data = hmodel.partials(x, p, order=2)
        omega = np.einsum("ib,ib->b", p, data.dp)
        live = np.abs(omega) > 1e-14
        out = {"unity_identity": np.abs(omega[live] / omega[live] - 1.0).max(initial=0.0)}
        if lag is not None:
            g = lag.lvv(x, data.dp)
            out["metric_duality"] = np.abs(np.einsum("ijb,jkb->ikb", g, data.dpp)
                                           - np.eye(n)[:, :, None]).max()
            vs, _ = invert_legendre_array(lag, x, p)
            back = lag.lv(x, vs)
            out["legendre_roundtrip"] = np.abs(back - p).max()
            out["omega_representation_match"] = np.abs(
                np.einsum("ib,ib->b", vs, back) - omega).max()
        return out

    xs, ps = point_columns(states, n)
    blocks = in_blocks(block, xs, ps)
    for name in blocks[0] if blocks else ():
        record(name, max(b[name] for b in blocks), limits[name])
    r1, r2 = commutator_residual(hmodel, gamma, CotangentState(xs[:, :20], ps[:, :20]),
                                 force=system.force)
    record("commutator_identities",
           max(np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0)), 1e-8)
    payload = {"seed": seed, "count": len(states), "checks": checks}
    emit_json(payload, out_dir, "identities.json")
    ok = all(c["passed"] for c in checks.values())
    return EXIT_OK if ok else EXIT_TOLERANCE


COMMANDS = {
    "check-regularity": cmd_check_regularity,
    "simulate": cmd_simulate,
    "shift": cmd_shift,
    "residuals": cmd_residuals,
    "invariance": cmd_invariance,
    "identities": cmd_identities,
    "nu": cmd_nu,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nslab",
        description="Normal-shift laboratory: simulations and normality checks")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        seed = _seed(scenario, args.seed)
        return COMMANDS[args.command](scenario, args.out, seed)
    except NslabValidationError as exc:
        print(f"nslab: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NslabNumericError as exc:
        print(f"nslab: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
