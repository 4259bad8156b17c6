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
from .calculus import (SINGULAR_CUTOFF, CotangentState, HamiltonianModel,
                       LagrangianModel, SampleDomain, TangentState,
                       check_regularity, invert_legendre_array)
from .dynamics import ForceField, NewtonianSystem, integrate, write_csv
from .errors import (NonFinite, NslabNumericError, NslabValidationError,
                     ParseError, ValidationError)
from .hypersurface import (Hypersurface, grid_axes, pfaff_compatibility_residual,
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


def _sample_domain(scenario, n, seed):
    """The scenario's sampling box, fiber radius range and sample count."""
    model = _require(scenario, "model", dict)
    box = np.asarray(model.get("x_box", [[-1.0, 1.0]] * n), dtype=float)
    lo, hi = model.get("fiber_range", [0.1, 10.0])
    count = int(_run_section(scenario).get("samples", 100))
    if count < 1:
        # with no points every maximum over the samples would pass by construction
        raise ValidationError("run.samples", "needs at least one sample")
    return SampleDomain(x_box=box, fiber_range=(lo, hi), count=count, seed=seed)


def sample_costates(hmodel, scenario, seed):
    xs, ps = _sample_domain(scenario, hmodel.n, seed).sample(hmodel.n)
    return [CotangentState(xs[:, k], ps[:, k]) for k in range(xs.shape[1])]


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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_json_ready(payload), fh, sort_keys=True, indent=2,
                      allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        os.remove(path)
        raise NonFinite(f"{name}: {exc}") from exc
    return path


def emit_csv(blocks, header, out_dir, name):
    """Write the column blocks as a CSV artifact (see dynamics.write_csv)."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    write_csv(path, header, blocks)
    return path


def _tolerance_checks(scenario, values):
    """A check for each named value whose tolerance the scenario sets."""
    tol = _run_section(scenario).get("tolerances") or {}
    return {name: _check(value, float(tol[name])) for name, value in values.items()
            if name in tol and value is not None}


def _check(value, limit):
    return {"limit": limit, "value": value, "passed": bool(value <= limit)}


def _finish(payload, checks, out_dir, name):
    """Emit the payload with its checks; exit 4 unless every check passed."""
    payload["checks"] = checks
    emit_json(payload, out_dir, name)
    return EXIT_OK if all(c["passed"] for c in checks.values()) else EXIT_TOLERANCE


def cmd_check_regularity(scenario, out_dir, seed):
    hmodel = build_model(scenario)
    if hmodel.lagrangian is None:
        raise ValidationError("model.lagrangian", "regularity check needs L")
    report = check_regularity(hmodel.lagrangian, _sample_domain(scenario, hmodel.n, seed))
    payload = {"seed": seed, "count": report.count,
               "min_omega": report.min_omega,
               "min_abs_det": report.min_abs_det,
               # a failed roundtrip (listed in failures) has no finite value
               "max_roundtrip": (report.max_roundtrip
                                 if np.isfinite(report.max_roundtrip) else None),
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
    nu0 = float(_require(scenario, "surface", dict).get("nu0", 1.0))
    grid = _run_section(scenario).get("grid")
    counts = [int(g) for g in grid] if grid else None
    if surface.m > 1:
        return solve_nu_grid(surface, system, nu0, counts=counts)
    axis = grid_axes(surface.box, counts)[0] if counts else None
    return solve_nu_curve(surface, system, nu0, axis=axis)


def _nu_summary(surface, system, nufield):
    """nu statistics and compatibility diagnostics shared by nu and shift."""
    theta = pfaff_compatibility_residual(surface, system, nufield, surface.y0)
    return {"nu_min": float(nufield.values.min()),
            "nu_max": float(nufield.values.max()),
            "path_discrepancy": nufield.path_discrepancy,
            "theta_residual_max": float(np.abs(theta).max()),
            "grid_shape": list(nufield.values.shape)}


def cmd_nu(scenario, out_dir, seed):
    system = build_system(scenario)
    surface = build_surface(scenario, system.n)
    nufield = _solve_nu(surface, system, scenario)
    payload = {"seed": seed, "nu0": nufield.nu0,
               **_nu_summary(surface, system, nufield)}
    checks = _tolerance_checks(scenario, {
        "theta": payload["theta_residual_max"],
        "path_discrepancy": nufield.path_discrepancy})
    return _finish(payload, checks, out_dir, "nu.json")


def cmd_shift(scenario, out_dir, seed):
    system = build_system(scenario)
    surface = build_surface(scenario, system.n)
    run = _run_section(scenario)
    nufield = _solve_nu(surface, system, scenario)
    family = run_shift(surface, system, nufield, float(run.get("t_end", 1.0)),
                       float(run.get("step", 1e-3)))
    n, m = surface.n, surface.m
    steps, nodes = len(family.t), nufield.values.size
    header = (["t", "node"] + [f"x{i+1}" for i in range(n)]
              + [f"p{i+1}" for i in range(n)]
              + [f"phi{i+1}" for i in range(m)])
    emit_csv([np.repeat(family.t, nodes), np.tile(np.arange(nodes), steps),
              family.xs.reshape(-1, n), family.ps.reshape(-1, n),
              family.phi.reshape(-1, m)], header, out_dir, "shift.csv")
    payload = {"seed": seed, "max_abs_phi": family.max_abs_phi,
               "t_end": float(family.t[-1]), **_nu_summary(surface, system, nufield)}
    checks = _tolerance_checks(scenario, {"max_phi": float(family.max_abs_phi.max())})
    return _finish(payload, checks, out_dir, "shift_summary.json")


def cmd_residuals(scenario, out_dir, seed):
    system = build_system(scenario)
    gamma = build_gamma(scenario, system.n)
    states = sample_costates(system.model, scenario, seed)
    report = evaluate_residuals(system, gamma, states)
    n = system.n
    xs, ps = point_columns(states, n)
    families = ["weak_a", "weak_b", "add_sym", "add_proj"]
    # a family that was not evaluated (n = 2) is an empty cell
    norms = np.array([[pt.max_abs[f] if pt.max_abs[f] is not None else "" for f in families]
                      for pt in report.points], dtype=object)
    header = (["point"] + [f"x{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
              + families)
    emit_csv([np.arange(len(states)), xs.T, ps.T, norms], header, out_dir, "residuals.csv")
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
    worst = max(v for v in (report.max_weak_a, report.max_weak_b,
                            report.max_add_sym, report.max_add_proj) if v is not None)
    checks = _tolerance_checks(scenario, {"normal": worst})
    return _finish(payload, checks, out_dir, "residuals.json")


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
    worst = max(v for v in (rep.weak_a_diff, rep.weak_b_diff, rep.add_proj_diff)
                if v is not None)
    checks = _tolerance_checks(scenario, {"invariance": worst})
    return _finish(payload, checks, out_dir, "invariance.json")


def cmd_identities(scenario, out_dir, seed):
    system = build_system(scenario)
    hmodel = system.model
    gamma = build_gamma(scenario, system.n)
    states = sample_costates(hmodel, scenario, seed)
    lag = hmodel.lagrangian
    checks = {}
    n = system.n
    limits = {"unity_identity": 1e-12, "metric_duality": 1e-9,
              "legendre_roundtrip": 1e-9, "omega_representation_match": 1e-9}

    def block(x, p):
        data = hmodel.partials(x, p, order=2)
        omega = np.einsum("ib,ib->b", p, data.dp)
        # omega through L at v = dH/dp: differs from omega when H and L disagree
        omega_l = np.einsum("ib,ib->b", data.dp, lag.lv(x, data.dp))
        live = np.abs(omega_l) > SINGULAR_CUTOFF
        g = lag.lvv(x, data.dp)
        vs, _ = invert_legendre_array(lag, x, p)
        back = lag.lv(x, vs)
        return {"unity_identity": np.abs(omega[live] / omega_l[live] - 1.0).max(initial=0.0),
                "metric_duality": np.abs(np.einsum("ijb,jkb->ikb", g, data.dpp)
                                         - np.eye(n)[:, :, None]).max(),
                "legendre_roundtrip": np.abs(back - p).max(),
                "omega_representation_match": np.abs(
                    np.einsum("ib,ib->b", vs, back) - omega).max()}

    xs, ps = point_columns(states, n)
    # the unity, duality, roundtrip and omega checks compare H with L
    blocks = in_blocks(block, xs, ps) if lag is not None else []
    for name in blocks[0] if blocks else ():
        checks[name] = _check(float(max(b[name] for b in blocks)), limits[name])
    r1, r2 = commutator_residual(hmodel, gamma, CotangentState(xs[:, :20], ps[:, :20]),
                                 force=system.force)
    checks["commutator_identities"] = _check(
        float(max(np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0))), 1e-8)
    return _finish({"seed": seed, "count": len(states)}, checks, out_dir, "identities.json")


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
