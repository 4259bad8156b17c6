"""Scenario-driven command line front end.

A scenario is one JSON document describing the model, force, connection,
surface and run parameters of an experiment.  Subcommands orchestrate the
library and emit deterministic CSV, JSON and .npy artifacts: identical
scenario and seed give byte-identical outputs.  Every artifact is written
as <name>.part and renamed once complete (dynamics.replacing).  Exit codes:
0 all assertions pass, 2 validation or parse failure, 3 numeric failure,
4 tolerance failure, 5 a file that could not be read or written (an
OSError).

Sampled points come from a SplitMix64 generator in numpy integer arithmetic
(calculus.SampleDomain), seeded from the scenario or the --seed override:
they depend on the seed alone, not on the numpy version.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# invert_legendre_array, run_shift and solve_nu_curve stay names of this
# module, which perfbench's tracer wraps
from .calculus import (SINGULAR_CUTOFF, CotangentState, HamiltonianModel,  # noqa: F401
                       LagrangianModel, SampleDomain, TangentState,
                       check_regularity, invert_legendre_array)
from .dynamics import (ForceField, NewtonianSystem, integrate, replacing, time_steps,
                       write_csv)
from .errors import (NonFinite, NslabNumericError, NslabValidationError,
                     ParseError, ValidationError)
from .hypersurface import (Hypersurface, pfaff_compatibility_residual,  # noqa: F401
                           run_shift, shift_steps, solve_nu_curve, solve_nu_grid)
from .normality import (FAMILIES, connection_invariance_check,
                        evaluate_residuals, in_blocks)
from .tensorfields import ExtendedConnection, commutator_residual

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_TOLERANCE = 4
EXIT_IO = 5

# every name run.tolerances may set; each subcommand checks its own
TOLERANCES = ("max_phi", "normal", "theta", "path_discrepancy", "invariance")

# the dotted path of every key a scenario may set, each read by some
# subcommand; any other key would be ignored, its default used in silence
KEYS = ("model.dimension", "model.lagrangian", "model.hamiltonian", "model.x_box",
        "model.fiber_range", "force", "connection.gamma", "connection.shift",
        "surface.chart", "surface.box", "surface.base", "surface.nu0",
        "run.t_end", "run.step", "run.grid", "run.samples", "run.seed",
        "run.init.x", "run.init.p", "run.init.v", "run.tolerances")


def _check_keys(doc, prefix):
    """Exit 2 naming the dotted path of a key under `prefix` that KEYS does
    not list; a section that is not an object is left to its reader."""
    for key, value in doc.items():
        path = prefix + key
        if path in KEYS:
            continue
        if not any(k.startswith(path + ".") for k in KEYS):
            known = dict.fromkeys(k[len(prefix):].split(".")[0] for k in KEYS
                                  if k.startswith(prefix))
            raise ValidationError(path, f"unknown key, expected one of {', '.join(known)}")
        if isinstance(value, dict):
            _check_keys(value, path + ".")


def _require(section, path, kind=None):
    """The value of a key that must be present, named by its dotted path."""
    key = path.rpartition(".")[2]
    if key not in section:
        raise ValidationError(path, "missing scenario section")
    value = section[key]
    if kind is not None and not isinstance(value, kind):
        raise ValidationError(path, f"expected {kind.__name__}")
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
    n = _require(model, "model.dimension", int)
    if n < 2:
        raise ValidationError("model.dimension", "needs n >= 2")
    lag = None if model.get("lagrangian") is None else LagrangianModel(n, model["lagrangian"])
    if lag is None and model.get("hamiltonian") is None:
        raise ValidationError("model", "needs a lagrangian or a hamiltonian")
    return HamiltonianModel(n, lag, model.get("hamiltonian"))


def build_system(scenario):
    hmodel = build_model(scenario)
    n = hmodel.n
    force = scenario.get("force")
    return NewtonianSystem(hmodel, ForceField.zero(n) if force is None else ForceField(n, force))


def build_gamma(scenario, n):
    entry = _section(scenario, "connection").get("gamma")
    return ExtendedConnection.flat(n) if entry is None else ExtendedConnection(n, entry)


def build_shift_tensor(scenario, n):
    entry = _section(scenario, "connection").get("shift")
    return None if entry is None else ExtendedConnection(n, entry)


def build_surface(scenario, n):
    section = _require(scenario, "surface", dict)
    base = section.get("base")
    return Hypersurface(n, _require(section, "surface.chart"),
                        _pairs(section.get("box"), n - 1, "surface.box"),
                        base_point=None if base is None else _numbers(base, n - 1,
                                                                      "surface.base"))


def _section(scenario, key):
    """An optional object of the scenario: {} when it is absent."""
    section = scenario.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValidationError(key, "expected an object")
    return section


def _integer(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(key, "expected an integer")
    return value


def _number(value, key):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValidationError(key, "expected a finite number")
    return float(value)


def _numbers(value, length, key, item=_number):
    """A list of `length` finite numbers, or of integers with item=_integer."""
    if not isinstance(value, list) or len(value) != length:
        raise ValidationError(key, f"expected a list of {length} numbers")
    return [item(v, key) for v in value]


def _pairs(value, count, key):
    """`count` [low, high] pairs of finite numbers with low <= high, as a
    (count, 2) array."""
    if not isinstance(value, list) or len(value) != count:
        raise ValidationError(key, f"expected {count} [low, high] pairs")
    pairs = np.array([_numbers(pair, 2, key) for pair in value])
    if np.any(pairs[:, 0] > pairs[:, 1]):
        raise ValidationError(key, "each pair needs low <= high")
    return pairs


def _positive(value, key):
    value = _number(value, key)
    if value <= 0.0:
        raise ValidationError(key, "expected a positive number")
    return value


def _seed(scenario, override):
    """The --seed override, or else run.seed: an integer from 0 to 2**64 - 1,
    the generator's 64-bit state."""
    key = "run.seed" if override is None else "--seed"
    seed = _integer(_section(scenario, "run").get("seed", 0) if override is None
                    else override, key)
    if seed < 0:
        raise ValidationError(key, "expected a non-negative integer")
    if seed >= 2 ** 64:
        raise ValidationError(key, "expected an integer below 2**64")
    return seed


def _sample_domain(scenario, n, seed):
    """The scenario's sampling box, fiber radius range and sample count."""
    model = _require(scenario, "model", dict)
    box = _pairs(model.get("x_box", [[-1.0, 1.0]] * n), n, "model.x_box")
    lo, hi = _numbers(model.get("fiber_range", [0.1, 10.0]), 2, "model.fiber_range")
    if not 0.0 < lo <= hi:
        # a radius of 0 samples p = 0, where omega and every residual are undefined
        raise ValidationError("model.fiber_range", "needs 0 < low <= high")
    count = _integer(_section(scenario, "run").get("samples", 100), "run.samples")
    if count < 1:
        # with no points every maximum over the samples would pass by construction
        raise ValidationError("run.samples", "needs at least one sample")
    return SampleDomain(x_box=box, fiber_range=(lo, hi), count=count, seed=seed)


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


def _artifact(out_dir, name):
    """The path of the artifact `name`, its directory made first."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def emit_json(payload, out_dir, name):
    path = _artifact(out_dir, name)
    try:
        with replacing(path, "w") as fh:
            json.dump(_json_ready(payload), fh, sort_keys=True, indent=2,
                      allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        raise NonFinite(f"{name}: {exc}") from exc
    return path


def emit_npy(array, out_dir, name):
    """Write a float64 array as a C-ordered .npy artifact, whatever the
    layout it is given; NonFinite, and no file, if any entry is not finite."""
    array = np.asarray(array, dtype=np.float64, order="C")
    bad = np.argwhere(~np.isfinite(array))
    if len(bad):
        raise NonFinite(f"{name}: entry {tuple(bad[0].tolist())} is not finite")
    path = _artifact(out_dir, name)
    with replacing(path, "wb") as fh:
        np.save(fh, array)
    return path


def emit_csv(chunks, header, out_dir, name):
    """Write a CSV artifact from an iterable of chunks, each a list of
    column blocks (see dynamics.write_csv)."""
    path = _artifact(out_dir, name)
    write_csv(path, header, chunks)
    return path


def _tolerances(scenario):
    """run.tolerances: a finite number for each name it sets, each one of
    TOLERANCES, so that a misspelt name cannot turn its check off."""
    tol = _section(scenario, "run").get("tolerances") or {}
    if not isinstance(tol, dict):
        raise ValidationError("run.tolerances", "expected an object")
    for name in tol:
        if name not in TOLERANCES:
            raise ValidationError(f"run.tolerances.{name}", "unknown tolerance, expected "
                                  f"one of {', '.join(TOLERANCES)}")
    return {name: _number(limit, f"run.tolerances.{name}") for name, limit in tol.items()}


def _tolerance_checks(scenario, values):
    """A check for each named value whose tolerance the scenario sets."""
    tol = _tolerances(scenario)
    return {name: _check(value, tol[name]) for name, value in values.items() if name in tol}


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
    domain = _sample_domain(scenario, hmodel.n, seed)
    report = check_regularity(hmodel.lagrangian, domain)
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
    run = _section(scenario, "run")
    init = _require(run, "run.init", dict)
    x0 = np.array(_numbers(init.get("x"), system.n, "run.init.x"))
    if ("p" in init) == ("v" in init):
        raise ValidationError("run.init", "needs exactly one of p or v")
    if "p" in init:
        state = CotangentState(x0, np.array(_numbers(init["p"], system.n, "run.init.p")))
    else:
        state = TangentState(x0, np.array(_numbers(init["v"], system.n, "run.init.v")))
    traj = integrate(system, state, _positive(run.get("t_end", 1.0), "run.t_end"),
                     _positive(run.get("step", 1e-3), "run.step"))
    names = [f"{k}{i+1}" for k in ("x", "v" if traj.rep == "velocity" else "p")
             for i in range(system.n)]
    emit_csv([[traj.t, traj.xs, traj.fibers]], ["t"] + names, out_dir, "trajectory.csv")
    emit_json({"seed": seed, "rep": traj.rep, "steps": len(traj.t) - 1,
               "t_end": float(traj.t[-1]),
               "final_x": traj.xs[-1], "final_fiber": traj.fibers[-1]},
              out_dir, "simulate_summary.json")
    return EXIT_OK


def _grid(scenario, m):
    """run.grid: m node counts, or None for the solvers' default grid."""
    grid = _section(scenario, "run").get("grid")
    counts = None if grid is None else _numbers(grid, m, "run.grid", _integer)
    if counts and min(counts) < 1:
        raise ValidationError("run.grid", "needs at least 1 node per axis")
    return counts


def _solve_nu(surface, system, scenario):
    nu0 = _number(_require(scenario, "surface", dict).get("nu0", 1.0), "surface.nu0")
    return solve_nu_grid(surface, system, nu0, counts=_grid(scenario, surface.m))


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
    # a curve has no compatibility condition: theta is zero by construction
    # and there is no second sweep, so a tolerance on either exits 2 before
    # the march
    if surface.m == 1:
        for name in ("theta", "path_discrepancy"):
            if name in _tolerances(scenario):
                raise ValidationError(f"run.tolerances.{name}", "needs n >= 3")
    nufield = _solve_nu(surface, system, scenario)
    summary = _nu_summary(surface, system, nufield)
    payload = {"seed": seed, "nu0": nufield.nu0, **summary}
    checks = _tolerance_checks(scenario, {"theta": payload["theta_residual_max"],
                                          "path_discrepancy": nufield.path_discrepancy})
    return _finish(payload, checks, out_dir, "nu.json")


def cmd_shift(scenario, out_dir, seed):
    system = build_system(scenario)
    surface = build_surface(scenario, system.n)
    run = _section(scenario, "run")
    t_end = _positive(run.get("t_end", 1.0), "run.t_end")
    h = _positive(run.get("step", 1e-3), "run.step")
    n, m = surface.n, surface.m
    # the shifted family's tangent frames are second-order differences across
    # nodes: at least 3 per axis, a nonzero spacing apart
    if min(_grid(scenario, m) or [3]) < 3:
        raise ValidationError("run.grid", "needs at least 3 nodes per axis")
    if np.any(surface.box[:, 0] == surface.box[:, 1]):
        raise ValidationError("surface.box", "needs low < high on each axis")
    nufield = _solve_nu(surface, system, scenario)
    steps = shift_steps(surface, system, nufield, t_end, h)
    nodes = np.arange(nufield.values.size)
    max_abs_phi, t_last = np.zeros(m), None

    def rows(fx, fp):
        # the family streams one time step at a time, x and p to the arrays
        # and t, node and phi to shift.csv; only its largest |phi| and its
        # last time stay here
        nonlocal t_last
        for t_last, xs, ps, _, phi in steps:
            fx.write(np.asarray(xs, dtype="<f8").tobytes())
            fp.write(np.asarray(ps, dtype="<f8").tobytes())
            phi = phi.reshape(-1, m)
            np.maximum(max_abs_phi, np.abs(phi).max(axis=0), out=max_abs_phi)
            yield [np.full(nodes.size, t_last), nodes, phi]

    # the arrays' shape is known before RK4 starts, so their headers go first
    header = {"descr": "<f8", "fortran_order": False,
              "shape": (time_steps(t_end, h)[0] + 1, nodes.size, n)}
    with (replacing(_artifact(out_dir, "shift_x.npy"), "wb") as fx,
          replacing(_artifact(out_dir, "shift_p.npy"), "wb") as fp):
        for fh in (fx, fp):
            np.lib.format.write_array_header_1_0(fh, header)
        emit_csv(rows(fx, fp), ["t", "node"] + [f"phi{i+1}" for i in range(m)],
                 out_dir, "shift.csv")
    summary = _nu_summary(surface, system, nufield)
    payload = {"seed": seed, "max_abs_phi": max_abs_phi, "t_end": float(t_last),
               **summary}
    checks = _tolerance_checks(scenario, {"max_phi": float(max_abs_phi.max())})
    return _finish(payload, checks, out_dir, "shift_summary.json")


def _sample(scenario, n, seed):
    """The scenario's sampled cotangent points, x and p of shape (n, N).

    The sampler returns transposed views; the residual frames' einsums
    round differently on those, so the points are laid out in C order, the
    layout every residual artifact was computed from.
    """
    xs, ps = _sample_domain(scenario, n, seed).sample(n)
    return CotangentState(np.ascontiguousarray(xs), np.ascontiguousarray(ps))


def cmd_residuals(scenario, out_dir, seed):
    system = build_system(scenario)
    gamma = build_gamma(scenario, system.n)
    n = system.n
    points = _sample(scenario, n, seed)
    report = evaluate_residuals(system, gamma, points)
    # a family that was not evaluated (n = 2) has no .npy file and empty cells
    norms = [np.full(len(points), "", dtype=object)] * len(FAMILIES)
    for j, family in enumerate(FAMILIES):
        if report.values[family] is not None:
            emit_npy(report.values[family], out_dir, f"residuals_{family}.npy")
            norms[j] = report.norms[family]
    emit_npy(points.x.T, out_dir, "residuals_x.npy")
    emit_npy(points.p.T, out_dir, "residuals_p.npy")
    emit_csv([[np.arange(len(points)), *norms]], ["point", *FAMILIES], out_dir,
             "residuals.csv")
    payload = {"seed": seed, "count": len(points),
               "max_weak_a": report.max_weak_a, "max_weak_b": report.max_weak_b,
               "max_add_sym": report.max_add_sym,
               "max_add_proj": report.max_add_proj}
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
    points = _sample(scenario, system.n, seed)
    rep = connection_invariance_check(system, gamma, shift, points)
    payload = {"seed": seed, "count": len(points),
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
    points = _sample(scenario, system.n, seed)
    xs, ps = points.x, points.p
    lag = hmodel.lagrangian
    checks = {}
    n = system.n
    limits = {"unity_identity": 1e-12, "metric_duality": 1e-9,
              "legendre_roundtrip": 1e-9, "omega_representation_match": 1e-9}

    def block(x, p):
        data = hmodel.partials(x, p, order=2)
        omega = np.einsum("ib,ib->b", p, data.dp)
        # L's momentum and omega at v = dH/dp: they differ from p and omega
        # when H and L disagree
        vs = data.dp
        back = lag.lv(x, vs)
        omega_l = np.einsum("ib,ib->b", vs, back)
        live = np.abs(omega_l) > SINGULAR_CUTOFF
        g = lag.lvv(x, vs)
        return {"unity_identity": np.abs(omega[live] / omega_l[live] - 1.0).max(initial=0.0),
                "metric_duality": np.abs(np.einsum("ijb,jkb->ikb", g, data.dpp)
                                         - np.eye(n)[:, :, None]).max(),
                "legendre_roundtrip": np.abs(back - p).max(),
                "omega_representation_match": np.abs(
                    np.einsum("ib,ib->b", vs, back) - omega).max()}

    # the unity, duality, roundtrip and omega checks compare H with L
    blocks = in_blocks(block, xs, ps) if lag is not None else []
    r1, r2 = commutator_residual(hmodel, gamma, CotangentState(xs[:, :20], ps[:, :20]))
    # np.max, unlike max, keeps a NaN, which emit_json then rejects (exit 3)
    for name in blocks[0] if blocks else ():
        checks[name] = _check(float(np.max([b[name] for b in blocks])), limits[name])
    checks["commutator_identities"] = _check(
        float(np.max([np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0)])), 1e-8)
    return _finish({"seed": seed, "count": len(points)}, checks, out_dir, "identities.json")


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
        _check_keys(scenario, "")
        seed = _seed(scenario, args.seed)
        _tolerances(scenario)     # before any work, though not every subcommand reads them
        # numpy's floating-point warnings are silenced: every value that is
        # not finite meets a guard (a NonFinite check, or emit_npy or
        # emit_json refusing it), so the one `nslab:` line names the failure
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](scenario, args.out, seed)
    except NslabValidationError as exc:
        print(f"nslab: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NslabNumericError as exc:
        print(f"nslab: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"nslab: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
