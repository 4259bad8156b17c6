"""Scenario ingestion, orchestration, artifact emission, exit codes."""

import builtins
import errno
import json
import os
import runpy
import subprocess
import sys

import numpy as np
import pytest

from helpers import deadline, long_sum_scenario, quotient_chain, reference_csv, tree_depth
from nslab import calculus, cli, expr, normality
from nslab.cli import emit_json, emit_npy, main
from nslab.errors import NonConvergence, NonFinite
from nslab.hypersurface import run_shift

CIRCLE_BASE = {
    "model": {"dimension": 2, "lagrangian": "0.5*(v1^2+v2^2)",
              "x_box": [[-1, 1], [-1, 1]], "fiber_range": [0.1, 10.0]},
    "force": ["0", "0"],
    "surface": {"chart": ["cos(y1)", "sin(y1)"], "box": [[0.0, 0.02]],
                "base": [0.0], "nu0": 1.0},
    "run": {"t_end": 1.0, "step": 0.001, "grid": [201], "samples": 40,
            "seed": 20240801, "tolerances": {"max_phi": 1e-6}},
}

SPHERE_BASE = {
    "model": {"dimension": 3, "lagrangian": "0.5*(v1^2+v2^2+v3^2)",
              "x_box": [[-1, 1], [-1, 1], [-1, 1]], "fiber_range": [0.1, 10.0]},
    "force": ["0.1*p1", "0.1*p2", "0.1*p3"],
    "surface": {"chart": ["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"],
                "box": [[0.2, 0.6], [0.2, 0.6]], "base": [0.4, 0.4], "nu0": 1.0},
    "run": {"t_end": 0.5, "step": 0.002, "grid": [9, 9], "samples": 30,
            "seed": 7, "tolerances": {}},
}


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


FAMILIES = ("weak_a", "weak_b", "add_sym", "add_proj")


def read_residual_rows(out_dir):
    """residuals.csv as a dict of columns: floats, or None for empty cells."""
    with open(os.path.join(out_dir, "residuals.csv"), encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    return {name: [float(r[k]) if r[k] else None for r in rows]
            for k, name in enumerate(header)}


@pytest.fixture
def no_fork(monkeypatch):
    """Fails the test at any call of os.fork: a run writes every artifact in
    its own process."""
    def fork():
        pytest.fail("os.fork called")
    monkeypatch.setattr(os, "fork", fork)


def read_shift(out_dir):
    """shift.csv's header and rows, as lists of text cells, and the arrays
    shift_x.npy and shift_p.npy."""
    with open(os.path.join(out_dir, "shift.csv"), encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    return (header, rows, np.load(os.path.join(out_dir, "shift_x.npy")),
            np.load(os.path.join(out_dir, "shift_p.npy")))


def shift_family(doc):
    """run_shift's family for the scenario `doc`, built as the CLI builds it."""
    system = cli.build_system(doc)
    surface = cli.build_surface(doc, system.n)
    nufield = cli._solve_nu(surface, system, doc)
    return run_shift(surface, system, nufield, doc["run"]["t_end"], doc["run"]["step"])


def test_shift_normal_circle_passes(tmp_path, no_fork):
    scn = write(tmp_path, CIRCLE_BASE)
    out = str(tmp_path / "out")
    assert main(["shift", "--scenario", scn, "--out", out]) == 0
    summary = read_json(out, "shift_summary.json")
    assert summary["checks"]["max_phi"]["passed"]
    assert max(summary["max_abs_phi"]) <= 1e-6
    header, rows, x, p = read_shift(out)
    assert header == ["t", "node", "phi1"]
    assert len(rows) == 1001 * 201
    assert x.dtype == p.dtype == np.float64 and x.shape == p.shape == (1001, 201, 2)
    # row k*201 + j of shift.csv and [k, j] of each array hold node j at step k
    family = shift_family(CIRCLE_BASE)
    assert x.tobytes() == family.xs.tobytes() and p.tobytes() == family.ps.tobytes()
    with open(os.path.join(out, "shift.csv"), encoding="utf-8") as fh:
        assert fh.read() == reference_csv(header, [np.repeat(family.t, 201),
                                                   np.tile(np.arange(201), 1001),
                                                   family.phi.reshape(-1, 1)])


def test_shift_broken_normality_exits_4(tmp_path, no_fork):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["force"] = ["p2", "0"]
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["shift", "--scenario", scn, "--out", out]) == 4
    summary = read_json(out, "shift_summary.json")
    assert not summary["checks"]["max_phi"]["passed"]
    # a tolerance failure still writes the whole family
    header, rows, x, p = read_shift(out)
    assert header == ["t", "node", "phi1"] and len(rows) == 1001 * 201
    assert x.shape == p.shape == (1001, 201, 2)
    assert sorted(os.listdir(out)) == ["shift.csv", "shift_p.npy", "shift_summary.json",
                                       "shift_x.npy"]


def test_shift_blowing_up_mid_rk4_exits_3_and_leaves_no_file(tmp_path, capsys, no_fork):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["force"] = ["50*p1^3", "50*p2^3"]   # |p| overflows after 11 steps
    scn = write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["shift", "--scenario", scn, "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nslab: numeric error: ")
    assert "t=0.011" in lines[0]
    # the files had the rows of the first steps: their parts are gone
    assert not out.exists() or not list(out.iterdir())


class FullDisk:
    """An open file with room for `room` more bytes (characters in text
    mode): the write that passes them writes what fits, then raises ENOSPC."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[:self.room])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("command, doc, name, room", [
    ("nu", SPHERE_BASE, "nu.json", 100),
    ("residuals", SPHERE_BASE, "residuals_weak_a.npy", 200),
    ("shift", CIRCLE_BASE, "shift_x.npy", 10_000),
    ("shift", CIRCLE_BASE, "shift.csv", 10_000),
], ids=["json", "npy", "shift-array", "shift-csv"])
def test_a_write_that_fails_partway_exits_5_and_leaves_no_file(tmp_path, capsys, monkeypatch,
                                                               no_fork, command, doc, name,
                                                               room):
    out, real_open = tmp_path / "out", builtins.open

    def opening(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return FullDisk(fh, room) if str(file).startswith(str(out / name)) else fh

    monkeypatch.setattr(builtins, "open", opening)
    scn = write(tmp_path, doc)
    assert main([command, "--scenario", scn, "--out", str(out)]) == 5
    assert capsys.readouterr().err.splitlines() == [
        f"nslab: I/O error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    # the failed file was the first of the run: nothing is left, not even a part
    assert not list(out.iterdir())


def test_residuals_normal_and_negative(tmp_path):
    doc = json.loads(json.dumps(SPHERE_BASE))
    doc["run"]["tolerances"] = {"normal": 1e-9}
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["residuals", "--scenario", scn, "--out", out]) == 0
    payload = read_json(out, "residuals.json")
    assert payload["max_weak_b"] <= 1e-9
    assert payload["count"] == 30
    assert payload["seed"] == 7
    assert "points" not in payload
    assert len(read_residual_rows(out)["point"]) == 30
    for name in ("residuals_x.npy", "residuals_p.npy"):
        assert np.load(os.path.join(out, name)).shape == (30, 3)
    for family in FAMILIES:
        assert len(np.load(os.path.join(out, f"residuals_{family}.npy"))) == 30

    doc["force"] = ["p2", "0", "0"]
    scn2 = write(tmp_path, doc, "neg.json")
    assert main(["residuals", "--scenario", scn2, "--out", out]) == 4
    payload = read_json(out, "residuals.json")
    assert max(payload["max_weak_b"], payload["max_add_proj"]) >= 1e-3


def test_residuals_csv_shape(tmp_path):
    scn = write(tmp_path, SPHERE_BASE)
    out = str(tmp_path / "out")
    assert main(["residuals", "--scenario", scn, "--out", out]) == 0
    with open(os.path.join(out, "residuals.csv"), encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "point,weak_a,weak_b,add_sym,add_proj"
    assert len(lines) == 31
    assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in range(30)]
    for name in ("residuals_x.npy", "residuals_p.npy"):
        points = np.load(os.path.join(out, name))
        assert points.dtype == np.float64 and points.shape == (30, 3)


def test_outputs_are_byte_deterministic(tmp_path):
    scn = write(tmp_path, SPHERE_BASE)
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["residuals", "--scenario", scn, "--out", out]) == 0
        assert main(["shift", "--scenario", scn, "--out", out]) == 0
        data = b""
        for name in ("residuals.json", "residuals.csv", "residuals_x.npy", "residuals_p.npy",
                     "shift.csv", "shift_x.npy", "shift_p.npy", "shift_summary.json"
                     ) + tuple(f"residuals_{f}.npy" for f in FAMILIES):
            with open(os.path.join(out, name), "rb") as fh:
                data += fh.read()
        blobs.append(data)
    assert blobs[0] == blobs[1]


def test_seed_override_changes_samples(tmp_path):
    scn = write(tmp_path, SPHERE_BASE)
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    assert main(["residuals", "--scenario", scn, "--out", out1]) == 0
    assert main(["residuals", "--scenario", scn, "--out", out2, "--seed", "99"]) == 0
    a = read_json(out1, "residuals.json")
    b = read_json(out2, "residuals.json")
    assert a["seed"] == 7 and b["seed"] == 99
    x1 = np.load(os.path.join(out1, "residuals_x.npy"))
    x2 = np.load(os.path.join(out2, "residuals_x.npy"))
    assert x1.shape == x2.shape == (30, 3)
    assert x1[0].tolist() != x2[0].tolist()
    weak1 = np.load(os.path.join(out1, "residuals_weak_a.npy"))
    weak2 = np.load(os.path.join(out2, "residuals_weak_a.npy"))
    assert not np.array_equal(weak1, weak2)


@pytest.mark.parametrize("base", [SPHERE_BASE, CIRCLE_BASE], ids=["n3", "n2"])
def test_points_files_hold_the_sampled_points(tmp_path, base):
    out = str(tmp_path / "out")
    assert main(["residuals", "--scenario", write(tmp_path, base), "--out", out]) == 0
    model, run = base["model"], base["run"]
    xs, ps = calculus.SampleDomain(x_box=model["x_box"], fiber_range=tuple(model["fiber_range"]),
                                   count=run["samples"], seed=run["seed"]).sample(model["dimension"])
    for name, want in (("residuals_x.npy", xs.T), ("residuals_p.npy", ps.T)):
        with open(os.path.join(out, name), "rb") as fh:
            np.lib.format.read_magic(fh)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        assert (shape, fortran_order, dtype) == (want.shape, False, np.float64)
        assert np.array_equal(np.load(os.path.join(out, name)), want)


@pytest.mark.parametrize("base, evaluated", [
    (SPHERE_BASE, FAMILIES),
    (CIRCLE_BASE, ("weak_a", "weak_b")),   # the additional families need n >= 3
])
def test_residual_npy_rows_match_csv_and_json(tmp_path, base, evaluated):
    doc = json.loads(json.dumps(base))
    doc["force"] = ["p2"] + ["0"] * (doc["model"]["dimension"] - 1)  # residuals not zero
    doc["run"]["tolerances"] = {}
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["residuals", "--scenario", scn, "--out", out]) == 0
    rows = read_residual_rows(out)
    payload = read_json(out, "residuals.json")
    n, count = doc["model"]["dimension"], doc["run"]["samples"]
    assert sorted(payload) == ["checks", "count", "max_add_proj", "max_add_sym",
                               "max_weak_a", "max_weak_b", "seed"]
    for family in FAMILIES:
        path = os.path.join(out, f"residuals_{family}.npy")
        if family not in evaluated:
            assert not os.path.exists(path)
            assert rows[family] == [None] * count
            assert payload[f"max_{family}"] is None
            continue
        values = np.load(path)
        assert values.dtype == np.float64
        assert values.shape == (count,) + (n,) * (1 if family.startswith("weak") else 2)
        norms = np.abs(values).reshape(count, -1).max(axis=1)
        assert norms.tolist() == rows[family]
        assert norms.max() == payload[f"max_{family}"]


def workloads():
    """The benchmark's workload scenario generators, perfbench/workloads.py."""
    return runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "perfbench", "workloads.py"))


SPHERE_RADIAL = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                             "sphere_radial.json")


@pytest.mark.parametrize("command, scenario", [
    ("shift", lambda: cli.load_scenario(SPHERE_RADIAL)),
    ("shift", lambda: workloads()["shift_quartic_sphere"](0, grid=9, t_end=0.05)),
    ("residuals", lambda: workloads()["residuals_quartic"](0))],
    ids=["shift-sphere_radial", "shift-quartic-sphere", "residuals-quartic"])
def test_a_run_derives_no_third_order_table(tmp_path, monkeypatch, command, scenario):
    # construction builds every table a run reads, so none is left to the run
    systems, build = [], cli.build_system

    def capture(doc):
        systems.append(build(doc))
        return systems[-1]

    monkeypatch.setattr(cli, "build_system", capture)
    scn = write(tmp_path, scenario())
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
    (system,) = systems
    assert set(system.lagrangian.tables) == {"L", "v", "x", "vv", "vx", "xx"}


def test_identities_subcommand(tmp_path):
    scn = write(tmp_path, SPHERE_BASE)
    out = str(tmp_path / "out")
    assert main(["identities", "--scenario", scn, "--out", out]) == 0
    payload = read_json(out, "identities.json")
    names = set(payload["checks"])
    assert {"unity_identity", "metric_duality", "legendre_roundtrip",
            "omega_representation_match", "commutator_identities"} <= names
    assert all(c["passed"] for c in payload["checks"].values())


def test_invariance_subcommand(tmp_path):
    doc = json.loads(json.dumps(SPHERE_BASE))
    zero = "0"
    shift = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    shift[0][1][2] = "0.2*x1 + 0.1*p2"
    shift[0][2][1] = "0.2*x1 + 0.1*p2"
    doc["connection"] = {"gamma": None, "shift": shift}
    doc["run"]["tolerances"] = {"invariance": 1e-9}
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["invariance", "--scenario", scn, "--out", out]) == 0
    payload = read_json(out, "invariance.json")
    assert payload["weak_b_diff"] <= 1e-9


def test_nu_subcommand(tmp_path):
    doc = json.loads(json.dumps(SPHERE_BASE))
    doc["run"]["grid"] = [9, 9]
    doc["run"]["tolerances"] = {"theta": 1e-6, "path_discrepancy": 1e-10}
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["nu", "--scenario", scn, "--out", out]) == 0
    payload = read_json(out, "nu.json")
    assert payload["checks"]["theta"]["passed"]
    assert payload["checks"]["path_discrepancy"]["passed"]


def test_check_regularity_subcommand(tmp_path):
    scn = write(tmp_path, CIRCLE_BASE)
    out = str(tmp_path / "out")
    assert main(["check-regularity", "--scenario", scn, "--out", out]) == 0
    payload = read_json(out, "regularity.json")
    assert payload["passed"]
    assert payload["min_omega"] > 0


def test_simulate_subcommand(tmp_path):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["run"]["init"] = {"x": [0.0, 0.0], "p": [1.0, 0.0]}
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["simulate", "--scenario", scn, "--out", out]) == 0
    payload = read_json(out, "simulate_summary.json")
    assert payload["final_x"] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert os.path.exists(os.path.join(out, "trajectory.csv"))


def test_malformed_expression_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["model"]["lagrangian"] = "0.5*(v1^2+v2^"
    scn = write(tmp_path, doc)
    assert main(["check-regularity", "--scenario", scn, "--out", str(tmp_path)]) == 2
    assert "line" in capsys.readouterr().err


def test_a_connection_over_velocities_exits_2(tmp_path, capsys):
    # connection components live over (x, p): a v symbol is refused when read
    doc = json.loads(json.dumps(SPHERE_BASE))
    gamma = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    gamma[0][0][0] = "0.1*v1"
    doc["connection"] = {"gamma": gamma}
    scn = write(tmp_path, doc)
    assert main(["residuals", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "nslab: validation error: connection[0][0][0]: symbol v1 has unexpected kind"]


def test_missing_file_exits_2(tmp_path):
    assert main(["shift", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_invalid_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"model\": [,]\n}", encoding="utf-8")
    assert main(["shift", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_numeric_failure_exits_3(tmp_path):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["run"]["init"] = {"x": [0.0, 0.0], "p": [1.0, 0.0]}
    doc["force"] = ["0-1", "0"]   # drives the momentum through zero
    doc["run"]["t_end"] = 3.0
    doc["run"]["step"] = 0.01
    scn = write(tmp_path, doc)
    assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 3


def test_a_legendre_inversion_that_does_not_converge_exits_3(tmp_path, capsys, monkeypatch):
    # the quartic needs more than two Newton steps from the log-scale start
    monkeypatch.setattr(calculus, "NEWTON_MAX_ITER", 2)
    scn = os.path.join(REPO, "scenarios", "quartic_identities.json")
    assert main(["residuals", "--scenario", scn, "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("nslab: numeric error: Legendre inversion: residual ")
    assert lines[0].endswith(" after 2 iterations")


def test_a_directory_as_the_scenario_exits_5(tmp_path, capsys):
    assert main(["nu", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")]) == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("nslab: I/O error: ") and str(tmp_path) in lines[0]


def test_an_existing_file_as_the_output_directory_exits_5(tmp_path, capsys):
    scn = write(tmp_path, SPHERE_BASE)
    out = tmp_path / "out"
    out.write_text("kept\n", encoding="utf-8")
    assert main(["residuals", "--scenario", scn, "--out", str(out)]) == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("nslab: I/O error: ") and str(out) in lines[0]
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_dimension_mismatch_exits_2(tmp_path):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["force"] = ["0", "0", "0"]
    scn = write(tmp_path, doc)
    assert main(["shift", "--scenario", scn, "--out", str(tmp_path)]) == 2


QUARTIC_WITH_H = {
    "model": {"dimension": 2, "lagrangian": "0.25*(v1^2+v2^2)^2",
              "hamiltonian": "0.5*(p1^2+p2^2)",
              "x_box": [[-1, 1], [-1, 1]], "fiber_range": [0.1, 10.0]},
    "force": ["0", "0"],
    "run": {"samples": 20, "seed": 7},
}


def test_unity_identity_fails_when_h_is_not_the_legendre_dual(tmp_path):
    scn = write(tmp_path, QUARTIC_WITH_H)
    out = str(tmp_path / "out")
    assert main(["identities", "--scenario", scn, "--out", out]) == 4
    assert not read_json(out, "identities.json")["checks"]["unity_identity"]["passed"]


def test_unity_identity_omitted_without_lagrangian(tmp_path):
    doc = json.loads(json.dumps(QUARTIC_WITH_H))
    del doc["model"]["lagrangian"]
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["identities", "--scenario", scn, "--out", out]) == 0
    assert list(read_json(out, "identities.json")["checks"]) == ["commutator_identities"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_trajectory_exits_3(tmp_path, capsys):
    doc = {"model": {"dimension": 2, "hamiltonian": "0.5*(p1^2+p2^2)"},
           "force": ["p1^3", "0"],   # p1 blows up at t = 0.5
           "run": {"t_end": 5, "step": 0.01, "init": {"x": [0, 0], "p": [1, 0]}}}
    scn = write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scn, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("nslab: numeric error: ") and "not finite" in err[0]
    for path in out.glob("*") if out.exists() else ():
        text = path.read_text(encoding="utf-8").lower()
        assert "nan" not in text and "inf" not in text


def test_emit_json_rejects_non_finite(tmp_path):
    with pytest.raises(NonFinite):
        emit_json({"value": float("nan")}, str(tmp_path), "bad.json")
    assert not (tmp_path / "bad.json").exists()


def test_emit_npy_writes_c_order_whatever_the_layout(tmp_path):
    values = np.arange(12.0).reshape(3, 4)
    emit_npy(values.T, str(tmp_path), "view.npy")
    emit_npy(np.ascontiguousarray(values.T), str(tmp_path), "copy.npy")
    assert (tmp_path / "view.npy").read_bytes() == (tmp_path / "copy.npy").read_bytes()
    assert np.array_equal(np.load(tmp_path / "view.npy"), values.T)


def test_emit_npy_rejects_non_finite(tmp_path):
    values = np.ones((4, 3))
    values[2, 1] = np.nan
    with pytest.raises(NonFinite, match=r"entry \(2, 1\)"):
        emit_npy(values, str(tmp_path), "bad.npy")
    assert not (tmp_path / "bad.npy").exists()


def test_non_finite_residuals_exit_3_and_write_nothing(tmp_path, capsys):
    doc = json.loads(json.dumps(SPHERE_BASE))
    doc["force"] = ["sqrt(x1)*p1", "0", "0"]   # NaN wherever x1 < 0
    scn = write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["residuals", "--scenario", scn, "--out", str(out)]) == 3
    # the kernels' numpy warnings stay silent: one line names the failure
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nslab: numeric error: ")
    assert "residuals_weak_a.npy: entry" in lines[0]
    assert not out.exists() or not list(out.iterdir())


def test_non_finite_invariance_exits_3_without_warnings(tmp_path, capsys):
    doc = json.loads(json.dumps(SPHERE_BASE))
    doc["force"] = ["sqrt(x1)*p1", "0", "0"]   # NaN wherever x1 < 0
    shift = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    shift[2][0][1] = shift[2][1][0] = "0.1*x3"
    doc["connection"] = {"shift": shift}
    scn = write(tmp_path, doc)
    assert main(["invariance", "--scenario", scn, "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nslab: numeric error: invariance.json")


def test_identities_keep_a_nan_of_a_later_block(tmp_path, monkeypatch, capsys):
    # H = L's Hamiltonian at x1 = 1, NaN at x1 = -1: only the second block of
    # 256 points holds NaN, and the maximum over blocks must keep it
    doc = {"model": {"dimension": 2, "lagrangian": "0.5*(v1^2+v2^2)",
                     "hamiltonian": "0.5*(p1^2+p2^2)*sqrt(x1)^2"},
           "force": ["0", "0"], "run": {"samples": 300}}
    xs = np.ones((2, 300))
    xs[0, 256:] = -1.0
    ps = np.tile([[0.6], [0.8]], 300)
    monkeypatch.setattr(normality, "POINT_BLOCK", 256)
    monkeypatch.setattr(calculus.SampleDomain, "sample", lambda self, n: (xs, ps))
    scn = write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["identities", "--scenario", scn, "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nslab: numeric error: identities.json")
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("name", ["theta", "path_discrepancy"])
def test_compatibility_tolerance_on_a_curve_exits_2(tmp_path, capsys, name):
    # a curve has no compatibility condition: theta is zero by construction
    # and there is no second sweep, so neither check could fail
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["run"]["tolerances"] = {name: 0.0}
    scn = write(tmp_path, doc)
    assert main(["nu", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert f"run.tolerances.{name}: needs n >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["theta", "path_discrepancy"])
def test_compatibility_tolerance_on_a_curve_exits_2_before_the_march(tmp_path, capsys, name):
    # the march would blow up (exit 3): the tolerance is rejected before it
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["surface"]["box"] = [[0.0, 0.3]]
    doc["force"] = ["-100*p1^5", "0"]
    doc["run"]["tolerances"] = {name: 1e-6}
    scn = write(tmp_path, doc)
    assert main(["nu", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert f"run.tolerances.{name}: needs n >= 3" in capsys.readouterr().err
    del doc["run"]["tolerances"][name]
    scn = write(tmp_path, doc)
    assert main(["nu", "--scenario", scn, "--out", str(tmp_path / "out")]) == 3


def test_base_outside_box_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["surface"]["base"] = [0.5]
    scn = write(tmp_path, doc)
    assert main(["nu", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert "base_point" in capsys.readouterr().err


def test_failed_roundtrip_reports_null_and_exits_4(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise NonConvergence("forced")

    monkeypatch.setattr(calculus, "invert_legendre_array", fail)
    scn = write(tmp_path, CIRCLE_BASE)
    out = str(tmp_path / "out")
    assert main(["check-regularity", "--scenario", scn, "--out", out]) == 4
    payload = read_json(out, "regularity.json")
    assert payload["max_roundtrip"] is None
    assert "legendre roundtrip failed" in payload["failures"][0]


def _set(path, value):
    """Mutation of a scenario: set the value under a dotted key path, where a
    numeric key indexes a list."""
    def apply(doc):
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return apply


def _delete(path):
    """Mutation of a scenario: remove the key under a dotted key path."""
    def apply(doc):
        *parents, last = path.split(".")
        for key in parents:
            doc = doc[key]
        del doc[last]
    return apply


MALFORMED_RUN_INPUTS = [
    (_set("model.fiber_range", [0.1]), "model.fiber_range"),
    (_set("model.fiber_range", ["0.1", "10"]), "model.fiber_range"),
    (_set("model.x_box", [[-1, 1], [-1], [-1, 1]]), "model.x_box"),
    (_set("model.x_box", [[-1, 1], ["a", 1], [-1, 1]]), "model.x_box"),
    (_set("run.samples", "30"), "run.samples"),
    (_set("run.samples", 2.5), "run.samples"),
    (_set("run.seed", "seven"), "run.seed"),
    (_set("run.tolerances", {"normal": "tight", "invariance": "tight"}),
     "run.tolerances."),
    (_set("run", [1, 2]), "run"),
    # a misspelt tolerance would turn its check off
    (_set("run.tolerances", {"max_ph1": 1e-4}), "run.tolerances.max_ph1"),
    (_set("model.fiber_range", [10.0, 0.1]), "model.fiber_range"),
    (_set("model.fiber_range", [0.0, 1.0]), "model.fiber_range"),
    (_set("run.seed", -1), "run.seed"),
    (_set("model", [3]), "model"),
    (_set("model.dimension", 1), "model.dimension"),
    (_set("run.tolerances", [1e-4]), "run.tolerances"),
]


def _runs(inputs):
    # identities asserts fixed limits, not scenario tolerances; that it still
    # rejects a malformed tolerance is the misspelt name's case
    return [(command, mutate, key)
            for command in ("residuals", "invariance", "identities")
            for mutate, key in inputs
            if not (command == "identities" and key == "run.tolerances.")]


# the ids number the runs in order: each group of cases comes after every
# run of the groups before it, so that those keep their ids
MALFORMED_RUNS = (_runs(MALFORMED_RUN_INPUTS[:9]) + _runs(MALFORMED_RUN_INPUTS[9:13])
                  + _runs(MALFORMED_RUN_INPUTS[13:]) + [
    ("check-regularity",
     _set("model", {"dimension": 3, "hamiltonian": "0.5*(p1^2+p2^2+p3^2)"}),
     "model.lagrangian"),
    ("simulate", _set("run.init", {"x": [0, 0, 0]}), "run.init"),
])


@pytest.mark.parametrize("command, mutate, key", MALFORMED_RUNS,
                         ids=[f"{c}-{k}-{i}" for i, (c, _, k) in enumerate(MALFORMED_RUNS)])
def test_malformed_run_inputs_exit_2(tmp_path, capsys, command, mutate, key):
    doc = json.loads(json.dumps(SPHERE_BASE))
    doc["connection"] = {"shift": [[["0.1*x1"] * 3] * 3] * 3}
    mutate(doc)
    scn = write(tmp_path, doc)
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"nslab: validation error: {key}")


def test_a_top_level_array_exits_2(tmp_path, capsys):
    scn = write(tmp_path, [SPHERE_BASE])
    assert main(["residuals", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "nslab: validation error: scenario: top level must be an object"]


MALFORMED_SURFACE_AND_RUN_NUMBERS = [
    ("shift", _set("surface.base", ["a"]), "surface.base"),
    ("shift", _set("surface.base", [0.0, 0.0]), "surface.base"),
    ("shift", _set("surface.box", [["a", 1]]), "surface.box"),
    ("shift", _set("surface.box", [[0.0, 0.02], [0.0, 0.02]]), "surface.box"),
    ("shift", _set("surface.nu0", "x"), "surface.nu0"),
    ("shift", _set("run.grid", ["a"]), "run.grid"),
    ("shift", _set("run.grid", [0]), "run.grid"),
    ("shift", _set("run.grid", [1]), "run.grid"),
    ("shift", _set("run.grid", [201, 201]), "run.grid"),
    ("shift", _set("run.step", [1]), "run.step"),
    ("shift", _set("run.t_end", float("nan")), "run.t_end"),
    ("nu", _set("surface.nu0", float("inf")), "surface.nu0"),
    ("nu", _set("run.grid", [0]), "run.grid"),
    ("simulate", _set("run.init.x", [0, "a"]), "run.init.x"),
    ("simulate", _set("run.init.p", [1]), "run.init.p"),
    ("simulate", _set("run.init", {"x": [0, 0], "v": [1, None]}), "run.init.v"),
    ("simulate", _set("run.step", "0.01"), "run.step"),
    ("shift", _set("run.step", 0), "run.step"),
    ("shift", _set("run.t_end", -1.0), "run.t_end"),
    ("simulate", _set("run.step", -0.001), "run.step"),
    ("simulate", _set("run.t_end", 0.0), "run.t_end"),
    ("shift", _set("surface.box", [[0.02, 0.0]]), "surface.box"),
    ("residuals", _set("model.x_box", [[-1, 1], [1, -1]]), "model.x_box"),
    ("residuals", _set("connection", [1, 2]), "connection"),
    ("invariance", _set("connection", "flat"), "connection"),
    ("shift", _set("run.tolerances", {"max_ph1": 1e-4}), "run.tolerances.max_ph1"),
    ("simulate", _set("run.seed", -1), "run.seed"),
    # a misspelt key would be ignored, its default used in silence
    ("nu", _set("surface.nu_0", 2.0), "surface.nu_0"),
    ("nu", _set("run.stpe", 0.01), "run.stpe"),
    ("nu", _set("modle", {"dimension": 2}), "modle"),
    ("simulate", _set("run.init.q", [1, 0]), "run.init.q"),
    ("residuals", _set("connection", {"gama": None}), "connection.gama"),
    ("residuals", _set("model.x_bxo", [[-1, 1], [-1, 1]]), "model.x_bxo"),
    # a missing key is named by its dotted path
    ("nu", _delete("model.dimension"), "model.dimension"),
    ("shift", _delete("surface.chart"), "surface.chart"),
    ("simulate", _delete("run.init"), "run.init"),
    # p would be integrated and v dropped in silence
    ("simulate", _set("run.init.v", [0, 1]), "run.init"),
]


@pytest.mark.parametrize("command, mutate, key", MALFORMED_SURFACE_AND_RUN_NUMBERS,
                         ids=[f"{c}-{k}-{i}" for i, (c, _, k)
                              in enumerate(MALFORMED_SURFACE_AND_RUN_NUMBERS)])
def test_malformed_surface_and_run_numbers_exit_2(tmp_path, capsys, command, mutate, key):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["run"]["init"] = {"x": [0, 0], "p": [1, 0]}
    mutate(doc)
    scn = write(tmp_path, doc)
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"nslab: validation error: {key}: ")


def test_a_negative_seed_override_exits_2(tmp_path, capsys):
    scn = write(tmp_path, SPHERE_BASE)
    assert main(["residuals", "--scenario", scn, "--out", str(tmp_path / "out"),
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == ("nslab: validation error: --seed: "
                                       "expected a non-negative integer\n")


@pytest.mark.parametrize("key", ["--seed", "run.seed"])
def test_a_seed_past_64_bits_exits_2_and_the_largest_one_runs(tmp_path, capsys, key):
    doc = json.loads(json.dumps(SPHERE_BASE))

    def run(seed):
        doc["run"]["seed"] = seed if key == "run.seed" else 7
        override = ["--seed", str(seed)] if key == "--seed" else []
        return main(["residuals", "--scenario", write(tmp_path, doc),
                     "--out", str(tmp_path / str(seed))] + override)

    assert run(2 ** 64) == 2
    assert capsys.readouterr().err == (f"nslab: validation error: {key}: "
                                       "expected an integer below 2**64\n")
    assert not (tmp_path / str(2 ** 64)).exists()
    # seed + k * 0x9E3779B97F4A7C15 wraps around 2**64 from the first output on
    assert run(2 ** 64 - 1) == 0
    assert read_json(str(tmp_path / str(2 ** 64 - 1)), "residuals.json")["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("command", ["residuals", "invariance", "identities", "check-regularity"])
def test_a_sampling_run_imports_neither_numpy_random_nor_hashlib(tmp_path, command):
    # a fresh interpreter, since pytest and hypothesis import numpy.random themselves
    here = os.path.dirname(__file__)
    scn = os.path.join(here, os.pardir, "scenarios", "sphere_radial_connection.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(here, os.pardir, "src"), os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys; from nslab.cli import main; code = main(sys.argv[1:]); "
             "print(code, 'numpy.random' in sys.modules, 'hashlib' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe, command, "--scenario", scn,
                          "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=False)
    assert run.stdout.split() == ["0", "False", "False"], run.stderr


def test_a_zero_width_box_axis_fails_a_shift_and_not_nu(tmp_path, capsys):
    # the shifted family's tangent frames divide by the node spacing, 0 here
    doc = cli.load_scenario(SPHERE_RADIAL)
    doc["surface"]["box"] = [[0.4, 0.4], [0.2, 0.6]]
    scn = write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["shift", "--scenario", scn, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nslab: validation error: surface.box: ")
    assert not out.exists()     # no shift.csv, shift_*.npy or part
    assert main(["nu", "--scenario", scn, "--out", str(out)]) == 0


@pytest.mark.parametrize("nodes", [1, 2])
def test_nu_accepts_grids_too_coarse_for_a_shift(tmp_path, nodes):
    # only the shifted family's tangent frames need 3 nodes per axis
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["run"]["grid"] = [nodes]
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["nu", "--scenario", scn, "--out", out]) == 0
    assert read_json(out, "nu.json")["grid_shape"] == [nodes]


def test_numeric_components_read_as_constants(tmp_path):
    texts = json.loads(json.dumps(SPHERE_BASE))
    texts["force"] = ["1", "0", "0.5"]
    texts["connection"] = {"gamma": [[["0.25", "0", "0"]] * 3] * 3}
    numbers = json.loads(json.dumps(texts))
    numbers["force"] = [1, 0, 0.5]
    numbers["connection"] = {"gamma": [[[0.25, 0, 0]] * 3] * 3}
    blobs = []
    for name, doc in (("texts", texts), ("numbers", numbers)):
        out = tmp_path / name
        assert main(["residuals", "--scenario", write(tmp_path, doc, f"{name}.json"),
                     "--out", str(out)]) == 0
        blobs.append([(out / f).read_bytes() for f in ("residuals.csv", "residuals.json",
                                                       "residuals_x.npy", "residuals_p.npy")])
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("section, value", [
    ("force", [True, "0", "0"]),
    ("force", [None, "0", "0"]),
    ("connection", {"gamma": [[[None, "0", "0"]] * 3] * 3}),
    ("connection", {"gamma": [[[{"a": 1}, "0", "0"]] * 3] * 3}),
])
def test_non_numeric_components_exit_2(tmp_path, capsys, section, value):
    doc = json.loads(json.dumps(SPHERE_BASE))
    doc[section] = value
    scn = write(tmp_path, doc)
    assert main(["residuals", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    slot = {"force": "force[0]", "connection": "connection[0][0][0]"}[section]
    assert f"nslab: validation error: {slot}: expected" in capsys.readouterr().err


# every slot that reads an expression: a subcommand that builds it, and the
# name a value of the wrong type, a parse error or a symbol out of bounds
# there is reported under
EXPRESSION_SLOTS = {
    "model.lagrangian": ("residuals", "lagrangian"),
    "model.hamiltonian": ("residuals", "hamiltonian"),
    "force.0": ("residuals", "force[0]"),
    "connection.gamma.0.0.0": ("residuals", "connection[0][0][0]"),
    "surface.chart.0": ("nu", "chart[0]"),
}
SLOT_VALUES = {"number": 2.5, "null": None, "list": [1, 2], "object": {"a": 1},
               "bool": True, "unparsable": "x1 +* 2", "out_of_range": "x9"}


@pytest.mark.parametrize("slot", sorted(EXPRESSION_SLOTS))
@pytest.mark.parametrize("kind", sorted(SLOT_VALUES))
def test_any_json_value_in_an_expression_slot_ends_in_one_line(tmp_path, capsys, recwarn,
                                                                slot, kind):
    command, name = EXPRESSION_SLOTS[slot]
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["connection"] = {"gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}
    _set(slot, SLOT_VALUES[kind])(doc)
    code = main([command, "--scenario", write(tmp_path, doc), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code in (0, 2, 3, 4)
    assert len(lines) <= 1 and all(line.startswith("nslab: ") for line in lines)
    assert not recwarn.list
    if kind == "unparsable":
        assert lines[0].endswith(": unexpected '*' (line 1, column 5)")
    if kind == "out_of_range":
        # x9 is outside the dimension 2, and no symbol of a chart over y1
        assert lines[0].startswith(f"nslab: validation error: {name}: symbol x9 ")
    if (kind in ("list", "object", "bool", "unparsable", "out_of_range")
            or (kind == "null" and not slot.startswith("model."))):
        # a null model.lagrangian or model.hamiltonian is an absent one
        assert code == 2 and lines[0].startswith(f"nslab: validation error: {name}: ")


def test_symbol_errors_do_not_depend_on_the_hash_seed(tmp_path):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["force"] = ["x7*x5*x9*x8", "0"]
    scn = write(tmp_path, doc)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    errs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "nslab.cli", "residuals", "--scenario", scn,
                              "--out", str(tmp_path / "out")],
                             env=env, capture_output=True, text=True, check=False)
        assert run.returncode == 2
        errs.add(run.stderr)
    assert errs == {"nslab: validation error: force[0]: "
                    "symbol x5 exceeds dimension 2\n"}


@pytest.mark.parametrize("command", ["residuals", "check-regularity", "simulate"])
def test_division_by_constant_zero_exits_2(tmp_path, capsys, command):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["model"]["lagrangian"] = "0.5*(v1^2+v2^2) + 1/0"
    doc["run"]["init"] = {"x": [0.1, 0.2], "p": [1.0, 0.5]}
    scn = write(tmp_path, doc)
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nslab: validation error: ") and "(line 1, column 20)" in err
    assert "division by the constant 0" in err


def test_non_finite_constant_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["model"]["lagrangian"] = "0.5*(v1^2+v2^2)*log(0-1)"
    scn = write(tmp_path, doc)
    assert main(["simulate", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert "(line 1, column 17)" in capsys.readouterr().err


# sqrt(y1) has an infinite derivative at the base y1 = 0
ROOT_CHART = {"chart": ["cos(y1)*sqrt(y1)", "sin(y1)"], "box": [[-0.5, 0.5]],
              "base": [0.0], "nu0": 1.0}


@pytest.mark.parametrize("command", ["nu", "shift"])
def test_non_finite_frame_exits_3_without_warnings(tmp_path, capsys, no_fork, command):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["surface"] = ROOT_CHART
    scn = write(tmp_path, doc)
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["nslab: numeric error: tangent frame not finite at point 0: y=[0.0]"]


def test_non_finite_regularity_exits_3_without_warnings(tmp_path, capsys):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["model"]["lagrangian"] = "0.25*(v1^2+v2^2)^2*sqrt(x1)"   # NaN wherever x1 < 0
    scn = write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["check-regularity", "--scenario", scn, "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nslab: numeric error: ")
    assert not out.exists() or not list(out.iterdir())


REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def readme_examples():
    """The README's example runs: (arguments, documented exit code)."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("Example runs against the shipped scenarios:")[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("# exit ")
        examples.append((command.split()[1:], int(comment)))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv, code", README_EXAMPLES,
                         ids=[f"{argv[0]}-{os.path.basename(argv[2])}"
                              for argv, _ in README_EXAMPLES])
def test_readme_examples_exit_as_documented(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(REPO)
    out = argv.index("--out") + 1
    assert main(argv[:out] + [str(tmp_path / "out")] + argv[out + 1:]) == code


# --- deep and long expressions -----------------------------------------------

@pytest.mark.parametrize("spelling", [
    "(" * 400 + "v1^2" + ")" * 400 + " + v2^2",       # 400 nested parentheses
    "-" * 2000 + "v1^2 + v2^2",                       # 2,000 leading signs
], ids=["400-parentheses", "2000-signs"])
def test_deep_nesting_runs_as_the_plain_expression(tmp_path, capsys, spelling):
    # the parser keeps no call frame per level, and neither spelling adds a
    # level to the tree, so each run is that of v1^2 + v2^2, file for file
    outputs = []
    for name, text in (("plain", "v1^2 + v2^2"), ("deep", spelling)):
        doc = long_sum_scenario(1)
        doc["model"]["lagrangian"] = text
        out = tmp_path / name
        assert main(["check-regularity", "--scenario", write(tmp_path, doc, name + ".json"),
                     "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1] and outputs[0]


def test_a_1500_term_sum_runs(tmp_path, capsys):
    # 1,504 levels deep: no walk of the tree or of its derivatives keeps a
    # call frame per level
    scn = write(tmp_path, long_sum_scenario(1500))
    assert main(["check-regularity", "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["check-regularity", "residuals"])
def test_a_300_term_lagrangian_compiles_and_runs(tmp_path, capsys, command):
    scn = write(tmp_path, long_sum_scenario(300))
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_a_deep_quotient_chain_runs_or_exits_2_without_a_traceback(tmp_path):
    # 484 levels, and its derivatives nest deeper than the chain: each is
    # derived on a list, so the run reaches the regularity check, which
    # finds the vertical Hessian singular (min |det g| about 3.4e-208)
    doc = {"model": {"dimension": 3, "lagrangian": quotient_chain(240),
                     "x_box": [[-1, 1]] * 3, "fiber_range": [0.1, 10.0]},
           "force": ["0"] * 3, "run": {"samples": 100, "seed": 7}}
    assert tree_depth(expr.parse(doc["model"]["lagrangian"])) == 484
    scn = write(tmp_path, doc)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")]))
    with deadline(20):
        run = subprocess.run([sys.executable, "-m", "nslab.cli", "check-regularity",
                              "--scenario", scn, "--out", str(tmp_path / "out")],
                             env=env, capture_output=True, text=True, check=False)
    assert run.returncode == 4
    lines = run.stderr.splitlines()
    assert len(lines) <= 1 and all(line.startswith("nslab: ") for line in lines)


def test_a_deep_symmetric_connection_runs(tmp_path, capsys):
    # the same 499-term sum, 499 levels deep, in Gamma^1_12 and Gamma^1_21:
    # the connection's symmetry test compares the two trees
    total = "+".join(["x1"] * 499)
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["connection"] = {"gamma": [[["0", total], [total, "0"]], [["0", "0"], ["0", "0"]]]}
    scn = write(tmp_path, doc)
    with deadline(60):
        code = main(["residuals", "--scenario", scn, "--out", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().err == ""


SHIPPED = sorted(os.path.join(REPO, "scenarios", name)
                 for name in os.listdir(os.path.join(REPO, "scenarios")))


def test_no_shipped_table_nests_deep_enough_for_a_local(tmp_path, monkeypatch):
    # a kernel names a subtree for its nesting only past KERNEL_NEST, which
    # no table of the shipped scenarios or of the benchmark workloads reaches,
    # so their kernels are those written without that rule
    sources, kernel_source = [], expr.kernel_source

    def recorded(components):
        components = list(components)
        sources.append(components)
        return kernel_source(components)

    monkeypatch.setattr(expr, "kernel_source", recorded)
    docs = [cli.load_scenario(path) for path in SHIPPED]
    docs += [workloads()["residuals_quartic"](0, samples=50),
             workloads()["shift_quartic_sphere"](0, grid=5, t_end=0.01)]
    for k, doc in enumerate(docs):
        scn = write(tmp_path, doc, f"{k}.json")
        for command in cli.COMMANDS:
            main([command, "--scenario", scn, "--out", str(tmp_path / f"{k}-{command}")])
    assert len(sources) > 100
    plain = [kernel_source(c) for c in sources]
    monkeypatch.setattr(expr, "KERNEL_NEST", 10**9)
    assert [kernel_source(c) for c in sources] == plain
