"""Scenario ingestion, orchestration, artifact emission, exit codes."""

import json
import os

import pytest

from nslab import calculus
from nslab.cli import emit_json, main
from nslab.errors import NonConvergence, NonFinite

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


def test_shift_normal_circle_passes(tmp_path):
    scn = write(tmp_path, CIRCLE_BASE)
    out = str(tmp_path / "out")
    assert main(["shift", "--scenario", scn, "--out", out]) == 0
    summary = read_json(out, "shift_summary.json")
    assert summary["checks"]["max_phi"]["passed"]
    assert max(summary["max_abs_phi"]) <= 1e-6
    with open(os.path.join(out, "shift.csv"), encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "t,node,x1,x2,p1,p2,phi1"
    assert len(lines) == 1 + 1001 * 201


def test_shift_broken_normality_exits_4(tmp_path):
    doc = json.loads(json.dumps(CIRCLE_BASE))
    doc["force"] = ["p2", "0"]
    scn = write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["shift", "--scenario", scn, "--out", out]) == 4
    summary = read_json(out, "shift_summary.json")
    assert not summary["checks"]["max_phi"]["passed"]


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
    assert len(payload["points"]) == 30
    assert "x" in payload["points"][0]

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
    assert lines[0] == "point,x1,x2,x3,p1,p2,p3,weak_a,weak_b,add_sym,add_proj"
    assert len(lines) == 31


def test_outputs_are_byte_deterministic(tmp_path):
    scn = write(tmp_path, SPHERE_BASE)
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["residuals", "--scenario", scn, "--out", out]) == 0
        assert main(["shift", "--scenario", scn, "--out", out]) == 0
        data = b""
        for name in ("residuals.json", "residuals.csv", "shift.csv",
                     "shift_summary.json"):
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
    assert a["points"][0]["x"] != b["points"][0]["x"]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_trajectory_exits_3(tmp_path, capsys):
    doc = {"model": {"dimension": 2, "hamiltonian": "0.5*(p1^2+p2^2)"},
           "force": ["p1^3", "0"],   # p1 blows up at t = 0.5
           "run": {"t_end": 5, "step": 0.01, "init": {"x": [0, 0], "p": [1, 0]}}}
    scn = write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scn, "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    for path in out.glob("*") if out.exists() else ():
        text = path.read_text(encoding="utf-8").lower()
        assert "nan" not in text and "inf" not in text


def test_emit_json_rejects_non_finite(tmp_path):
    with pytest.raises(NonFinite):
        emit_json({"value": float("nan")}, str(tmp_path), "bad.json")
    assert not (tmp_path / "bad.json").exists()


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
