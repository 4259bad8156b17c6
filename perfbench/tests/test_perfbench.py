"""Self-test of the benchmark: the independent checker must fail corrupted
artifacts, and a tiny run must print every declared metric with its unit.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import functools
import json
import os

import pytest

import check
import run
import workloads
from nslab import cli

ROOT = os.path.dirname(run.HERE)
TINY = {
    "shift-circle": functools.partial(workloads.shift_circle, nodes=5, t_end=0.01),
    "shift-quartic-sphere": functools.partial(workloads.shift_quartic_sphere,
                                              grid=7, t_end=0.005),
    "residuals-quartic": functools.partial(workloads.residuals_quartic, samples=20),
}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_tiny(name, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name]
    scenario = TINY[name](seed)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    argv = [workload.command, "--scenario", str(path), "--out", str(out)]
    if workload.seed_arg:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    return workload.command, str(out), scenario, code


def _replace_line(path, k, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[k] = edit(lines[k])
    path.write_text("".join(lines))


def _set_field(line, col, text):
    fields = line.rstrip("\n").split(",")
    fields[col] = text
    return ",".join(fields) + "\n"


@pytest.mark.parametrize("name", sorted(TINY))
def test_clean_artifacts_pass(name, tmp_path):
    command, out, scenario, code = _run_tiny(name, tmp_path)
    assert code == 0
    assert check.check_run(command, out, scenario, code) == []


def test_nonzero_exit_fails(tmp_path):
    command, out, scenario, code = _run_tiny("shift-circle", tmp_path)
    assert check.check_run(command, out, scenario, 4)


@pytest.mark.parametrize("name", ["shift-circle", "shift-quartic-sphere"])
@pytest.mark.parametrize("corruption", ["nan_csv", "inf_csv", "phi_csv",
                                        "drop_row", "nan_json", "phi_json"])
def test_corrupted_shift_fails(name, corruption, tmp_path):
    command, out, scenario, code = _run_tiny(name, tmp_path)
    csv = tmp_path / "out" / "shift.csv"
    summary = tmp_path / "out" / "shift_summary.json"
    phi_col = csv.read_text().splitlines()[0].split(",").index("phi1")
    if corruption == "nan_csv":
        _replace_line(csv, 3, lambda line: _set_field(line, 2, "nan"))
    elif corruption == "inf_csv":
        _replace_line(csv, 3, lambda line: _set_field(line, 2, "inf"))
    elif corruption == "phi_csv":
        # halving the largest phi keeps it within the limit but breaks the
        # agreement with the summary
        lines = csv.read_text().splitlines()
        worst = max(range(1, len(lines)),
                    key=lambda k: abs(float(lines[k].split(",")[phi_col])))
        half = repr(float(lines[worst].split(",")[phi_col]) / 2)
        _replace_line(csv, worst, lambda line: _set_field(line, phi_col, half))
    elif corruption == "drop_row":
        _replace_line(csv, -1, lambda line: "")
    elif corruption == "nan_json":
        summary.write_text(summary.read_text().replace("{", '{"bad": NaN, ', 1))
    elif corruption == "phi_json":
        doc = json.loads(summary.read_text())
        doc["max_abs_phi"][0] *= 1.5
        summary.write_text(json.dumps(doc))
    assert check.check_run(command, out, scenario, code)


@pytest.mark.parametrize("corruption", ["nan_csv", "norm_csv", "over_limit",
                                        "nan_json", "infinity_json", "norm_json"])
def test_corrupted_residuals_fail(corruption, tmp_path):
    command, out, scenario, code = _run_tiny("residuals-quartic", tmp_path)
    csv = tmp_path / "out" / "residuals.csv"
    report = tmp_path / "out" / "residuals.json"
    col = csv.read_text().splitlines()[0].split(",").index("weak_a")
    if corruption == "nan_csv":
        _replace_line(csv, 2, lambda line: _set_field(line, col, "nan"))
    elif corruption == "norm_csv":
        _replace_line(csv, 2, lambda line: _set_field(line, col, "1e-12"))
    elif corruption == "over_limit":
        doc = json.loads(report.read_text())
        doc["max_weak_a"] = 1e-6
        report.write_text(json.dumps(doc))
        _replace_line(csv, 2, lambda line: _set_field(line, col, "1e-06"))
    elif corruption == "nan_json":
        report.write_text(report.read_text().replace("{", '{"bad": NaN, ', 1))
    elif corruption == "infinity_json":
        report.write_text(report.read_text().replace("{", '{"bad": -Infinity, ', 1))
    elif corruption == "norm_json":
        doc = json.loads(report.read_text())
        doc["max_weak_b"] *= 2.0
        report.write_text(json.dumps(doc))
    assert check.check_run(command, out, scenario, code)


def test_declared_workloads_are_defined_here():
    for entry in _declared()["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def test_seed_zero_is_the_shipped_placement():
    with open(os.path.join(ROOT, "scenarios", "circle_shift_radial.json")) as fh:
        shipped = json.load(fh)
    circle = workloads.shift_circle(0)
    for key in ("model", "force", "surface"):
        assert circle[key] == shipped[key]
    with open(os.path.join(ROOT, "scenarios", "sphere_radial.json")) as fh:
        sphere = json.load(fh)["surface"]
    assert workloads.shift_quartic_sphere(0)["surface"] == sphere


def test_same_seed_same_inputs():
    for name, workload in workloads.WORKLOADS.items():
        assert workload.scenario(7) == workload.scenario(7)
        assert json.dumps(workload.scenario(7)) != json.dumps(workload.scenario(8)) \
            or workload.seed_arg


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(trace, tmp_path, monkeypatch, capsys):
    name = "shift-quartic-sphere"
    tiny = dataclasses.replace(workloads.WORKLOADS[name], scenario=TINY[name])
    monkeypatch.setitem(run.WORKLOADS, name, tiny)
    monkeypatch.setattr(run, "STATE", str(tmp_path))
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    text = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} " in text and f" {m['unit']}" in text
    assert "error_rate" in text
    if trace:
        metrics = result["metrics"]
        assert metrics["hypersurface.normal.calls"]["value"] > 0
        assert metrics["calculus.legendre.newton_iters"]["value"] > 0
        assert os.listdir(tmp_path / "spans")


def test_cross_check_flags_changed_bytes_and_counts():
    def call(sha, calls, traced=True):
        layers = {"expr.eval.s": 1.0 + calls, "expr.eval.calls": calls,
                  "cli.emit.bytes": 7}
        return {"traced": traced, "problems": [],
                "res": {"sha256": {"shift.csv": sha},
                        "layers": layers if traced else None}}
    # self times may differ between calls; bytes and counts may not
    reps = [call("a", 5, traced=False), call("a", 5), call("b", 5), call("a", 6)]
    run.cross_check(reps)
    assert [bool(r["problems"]) for r in reps] == [False, False, True, True]
