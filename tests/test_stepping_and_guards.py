"""The shared RK4 step in each of its callers (order and failure naming) and
the guards in front of the Legendre inversion, the velocity form and the
CLI's point sampling."""

import json

import numpy as np
import pytest

from helpers import euclid_system, quartic_lagrangian
from nslab import (CotangentState, Hypersurface, TangentState, VariationState,
                   integrate, integrate_batch, integrate_variation, solve_nu_grid)
from nslab import calculus
from nslab.calculus import invert_legendre_array
from nslab.cli import EXIT_NUMERIC, main
from nslab.errors import DegenerateOmega, NonFinite

X_DEPENDENT_FORCE = ["0.2*x1*p1", "0.1*p2"]


def ratios(errors):
    return [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]


def test_curve_nu_march_is_fourth_order():
    system = euclid_system(2, X_DEPENDENT_FORCE)
    ellipse = Hypersurface(2, ["2*cos(y1)", "sin(y1)"], [[0.0, 1.0]], base_point=[0.0])

    def end_node(nodes):
        return solve_nu_grid(ellipse, system, 1.0, counts=[nodes]).values[-1]

    ref = end_node(1281)
    errors = [abs(end_node(nodes) - ref) for nodes in (11, 21, 41)]
    for ratio in ratios(errors):
        assert 12.0 <= ratio <= 20.0


def test_variation_integrator_is_fourth_order():
    # the base and its variations share every RK4 stage
    system = euclid_system(2, X_DEPENDENT_FORCE)
    start = CotangentState(np.array([0.1, -0.2]), np.array([0.9, 0.7]))
    init = VariationState(np.array([0.3, -0.7]), np.array([0.4, 0.9]))

    def end_state(h):
        series = integrate_variation(system, None, integrate(system, start, 1.0, h), init)
        return np.concatenate([series.tau[-1], series.fiber[-1]])

    ref = end_state(1.0 / 400)
    errors = [np.abs(end_state(h) - ref).max() for h in (0.1, 0.05, 0.025)]
    for ratio in ratios(errors):
        assert 12.0 <= ratio <= 20.0


def test_batched_rk4_failure_keeps_its_point_and_gains_the_time():
    # Q = (-1, 0) takes column 1's momentum (0.5, 0) to zero at the last
    # stage of the step starting at t = 0.25; column 0 never gets there
    system = euclid_system(2, ["0-1", "0"])
    x0 = np.array([[0.3, 0.1], [0.0, 0.0]])
    p0 = np.array([[1.0, 0.5], [0.5, 0.0]])
    with pytest.raises(DegenerateOmega) as info:
        integrate_batch(system, x0, p0, 0.5, 0.25)
    exc = info.value
    assert exc.index == 1
    assert len(exc.x) == 2 and np.all(np.isfinite(exc.x)) and exc.x[0] > 0.0
    assert np.abs(exc.p).max() <= 1e-7
    assert "(during step starting at t=0.25) at point 1: x=" in str(exc)


class NewtonCalls:
    """Counts the runs of the Newton loop of the Legendre inversion."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = calculus._newton

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(calculus, "_newton", counted)


def test_non_finite_momentum_is_named_before_newton(monkeypatch):
    lag = quartic_lagrangian(3)
    x = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.5]])
    p = np.array([[1.0, 0.7], [0.5, np.nan], [-0.2, 0.4]])
    newton = NewtonCalls(monkeypatch)
    with pytest.raises(NonFinite) as info:
        invert_legendre_array(lag, x, p, start=p)
    assert newton.calls == 0
    exc = info.value
    assert exc.index == 1
    assert exc.x == [0.2, -0.1, 0.5]
    assert exc.p[0] == 0.7 and np.isnan(exc.p[1])


def test_non_finite_start_falls_back_to_the_cold_search(monkeypatch):
    lag = quartic_lagrangian(3)
    rng = np.random.default_rng(4)
    x, p = rng.normal(size=(3, 5)), rng.normal(size=(3, 5)) + 0.5
    cold, cold_iterations = invert_legendre_array(lag, x, p)
    start = cold.copy()
    start[2, 3] = np.inf
    newton = NewtonCalls(monkeypatch)
    v, iterations = invert_legendre_array(lag, x, p, start=start)
    assert newton.calls == 1
    assert np.array_equal(v, cold) and iterations == cold_iterations


def test_singular_velocity_hessian_exits_numeric(tmp_path, capsys):
    # the vertical Hessian diag(x1^2, 1) is singular on x1 = 0
    doc = {"model": {"dimension": 2, "lagrangian": "0.5*(x1^2*v1^2+v2^2)",
                     "hamiltonian": "0.5*(p1^2+p2^2)"},
           "force": ["0", "0"],
           "run": {"t_end": 0.1, "step": 0.01, "init": {"x": [0, 0], "v": [1, 1]}}}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("nslab: numeric error: vertical Hessian singular in velocity-form "
                          "right-hand side (during step starting at t=0)")


@pytest.mark.parametrize("command", ["residuals", "identities", "check-regularity"])
def test_zero_samples_exit_validation(tmp_path, command):
    # no sample point would leave every maximum check passing by construction
    doc = {"model": {"dimension": 2, "lagrangian": "0.5*(v1^2+v2^2)"},
           "force": ["0", "0"], "run": {"samples": 0, "tolerances": {"normal": 1e-9}}}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2


def test_singular_velocity_hessian_names_its_point(tmp_path, capsys):
    # diag(x1^2, 1) is singular at the initial x = (0, 0) already
    doc = {"model": {"dimension": 2, "lagrangian": "0.5*(x1^2*v1^2+v2^2)",
                     "hamiltonian": "0.5*(p1^2+p2^2)"},
           "force": ["0", "0"],
           "run": {"t_end": 0.1, "step": 0.01, "init": {"x": [0, 0], "v": [1, 1]}}}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    assert "at point 0: x=[0.0, 0.0], p=[0.0, 1.0]" in capsys.readouterr().err


# Q = (p1^3, 0) at p = (1, 0) drives p1' = p1^3, which blows up at t = 1/2;
# the first state that is not finite follows the step starting at t = 0.51
CUBIC_FORCE = ["p1^3", "0"]


@pytest.mark.parametrize("form", ["momentum", "velocity"])
def test_single_trajectory_non_finite_names_its_point(form):
    system = euclid_system(2, CUBIC_FORCE)
    x0, fiber0 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    init = CotangentState(x0, fiber0) if form == "momentum" else TangentState(x0, fiber0)
    with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
        integrate(system, init, 1.0, 0.01)
    exc = info.value
    assert exc.index == 0
    assert len(exc.x) == 2 and np.all(np.isfinite(exc.x)) and exc.x[0] > 0.0
    # the velocity form has no momentum to name
    assert (exc.p is None) == (form == "velocity")
    if form == "momentum":
        assert np.all(np.isfinite(exc.p)) and exc.p[0] > 1.0
    assert "after the step starting at t=0.51 at point 0: x=" in str(exc)


def test_batched_non_finite_names_its_column():
    # column 0 starts at p1 = 0.5 and would blow up only at t = 2
    system = euclid_system(2, CUBIC_FORCE)
    x0 = np.zeros((2, 2))
    p0 = np.array([[0.5, 0.0], [1.0, 0.0]])
    with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
        integrate_batch(system, x0, p0, 1.0, 0.01)
    exc = info.value
    assert exc.index == 1
    assert np.all(np.isfinite(exc.x)) and np.all(np.isfinite(exc.p)) and exc.p[0] > 1.0
    assert "after the step starting at t=0.51 at point 1: x=" in str(exc)
