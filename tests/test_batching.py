"""Batched frames against the per-point path: residuals, connection
invariance, deviation coefficients, frame counts and point-naming guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (euclid_system, polynomial_connection, quartic_lagrangian,
                     radial_momentum_force, random_costates,
                     scaled_momentum_force, stack_states, swap_force)
from nslab import (CotangentState, ForceField, HamiltonianModel,
                   LagrangianModel, NewtonianSystem, SampleDomain,
                   additional_residuals,
                   connection_invariance_check, deviation_coefficients,
                   evaluate_residuals, weak_residuals)
from nslab import cli, normality
from nslab.errors import (DegenerateOmega, SingularJacobian, ValidationError,
                          ZeroMomentum)
from nslab.tensorfields import ConnectionShift, FieldPoint

SIZES = (1, 255, 256, 257, 600)


def quartic_system():
    lag = quartic_lagrangian(3)
    return NewtonianSystem(HamiltonianModel.from_lagrangian(lag),
                           ForceField(3, radial_momentum_force(3)))


SYSTEMS = {
    "radial": (lambda: euclid_system(3, radial_momentum_force(3)), None),
    "swap": (lambda: euclid_system(3, swap_force(3)), None),
    "x-dependent": (lambda: euclid_system(3, ["0.2*x1*p2", "0.1*p1", "0.3*x3*p3"]),
                    None),
    "connection": (lambda: euclid_system(3, radial_momentum_force(3)),
                   lambda: polynomial_connection(3, seed=4)),
    "quartic": (quartic_system, lambda: polynomial_connection(3, seed=5)),
}


def build(name):
    make_system, make_gamma = SYSTEMS[name]
    return make_system(), make_gamma() if make_gamma else None


def assert_close(batched, single):
    batched = np.asarray(batched, dtype=float)
    single = np.asarray(single, dtype=float)
    assert batched.shape == single.shape
    assert np.all(np.abs(batched - single) <= 1e-12 * np.maximum(1.0, np.abs(single)))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=1, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), x_scale=st.sampled_from([0.3, 1.0]))
def test_residuals_match_per_point(name, size, seed, x_scale):
    system, gamma = build(name)
    states = random_costates(3, size, seed, x_scale=x_scale)
    report = evaluate_residuals(system, gamma, stack_states(states))
    for family in ("weak_a", "weak_b", "add_sym", "add_proj"):
        assert len(report.values[family]) == size
        assert report.norms[family].shape == (size,)
    for k, c in enumerate(states):
        wa, wb = weak_residuals(system, gamma, c)
        add_sym, _, add_proj = additional_residuals(system, gamma, c)
        for family, single in (("weak_a", wa), ("weak_b", wb),
                               ("add_sym", add_sym), ("add_proj", add_proj)):
            assert_close(report.values[family][k], single)
        assert report.norms["add_proj"][k] == np.abs(report.values["add_proj"][k]).max()
    assert report.max_weak_b == report.norms["weak_b"].max()


@pytest.mark.parametrize("name", ["connection", "quartic"])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=st.sampled_from([1, 257]))
def test_invariance_matches_per_point(name, seed, size):
    system, gamma = build(name)
    shift = polynomial_connection(3, seed=6, scale=0.1, cls=ConnectionShift)
    states = random_costates(3, size, seed)
    report = connection_invariance_check(system, gamma, shift, stack_states(states))
    shifted = gamma.shifted(shift)
    worst = np.zeros(5)
    for c in states:
        wa0, wb0 = weak_residuals(system, gamma, c)
        wa1, wb1 = weak_residuals(system, shifted, c)
        s0, _, pr0 = additional_residuals(system, gamma, c)
        s1, _, pr1 = additional_residuals(system, shifted, c)
        worst = np.maximum(worst, [np.abs(wa1 - wa0).max(), np.abs(wb1 - wb0).max(),
                                   np.abs(pr1 - pr0).max(), np.abs(s1 - s0).max(),
                                   np.abs(pr0).max()])
    assert_close([report.weak_a_diff, report.weak_b_diff, report.add_proj_diff,
                  report.add_sym_diff, report.add_proj_magnitude], worst)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_deviation_coefficients_match_per_point(name, seed):
    system, gamma = build(name)
    states = random_costates(3, 40, seed)
    xs = np.stack([c.x for c in states], axis=1)
    ps = np.stack([c.p for c in states], axis=1)
    batched = deviation_coefficients(system, gamma, CotangentState(xs, ps))
    for k, c in enumerate(states):
        single = deviation_coefficients(system, gamma, c)
        assert isinstance(single.sigma, float)
        for field in ("alpha", "beta_cov", "eta", "sigma", "a_coef", "b_coef"):
            assert_close(np.asarray(getattr(batched, field))[..., k],
                         getattr(single, field))


@pytest.mark.parametrize("size", SIZES)
def test_one_frame_per_block(monkeypatch, size):
    system, gamma = build("connection")
    built = []
    original = FieldPoint.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FieldPoint, "__init__", counting)
    evaluate_residuals(system, gamma, stack_states(random_costates(3, size, seed=1)))
    assert len(built) <= math.ceil(size / normality.POINT_BLOCK)


def indefinite_system():
    return NewtonianSystem(HamiltonianModel.from_expression(3, "0.5*(p1^2-p2^2+p3^2)"),
                           ForceField(3, ["0", "0", "0"]))


def states_with(bad_p, index, count=300):
    states = random_costates(3, count, seed=8)
    states[index] = CotangentState(states[index].x, np.asarray(bad_p, dtype=float))
    return states


@pytest.mark.parametrize("make_system, bad_p, error", [
    (lambda: euclid_system(3, scaled_momentum_force(3)), [0, 0, 0], ZeroMomentum),
    (indefinite_system, [1.0, 1.0, 0.0], DegenerateOmega),
    (quartic_system, [0, 0, 0], SingularJacobian),
])
@pytest.mark.parametrize("index", [150, 270])
def test_batched_guard_names_the_point(make_system, bad_p, error, index):
    states = states_with(bad_p, index)
    with pytest.raises(error) as info:
        evaluate_residuals(make_system(), None, stack_states(states))
    exc = info.value
    assert exc.index == index
    assert exc.x == states[index].x.tolist()
    assert exc.p == [float(c) for c in bad_p]
    assert f"at point {index}: x=" in str(exc)


def test_cli_exits_numeric_on_zero_momentum(monkeypatch, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        '{"model": {"dimension": 3, "lagrangian": "0.5*(v1^2+v2^2+v3^2)"},'
        ' "force": ["0.1*p1", "0.1*p2", "0.1*p3"], "run": {"samples": 300}}',
        encoding="utf-8")
    points = stack_states(states_with([0, 0, 0], 150))
    monkeypatch.setattr(SampleDomain, "sample", lambda self, n: (points.x, points.p))
    code = cli.main(["residuals", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric error: zero momentum at point 150: x=" in err


def test_closed_form_legendre_names_the_point():
    # the vertical Hessian diag(x1^2, 1) is singular at x1 = 0
    lag = LagrangianModel(2, "0.5*(x1^2*v1^2+v2^2)")
    system = NewtonianSystem(HamiltonianModel.from_lagrangian(lag), ForceField(2, ["0", "0"]))
    rng = np.random.default_rng(12)
    states = [CotangentState(rng.uniform(0.5, 1.0, size=2), rng.normal(size=2))
              for _ in range(6)]
    states[4] = CotangentState(np.array([0.0, 0.3]), np.array([0.7, -0.2]))
    with pytest.raises(SingularJacobian) as info:
        evaluate_residuals(system, None, stack_states(states))
    exc = info.value
    assert (exc.index, exc.x, exc.p) == (4, [0.0, 0.3], [0.7, -0.2])


def test_point_set_evaluators_take_a_point_axis():
    system, gamma = build("connection")
    shift = polynomial_connection(3, seed=6, scale=0.1, cls=ConnectionShift)
    single = random_costates(3, 1, seed=3)[0]
    points = stack_states([single])
    assert (len(single), len(points)) == (1, 1)
    with pytest.raises(ValidationError, match="shape"):
        evaluate_residuals(system, gamma, single)
    with pytest.raises(ValidationError, match="shape"):
        connection_invariance_check(system, gamma, shift, single)
    report = evaluate_residuals(system, gamma, points)
    assert report.values["weak_a"].shape == (1, 3)
    assert report.values["add_sym"].shape == (1, 3, 3)
