"""Batched frames against the per-point path: residuals, connection
invariance, deviation coefficients, frame counts, point-naming guards, and
artifacts that do not depend on the block size or on how the Legendre start
search groups its scales."""

import json
import math
import tracemalloc

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
from nslab import calculus, cli, normality
from nslab.errors import (DegenerateOmega, SingularJacobian, ValidationError,
                          ZeroMomentum)
from nslab.tensorfields import FieldPoint

# the per-point comparisons run on a few hundred points: this block, patched
# in for the module, puts block boundaries among them
BLOCK = 256
SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 600)


@pytest.fixture(autouse=True, scope="module")
def small_blocks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(normality, "POINT_BLOCK", BLOCK)
        yield


def quartic_system():
    lag = quartic_lagrangian(3)
    return NewtonianSystem(HamiltonianModel(lag.n, lag),
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
    shift = polynomial_connection(3, seed=6, scale=0.1)
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
    return NewtonianSystem(HamiltonianModel(3, expression="0.5*(p1^2-p2^2+p3^2)"),
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
@pytest.mark.parametrize("index", [150, BLOCK + 14])
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
    system = NewtonianSystem(HamiltonianModel(lag.n, lag), ForceField(2, ["0", "0"]))
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
    shift = polynomial_connection(3, seed=6, scale=0.1)
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


def test_point_set_artifacts_do_not_depend_on_the_block(tmp_path):
    # a derived quartic Hamiltonian, so every block runs the Legendre start
    # search; 1,100 points cross a boundary of each block size
    shift = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    shift[2][0][1] = shift[2][1][0] = "0.1*x3"
    doc = {"model": {"dimension": 3, "lagrangian": "0.25*(v1^2+v2^2+v3^2)^2+0.1*x1*v2^2",
                     "fiber_range": [0.1, 10.0]},
           "force": ["0.1*p1", "0.1*p2", "0.1*p3"],
           "connection": {"shift": shift}, "run": {"samples": 1100, "seed": 3}}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    runs = {}
    for block in (7, 256, 1024):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(normality, "POINT_BLOCK", block)
            for command in ("residuals", "invariance", "identities"):
                out = tmp_path / str(block) / command
                code = cli.main([command, "--scenario", str(scenario), "--out", str(out)])
                runs[block, command] = code, {p.name: p.read_bytes()
                                              for p in sorted(out.iterdir())}
    for command in ("residuals", "invariance", "identities"):
        assert len(runs[7, command][1]) >= 1
        assert runs[7, command] == runs[256, command] == runs[1024, command]


def vectorised_search(model, x, p):
    """Every scale of the start search in one L_v evaluation, the first
    scale of least residual per column."""
    scales = 2.0 ** np.arange(-30.0, 11.0)
    n, b = p.shape
    vs = p[:, None, :] * scales[None, :, None]
    xs = np.broadcast_to(x[:, None, :], vs.shape)
    res = (model.lv(xs.reshape(n, -1), vs.reshape(n, -1))
           - p[:, None, :].repeat(len(scales), 1).reshape(n, -1))
    res = np.abs(res).max(axis=0).reshape(len(scales), b)
    res = np.where(np.isfinite(res), res, np.inf)
    return p * scales[np.argmin(res, axis=0)][None, :]


class ScaleResidual:
    """L_v for p = (1, 1) whose residual at the scale 2^k is (k - x1)^2 for
    x2 - 20 <= k <= x2, NaN above that range and infinite below it; records
    the column count of each evaluation, over all its batch axes."""

    def __init__(self):
        self.columns = []

    def lv(self, x, v):
        self.columns.append(x[0].size)
        k = np.log2(v[0])
        res = (k - x[0]) ** 2
        res = np.where(k > x[1], np.nan, np.where(k < x[1] - 20, np.inf, res))
        return np.stack([1.0 + res, np.ones_like(res)])


def designed_columns(count, seed):
    """x for ScaleResidual: minima on a scale, ties between two neighbouring
    scales (x1 a half-integer, across group boundaries too), non-finite
    residuals on some scales, and every fourth column non-finite on every
    scale (x2 = -100).  The first column ties 2^-26 with 2^-25, the last
    scale of a group of five with the first of the next."""
    rng = np.random.default_rng(seed)
    x1 = rng.integers(-32, 12, size=count) + rng.choice([0.0, 0.5], size=count)
    x2 = rng.uniform(-35.0, 15.0, size=count)
    x2[3::4] = -100.0
    x1[0], x2[0] = -25.5, -10.0
    return np.stack([x1, x2])


@pytest.mark.parametrize("size", [1, 256, 257, 2048])
def test_grouped_start_search_is_the_first_minimum(size):
    x = designed_columns(size, seed=size)
    p = np.ones((2, size))
    model = ScaleResidual()
    start = calculus._scale_search_start(model, x, p)
    assert np.array_equal(start, vectorised_search(ScaleResidual(), x, p))
    assert max(model.columns) <= calculus.SEARCH_COLUMNS
    if size <= 256:
        assert len(model.columns) == 1
    hopeless = x[1] == -100.0
    assert np.all(start[:, hopeless] == 2.0 ** -30)
    # a tie between two scales inside the finite range takes the lower one
    low = np.floor(x[0])
    ties = ((x[0] % 1 == 0.5) & (low >= np.maximum(-30, x[1] - 20))
            & (low + 1 <= np.minimum(10, x[1])))
    assert ties.any()
    assert np.all(np.log2(start[0, ties]) == low[ties])


@pytest.mark.parametrize("size", [17, 289, 2048])
def test_grouped_start_search_matches_on_a_quartic_model(size):
    lag = quartic_lagrangian(3)
    rng = np.random.default_rng(size)
    x = rng.normal(size=(3, size))
    p = rng.normal(size=(3, size)) * 10.0 ** rng.uniform(-6, 6, size=size)
    assert np.array_equal(calculus._scale_search_start(lag, x, p),
                          vectorised_search(lag, x, p))


def test_start_search_memory_is_bounded():
    lag = quartic_lagrangian(3)
    rng = np.random.default_rng(2)
    x, p = rng.normal(size=(2, 3, 2048))
    calculus._scale_search_start(lag, x, p)      # builds the L_v kernel
    tracemalloc.start()
    try:
        calculus._scale_search_start(lag, x, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
