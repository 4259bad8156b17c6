"""Warm-started Legendre inversion along RK4 and the line-batched nu march,
each against its cold or point-by-point reference."""

from itertools import product

import numpy as np
import pytest

from helpers import (euclid_system, potential_lagrangian, quartic_lagrangian,
                     radial_momentum_force, scaled_momentum_force)
from nslab import (CotangentState, ForceField, HamiltonianModel, Hypersurface,
                   NewtonianSystem, integrate, integrate_batch, normal_covector,
                   solve_nu_grid)
from nslab import calculus, dynamics
from nslab import hypersurface as hs
from nslab.calculus import invert_legendre_array
from nslab.errors import NonFinite, RankDeficient

SPHERE = ["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"]
# no normal shift: nu varies over the sphere patch
X_DEPENDENT_FORCE = ["0.2*x1*p2", "0.1*p1", "0.3*x3*p3"]


def derived_system(lag, force):
    return NewtonianSystem(HamiltonianModel(lag.n, lag),
                           ForceField(lag.n, force))


def initial_states(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)) * 0.5, rng.normal(size=(count, n)) + 0.5


def cold_momentum_rhs(system):
    """The momentum-form RK4 right-hand side with a cold Newton start at
    every stage."""
    return lambda state: dynamics.rhs_p_array(system, state[0], state[1])[:2]


class NewtonCount:
    """Counts the Newton iterations of every Legendre inversion."""

    def __init__(self, monkeypatch):
        self.iterations = 0
        inner = calculus.invert_legendre_array

        def counted(*args, **kwargs):
            v, iterations = inner(*args, **kwargs)
            self.iterations += iterations
            return v, iterations

        monkeypatch.setattr(calculus, "invert_legendre_array", counted)


def assert_rel_close(a, b, rtol):
    assert np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b)))


def test_warm_start_matches_cold_start(monkeypatch):
    system = derived_system(quartic_lagrangian(3), radial_momentum_force(3))
    X0, P0 = initial_states(3, 6, seed=11)
    count = NewtonCount(monkeypatch)
    t, xs, ps = integrate_batch(system, X0, P0, 0.2, 1e-2)
    single = integrate(system, CotangentState(X0[2], P0[2]), 0.2, 1e-2)
    warm_iterations = count.iterations
    count.iterations = 0
    monkeypatch.setattr(dynamics, "_momentum_rhs", cold_momentum_rhs)
    _, xs_cold, ps_cold = integrate_batch(system, X0, P0, 0.2, 1e-2)
    single_cold = integrate(system, CotangentState(X0[2], P0[2]), 0.2, 1e-2)
    assert_rel_close(xs, xs_cold, 1e-11)
    assert_rel_close(ps, ps_cold, 1e-11)
    assert_rel_close(single.xs, single_cold.xs, 1e-11)
    assert_rel_close(single.fibers, single_cold.fibers, 1e-11)
    # the warm start is in effect: from one stage away Newton needs fewer steps
    assert warm_iterations < count.iterations


def test_velocity_quadratic_ignores_start(monkeypatch):
    lag = potential_lagrangian()
    rng = np.random.default_rng(3)
    x, p = rng.normal(size=(2, 40)), rng.normal(size=(2, 40))
    v, iterations = invert_legendre_array(lag, x, p)
    v_start, iterations_start = invert_legendre_array(lag, x, p, start=rng.normal(size=(2, 40)))
    assert np.array_equal(v, v_start) and iterations == iterations_start
    system = derived_system(lag, ["0.05*p2", "0.1*p1"])
    X0, P0 = initial_states(2, 4, seed=5)
    _, xs, ps = integrate_batch(system, X0, P0, 0.3, 1e-2)
    monkeypatch.setattr(dynamics, "_momentum_rhs", cold_momentum_rhs)
    _, xs_cold, ps_cold = integrate_batch(system, X0, P0, 0.3, 1e-2)
    assert np.array_equal(xs, xs_cold) and np.array_equal(ps, ps_cold)


@pytest.mark.parametrize("shape", [(3,), (3, 25)])
def test_bad_start_falls_back_to_cold_start(shape):
    lag = quartic_lagrangian(3)
    rng = np.random.default_rng(9)
    x, p = rng.normal(size=shape), rng.normal(size=shape) * 3.0
    cold, cold_iterations = invert_legendre_array(lag, x, p)
    # the quartic's vertical Hessian vanishes at v = 0: the warm Newton fails
    v, iterations = invert_legendre_array(lag, x, p, start=np.zeros(shape))
    assert np.array_equal(v, cold)
    assert iterations == cold_iterations + 1
    assert np.abs(lag.lv(x, v) - p).max() <= 1e-12 * max(1.0, np.abs(p).max())


def line_by_line_sweep(surface, system, nu_base, axes, base_idx, order):
    """The nu sweep from nu_base at the base node, marching each line alone,
    as a batch of one."""
    shape = tuple(len(ax) for ax in axes)
    values = np.full(shape, np.nan)
    values[base_idx] = nu_base
    done_axes = []
    for axis in order:
        ranges = [range(shape[a]) if a in done_axes else [base_idx[a]]
                  for a in range(len(axes))]
        for idx in product(*ranges):
            y = np.array([[ax[k]] for ax, k in zip(axes, idx)])
            node = list(idx)
            for ks in (range(idx[axis] + 1, shape[axis]), range(idx[axis] - 1, -1, -1)):
                march = hs._march_axis(surface, system, values[idx][None], y, axis,
                                       [axes[axis][k] for k in ks])
                for node[axis], nu in zip(ks, march):
                    values[tuple(node)] = nu[0]
        done_axes.append(axis)
    return values


@pytest.mark.parametrize("make_system", [
    lambda: euclid_system(3, X_DEPENDENT_FORCE),
    lambda: derived_system(quartic_lagrangian(3), X_DEPENDENT_FORCE),
])
def test_grid_march_matches_line_by_line(make_system):
    system = make_system()
    surface = Hypersurface(3, SPHERE, [[0.2, 0.6], [0.2, 0.6]], base_point=[0.4, 0.3])
    axes = hs.grid_axes(surface.box, [7, 6])
    base_idx = (3, 1)
    for order in ([0, 1], [1, 0]):
        batched = hs._sweep(surface, system, 1.3, axes, order)
        single = line_by_line_sweep(surface, system, batched[base_idx], axes, base_idx,
                                    order)
        assert np.all(np.isfinite(batched))
        assert np.abs(batched - single).max() <= 1e-13
    assert np.ptp(batched) > 1e-3


def test_rank_deficient_chart_names_its_grid_point():
    # the second tangent vector vanishes on the grid line y2 = 0
    surface = Hypersurface(3, ["y1", "y2^3", "y1+y2^3"], [[-0.2, 0.2], [-0.2, 0.2]],
                           base_point=[0.0, 0.2])
    axes = (np.linspace(-0.2, 0.2, 5), np.linspace(-0.2, 0.2, 5))
    with pytest.raises(RankDeficient) as info:
        normal_covector(surface, np.stack(np.meshgrid(*axes, indexing="ij")))
    assert info.value.index == 2
    assert info.value.y == [-0.2, 0.0]
    system = euclid_system(3, scaled_momentum_force(3))
    with pytest.raises(RankDeficient) as info:
        solve_nu_grid(surface, system, 1.0, counts=[5, 5])
    assert info.value.y == [-0.2, 0.0]
    assert "y=[-0.2, 0.0]" in str(info.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_nu_names_its_grid_point():
    # dnu/dy1 = 100 nu^6 cos(y1)^5 sin(y1) blows up near y1 = 0.063
    circle = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[0.0, 0.3]], base_point=[0.0])
    axis = np.linspace(0.0, 0.3, 201)
    with pytest.raises(NonFinite) as info:
        solve_nu_grid(circle, euclid_system(2, ["-100*p1^5", "0"]), 1.0, counts=[201])
    assert info.value.y[0] in axis
    assert 0.06 < info.value.y[0] < 0.07
