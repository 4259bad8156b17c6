"""Lagrangian/Hamiltonian models, Legendre maps, regularity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (SHARED_LAGRANGIANS, euclid_lagrangian, euclid_hamiltonian, kinetic,
                     potential_lagrangian, quartic_lagrangian)
from nslab import (CotangentState, HamiltonianModel, LagrangianModel,
                   SampleDomain, TangentState, check_regularity, expr,
                   legendre, mu_map, omega_p, omega_v, vertical_metrics)
from nslab.calculus import SINGULAR_CUTOFF, check_hessian, det_adj, invert_legendre_array
from nslab.errors import (DegenerateOmega, SingularJacobian, ValidationError)


def fd_gradient(f, z, step=1e-5):
    out = np.empty_like(z)
    for i in range(len(z)):
        hi = z.copy(); hi[i] += step
        lo = z.copy(); lo[i] -= step
        out[i] = (f(hi) - f(lo)) / (2 * step)
    return out


class TestOmega:
    def test_euclid(self):
        q = TangentState(np.zeros(2), np.array([3.0, 4.0]))
        assert omega_v(euclid_lagrangian(2), q) == pytest.approx(25.0)

    def test_quartic_against_fd_contraction(self):
        lag = quartic_lagrangian(2)
        v = np.array([2.0, 0.0])
        grad = fd_gradient(lambda vv: lag.value(np.zeros(2), vv), v)
        assert float(v @ grad) == pytest.approx(16.0, rel=1e-7)
        assert omega_v(lag, TangentState(np.zeros(2), v)) == pytest.approx(16.0)

    def test_zero_velocity(self):
        assert omega_v(potential_lagrangian(),
                       TangentState(np.zeros(2), np.zeros(2))) == 0.0


class TestLegendre:
    def test_euclid_is_identity(self):
        q = TangentState(np.zeros(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(legendre(euclid_lagrangian(2), q).p, [3.0, 4.0])

    def test_quartic_with_fd_oracle(self):
        lag = quartic_lagrangian(2)
        v = np.array([2.0, 0.0])
        grad = fd_gradient(lambda vv: lag.value(np.zeros(2), vv), v)
        got = legendre(lag, TangentState(np.zeros(2), v)).p
        np.testing.assert_allclose(got, [8.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(got, grad, rtol=1e-7)

    def test_potential_momentum_ignores_potential(self):
        with_u = LagrangianModel(2, "0.5*(v1^2+v2^2) - (x1^2 + sin(x2))")
        q = TangentState(np.array([0.7, -0.3]), np.array([1.1, 0.4]))
        np.testing.assert_allclose(legendre(with_u, q).p, q.v)

    def test_quadratic_model_is_exact_linear_map(self):
        lag = potential_lagrangian()
        x = np.array([0.4, -0.8])
        v = np.array([1.3, -0.6])
        g = lag.lvv(x, v)
        np.testing.assert_array_equal(legendre(lag, TangentState(x, v)).p, g @ v)


class TestInverseLegendre:
    def test_euclid_identity(self):
        v, _ = invert_legendre_array(euclid_lagrangian(2), np.zeros(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(v, [3.0, 4.0], atol=1e-12)

    def test_quartic_analytic_inverse(self):
        lag = quartic_lagrangian(2)
        p = np.array([8.0, 0.0])
        v, iters = invert_legendre_array(lag, np.zeros(2), p)
        np.testing.assert_allclose(v, p / np.linalg.norm(p) ** (2.0 / 3.0),
                                   atol=1e-10)
        assert iters <= 12

    def test_roundtrip_property(self):
        lag = quartic_lagrangian(2)
        rng = np.random.default_rng(3)
        V = rng.normal(size=(2, 100))
        V /= np.linalg.norm(V, axis=0)
        V *= rng.uniform(0.1, 10.0, size=100)
        X = rng.normal(size=(2, 100))
        P = lag.lv(X, V)
        back, iters = invert_legendre_array(lag, X, P)
        assert np.abs(back - V).max() <= 1e-9
        assert iters <= 12

    @pytest.mark.parametrize("n, lagrangian", [
        (2, "0.5*(1+0.2*x1^2)*v1^2 + 0.3*v1*v2 + 0.5*v2^2 + 0.4*x2*v1 - x1^2"),
        (3, "0.5*(v1^2+v2^2+v3^2) + 0.1*x3*v1*v2 + 0.2*sin(x1)*v3^2")],
        ids=["n2-linear-term", "n3"])
    def test_velocity_quadratic_is_one_exact_newton_step(self, n, lagrangian):
        # L_v is affine in v, so Newton from v = 0 lands on the closed form
        # adj.(p - L_v(x, 0))/det of L_vv(x, 0) in its first step; column 1
        # has p = 0, which converges at v = 0 unless L has a term linear in v
        lag = LagrangianModel(n, lagrangian)
        assert lag.is_velocity_quadratic
        rng = np.random.default_rng(9)
        x, p = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
        p[:, 1] = 0.0
        zero = np.zeros_like(p)
        det, adj = det_adj(lag.lvv(x, zero))
        rhs = p - lag.lv(x, zero)
        closed = adj[:, 0] * rhs[0]
        for j in range(1, n):
            closed = closed + adj[:, j] * rhs[j]
        closed = closed / det
        v, iterations = invert_legendre_array(lag, x, p)
        assert np.array_equal(v, closed)
        assert iterations == 1

    def test_singular_hessian_raises(self):
        lag = LagrangianModel(2, "v1^3")
        with pytest.raises(SingularJacobian):
            invert_legendre_array(lag, np.zeros(2), np.array([3.0, 1.0]))

    def test_batch_with_a_zero_momentum_column_matches_points(self):
        # p = 0 converges at its start, where L_vv of the quartic is singular;
        # RuntimeWarnings are errors in this suite
        lag = quartic_lagrangian(3)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        p = rng.normal(size=(3, 6)) * rng.uniform(0.1, 10.0, size=6)
        p[:, 2] = 0.0
        v, iterations = invert_legendre_array(lag, x, p)
        assert iterations > 0
        assert np.array_equal(v[:, 2], np.zeros(3))
        for k in range(6):
            assert np.array_equal(v[:, k], invert_legendre_array(lag, x[:, k], p[:, k])[0]), k


class TestHamiltonian:
    def test_euclid_value(self):
        c = CotangentState(np.zeros(2), np.array([3.0, 4.0]))
        H = HamiltonianModel.from_lagrangian(euclid_lagrangian(2))
        assert H.partials(c.x, c.p, order=0).value == pytest.approx(12.5)

    def test_quartic_closed_form(self):
        H = HamiltonianModel.from_lagrangian(quartic_lagrangian(2))
        c = CotangentState(np.zeros(2), np.array([8.0, 0.0]))
        assert H.partials(c.x, c.p, order=0).value == pytest.approx(12.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.normal(size=2) * 2 + 0.1
            c = CotangentState(rng.normal(size=2), p)
            expect = 0.75 * np.linalg.norm(p) ** (4.0 / 3.0)
            assert H.partials(c.x, c.p, order=0).value == pytest.approx(expect, rel=1e-10)

    def test_potential_direct_substitution(self):
        lag = LagrangianModel(2, "0.5*(v1^2+v2^2) - (x1^2 + sin(x2))")
        H = HamiltonianModel.from_lagrangian(lag)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=2)
            p = rng.normal(size=2)
            expect = 0.5 * float(p @ p) + x[0] ** 2 + np.sin(x[1])
            c = CotangentState(x, p)
            assert H.partials(c.x, c.p, order=0).value == pytest.approx(expect, abs=1e-11)

    def test_derived_partials_match_finite_differences(self):
        lag = LagrangianModel(2, "0.25*(1+0.3*sin(x1))*(v1^2+v2^2)^2 + 0.1*x2^2")
        H = HamiltonianModel.from_lagrangian(lag)
        x = np.array([0.4, -0.2])
        p = np.array([1.1, 0.7])
        data = H.partials(x, p, order=2)

        def value(xx, pp):
            return H.partials(xx, pp, order=0).value

        step = 1e-5
        fd_dx = fd_gradient(lambda xx: value(xx, p), x, step)
        fd_dp = fd_gradient(lambda pp: value(x, pp), p, step)
        np.testing.assert_allclose(data.dx, fd_dx, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(data.dp, fd_dp, rtol=1e-6, atol=1e-8)
        for j in range(2):
            hi = p.copy(); hi[j] += step
            lo = p.copy(); lo[j] -= step
            col = (H.partials(x, hi, order=1).dp - H.partials(x, lo, order=1).dp) / (2 * step)
            np.testing.assert_allclose(data.dpp[j], col, rtol=1e-5, atol=1e-7)
        for q in range(2):
            hi = x.copy(); hi[q] += step
            lo = x.copy(); lo[q] -= step
            row_p = (H.partials(hi, p, order=1).dp - H.partials(lo, p, order=1).dp) / (2 * step)
            row_x = (H.partials(hi, p, order=1).dx - H.partials(lo, p, order=1).dx) / (2 * step)
            np.testing.assert_allclose(data.dxp[q], row_p, rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(data.dxx[q], row_x, rtol=1e-5, atol=1e-7)

    def test_expression_and_derived_paths_agree(self):
        lag = euclid_lagrangian(2)
        direct = euclid_hamiltonian(2)
        derived = HamiltonianModel.from_lagrangian(lag)
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = CotangentState(rng.normal(size=2), rng.normal(size=2) + 0.2)
            a = direct.partials(c.x, c.p, order=2)
            b = derived.partials(c.x, c.p, order=2)
            assert a.value is None and b.value is None
            value_a = direct.partials(c.x, c.p, order=0).value
            value_b = derived.partials(c.x, c.p, order=0).value
            assert abs(value_a - value_b) <= 1e-8
            assert np.abs(a.dp - b.dp).max() <= 1e-8
            assert np.abs(a.dpp - b.dpp).max() <= 1e-8


class TestOmegaMomentum:
    def test_euclid(self):
        H = euclid_hamiltonian(2)
        assert omega_p(H, CotangentState(np.zeros(2), np.array([3.0, 4.0]))) == pytest.approx(25.0)

    def test_pairs_with_velocity_form(self):
        lag = quartic_lagrangian(2)
        H = HamiltonianModel.from_lagrangian(lag)
        c = CotangentState(np.zeros(2), np.array([8.0, 0.0]))
        v, _ = invert_legendre_array(lag, c.x, c.p)
        assert omega_p(H, c) == pytest.approx(omega_v(lag, TangentState(c.x, v)), abs=1e-9)
        assert omega_p(H, c) == pytest.approx(16.0)

    def test_zero_momentum_is_legal(self):
        H = euclid_hamiltonian(2)
        assert omega_p(H, CotangentState(np.zeros(2), np.zeros(2))) == 0.0

    def test_unity_identity(self):
        lag = quartic_lagrangian(2)
        H = HamiltonianModel.from_lagrangian(lag)
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(100):
            p = rng.normal(size=2)
            p *= rng.uniform(0.1, 10.0) / np.linalg.norm(p)
            c = CotangentState(rng.normal(size=2), p)
            data = H.partials(c.x, c.p, order=1)
            om = omega_v(lag, TangentState(c.x, data.dp))
            worst = max(worst, abs(float(c.p @ data.dp) / om - 1.0))
        assert worst <= 1e-12


class TestVerticalMetrics:
    def test_euclid_identity(self):
        vm = vertical_metrics(euclid_lagrangian(2),
                              TangentState(np.zeros(2), np.array([1.0, 2.0])))
        np.testing.assert_array_equal(vm.g, np.eye(2))
        np.testing.assert_array_equal(vm.g_inv, np.eye(2))

    def test_quartic_fd_oracle(self):
        lag = quartic_lagrangian(2)
        v = np.array([2.0, 0.0])
        vm = vertical_metrics(lag, TangentState(np.zeros(2), v))
        np.testing.assert_allclose(vm.g, np.diag([12.0, 4.0]), atol=1e-12)
        step = 1e-5
        for i in range(2):
            hi = v.copy(); hi[i] += step
            lo = v.copy(); lo[i] -= step
            fd = (lag.lv(np.zeros(2), hi) - lag.lv(np.zeros(2), lo)) / (2 * step)
            np.testing.assert_allclose(vm.g[i], fd, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(vm.g @ vm.g_inv, np.eye(2), atol=1e-9)

    def test_diagonal_quadratic(self):
        lag = LagrangianModel(2, "0.5*(3*v1^2 + 0.5*v2^2)")
        vm = vertical_metrics(lag, TangentState(np.zeros(2), np.array([1.0, 1.0])))
        np.testing.assert_allclose(vm.g, np.diag([3.0, 0.5]))
        np.testing.assert_allclose(vm.g_inv, np.diag([1 / 3.0, 2.0]))

    def test_metric_duality_through_legendre(self):
        lag = quartic_lagrangian(2)
        H = HamiltonianModel.from_lagrangian(lag)
        rng = np.random.default_rng(9)
        for _ in range(25):
            v = rng.normal(size=2) + 0.3
            x = rng.normal(size=2)
            g = lag.lvv(x, v)
            data = H.partials(x, lag.lv(x, v), order=2)
            assert np.abs(g @ data.dpp - np.eye(2)).max() <= 1e-9

    def test_singular(self):
        lag = LagrangianModel(2, "v1^3")
        with pytest.raises(SingularJacobian):
            vertical_metrics(lag, TangentState(np.zeros(2), np.array([0.0, 1.0])))


class TestMuMap:
    def test_examples(self):
        lag = euclid_lagrangian(2)
        np.testing.assert_allclose(
            mu_map(lag, TangentState(np.zeros(2), np.array([2.0, 0.0]))), [0.5, 0.0])
        unit = np.array([0.6, 0.8])
        np.testing.assert_allclose(
            mu_map(lag, TangentState(np.zeros(2), unit)), unit, atol=1e-15)
        np.testing.assert_allclose(
            mu_map(quartic_lagrangian(2), TangentState(np.zeros(2), np.array([2.0, 0.0]))),
            [0.125, 0.0])

    def test_degenerate_omega(self):
        with pytest.raises(DegenerateOmega):
            mu_map(euclid_lagrangian(2), TangentState(np.zeros(2), np.zeros(2)))


class TestRegularity:
    def domain(self, seed=0):
        return SampleDomain(x_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
                            fiber_range=(0.1, 5.0), count=60, seed=seed)

    def test_euclid_passes(self):
        assert check_regularity(euclid_lagrangian(2), self.domain()).passed

    def test_quartic_passes(self):
        report = check_regularity(quartic_lagrangian(2), self.domain(1))
        assert report.passed
        assert report.min_omega > 0

    def test_cubic_fails_with_singular_hessian(self):
        report = check_regularity(LagrangianModel(2, "v1^3"), self.domain(2))
        assert not report.passed
        assert not report.det_ok


# dyadic entries, for which every product is exact and exact singularity is
# common, and general floats away from underflow
ENTRIES = st.one_of(st.integers(-64, 64).map(lambda k: k / 8),
                    st.floats(-10.0, 10.0).filter(lambda f: f == 0.0 or abs(f) > 1e-3))


@st.composite
def matrix_stacks(draw):
    n = draw(st.integers(1, 5))
    batch = draw(st.sampled_from([(), (1,), (draw(st.integers(2, 4)),),
                                  (draw(st.integers(2, 3)), draw(st.integers(2, 3)))]))
    size = n * n * int(np.prod(batch, dtype=int))
    return np.array(draw(st.lists(ENTRIES, min_size=size, max_size=size))).reshape(
        (n, n) + batch)


@settings(max_examples=150, deadline=None)
@given(g=matrix_stacks())
def test_det_adj_is_the_determinant_and_adjugate(g):
    n, batch = len(g), g.shape[2:]
    det, adj = det_adj(g)
    assert np.shape(det) == batch and adj.shape == g.shape
    G = np.moveaxis(g, (0, 1), (-2, -1))                        # (*B, n, n) for the oracle
    A = np.moveaxis(adj, (0, 1), (-2, -1))
    # the n-th power of the longest row bounds |det| and every term of the
    # expansion of any entry of g.adj (Hadamard)
    scale = np.linalg.norm(G, axis=-1).max(axis=-1) ** n
    assert np.all(np.abs(G @ A - det[..., None, None] * np.eye(n))
                  <= 1e-13 * scale[..., None, None])
    assert np.all(np.abs(det - np.linalg.det(G)) <= 1e-13 * scale)
    bad = np.abs(det) < SINGULAR_CUTOFF
    coords = g.reshape((n * n,) + batch)
    if bad.any():
        with pytest.raises(SingularJacobian) as info:
            check_hessian(g, "singular", x=coords)
        assert info.value.index == np.flatnonzero(bad)[0]
    else:
        got_det, got_adj = check_hessian(g, "singular", x=coords)
        assert np.array_equal(got_det, det) and np.array_equal(got_adj, adj)


def test_state_validation_rejects_nonfinite():
    with pytest.raises(ValidationError):
        TangentState(np.array([0.0, np.inf]), np.zeros(2))
    with pytest.raises(ValidationError):
        CotangentState(np.zeros(2), np.array([np.nan, 0.0]))


def test_symbol_outside_dimension_rejected():
    with pytest.raises(ValidationError):
        LagrangianModel(2, "v3^2")


# construction builds the tables a run reads; the third-order ones wait
EAGER_KEYS = {"L", "v", "x", "vv", "vx", "xx"}
MODELS = {"euclid": lambda: euclid_lagrangian(3),
          "quartic": lambda: quartic_lagrangian(3),
          "x-dependent quadratic": potential_lagrangian,
          **{f"shared{k}": (lambda text=text: LagrangianModel(3, text))
             for k, text in enumerate(SHARED_LAGRANGIANS)}}


def gradient_table(lag, kinds):
    """The table of L's partials by the symbol kinds `kinds` ("vvx"), built
    by expr.gradient alone."""
    exprs = lag.expr
    for kind in kinds:
        exprs = expr.gradient(exprs, kind, lag.n, axis=-1)
    return expr.Table(exprs)


@pytest.mark.parametrize("name", sorted(MODELS))
class TestDerivativeTables:
    def test_construction_builds_the_tables_of_order_two(self, name):
        assert set(MODELS[name]().tables) == EAGER_KEYS

    def test_third_order_tables_on_first_use_match_a_gradient_build(self, name):
        lag = MODELS[name]()
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, (lag.n, 5))
        v = rng.uniform(0.2, 2.0, (lag.n, 5))
        for key, method in (("vvv", lag.lvvv), ("vvx", lag.lvvx), ("vxx", lag.lvxx)):
            assert key not in lag.tables
            got = method(x, v)
            reference = gradient_table(lag, key)
            assert lag.tables[key].source == reference.source
            assert np.array_equal(got, reference(x=x, v=v))
        assert set(lag.tables) == EAGER_KEYS | {"vvv", "vvx", "vxx"}

    def test_velocity_quadratic_is_the_full_third_order_test(self, name):
        lag = MODELS[name]()
        full = all(e.is_zero() for e in gradient_table(lag, "vvv").exprs.flat)
        assert full == (name in ("euclid", "x-dependent quadratic"))
        assert lag.is_velocity_quadratic == full
        assert set(lag.tables) == EAGER_KEYS
