"""Extended fields: gradients, projector, curvature, commutators,
concordance, covariant differentiation along curves."""

import numpy as np
import pytest

from helpers import (euclid_hamiltonian, euclid_lagrangian,
                     polynomial_connection, quartic_lagrangian)
from nslab import (CotangentState, ExtendedConnection, ExtendedTensorField,
                   ForceField, HamiltonianModel, LagrangianModel, TangentState,
                   commutator_residual, concordance_residual,
                   convert_representation, covariant_time_derivative,
                   curvature_tensors, horizontal_gradient, projector,
                   vertical_gradient)
from nslab import expr as ex
from nslab.errors import (DegenerateOmega, InsufficientSamples, ParseError,
                          RepresentationMismatch, ValidationError, ZeroMomentum)
from nslab.tensorfields import FieldPoint


class TestVerticalGradient:
    def test_scalar_energy(self):
        f = ExtendedTensorField.scalar(2, "momentum", ex.parse("0.5*(p1^2+p2^2)"))
        g = vertical_gradient(f)
        assert (g.r, g.s) == (1, 0)
        p = np.array([0.7, -0.3])
        np.testing.assert_allclose(g.values(np.zeros(2), p), p)

    def test_scalar_denominator(self):
        f = ExtendedTensorField.scalar(2, "momentum", ex.parse("p1^2+p2^2"))
        p = np.array([0.7, -0.3])
        np.testing.assert_allclose(vertical_gradient(f).values(np.zeros(2), p), 2 * p)

    def test_velocity_representation_adds_lower_index(self):
        f = ExtendedTensorField.scalar(2, "velocity", ex.parse("v1*v2"))
        g = vertical_gradient(f)
        assert (g.r, g.s) == (0, 1)
        np.testing.assert_allclose(g.values(np.zeros(2), np.array([2.0, 3.0])), [3.0, 2.0])

    def test_transport_relation_through_legendre(self):
        # fiber gradients in the two representations are linked by the
        # vertical metric, exactly, via symbolic substitution
        lag = quartic_lagrangian(2)
        X = ExtendedTensorField.scalar(2, "momentum", ex.parse("p1*p2 + sin(p2) + x1*p1"))
        lhs = vertical_gradient(convert_representation(X, lag))
        rhs = vertical_gradient(X)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=2)
            v = rng.normal(size=2) + 1.2
            g = lag.lvv(x, v)
            p = lag.lv(x, v)
            np.testing.assert_allclose(lhs.values(x, v), g @ rhs.values(x, p), atol=1e-8)


class TestHorizontalGradient:
    def test_flat_reduces_to_x_partials(self):
        f = ExtendedTensorField.scalar(2, "momentum", ex.parse("sin(x1)*p2"))
        g = horizontal_gradient(f, ExtendedConnection.flat(2))
        x = np.array([0.4, 0.0])
        p = np.array([0.0, 2.0])
        np.testing.assert_allclose(g.values(x, p), [2 * np.cos(0.4), 0.0])

    def test_flat_x_free_scalar_vanishes(self):
        f = ExtendedTensorField.scalar(2, "momentum", ex.parse("p1^2*p2"))
        g = horizontal_gradient(f, ExtendedConnection.flat(2))
        assert all(e.is_zero() for e in g.comps.ravel())

    def test_representation_mismatch(self):
        f = ExtendedTensorField.scalar(2, "velocity", ex.parse("v1"))
        with pytest.raises(RepresentationMismatch):
            horizontal_gradient(f, ExtendedConnection.flat(2))

    def test_chain_rule_along_curve(self):
        # restricting an extended field to a lifted curve: the parameter
        # derivative equals horizontal/vertical gradients contracted with
        # the curve velocity and the covariant fiber derivative
        n = 2
        gamma = polynomial_connection(n, seed=12)
        comps = np.array([[ex.parse("p1*x2"), ex.parse("sin(x1)*p2")],
                          [ex.parse("p2^2"), ex.parse("x1+p1")]], dtype=object)
        X = ExtendedTensorField(n, 1, 1, "momentum", comps)
        hg = horizontal_gradient(X, gamma)
        vg = vertical_gradient(X)

        def curve(t):
            x = np.array([np.sin(t), np.cos(2 * t)])
            p = np.array([np.cos(3 * t), t ** 2 + 1.0])
            xd = np.array([np.cos(t), -2 * np.sin(2 * t)])
            pd = np.array([-3 * np.sin(3 * t), 2 * t])
            return x, p, xd, pd

        h = 5e-5
        ts = np.arange(0.1, 0.15, h)
        xs = np.empty((len(ts), n))
        ps = np.empty((len(ts), n))
        vals = np.empty((len(ts), n, n))
        for k, t in enumerate(ts):
            x, p, _, _ = curve(t)
            xs[k] = x
            ps[k] = p
            vals[k] = X.values(x, p)
        route_a = covariant_time_derivative(vals, (1, 1), xs, ps, h, gamma)
        worst = 0.0
        for k in range(5, len(ts) - 5, 5):
            x, p, xd, pd = curve(ts[k])
            G = gamma.values(x, p)
            cov_pd = pd - np.einsum("m,bms,b->s", xd, G, p)
            route_b = (np.einsum("iqj,q->ij", hg.values(x, p), xd)
                       + np.einsum("qij,q->ij", vg.values(x, p), cov_pd))
            worst = max(worst, np.abs(route_a[k] - route_b).max())
        assert worst <= 1e-7


class TestProjector:
    def test_axis_aligned(self):
        P = projector(euclid_hamiltonian(2),
                      CotangentState(np.zeros(2), np.array([0.0, 1.0])))
        np.testing.assert_allclose(P, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_idempotent_and_annihilates_momentum(self):
        H = euclid_hamiltonian(3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.normal(size=3)
            c = CotangentState(rng.normal(size=3), p)
            M = projector(H, c)
            assert np.abs(M @ M - M).max() <= 1e-10
            assert np.abs(p @ M).max() <= 1e-10

    def test_trace_deflation_quartic(self):
        H = HamiltonianModel.from_lagrangian(quartic_lagrangian(3))
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = CotangentState(rng.normal(size=3), rng.normal(size=3) + 0.4)
            M = projector(H, c)
            assert abs(np.trace(M) - 2.0) <= 1e-9

    def test_guards(self):
        H = euclid_hamiltonian(2)
        with pytest.raises(ZeroMomentum):
            projector(H, CotangentState(np.zeros(2), np.zeros(2)))


class TestCurvature:
    def test_flat_connection_is_flat(self):
        pair = curvature_tensors(ExtendedConnection.flat(2),
                                 CotangentState(np.zeros(2), np.ones(2)))
        assert np.abs(pair.dynamic).max() == 0.0
        assert np.abs(pair.riemann).max() == 0.0

    def test_constant_connection(self):
        n = 2
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(n, n, n)) * 0.5
        vals = 0.5 * (vals + vals.transpose(0, 2, 1))
        comps = np.empty((n, n, n), dtype=object)
        for idx in np.ndindex(n, n, n):
            comps[idx] = ex.const(vals[idx])
        gamma = ExtendedConnection(n, comps)
        pair = curvature_tensors(gamma, CotangentState(np.zeros(2), np.ones(2)))
        assert np.abs(pair.dynamic).max() == 0.0
        expect = (np.einsum("kim,mjr->krij", vals, vals)
                  - np.einsum("kjm,mir->krij", vals, vals))
        np.testing.assert_allclose(pair.riemann, expect, atol=1e-14)

    def test_polynomial_connection_fd_oracle(self):
        n = 3
        gamma = polynomial_connection(n, seed=5)
        c = CotangentState(np.array([0.3, -0.4, 0.2]), np.array([0.7, 1.1, -0.5]))
        pair = curvature_tensors(gamma, c)
        eps = 1e-6
        x, p = c.x, c.p
        dyn_fd = np.empty((n, n, n, n))
        gx_fd = np.empty((n, n, n, n))
        gp_fd = np.empty((n, n, n, n))
        for q in range(n):
            dp = np.zeros(n); dp[q] = eps
            dx = np.zeros(n); dx[q] = eps
            gp_fd[q] = (gamma.values(x, p + dp) - gamma.values(x, p - dp)) / (2 * eps)
            gx_fd[q] = (gamma.values(x + dx, p) - gamma.values(x - dx, p)) / (2 * eps)
            dyn_fd[:, q] = -gp_fd[q]
        G = gamma.values(x, p)
        rie_fd = (np.einsum("ikjr->krij", gx_fd) - np.einsum("jkir->krij", gx_fd)
                  + np.einsum("kim,mjr->krij", G, G)
                  - np.einsum("kjm,mir->krij", G, G)
                  + np.einsum("a,ami,mkjr->krij", p, G, gp_fd)
                  - np.einsum("a,amj,mkir->krij", p, G, gp_fd))
        assert np.abs(pair.dynamic - dyn_fd).max() <= 1e-7
        assert np.abs(pair.riemann - rie_fd).max() <= 1e-7


class TestCommutators:
    def test_flat_connection_exact(self):
        H = euclid_hamiltonian(2)
        r1, r2 = commutator_residual(H, ExtendedConnection.flat(2),
                                     CotangentState(np.ones(2), np.ones(2)))
        assert np.abs(r1).max() == 0.0
        assert np.abs(r2).max() == 0.0

    def test_random_connection_identities(self):
        n = 3
        H = HamiltonianModel.from_expression(
            n, "0.5*(p1^2+p2^2+p3^2) + sin(x1)")
        gamma = polynomial_connection(n, seed=6)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(30):
            c = CotangentState(rng.normal(size=n), rng.normal(size=n))
            r1, r2 = commutator_residual(H, gamma, c)
            worst = max(worst, np.abs(r1).max(), np.abs(r2).max())
        assert worst <= 1e-8

    def test_scaling_linearity(self):
        n = 2
        H1 = HamiltonianModel.from_expression(n, "0.5*(p1^2+p2^2) + sin(x1)")
        H2 = HamiltonianModel.from_expression(n, "3*(0.5*(p1^2+p2^2) + sin(x1))")
        gamma = polynomial_connection(n, seed=8)
        c = CotangentState(np.array([0.2, 0.4]), np.array([1.0, -0.5]))
        a1, b1 = commutator_residual(H1, gamma, c)
        a2, b2 = commutator_residual(H2, gamma, c)
        assert np.abs(a2 - 3 * a1).max() <= 1e-8
        assert np.abs(b2 - 3 * b1).max() <= 1e-8


class TestConcordance:
    def test_euclid_flat_concordant(self):
        res = concordance_residual(euclid_lagrangian(2), ExtendedConnection.flat(2),
                                   TangentState(np.ones(2), np.ones(2)))
        assert np.abs(res).max() == 0.0

    def test_x_dependent_metric_not_flat_concordant(self):
        lag = LagrangianModel(2, "0.5*((1+0.5*x1^2)*v1^2 + v2^2)")
        st = TangentState(np.array([0.7, 0.0]), np.array([1.0, 1.0]))
        res = concordance_residual(lag, ExtendedConnection.flat(2), st)
        # direct differentiation: d/dx1 dL/dv1 = x1 * v1
        assert res[0, 0] == pytest.approx(0.7 * 1.0)
        assert np.abs(res).max() > 0.1

    def test_cross_representation_match(self):
        lag = LagrangianModel(2, "0.5*((1.2+0.2*sin(x1))*v1^2 + (1.0+0.1*x2^2)*v2^2)")
        H = HamiltonianModel.from_lagrangian(lag)
        gamma = polynomial_connection(2, seed=9)
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(10):
            st = TangentState(rng.normal(size=2), rng.normal(size=2) + 1.3)
            K = concordance_residual(lag, gamma, st)
            c = CotangentState(st.x, lag.lv(st.x, st.v))
            fp = FieldPoint(H, gamma, ForceField.zero(2), c.x, c.p)
            g = lag.lvv(st.x, st.v)
            worst = max(worst, np.abs(K + fp.nabla_vt_h @ g).max())
        assert worst <= 1e-8


class TestCovariantTimeDerivative:
    def test_flat_constant_tensor(self):
        vals = np.ones((5, 2))
        xs = np.linspace(0, 1, 5)[:, None] * np.ones(2)
        out = covariant_time_derivative(vals, (1, 0), xs, xs, 0.25,
                                        ExtendedConnection.flat(2))
        assert np.abs(out).max() == 0.0

    def test_flat_linear_exact_inside(self):
        t = np.linspace(0, 1, 11)
        vals = np.stack([2 * t + 1, -t], axis=1)
        xs = np.zeros((11, 2))
        out = covariant_time_derivative(vals, (1, 0), xs, xs, t[1] - t[0], None)
        np.testing.assert_allclose(out[1:-1], np.tile([2.0, -1.0], (9, 1)), atol=1e-12)

    def test_richardson_order(self):
        gamma = polynomial_connection(2, seed=11)

        def sample(h):
            t = np.arange(0.0, 0.5 + h / 2, h)
            xs = np.stack([np.sin(t), np.cos(t)], axis=1)
            ps = np.stack([np.cos(2 * t), t + 1.0], axis=1)
            vals = np.stack([np.sin(3 * t), np.exp(0.2 * t)], axis=1)
            return t, covariant_time_derivative(vals, (1, 0), xs, ps, h, gamma)

        t1, d1 = sample(0.01)
        t2, d2 = sample(0.005)
        t8, d8 = sample(0.000625)
        k = len(t1) // 2
        assert np.allclose([t1[k], t2[2 * k]], t8[16 * k])
        # error ratio against a much finer reference is ~4 (second-order stencil)
        ref = d8[16 * k]
        e1 = np.abs(d1[k] - ref).max()
        e2 = np.abs(d2[2 * k] - ref).max()
        assert 3.5 <= e1 / e2 <= 4.5

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            covariant_time_derivative(np.ones((2, 2)), (1, 0), np.ones((2, 2)),
                                      np.ones((2, 2)), 0.1, None)


class TestConnectionConstruction:
    def test_symmetrisation_is_exact(self):
        n = 2
        comps = np.empty((n, n, n), dtype=object)
        for idx in np.ndindex(n, n, n):
            comps[idx] = ex.const(0.0)
        comps[0][0][1] = ex.parse("x1")
        comps[0][1][0] = ex.parse("p1")
        gamma = ExtendedConnection(n, comps)
        assert gamma.comps[0][0][1] == gamma.comps[0][1][0]
        x = np.array([0.3, 0.0])
        p = np.array([0.9, 0.0])
        vals = gamma.values(x, p)
        assert vals[0][0][1] == pytest.approx(0.5 * (0.3 + 0.9))

    def test_string_and_number_components_are_read_as_expressions(self):
        field = ExtendedTensorField(2, 1, 0, "momentum", ["p1", "p2"])
        np.testing.assert_array_equal(field.values(np.zeros(2), np.array([0.5, -1.5])),
                                      [0.5, -1.5])
        gamma = ExtendedConnection(2, [[["x1", 0], [0, "p2"]], [["0", "1"], [1, 2.5]]])
        assert gamma.comps[0][0][0] == ex.parse("x1")
        np.testing.assert_array_equal(gamma.values(np.array([0.3, 0.0]), np.array([0.0, 0.7])),
                                      [[[0.3, 0.0], [0.0, 0.7]], [[0.0, 1.0], [1.0, 2.5]]])

    def test_first_derivatives_put_the_new_index_first(self):
        field = ExtendedTensorField(2, 1, 0, "momentum", ["x1*p2", "sin(x2)*p1^2"])
        x, p = np.array([0.3, -0.7]), np.array([1.1, 0.4])
        np.testing.assert_array_equal(field.dfiber(x, p), vertical_gradient(field).values(x, p))
        np.testing.assert_allclose(field.dx(x, p),
                                   [[p[1], 0.0], [0.0, np.cos(x[1]) * p[0] ** 2]])
        assert not field.is_zero and ExtendedConnection.flat(2).is_zero

    def test_a_malformed_component_names_its_index(self):
        with pytest.raises(ValidationError, match=r"^tensor\[1\]: expected an expression"):
            ExtendedTensorField(2, 1, 0, "momentum", ["p1", None])
        with pytest.raises(ValidationError, match=r"^tensor: expected shape \(2,\)"):
            ExtendedTensorField(2, 1, 0, "momentum", ["p1", "p2", "x1"])
        with pytest.raises(ValidationError, match=r"^tensor\[0\]: symbol v1 has unexpected kind"):
            ExtendedTensorField(2, 1, 0, "momentum", ["v1", "p2"])
        with pytest.raises(ValidationError, match=r"^connection: expected shape \(2, 2, 2\)"):
            ExtendedConnection(2, [[["0", "0"], ["0", "0"]]])
        comps = [[["0", "0"], ["0", "0"]], [["0", "x1 +* 2"], ["0", "0"]]]
        with pytest.raises(ParseError, match=r"^connection\[1\]\[0\]\[1\]: unexpected '\*'"):
            ExtendedConnection(2, comps)

    def test_shifted_adds_components(self):
        base = polynomial_connection(2, seed=13)
        shift = polynomial_connection(2, seed=14)
        total = base.shifted(shift)
        x = np.array([0.1, 0.2])
        p = np.array([0.5, -0.3])
        np.testing.assert_allclose(total.values(x, p),
                                   base.values(x, p) + shift.values(x, p),
                                   atol=1e-14)


class TestConcordantTransport:
    def test_horizontal_gradients_agree_when_concordant(self):
        # any velocity-independent-metric model makes the flat connection
        # concordant; then the horizontal gradient commutes with composition
        # by the Legendre map
        lag = quartic_lagrangian(2)
        st = TangentState(np.array([0.4, -0.2]), np.array([1.1, 0.8]))
        assert np.abs(concordance_residual(lag, None, st)).max() == 0.0
        X = ExtendedTensorField.scalar(2, "momentum", ex.parse("sin(x1)*p2 + x2*p1^2"))
        flat_p = ExtendedConnection.flat(2)
        flat_v = ExtendedConnection.flat(2, rep="velocity")
        lhs = horizontal_gradient(convert_representation(X, lag), flat_v)
        rhs = convert_representation(horizontal_gradient(X, flat_p), lag)
        np.testing.assert_allclose(lhs.values(st.x, st.v), rhs.values(st.x, st.v),
                                   atol=1e-8)

    def test_transport_fails_without_concordance(self):
        lag = LagrangianModel(2, "0.5*((1+0.5*x1^2)*v1^2 + v2^2)")
        st = TangentState(np.array([0.7, 0.1]), np.array([1.0, 1.0]))
        assert np.abs(concordance_residual(lag, None, st)).max() > 0.1
        X = ExtendedTensorField.scalar(2, "momentum", ex.parse("p1^2"))
        lhs = horizontal_gradient(convert_representation(X, lag),
                                  ExtendedConnection.flat(2, rep="velocity"))
        rhs = convert_representation(
            horizontal_gradient(X, ExtendedConnection.flat(2)), lag)
        assert np.abs(lhs.values(st.x, st.v) - rhs.values(st.x, st.v)).max() > 1e-3


def test_double_conversion_roundtrip():
    lag = quartic_lagrangian(2)
    X = ExtendedTensorField.scalar(2, "momentum", ex.parse("p1*p2 + x2"))
    back = convert_representation(convert_representation(X, lag), lag)
    x = np.array([0.3, 0.4])
    p = np.array([1.0, 2.0])
    assert back.values(x, p) == pytest.approx(X.values(x, p), abs=1e-9)
