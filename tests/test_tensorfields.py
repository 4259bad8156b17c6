"""Extended fields: projector, curvature, commutators, construction, and
the difference stencil on sampled data."""

import numpy as np
import pytest

from helpers import euclid_hamiltonian, polynomial_connection, quartic_lagrangian
from nslab import (CotangentState, ExtendedConnection, ExtendedTensorField,
                   ForceField, HamiltonianModel, commutator_residual)
from nslab import expr as ex
from nslab.errors import InsufficientSamples, ParseError, ValidationError, ZeroMomentum
from nslab.tensorfields import FieldPoint, grid_derivative


def frame(hmodel, gamma, c):
    """The FieldPoint of a cotangent state, with no force."""
    return FieldPoint(hmodel, gamma, ForceField.zero(hmodel.n), c.x, c.p)


class TestProjector:
    def test_axis_aligned(self):
        P = frame(euclid_hamiltonian(2), None,
                  CotangentState(np.zeros(2), np.array([0.0, 1.0]))).projector
        np.testing.assert_allclose(P, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_idempotent_and_annihilates_momentum(self):
        H = euclid_hamiltonian(3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.normal(size=3)
            c = CotangentState(rng.normal(size=3), p)
            M = frame(H, None, c).projector
            assert np.abs(M @ M - M).max() <= 1e-10
            assert np.abs(p @ M).max() <= 1e-10

    def test_trace_deflation_quartic(self):
        H = HamiltonianModel(3, quartic_lagrangian(3))
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = CotangentState(rng.normal(size=3), rng.normal(size=3) + 0.4)
            M = frame(H, None, c).projector
            assert abs(np.trace(M) - 2.0) <= 1e-9

    def test_guards(self):
        H = euclid_hamiltonian(2)
        with pytest.raises(ZeroMomentum):
            frame(H, None, CotangentState(np.zeros(2), np.zeros(2))).require_momentum()


class TestCurvature:
    def test_flat_connection_is_flat(self):
        pair = frame(euclid_hamiltonian(2), ExtendedConnection.flat(2),
                     CotangentState(np.zeros(2), np.ones(2))).curvature
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
        pair = frame(euclid_hamiltonian(2), gamma,
                     CotangentState(np.zeros(2), np.ones(2))).curvature
        assert np.abs(pair.dynamic).max() == 0.0
        expect = (np.einsum("kim,mjr->krij", vals, vals)
                  - np.einsum("kjm,mir->krij", vals, vals))
        np.testing.assert_allclose(pair.riemann, expect, atol=1e-14)

    def test_polynomial_connection_fd_oracle(self):
        n = 3
        gamma = polynomial_connection(n, seed=5)
        c = CotangentState(np.array([0.3, -0.4, 0.2]), np.array([0.7, 1.1, -0.5]))
        pair = frame(euclid_hamiltonian(n), gamma, c).curvature
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
        H = HamiltonianModel(n, expression="0.5*(p1^2+p2^2+p3^2) + sin(x1)")
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
        H1 = HamiltonianModel(n, expression="0.5*(p1^2+p2^2) + sin(x1)")
        H2 = HamiltonianModel(n, expression="3*(0.5*(p1^2+p2^2) + sin(x1))")
        gamma = polynomial_connection(n, seed=8)
        c = CotangentState(np.array([0.2, 0.4]), np.array([1.0, -0.5]))
        a1, b1 = commutator_residual(H1, gamma, c)
        a2, b2 = commutator_residual(H2, gamma, c)
        assert np.abs(a2 - 3 * a1).max() <= 1e-8
        assert np.abs(b2 - 3 * b1).max() <= 1e-8


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
        field = ExtendedTensorField(2, 1, 0, ["p1", "p2"])
        np.testing.assert_array_equal(field.values(np.zeros(2), np.array([0.5, -1.5])),
                                      [0.5, -1.5])
        gamma = ExtendedConnection(2, [[["x1", 0], [0, "p2"]], [["0", "1"], [1, 2.5]]])
        assert gamma.comps[0][0][0] == ex.parse("x1")
        np.testing.assert_array_equal(gamma.values(np.array([0.3, 0.0]), np.array([0.0, 0.7])),
                                      [[[0.3, 0.0], [0.0, 0.7]], [[0.0, 1.0], [1.0, 2.5]]])

    def test_first_derivatives_put_the_new_index_first(self):
        field = ExtendedTensorField(2, 1, 0, ["x1*p2", "sin(x2)*p1^2"])
        x, p = np.array([0.3, -0.7]), np.array([1.1, 0.4])
        np.testing.assert_array_equal(field.dfiber(x, p),
                                      ex.Table(ex.gradient(field.comps, "p", 2))(x=x, p=p))
        np.testing.assert_allclose(field.dx(x, p),
                                   [[p[1], 0.0], [0.0, np.cos(x[1]) * p[0] ** 2]])
        # a flat connection is +0.0 throughout, at a point and on a batch
        flat = ExtendedConnection.flat(2)
        for xs, ps, batch in ((x, p, ()), (np.ones((2, 3)), np.ones((2, 3)), (3,))):
            for got, shape in ((flat.values(xs, ps), (2, 2, 2)), (flat.dx(xs, ps), (2,) * 4),
                               (flat.dfiber(xs, ps), (2,) * 4)):
                assert got.shape == shape + batch and not got.any()
                assert not np.signbit(got).any()

    def test_a_malformed_component_names_its_index(self):
        with pytest.raises(ValidationError, match=r"^tensor\[1\]: expected an expression"):
            ExtendedTensorField(2, 1, 0, ["p1", None])
        with pytest.raises(ValidationError, match=r"^tensor: expected shape \(2,\)"):
            ExtendedTensorField(2, 1, 0, ["p1", "p2", "x1"])
        with pytest.raises(ValidationError, match=r"^tensor\[0\]: symbol v1 has unexpected kind"):
            ExtendedTensorField(2, 1, 0, ["v1", "p2"])
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


class TestGridDerivative:
    def test_exact_on_quadratics(self):
        # the central and one-sided stencils are both exact to second degree
        t = np.linspace(0.0, 1.0, 11)
        vals = np.stack([3 * t ** 2 - t + 1, -t ** 2], axis=1)
        want = np.stack([6 * t - 1, -2 * t], axis=1)
        np.testing.assert_allclose(grid_derivative(vals, 0, t[1] - t[0]), want, atol=1e-12)
        np.testing.assert_allclose(grid_derivative(vals.T, 1, t[1] - t[0]), want.T, atol=1e-12)

    def test_second_order(self):
        def error(count):
            t = np.linspace(0.0, 1.0, count)
            return np.abs(grid_derivative(np.sin(3 * t + 1), 0, t[1] - t[0])
                          - 3 * np.cos(3 * t + 1)).max()

        assert 3.5 <= error(21) / error(41) <= 4.5

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            grid_derivative(np.ones((2, 2)), 0, 0.1)
