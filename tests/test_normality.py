"""Normality residuals, variational integration, the deviation equation,
and connection invariance."""

import numpy as np
import pytest

from helpers import (coupled_system, euclid_system, polynomial_connection,
                     quartic_lagrangian, radial_momentum_force, random_costates,
                     stack_states, scaled_momentum_force, swap_force)
from nslab import (CotangentState, ForceField, HamiltonianModel, Hypersurface,
                   NewtonianSystem, TangentState, VariationSeries, VariationState,
                   additional_residuals,
                   b_symmetry_of_B, connection_invariance_check,
                   deviation_coefficients, deviation_ode_residual,
                   evaluate_residuals, integrate, integrate_variation,
                   solve_nu_grid, surface_with_prescribed_form,
                   weak_residual_b_printed, weak_residuals)
from nslab import dynamics, normality
from nslab.errors import (DimensionTooSmall, NonFinite, RepresentationMismatch,
                          ValidationError, ZeroMomentum)
from nslab.tensorfields import ConnectionShift, ExtendedConnection, grid_derivative


def quartic_system():
    """The derived quartic Hamiltonian, whose RK4 stages start Newton warm."""
    return NewtonianSystem(HamiltonianModel.from_lagrangian(quartic_lagrangian(2)),
                           ForceField(2, radial_momentum_force(2)))


class TestWeakResiduals:
    def test_no_force_is_exactly_zero(self):
        system = euclid_system(3, ["0", "0", "0"])
        for c in random_costates(3, 10, seed=0):
            wa, wb = weak_residuals(system, None, c)
            assert np.abs(wa).max() == 0.0
            assert np.abs(wb).max() == 0.0

    @pytest.mark.parametrize("force_builder", [scaled_momentum_force,
                                               radial_momentum_force])
    def test_radial_forces_are_normal(self, force_builder):
        system = euclid_system(3, force_builder(3))
        for c in random_costates(3, 100, seed=1):
            wa, wb = weak_residuals(system, None, c)
            assert np.abs(wa).max() <= 1e-9
            assert np.abs(wb).max() <= 1e-9

    def test_swap_force_violates_weak_equations(self):
        system = euclid_system(2, swap_force(2))
        worst = 0.0
        for c in random_costates(2, 30, seed=2, radius=(0.5, 2.0)):
            wa, wb = weak_residuals(system, None, c)
            worst = max(worst, np.abs(wa).max(), np.abs(wb).max())
        assert worst >= 1e-3

    def test_zero_momentum_guard(self):
        system = euclid_system(2, ["0", "0"])
        with pytest.raises(ZeroMomentum):
            weak_residuals(system, None, CotangentState(np.zeros(2), np.zeros(2)))

    def test_expanded_variant_agrees_on_normal_flat_systems(self):
        system = euclid_system(3, radial_momentum_force(3))
        for c in random_costates(3, 30, seed=3):
            _, wb = weak_residuals(system, None, c)
            wbp = weak_residual_b_printed(system, None, c)
            assert np.abs(wb - wbp).max() <= 1e-12

    def test_only_coefficient_variant_stays_zero_under_curved_connection(self):
        # pins the canonical choice between the two transcriptions of the
        # second weak equation: on a normal system with a curved connection
        # the coefficient-field route still vanishes
        system = euclid_system(3, scaled_momentum_force(3))
        gamma = polynomial_connection(3, seed=4)
        coeff_route = 0.0
        expanded_route = 0.0
        for c in random_costates(3, 10, seed=5):
            _, wb = weak_residuals(system, gamma, c)
            wbp = weak_residual_b_printed(system, gamma, c)
            coeff_route = max(coeff_route, np.abs(wb).max())
            expanded_route = max(expanded_route, np.abs(wbp).max())
        assert coeff_route <= 1e-12
        assert expanded_route > 1e-3


class TestAdditionalResiduals:
    def test_no_force_zero_operator(self):
        system = euclid_system(3, ["0", "0", "0"])
        c = random_costates(3, 1, seed=6)[0]
        add_sym, B, add_proj = additional_residuals(system, None, c)
        assert np.abs(add_sym).max() == 0.0
        assert np.abs(B.matrix).max() == 0.0
        assert B.lambda_b == 0.0
        assert np.abs(add_proj).max() == 0.0

    def test_constant_radial_force_shape(self):
        # Q = c p makes the operator exactly c times the projector
        system = euclid_system(3, scaled_momentum_force(3))
        for c in random_costates(3, 20, seed=7):
            fp_wa, _ = weak_residuals(system, None, c)
            add_sym, B, add_proj = additional_residuals(system, None, c)
            assert B.lambda_b == pytest.approx(0.1, abs=1e-12)
            assert np.abs(add_proj).max() <= 1e-10
            assert np.abs(add_sym).max() <= 1e-10

    def test_swap_force_breaks_projector_shape(self):
        system = euclid_system(3, swap_force(3))
        worst = 0.0
        for c in random_costates(3, 30, seed=8, radius=(0.5, 2.0)):
            _, _, add_proj = additional_residuals(system, None, c)
            worst = max(worst, np.abs(add_proj).max())
        assert worst >= 1e-3

    def test_x_dependent_force_breaks_symmetric_part(self):
        system = euclid_system(3, ["sin(x2)*p2", "0", "0"])
        worst = 0.0
        for c in random_costates(3, 30, seed=9, radius=(0.5, 2.0)):
            add_sym, _, _ = additional_residuals(system, None, c)
            worst = max(worst, np.abs(add_sym).max())
        assert worst >= 1e-3

    def test_antisymmetry_of_projected_residual(self):
        system = euclid_system(3, ["sin(x2)*p2", "p3", "0"])
        gamma = polynomial_connection(3, seed=10)
        for c in random_costates(3, 10, seed=11):
            add_sym, _, _ = additional_residuals(system, gamma, c)
            assert np.abs(add_sym + add_sym.T).max() <= 1e-12

    def test_dimension_guard(self):
        system = euclid_system(2, ["0", "0"])
        with pytest.raises(DimensionTooSmall):
            additional_residuals(system, None,
                                 CotangentState(np.zeros(2), np.ones(2)))


class TestConstantForceIsNormal:
    """A constant force covector in the Euclidean model satisfies every
    normality equation identically; kept as an exactness witness."""

    def test_residuals_vanish(self):
        system = euclid_system(3, ["1", "0", "0"])
        report = evaluate_residuals(system, None,
                                    stack_states(random_costates(3, 25, seed=12)))
        assert report.max_weak_a <= 1e-13
        assert report.max_weak_b <= 1e-13
        assert report.max_add_sym <= 1e-13
        assert report.max_add_proj <= 1e-13

    def test_shift_of_circle_stays_normal(self):
        from nslab import run_shift, solve_nu_grid
        circle = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[0.0, 0.02]],
                              base_point=[0.0])
        system = euclid_system(2, ["1", "0"])
        field = solve_nu_grid(circle, system, 1.0, counts=[201])
        family = run_shift(circle, system, field, 1.0, 1e-3)
        assert family.max_abs_phi.max() <= 1e-6


class TestDeviationCoefficients:
    def test_no_force_all_vanish(self):
        system = euclid_system(2, ["0", "0"])
        co = deviation_coefficients(system, None,
                                    CotangentState(np.zeros(2), np.array([0.7, 0.4])))
        for arr in (co.alpha, co.beta_cov, co.eta):
            assert np.abs(arr).max() == 0.0
        assert co.sigma == 0.0
        assert co.a_coef == 0.0

    def test_radial_force_closed_form(self):
        system = euclid_system(2, scaled_momentum_force(2))
        for c in random_costates(2, 20, seed=13):
            co = deviation_coefficients(system, None, c)
            assert co.a_coef == pytest.approx(0.1, abs=1e-12)
            assert abs(co.b_coef) <= 1e-12
            wa, wb = weak_residuals(system, None, c)
            assert np.abs(wa).max() <= 1e-12
            assert np.abs(wb).max() <= 1e-12

    def test_sigma_is_definitional_contraction(self):
        system = euclid_system(2, ["sin(x1)*p2", "p1*p1"])
        gamma = polynomial_connection(2, seed=14)
        for c in random_costates(2, 10, seed=15):
            co = deviation_coefficients(system, gamma, c)
            data = system.model.partials(c.x, c.p, order=1)
            omega = float(c.p @ data.dp)
            assert co.sigma == pytest.approx(float((data.dp / omega) @ co.eta),
                                             abs=1e-14)


class TestIntegrateVariation:
    def test_straight_line_constant_variation(self):
        system = euclid_system(2, ["0", "0"])
        base = integrate(system, CotangentState(np.zeros(2), np.array([1.0, 0.0])),
                         1.0, 1e-2)
        series = integrate_variation(system, None, base,
                                     VariationState(np.array([0.0, 1.0]), np.zeros(2)))
        np.testing.assert_allclose(series.tau, np.tile([0.0, 1.0], (101, 1)), atol=1e-12)
        np.testing.assert_allclose(series.fiber, 0.0, atol=1e-12)

    def test_matches_neighbouring_trajectories(self):
        system = euclid_system(2, scaled_momentum_force(2))
        x0 = np.array([0.1, -0.2])
        p0 = np.array([0.9, 0.7])
        tau0 = np.array([0.3, -0.7])
        xi0 = np.array([0.4, 0.9])
        base = integrate(system, CotangentState(x0, p0), 1.0, 1e-3)
        series = integrate_variation(system, None, base, VariationState(tau0, xi0))
        dy = 1e-4
        plus = integrate(system, CotangentState(x0 + dy * tau0, p0 + dy * xi0), 1.0, 1e-3)
        minus = integrate(system, CotangentState(x0 - dy * tau0, p0 - dy * xi0), 1.0, 1e-3)
        assert np.abs((plus.xs - minus.xs) / (2 * dy) - series.tau).max() <= 1e-5
        assert np.abs((plus.fibers - minus.fibers) / (2 * dy) - series.fiber).max() <= 1e-5

    def test_matches_neighbours_with_curved_connection(self):
        # the covariant fiber variation differs from the plain derivative by
        # the connection term evaluated on the base data
        system = euclid_system(2, scaled_momentum_force(2))
        gamma = polynomial_connection(2, seed=16)
        x0 = np.array([0.1, -0.2])
        p0 = np.array([0.9, 0.7])
        tau0 = np.array([0.3, -0.7])
        dp0 = np.array([0.4, 0.9])
        xi0 = dp0 - np.einsum("ksq,k,q->s", gamma.values(x0, p0), p0, tau0)
        base = integrate(system, CotangentState(x0, p0), 1.0, 1e-3)
        series = integrate_variation(system, gamma, base, VariationState(tau0, xi0))
        dy = 1e-4
        plus = integrate(system, CotangentState(x0 + dy * tau0, p0 + dy * dp0), 1.0, 1e-3)
        minus = integrate(system, CotangentState(x0 - dy * tau0, p0 - dy * dp0), 1.0, 1e-3)
        fd_tau = (plus.xs - minus.xs) / (2 * dy)
        fd_dp = (plus.fibers - minus.fibers) / (2 * dy)
        worst = 0.0
        for k in range(0, len(base.t), 100):
            G = gamma.values(base.xs[k], base.fibers[k])
            fd_xi = fd_dp[k] - np.einsum("ksq,k,q->s", G, base.fibers[k], fd_tau[k])
            worst = max(worst, np.abs(series.tau[k] - fd_tau[k]).max(),
                        np.abs(series.fiber[k] - fd_xi).max())
        assert worst <= 1e-5

    def test_velocity_form_matches_neighbours(self):
        system = coupled_system()
        x0 = np.array([0.2, -0.1])
        v0 = np.array([0.9, 0.6])
        tau0 = np.array([0.3, -0.5])
        th0 = np.array([-0.2, 0.7])
        base = integrate(system, TangentState(x0, v0), 1.0, 1e-3)
        series = integrate_variation(system, None, base, VariationState(tau0, th0))
        dy = 1e-6
        plus = integrate(system, TangentState(x0 + dy * tau0, v0 + dy * th0), 1.0, 1e-3)
        minus = integrate(system, TangentState(x0 - dy * tau0, v0 - dy * th0), 1.0, 1e-3)
        assert np.abs((plus.xs - minus.xs) / (2 * dy) - series.tau).max() <= 1e-5
        assert np.abs((plus.fibers - minus.fibers) / (2 * dy) - series.fiber).max() <= 1e-5

    def test_representation_comes_from_the_base(self):
        # a velocity base needs no representation argument: the series is
        # that of the velocity form
        system = coupled_system()
        base = integrate(system, TangentState(np.array([0.2, -0.1]), np.array([0.9, 0.6])),
                         0.1, 1e-2)
        series = integrate_variation(system, None, base,
                                     VariationState(np.array([0.3, -0.5]), np.array([-0.2, 0.7])))
        assert series.rep == "velocity" and series.tau.shape == (len(base.t), 2)

    @pytest.mark.parametrize("build", [
        lambda: euclid_system(2, ["0.2*x1*p1", "0.1*p2"]), coupled_system, quartic_system],
        ids=["euclid", "coupled", "quartic"])
    def test_momentum_base_is_integrated_again_bit_for_bit(self, build, monkeypatch):
        system = build()
        stepped = []
        rk4_step = dynamics.rk4_step

        def recording(f, state, h):
            new = rk4_step(f, state, h)
            stepped.append(new[:2])
            return new

        base = integrate(system, CotangentState(np.array([0.2, -0.1]), np.array([0.9, 0.6])),
                         0.2, 1e-2)
        # integrate_variation steps through dynamics._rk4, as integrate does
        monkeypatch.setattr(dynamics, "rk4_step", recording)
        integrate_variation(system, None, base,
                            VariationState(np.array([0.3, -0.5]), np.array([-0.2, 0.7])))
        assert len(stepped) == len(base.t) - 1
        assert np.array_equal([x for x, _ in stepped], base.xs[1:])
        assert np.array_equal([p for _, p in stepped], base.fibers[1:])

    def test_non_finite_variation_raises_with_the_time(self):
        # the variations ride in the RK4 state, so the state's finite check
        # stops a NaN after the first step and names its time
        system = euclid_system(2, scaled_momentum_force(2))
        base = integrate(system, CotangentState(np.array([0.2, -0.1]), np.array([0.9, 0.6])),
                         0.1, 1e-2)
        with pytest.raises(NonFinite, match=r"after the step starting at t=0 at point 0"):
            integrate_variation(system, None, base, VariationState(np.array([np.nan, 0.0]), 0))

    def test_rejects_a_base_that_is_not_a_trajectory(self):
        system = euclid_system(2, ["0", "0"])
        with pytest.raises(ValidationError, match="base: expected a Trajectory"):
            integrate_variation(system, None, {"t": np.zeros(3)},
                                VariationState(np.zeros(2), np.zeros(2)))

    def test_rejects_a_velocity_connection_on_a_momentum_base(self):
        system = euclid_system(2, ["0", "0"])
        gamma = ExtendedConnection(2, [[["0.1*v1", "0"], ["0", "0"]],
                                       [["0", "0"], ["0", "0.2*x2"]]], rep="velocity")
        base = integrate(system, CotangentState(np.zeros(2), np.array([1.0, 0.2])), 0.1, 1e-2)
        with pytest.raises(RepresentationMismatch):
            integrate_variation(system, gamma, base, VariationState(np.ones(2), np.zeros(2)))

    def test_representations_agree_through_tangent_map(self):
        # tau agrees; xi maps to theta through the differential of the
        # Legendre transformation, on a model with genuine x-v coupling
        system = coupled_system()
        lag = system.lagrangian
        x0 = np.array([0.2, -0.1])
        v0 = np.array([0.9, 0.6])
        tau0 = np.array([0.3, -0.5])
        th0 = np.array([-0.2, 0.7])
        base_v = integrate(system, TangentState(x0, v0), 1.0, 1e-3)
        var_v = integrate_variation(system, None, base_v, VariationState(tau0, th0))
        p0 = lag.lv(x0, v0)
        xi0 = lag.lvx(x0, v0) @ tau0 + lag.lvv(x0, v0) @ th0
        base_p = integrate(system, CotangentState(x0, p0), 1.0, 1e-3)
        var_p = integrate_variation(system, None, base_p, VariationState(tau0, xi0))
        worst = 0.0
        for k in range(0, len(base_v.t), 100):
            x, v = base_v.xs[k], base_v.fibers[k]
            xi_from_v = lag.lvx(x, v) @ var_v.tau[k] + lag.lvv(x, v) @ var_v.fiber[k]
            worst = max(worst, np.abs(var_v.tau[k] - var_p.tau[k]).max(),
                        np.abs(xi_from_v - var_p.fiber[k]).max())
        assert worst <= 1e-6
        # both representations share one linearisation, so the comparison
        # above holds nearly by construction.  Central differences of two
        # velocity-form runs from (x0 +- eps*tau0, v0 +- eps*th0) are a
        # reference independent of it: 1.7e-9 off at eps = 1e-4, an O(eps^2)
        # error (1.7e-7 at eps = 1e-3); a theta0 1% off is 7e-3 off.
        eps = 1e-4
        hi = integrate(system, TangentState(x0 + eps * tau0, v0 + eps * th0), 1.0, 1e-3)
        lo = integrate(system, TangentState(x0 - eps * tau0, v0 - eps * th0), 1.0, 1e-3)
        nodes = slice(0, None, 100)
        reference = np.concatenate([hi.xs[nodes] - lo.xs[nodes],
                                    hi.fibers[nodes] - lo.fibers[nodes]], axis=1) / (2 * eps)

        def error(series):
            return np.abs(np.concatenate([series.tau[nodes], series.fiber[nodes]], axis=1)
                          - reference).max()

        assert error(var_v) <= 1e-8
        wrong = integrate_variation(system, None, base_v, VariationState(tau0, 1.01 * th0))
        assert error(wrong) > 1e-4


def test_shift_frames_match_variational_route():
    # tangent frames from neighbouring shift trajectories against the
    # integrated linearised dynamics started from the surface data
    from nslab import normal_covector, run_shift, solve_nu_grid, tangent_frame
    circle = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[0.0, 0.02]],
                          base_point=[0.0])
    system = euclid_system(2, scaled_momentum_force(2))
    field = solve_nu_grid(circle, system, 1.0, counts=[201])
    (axis,) = field.axes
    family = run_shift(circle, system, field, 1.0, 1e-3)
    k_node = 100
    y = np.array([axis[k_node]])
    delta = axis[1] - axis[0]
    tau0 = tangent_frame(circle, y)[:, 0]
    p_hi = field.values[k_node + 1] * normal_covector(circle, [axis[k_node + 1]])
    p_lo = field.values[k_node - 1] * normal_covector(circle, [axis[k_node - 1]])
    xi0 = (p_hi - p_lo) / (2 * delta)
    base = integrate(system, CotangentState(circle.chart_at(y),
                                            field.values[k_node]
                                            * normal_covector(circle, y)),
                     1.0, 1e-3)
    series = integrate_variation(system, None, base, VariationState(tau0, xi0))
    worst = 0.0
    for k in range(0, len(base.t), 100):
        worst = max(worst, np.abs(family.tau[k, k_node, :, 0] - series.tau[k]).max())
    assert worst <= 1e-5


class TestDeviationODE:
    def test_no_force_defect_vanishes(self):
        system = euclid_system(2, ["0", "0"])
        base = integrate(system, CotangentState(np.zeros(2), np.array([1.0, 0.2])),
                         1.0, 1e-2)
        rng = np.random.default_rng(17)
        series = integrate_variation(
            system, None, base,
            VariationState(rng.normal(size=2), rng.normal(size=2)))
        assert deviation_ode_residual(system, None, base, series) <= 1e-10

    def test_radial_force_satisfies_equation(self):
        system = euclid_system(2, scaled_momentum_force(2))
        rng = np.random.default_rng(18)
        base = integrate(system, CotangentState(rng.normal(size=2),
                                                rng.normal(size=2) + 0.5), 1.0, 2e-3)
        inits = [VariationState(rng.normal(size=2), rng.normal(size=2))
                 for _ in range(5)]
        series = integrate_variation(system, None, base, inits)
        residuals = deviation_ode_residual(system, None, base, series)
        assert max(residuals) <= 1e-6

    def test_swap_force_breaks_equation(self):
        system = euclid_system(2, swap_force(2))
        rng = np.random.default_rng(19)
        base = integrate(system, CotangentState(np.array([0.1, -0.2]),
                                                np.array([0.9, 0.7])), 1.0, 2e-3)
        inits = [VariationState(rng.normal(size=2), rng.normal(size=2))
                 for _ in range(5)]
        series = integrate_variation(system, None, base, inits)
        residuals = deviation_ode_residual(system, None, base, series)
        assert max(residuals) >= 1e-3


    def test_curved_connection_keeps_a_normal_system_normal(self):
        system = euclid_system(2, scaled_momentum_force(2))
        gamma = polynomial_connection(2, seed=24)
        rng = np.random.default_rng(25)
        base = integrate(system, CotangentState(np.array([0.1, -0.2]),
                                                np.array([0.9, 0.7])), 0.5, 2e-3)
        inits = [VariationState(rng.normal(size=2), rng.normal(size=2))
                 for _ in range(5)]
        series = integrate_variation(system, gamma, base, inits)
        assert max(deviation_ode_residual(system, gamma, base, series)) <= 1e-6

    def test_swap_force_breaks_equation_under_curved_connection(self):
        system = euclid_system(2, swap_force(2))
        gamma = polynomial_connection(2, seed=26)
        rng = np.random.default_rng(27)
        base = integrate(system, CotangentState(np.array([0.1, -0.2]),
                                                np.array([0.9, 0.7])), 0.5, 2e-3)
        inits = [VariationState(rng.normal(size=2), rng.normal(size=2))
                 for _ in range(5)]
        series = integrate_variation(system, gamma, base, inits)
        assert max(deviation_ode_residual(system, gamma, base, series)) >= 1e-3

    def test_a_random_series_fails(self):
        # the defect measures phi's derivatives, so numbers that never
        # solved the linearised dynamics cannot pass on a normal system
        system = euclid_system(2, scaled_momentum_force(2))
        rng = np.random.default_rng(28)
        base = integrate(system, CotangentState(np.array([0.1, -0.2]),
                                                np.array([0.9, 0.7])), 0.5, 2e-3)
        series = VariationSeries(t=base.t, tau=rng.normal(size=base.xs.shape),
                                 fiber=rng.normal(size=base.xs.shape), rep="momentum")
        assert deviation_ode_residual(system, None, base, series) >= 0.5

    @pytest.mark.parametrize("build, gamma_seed", [
        (lambda: euclid_system(2, scaled_momentum_force(2)), None),
        (lambda: euclid_system(2, swap_force(2)), 29),
        (coupled_system, None)], ids=["radial", "swap-curved", "coupled"])
    def test_paper_formulas_match_the_measured_derivatives(self, build, gamma_seed):
        # phi' = -(v/omega).xi - w.tau and phi'' = alpha.xi + beta.tau against
        # the differences of phi = p.tau on the nodes where both are central
        system = build()
        gamma = None if gamma_seed is None else polynomial_connection(2, seed=gamma_seed)
        base = integrate(system, CotangentState(np.array([0.2, -0.1]),
                                                np.array([0.9, 0.6])), 0.5, 2e-3)
        rng = np.random.default_rng(30)
        series = integrate_variation(system, gamma, base,
                                     VariationState(rng.normal(size=2), rng.normal(size=2)))
        fp = normality._frame(system, gamma, base.xs.T, base.fibers.T)
        alpha, beta, _, _, _, w = normality._coefficient_fields(fp)
        phi = np.einsum("ks,ks->k", base.fibers, series.tau)
        phi_dot = grid_derivative(phi, 0, base.h)
        phi_ddot = grid_derivative(phi_dot, 0, base.h)
        formula_dot = (-np.einsum("sk,ks->k", fp.v / fp.omega, series.fiber)
                       - np.einsum("sk,ks->k", w, series.tau))
        formula_ddot = (np.einsum("sk,ks->k", alpha, series.fiber)
                        + np.einsum("sk,ks->k", beta, series.tau))
        inner = slice(2, -2)
        scale = max(1.0, np.abs(phi_ddot[inner]).max())
        assert np.abs(formula_dot - phi_dot)[inner].max() <= 1e-5 * scale
        assert np.abs(formula_ddot - phi_ddot)[inner].max() <= 1e-5 * scale


class TestConnectionInvariance:
    def test_zero_shift_changes_nothing(self):
        system = euclid_system(3, swap_force(3))
        gamma = polynomial_connection(3, seed=20)
        zero = ConnectionShift.flat(3)
        report = connection_invariance_check(system, gamma, zero,
                                             stack_states(random_costates(3, 5, seed=21)))
        assert report.weak_a_diff == 0.0
        assert report.weak_b_diff == 0.0
        assert report.add_proj_diff == 0.0
        assert report.add_sym_diff == 0.0

    def test_normal_system_residuals_are_connection_free(self):
        system = euclid_system(3, scaled_momentum_force(3))
        gamma = polynomial_connection(3, seed=22)
        points = stack_states(random_costates(3, 10, seed=23))
        for seed in range(3):
            shift = polynomial_connection(3, seed=100 + seed, cls=ConnectionShift)
            report = connection_invariance_check(system, gamma, shift, points)
            assert report.weak_a_diff <= 1e-9
            assert report.weak_b_diff <= 1e-9
            assert report.add_proj_diff <= 1e-9
            assert report.add_sym_diff <= 1e-9
            assert report.add_proj_magnitude <= 1e-9

    def test_generic_system_diagnostics_recorded(self):
        # the two fiber-only residual families never see the connection; the
        # symmetric-part difference is recorded but carries no assertion
        system = euclid_system(3, ["sin(x2)*p2", "0", "0"])
        gamma = polynomial_connection(3, seed=24)
        shift = polynomial_connection(3, seed=25, cls=ConnectionShift)
        report = connection_invariance_check(system, gamma, shift,
                                             stack_states(random_costates(3, 5, seed=26)))
        assert report.weak_a_diff <= 1e-12
        assert report.add_proj_diff <= 1e-12
        assert np.isfinite(report.add_sym_diff)


class TestOperatorSymmetryAgainstForm:
    def test_radial_force_on_sphere(self):
        sphere = Hypersurface(3, ["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"],
                              [[0.2, 0.6], [0.2, 0.6]], base_point=[0.4, 0.4])
        system = euclid_system(3, scaled_momentum_force(3))
        field = solve_nu_grid(sphere, system, 1.0, counts=[9, 9])
        assert b_symmetry_of_B(sphere, system, field, None, [0.4, 0.4]) <= 1e-7

    def test_no_force_exactly_zero(self):
        sphere = Hypersurface(3, ["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"],
                              [[0.2, 0.6], [0.2, 0.6]], base_point=[0.4, 0.4])
        system = euclid_system(3, ["0", "0", "0"])
        assert b_symmetry_of_B(sphere, system, 1.0, None, [0.4, 0.4]) == 0.0

    def test_flat_point_tolerates_any_force(self):
        flat_surf = surface_with_prescribed_form(np.zeros(3),
                                                 np.array([0.3, -1.1, 0.7]),
                                                 np.zeros((2, 2)), 1.0)
        system = euclid_system(3, swap_force(3))
        assert b_symmetry_of_B(flat_surf, system, 1.0, None, [0.0, 0.0]) <= 1e-8


def test_report_aggregation():
    system = euclid_system(3, scaled_momentum_force(3))
    report = evaluate_residuals(system, None, stack_states(random_costates(3, 5, seed=27)))
    assert report.max_weak_a <= 1e-10
    assert report.max_add_proj <= 1e-10
    families = {"weak_a", "weak_b", "add_sym", "add_proj"}
    assert set(report.values) == set(report.norms) == families
    for family in families:
        assert report.norms[family].shape == (5,)
        assert len(report.values[family]) == 5
