"""Hypersurfaces: frames, normals, the nu field, shifts, second
fundamental form."""

import numpy as np
import pytest

from helpers import (euclid_system, polynomial_connection,
                     scaled_momentum_force, swap_force)
from nslab import (ForceField, HamiltonianModel, Hypersurface,
                   LagrangianModel, NewtonianSystem, normal_covector,
                   pfaff_compatibility_residual, run_shift,
                   second_fundamental_form, solve_nu_grid,
                   surface_with_prescribed_form, tangent_frame)
from nslab.errors import NonFinite, RankDeficient, ValidationError, ZeroMomentum, ZeroNu
from nslab.hypersurface import _nu_at, _pfaff_rhs, nearest_node

TWO_PI = 2.0 * np.pi
# a radial force plus an x-dependent part: nu varies over the sphere patch
MAGNITUDE_X_FORCE = ["0.1*p1 + 0.5*x1*(p1^2+p2^2+p3^2)^0.5", "0.1*p2", "0.1*p3"]


def unit_circle(lo=0.0, hi=TWO_PI):
    return Hypersurface(2, ["cos(y1)", "sin(y1)"], [[lo, hi]], base_point=[lo])


def unit_sphere_patch():
    return Hypersurface(3, ["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"],
                        [[0.2, 0.6], [0.2, 0.6]], base_point=[0.4, 0.4])


@pytest.mark.parametrize("box, base, field", [
    ([[0.0, np.inf]], [0.0], "box"),
    ([[np.nan, 1.0]], None, "box"),
    ([[0.0, 1.0]], [np.nan], "base_point"),
])
def test_non_finite_box_or_base_point_rejected(box, base, field):
    # NaN fails no comparison, so it would pass the inside-the-box test
    with pytest.raises(ValidationError) as info:
        Hypersurface(2, ["cos(y1)", "sin(y1)"], box, base_point=base)
    assert info.value.field == field


class TestFramesAndNormals:
    def test_circle_frame(self):
        tau = tangent_frame(unit_circle(), [0.0])
        np.testing.assert_allclose(tau.ravel(), [0.0, 1.0], atol=1e-15)

    def test_plane_constant_frame(self):
        plane = Hypersurface(3, ["y1", "y2", "0"], [[-1, 1], [-1, 1]])
        for y in ([0.0, 0.0], [0.5, -0.7]):
            tau = tangent_frame(plane, y)
            np.testing.assert_array_equal(tau, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_graph_surface_frame_structure(self):
        # chart (y1, y2, z(y)): identity block above the z-gradient row
        graph = Hypersurface(3, ["y1", "y2", "0.3*y1^2 - 0.2*y1*y2"],
                             [[-1, 1], [-1, 1]])
        y = np.array([0.4, -0.6])
        tau = tangent_frame(graph, y)
        z1 = 0.6 * y[0] - 0.2 * y[1]
        z2 = -0.2 * y[0]
        np.testing.assert_allclose(tau, [[1.0, 0.0], [0.0, 1.0], [z1, z2]],
                                   atol=1e-12)

    def test_circle_normal(self):
        np.testing.assert_allclose(normal_covector(unit_circle(), [0.0]),
                                   [1.0, 0.0], atol=1e-15)

    def test_graph_normal_proportional_to_gradient_form(self):
        graph = Hypersurface(3, ["y1", "y2", "0.3*y1^2 - 0.2*y1*y2"],
                             [[-1, 1], [-1, 1]], base_point=[0.0, 0.0])
        y = np.array([0.4, -0.6])
        z1 = 0.6 * y[0] - 0.2 * y[1]
        z2 = -0.2 * y[0]
        expect = np.array([-z1, -z2, 1.0])
        expect /= np.linalg.norm(expect)
        np.testing.assert_allclose(normal_covector(graph, y), expect, atol=1e-12)

    def test_plane_normal(self):
        plane = Hypersurface(3, ["y1", "y2", "0"], [[-1, 1], [-1, 1]])
        np.testing.assert_allclose(normal_covector(plane, [0.3, 0.4]),
                                   [0.0, 0.0, 1.0], atol=1e-15)

    def test_normal_sign_is_continuous_around_circle(self):
        circle = unit_circle()
        ys = np.linspace(0.0, TWO_PI, 200)
        normals = np.array([normal_covector(circle, [y]) for y in ys])
        # outward everywhere: n(y) = (cos y, sin y) without sign flips
        np.testing.assert_allclose(normals, np.stack([np.cos(ys), np.sin(ys)], axis=1),
                                   atol=1e-12)

    def test_orthogonality_invariant(self):
        sphere = unit_sphere_patch()
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.uniform(0.2, 0.6, size=2)
            tau = tangent_frame(sphere, y)
            nvec = normal_covector(sphere, y)
            assert np.abs(nvec @ tau).max() <= 1e-10

    def test_rank_deficient_chart(self):
        degenerate = Hypersurface(3, ["y1", "y1", "0"], [[-1, 1], [-1, 1]])
        with pytest.raises(RankDeficient):
            tangent_frame(degenerate, [0.1, 0.1])
        with pytest.raises(RankDeficient):
            normal_covector(degenerate, [0.1, 0.1])

    # d/dy1 of cos(y1)*sqrt(y1) is infinite at y1 = 0 and NaN below it
    ROOT_CHART = ["cos(y1)*sqrt(y1)", "sin(y1)"]

    def test_infinite_frame_is_not_finite_not_rank_deficient(self):
        surface = Hypersurface(2, self.ROOT_CHART, [[0.0, 0.5]])
        with np.errstate(divide="ignore"), pytest.raises(NonFinite) as info:
            normal_covector(surface, [[0.25, 0.0]])
        assert str(info.value) == "tangent frame not finite at point 1: y=[0.0]"

    def test_nan_frame_does_not_pass_as_a_normal(self):
        surface = Hypersurface(2, self.ROOT_CHART, [[-0.5, 0.5]], base_point=[0.25])
        with np.errstate(invalid="ignore"), pytest.raises(NonFinite) as info:
            normal_covector(surface, [[0.25, 0.1, -0.25]])
        assert str(info.value) == "tangent frame not finite at point 2: y=[-0.25]"


def _graph_chart(seed):
    a, b, c, d = np.random.default_rng(seed).uniform(-0.3, 0.3, size=4)
    return ["y1", "y2", f"{a}*y1^2 + {b}*y1*y2 + {c}*sin(y2) + {d}*cos(y1)"]


@pytest.mark.parametrize("chart, box", [
    (["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"], [[0.2, 0.6], [0.2, 0.6]]),
    (_graph_chart(9), [[-0.5, 0.5], [-0.5, 0.5]]),
], ids=["sphere", "graph"])
def test_normal_and_its_derivatives_match_sympy(chart, box):
    sp = pytest.importorskip("sympy")
    surface = Hypersurface(3, chart, box)
    ys = sp.symbols("y1 y2")
    frame = sp.Matrix([sp.sympify(c.replace("^", "**")) for c in chart]).jacobian(ys)
    r = sp.Matrix([(-1) ** s * frame[[k for k in range(3) if k != s], :].det()
                   for s in range(3)])
    unit = list(r / sp.sqrt(r.dot(r)))
    base = np.array(sp.lambdify(ys, unit)(*surface.y0), dtype=float)
    sign = 1.0 if base[np.argmax(np.abs(base) > 1e-12)] > 0 else -1.0
    n = [sign * e for e in unit]
    exact = sp.lambdify(ys, [n, [[e.diff(yi) for e in n] for yi in ys]])
    y = np.random.default_rng(3).uniform(*np.array(box).T, size=(4, 2)).T    # (2, 4)
    columns = [exact(*yk) for yk in y.T]
    theirs = [np.stack([np.array(c[k], dtype=float) for c in columns], axis=-1)
              for k in range(2)]
    ours = normal_covector(surface, y, order=1)
    for a, b in zip(ours, theirs):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


class TestNuCurve:
    def test_circle_no_force_constant(self):
        field = solve_nu_grid(unit_circle(), euclid_system(2, ["0", "0"]), 1.0)
        assert field.values.shape == (201,)
        assert field.path_discrepancy is None
        assert np.abs(field.values - 1.0).max() <= 1e-12

    def test_circle_radial_force_constant(self):
        field = solve_nu_grid(unit_circle(), euclid_system(2, scaled_momentum_force(2)), 1.0)
        assert np.abs(field.values - 1.0).max() <= 1e-12

    def test_ellipse_constant_force_closed_form(self):
        # dnu/dy = nu * d(x1)/dy integrates to nu0 * exp(x1(y) - x1(0))
        ell = Hypersurface(2, ["2*cos(y1)", "sin(y1)"], [[0.0, 1.0]], base_point=[0.0])
        field = solve_nu_grid(ell, euclid_system(2, ["1", "0"]), 1.0, counts=[101])
        np.testing.assert_allclose(field.values, np.exp(2 * np.cos(field.axes[0]) - 2.0),
                                   atol=5e-8)

    def test_zero_nu_rejected(self):
        with pytest.raises(ZeroNu):
            solve_nu_grid(unit_circle(), euclid_system(2, ["0", "0"]), 0.0)


class TestNuGrid:
    def test_sphere_radial_force_constant_and_integrable(self):
        system = euclid_system(3, scaled_momentum_force(3))
        field = solve_nu_grid(unit_sphere_patch(), system, 1.0, counts=[17, 17])
        assert np.abs(field.values - 1.0).max() <= 1e-12
        assert field.path_discrepancy <= 1e-10

    def test_plane_no_force_constant(self):
        plane = Hypersurface(3, ["y1", "y2", "0"], [[-0.5, 0.5], [-0.5, 0.5]],
                             base_point=[0.0, 0.0])
        field = solve_nu_grid(plane, euclid_system(3, ["0", "0", "0"]), 2.0,
                              counts=[9, 9])
        assert np.abs(field.values - 2.0).max() == 0.0
        assert field.path_discrepancy == 0.0

    def test_incompatible_force_leaves_path_trace(self):
        system = euclid_system(3, swap_force(3))
        field = solve_nu_grid(unit_sphere_patch(), system, 1.0, counts=[17, 17])
        assert field.path_discrepancy > 1e-4


class TestCompatibility:
    def test_radial_force_compatible(self):
        system = euclid_system(3, scaled_momentum_force(3))
        field = solve_nu_grid(unit_sphere_patch(), system, 1.0, counts=[9, 9])
        theta = pfaff_compatibility_residual(unit_sphere_patch(), system, field,
                                             [0.4, 0.4])
        assert np.abs(theta).max() <= 1e-6

    def test_magnitude_dependent_radial_force_compatible(self):
        mag = "sqrt(p1^2+p2^2+p3^2)"
        system = euclid_system(3, [f"0.1*{mag}*p{i}" for i in (1, 2, 3)])
        theta = pfaff_compatibility_residual(unit_sphere_patch(), system, 1.0,
                                             [0.4, 0.4])
        assert np.abs(theta).max() <= 1e-6

    def test_swap_force_incompatible(self):
        system = euclid_system(3, swap_force(3))
        theta = pfaff_compatibility_residual(unit_sphere_patch(), system, 1.0,
                                             [0.4, 0.4])
        assert np.abs(theta).max() >= 1e-3

    def test_chain_rule_matches_differences_of_psi(self):
        # theta by the chain rule against central differences of psi, on an
        # x-dependent derived Hamiltonian and force, where theta is O(0.1)
        lag = LagrangianModel(3, "sqrt(1+x1^2)*(v1^2+v2^2+v3^2)^1.5 + exp(x2)*v3^2")
        system = NewtonianSystem(HamiltonianModel(lag.n, lag),
                                 ForceField(3, ["0.1*p1*x2", "p3^2", "sin(x1)*p2"]))
        surface = Hypersurface(3, ["y1", "y2", "0.2*y1^2 - 0.1*y1*y2 + 0.3*sin(y2)"],
                               [[-0.5, 0.5], [-0.5, 0.5]], base_point=[0.0, 0.0])
        rng = np.random.default_rng(12)
        for _ in range(3):
            y, nu, h = rng.uniform(-0.4, 0.4, size=2), rng.uniform(0.5, 2.0), 1e-4

            def psi(nu, y):
                return _pfaff_rhs(surface, system, nu, y)

            dpsi_dnu = (psi(nu + h, y) - psi(nu - h, y)) / (2 * h)
            expect = np.stack([(psi(nu, y + h * e) - psi(nu, y - h * e)) / (2 * h)
                               + dpsi_dnu * psi(nu, y)[j] for j, e in enumerate(np.eye(2))],
                              axis=1)
            theta = pfaff_compatibility_residual(surface, system, nu, y)
            assert np.abs(theta).max() >= 1e-3
            np.testing.assert_allclose(theta, expect - expect.T, rtol=0, atol=1e-8)

    def test_curve_case_has_no_constraint(self):
        system = euclid_system(2, ["1", "0"])
        theta = pfaff_compatibility_residual(unit_circle(), system, 1.0, [0.5])
        assert theta.shape == (1, 1)
        assert np.abs(theta).max() == 0.0


class TestRunShift:
    def patch_circle(self):
        return unit_circle(0.0, 0.02)

    def test_no_force_stays_normal(self):
        circle = self.patch_circle()
        system = euclid_system(2, ["0", "0"])
        field = solve_nu_grid(circle, system, 1.0, counts=[201])
        family = run_shift(circle, system, field, 1.0, 1e-3)
        assert family.max_abs_phi.max() <= 1e-6
        # deviation functions vanish at t=0 by construction
        assert np.abs(family.phi[0]).max() <= 1e-12

    def test_radial_force_stays_normal(self):
        circle = self.patch_circle()
        system = euclid_system(2, scaled_momentum_force(2))
        field = solve_nu_grid(circle, system, 1.0, counts=[201])
        family = run_shift(circle, system, field, 1.0, 1e-3)
        assert family.max_abs_phi.max() <= 1e-4

    def test_swap_force_breaks_normality(self):
        circle = self.patch_circle()
        system = euclid_system(2, swap_force(2))
        field = solve_nu_grid(circle, system, 1.0, counts=[201])
        family = run_shift(circle, system, field, 1.0, 1e-3)
        half = np.searchsorted(family.t, 0.5)
        assert np.abs(family.phi[:half + 1]).max() >= 1e-2

    def test_initial_slope_vanishes_with_solved_nu(self):
        # the time derivative of every deviation function at t=0 is killed by
        # the nu equation even when normality fails later: evaluate it from
        # the first-derivative formula on the initial data
        circle = self.patch_circle()
        system = euclid_system(2, swap_force(2))
        field = solve_nu_grid(circle, system, 1.0, counts=[201])
        (axis,) = field.axes
        delta = axis[1] - axis[0]
        ys = axis[1:-1]
        worst = 0.0
        for k, y in enumerate(ys, start=1):
            x = circle.chart_at([y])
            tau = tangent_frame(circle, [y])[:, 0]
            p = field.values[k] * normal_covector(circle, [y])
            p_hi = field.values[k + 1] * normal_covector(circle, [axis[k + 1]])
            p_lo = field.values[k - 1] * normal_covector(circle, [axis[k - 1]])
            dp_dy = (p_hi - p_lo) / (2 * delta)
            data = system.model.partials(x, p, order=1)
            omega = float(p @ data.dp)
            q = system.force.values(x, p)
            phi_dot = (-(data.dp / omega) @ dp_dy
                       - ((data.dx / omega - q) @ tau))
            worst = max(worst, abs(phi_dot))
        assert worst <= 1e-6

    def test_deviation_series_of_one_node(self):
        circle = self.patch_circle()
        system = euclid_system(2, ["0", "0"])
        field = solve_nu_grid(circle, system, 1.0, counts=[201])
        family = run_shift(circle, system, field, 0.1, 1e-2)
        phi = family.phi[:, 100]
        assert phi.shape == (len(family.t), 1)
        assert float(np.abs(phi).max()) <= family.max_abs_phi.max()


class TestSecondFundamentalForm:
    def test_plane_is_flat(self):
        plane = Hypersurface(3, ["y1", "y2", "0"], [[-1, 1], [-1, 1]],
                             base_point=[0.0, 0.0])
        system = euclid_system(3, ["0", "0", "0"])
        sff = second_fundamental_form(plane, system, 1.0, None, [0.1, -0.2])
        assert np.abs(sff.b).max() == 0.0
        assert np.abs(sff.beta).max() == 0.0

    def test_sphere_inner_components(self):
        sphere = unit_sphere_patch()
        system = euclid_system(3, scaled_momentum_force(3))
        y = np.array([0.4, 0.4])
        nu = 1.3
        sff = second_fundamental_form(sphere, system, nu, None, y)
        expect = -nu * np.diag([np.cos(y[1]) ** 2, 1.0])
        np.testing.assert_allclose(sff.beta, expect, atol=1e-7)
        assert sff.symmetry_defect <= 1e-8

    def test_symmetry_on_random_analytic_surfaces(self):
        system = euclid_system(3, scaled_momentum_force(3))
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b, c, d = rng.uniform(-0.3, 0.3, size=4)
            chart = ["y1", "y2",
                     f"{a}*y1^2 + {b}*y1*y2 + {c}*sin(y2) + {d}*cos(y1)"]
            surf = Hypersurface(3, chart, [[-0.5, 0.5], [-0.5, 0.5]],
                                base_point=[0.0, 0.0])
            y = rng.uniform(-0.3, 0.3, size=2)
            sff = second_fundamental_form(surf, system, 1.0, None, y)
            assert sff.symmetry_defect <= 1e-8

    def test_connection_terms_enter(self):
        sphere = unit_sphere_patch()
        system = euclid_system(3, ["0", "0", "0"])
        gamma = polynomial_connection(3, seed=21)
        flat = second_fundamental_form(sphere, system, 1.0, None, [0.4, 0.4])
        curved = second_fundamental_form(sphere, system, 1.0, gamma, [0.4, 0.4])
        assert np.abs(flat.b - curved.b).max() > 1e-3

    def test_prescribed_form_roundtrip(self):
        system = euclid_system(3, scaled_momentum_force(3))
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = rng.normal(size=3)
            beta = rng.normal(size=(2, 2)) * 0.8
            beta = 0.5 * (beta + beta.T)
            nu0 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            surf = surface_with_prescribed_form(rng.normal(size=3), p, beta, nu0)
            sff = second_fundamental_form(surf, system, nu0, None, [0.0, 0.0])
            assert np.abs(sff.beta - beta).max() <= 1e-6

    def test_zero_form_gives_affine_plane(self):
        surf = surface_with_prescribed_form(np.zeros(3), np.array([0.0, 0.0, 2.0]),
                                            np.zeros((2, 2)), 1.0)
        system = euclid_system(3, ["0", "0", "0"])
        sff = second_fundamental_form(surf, system, 1.0, None, [0.2, -0.3])
        assert np.abs(sff.b).max() <= 1e-10
        # chart is affine: frames agree at distinct points
        np.testing.assert_allclose(tangent_frame(surf, [0.0, 0.0]),
                                   tangent_frame(surf, [0.3, 0.1]), atol=1e-14)

    def test_prescribed_form_validation(self):
        with pytest.raises(ZeroMomentum):
            surface_with_prescribed_form(np.zeros(3), np.zeros(3), np.zeros((2, 2)), 1.0)
        with pytest.raises(ZeroNu):
            surface_with_prescribed_form(np.zeros(3), np.ones(3), np.zeros((2, 2)), 0.0)
        with pytest.raises(ValidationError):
            surface_with_prescribed_form(np.zeros(3), np.ones(3),
                                         np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_normal_covector_grid():
    sphere = unit_sphere_patch()
    axes = (np.linspace(0.2, 0.6, 5), np.linspace(0.2, 0.6, 5))
    ys = np.stack(np.meshgrid(*axes, indexing="ij"))
    normals = normal_covector(sphere, ys)
    assert normals.shape == (3, 5, 5)
    for idx in np.ndindex(5, 5):
        y = [axes[0][idx[0]], axes[1][idx[1]]]
        nvec = normals[(slice(None),) + idx]
        assert np.linalg.norm(nvec) == pytest.approx(1.0)
        assert np.abs(nvec @ tangent_frame(sphere, y)).max() <= 1e-10
        np.testing.assert_array_equal(nvec, normal_covector(sphere, y))


class TestNuField:
    def test_nu_at_base_point_and_nodes(self):
        # no step at the base point or on a node; a constant stays constant
        sphere = Hypersurface(3, ["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"],
                              [[0.2, 0.6], [0.2, 0.6]], base_point=[0.4, 0.41])
        system = euclid_system(3, MAGNITUDE_X_FORCE)
        field = solve_nu_grid(sphere, system, 1.3, counts=[5, 5])
        assert field.values[2, 2] != 1.3
        assert _nu_at(sphere, system, field, [0.4, 0.41]) == 1.3
        node = [field.axes[0][3], field.axes[1][1]]
        assert _nu_at(sphere, system, field, node) == field.values[3, 1]
        assert _nu_at(sphere, system, 2.5, [0.43, 0.31]) == 2.5

    def test_base_point_between_nodes(self):
        # base (0.4, 0.4) lies between the nodes of the 4 x 4 grid: the march
        # starts there, not at its nearest node
        system = euclid_system(3, MAGNITUDE_X_FORCE)
        coarse = solve_nu_grid(unit_sphere_patch(), system, 1.0, counts=[4, 4])
        fine = solve_nu_grid(unit_sphere_patch(), system, 1.0, counts=[65, 65])
        assert abs(coarse.values[-1, -1] / fine.values[-1, -1] - 1.0) <= 1e-6

    def test_nu_between_nodes_is_fourth_order(self):
        # (0.4125, 0.4375) lies between the nodes of the 9 x 9 and 17 x 17
        # grids and is a node of the 161 x 161 reference
        system = euclid_system(3, MAGNITUDE_X_FORCE)
        sphere = unit_sphere_patch()
        y = np.array([0.4125, 0.4375])
        ref = solve_nu_grid(sphere, system, 1.0, counts=[161, 161])
        node = nearest_node(ref.axes, y)
        np.testing.assert_allclose([ax[k] for ax, k in zip(ref.axes, node)], y, rtol=0,
                                   atol=1e-15)
        errors = [abs(_nu_at(sphere, system, solve_nu_grid(sphere, system, 1.0,
                                                           counts=[c, c]), y)
                      - ref.values[node]) for c in (9, 17)]
        assert 12.0 <= errors[0] / errors[1] <= 20.0
