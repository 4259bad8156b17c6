"""Acceptance criteria.

Each test evaluates one numbered criterion at its frozen tolerance and
prints one PASS/FAIL line (visible with `pytest -s`).  Negative controls
use the momentum-swap force (p2, 0, ...) — an x-independent covector that
violates both normality families — because a constant force covector in the
Euclidean model satisfies every normality equation identically and cannot
serve as a control; see the repository notes for the analysis.
"""

import numpy as np

from helpers import (coupled_system, euclid_system, polynomial_connection,
                     potential_lagrangian, quartic_lagrangian,
                     radial_momentum_force, random_costates, stack_states,
                     scaled_momentum_force, swap_force)
from nslab import (CotangentState, ForceField, HamiltonianModel, Hypersurface,
                   NewtonianSystem, TangentState, VariationState,
                   additional_residuals, connection_invariance_check,
                   commutator_residual, deviation_ode_residual, integrate,
                   integrate_variation, legendre, pfaff_compatibility_residual,
                   run_shift, second_fundamental_form, solve_nu_grid,
                   surface_with_prescribed_form, weak_residuals)
from nslab.calculus import invert_legendre_array


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def seeded_momenta(n, count, seed, lo=0.1, hi=10.0):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, count))
    d /= np.linalg.norm(d, axis=0)
    return d * rng.uniform(lo, hi, size=count), rng.normal(size=(n, count))


def test_01_legendre_roundtrip():
    worst_err = 0.0
    worst_iters = 0
    for n in (2, 3):
        lag = quartic_lagrangian(n)
        V, X = seeded_momenta(n, 100, seed=101 + n)
        P = lag.lv(X, V)
        back, iters = invert_legendre_array(lag, X, P)
        worst_err = max(worst_err, float(np.abs(back - V).max()))
        worst_iters = max(worst_iters, iters)
    ok = worst_err <= 1e-9 and worst_iters <= 12
    report(1, "legendre roundtrip", ok,
           f"max_err={worst_err:.3e}, iterations={worst_iters}")


def test_02_metric_duality():
    models = {
        "euclidean": NewtonianSystem(euclid_system(2, ["0", "0"]).model,
                                     ForceField.zero(2)).model.lagrangian,
        "potential": potential_lagrangian(),
        "quartic": quartic_lagrangian(2),
    }
    worst = 0.0
    for name, lag in models.items():
        H = HamiltonianModel(lag.n, lag)
        V, X = seeded_momenta(2, 100, seed=202)
        for k in range(100):
            x, v = X[:, k], V[:, k]
            g = lag.lvv(x, v)
            dpp = H.partials(x, lag.lv(x, v), order=2).dpp
            worst = max(worst, float(np.abs(g @ dpp - np.eye(2)).max()))
    ok = worst <= 1e-9
    report(2, "metric duality", ok, f"max |g g_inv - I| = {worst:.3e}")


def test_03_unity_identity():
    from nslab import omega_v
    worst = 0.0
    for lag in (euclid_system(2, ["0", "0"]).model.lagrangian,
                quartic_lagrangian(2)):
        H = HamiltonianModel(lag.n, lag)
        P, X = seeded_momenta(2, 50, seed=303)
        for k in range(50):
            c = CotangentState(X[:, k], P[:, k])
            data = H.partials(c.x, c.p, order=1)
            omega = omega_v(lag, TangentState(c.x, data.dp))
            worst = max(worst, abs(float(c.p @ data.dp) / omega - 1.0))
    ok = worst <= 1e-12
    report(3, "unity identity", ok, f"max deviation from 1 = {worst:.3e}")


def test_04_representation_consistency():
    worst = 0.0
    for lag in (euclid_system(2, ["0", "0"]).model.lagrangian,
                quartic_lagrangian(2)):
        for force in (["0", "0"], scaled_momentum_force(2)):
            system = NewtonianSystem(HamiltonianModel(lag.n, lag),
                                     ForceField(2, force))
            x0 = np.array([0.0, 0.1])
            v0 = np.array([1.2, -0.3])
            trv = integrate(system, TangentState(x0, v0), 1.0, 1e-3)
            trp = integrate(system, legendre(lag, TangentState(x0, v0)), 1.0, 1e-3)
            mapped = lag.lv(trv.xs.T, trv.fibers.T).T
            worst = max(worst, float(np.abs(mapped - trp.fibers).max()),
                        float(np.abs(trv.xs - trp.xs).max()))
    ok = worst <= 1e-6
    report(4, "representation consistency", ok, f"sup error = {worst:.3e}")


def test_05_commutator_identities():
    n = 3
    H = HamiltonianModel(n, expression="0.5*(p1^2+p2^2+p3^2) + sin(x1)")
    gamma = polynomial_connection(n, seed=505)
    rng = np.random.default_rng(506)
    worst = 0.0
    for _ in range(50):
        c = CotangentState(rng.normal(size=n), rng.normal(size=n))
        r1, r2 = commutator_residual(H, gamma, c)
        worst = max(worst, float(np.abs(r1).max()), float(np.abs(r2).max()))
    ok = worst <= 1e-8
    report(5, "commutator identities", ok, f"max residual = {worst:.3e}")


def test_06_normal_system_residuals():
    worst_normal = 0.0
    for force in (scaled_momentum_force(3), radial_momentum_force(3)):
        system = euclid_system(3, force)
        for c in random_costates(3, 100, seed=606):
            wa, wb = weak_residuals(system, None, c)
            add_sym, _, add_proj = additional_residuals(system, None, c)
            worst_normal = max(worst_normal, np.abs(wa).max(), np.abs(wb).max(),
                               np.abs(add_sym).max(), np.abs(add_proj).max())
    neg = euclid_system(3, swap_force(3))
    control = 0.0
    for c in random_costates(3, 100, seed=607):
        _, wb = weak_residuals(neg, None, c)
        _, _, add_proj = additional_residuals(neg, None, c)
        control = max(control, np.abs(wb).max(), np.abs(add_proj).max())
    ok = worst_normal <= 1e-9 and control >= 1e-3
    report(6, "normal-system residuals", ok,
           f"normal max = {worst_normal:.3e}, control = {control:.3e}")


def test_07_connection_invariance():
    system = euclid_system(3, scaled_momentum_force(3))
    gamma = polynomial_connection(3, seed=707)
    points = stack_states(random_costates(3, 10, seed=708))
    worst = 0.0
    worst_sym = 0.0
    proj_mag = 0.0
    for k in range(5):
        shift = polynomial_connection(3, seed=710 + k)
        rep = connection_invariance_check(system, gamma, shift, points)
        worst = max(worst, rep.weak_a_diff, rep.weak_b_diff, rep.add_proj_diff)
        worst_sym = max(worst_sym, rep.add_sym_diff)
        proj_mag = max(proj_mag, rep.add_proj_magnitude)
    ok = worst <= 1e-9 and (proj_mag > 1e-9 or worst_sym <= 1e-9)
    report(7, "connection invariance", ok,
           f"max diff = {worst:.3e}, sym diff = {worst_sym:.3e} "
           f"(projector defect {proj_mag:.1e})")


def circle_patch():
    return Hypersurface(2, ["cos(y1)", "sin(y1)"], [[0.0, 0.02]], base_point=[0.0])


def test_08_shift_normality():
    results = {}
    for label, force in (("none", ["0", "0"]),
                         ("radial", scaled_momentum_force(2)),
                         ("swap", swap_force(2))):
        system = euclid_system(2, force)
        surface = circle_patch()
        field = solve_nu_grid(surface, system, 1.0, counts=[201])   # spacing 1e-4
        family = run_shift(surface, system, field, 1.0, 1e-3)
        half = np.searchsorted(family.t, 0.5)
        results[label] = (float(family.max_abs_phi.max()),
                          float(np.abs(family.phi[:half + 1]).max()))
    ok = (results["none"][0] <= 1e-6 and results["radial"][0] <= 1e-4
          and results["swap"][1] >= 1e-2)
    report(8, "shift normality", ok,
           f"none={results['none'][0]:.2e}, radial={results['radial'][0]:.2e}, "
           f"control(t<=0.5)={results['swap'][1]:.2e}")


def test_09_deviation_ode():
    rng = np.random.default_rng(909)
    system = euclid_system(2, scaled_momentum_force(2))
    worst = 0.0
    for _ in range(10):
        x0 = rng.normal(size=2)
        p0 = rng.normal(size=2)
        p0 *= rng.uniform(0.5, 2.0) / np.linalg.norm(p0)
        base = integrate(system, CotangentState(x0, p0), 1.0, 2e-3)
        inits = [VariationState(rng.normal(size=2), rng.normal(size=2))
                 for _ in range(20)]
        series = integrate_variation(system, None, base, inits)
        worst = max(worst, max(deviation_ode_residual(system, None, base, series)))
    neg = euclid_system(2, swap_force(2))
    base = integrate(neg, CotangentState(np.array([0.1, -0.2]),
                                         np.array([0.9, 0.7])), 1.0, 2e-3)
    inits = [VariationState(rng.normal(size=2), rng.normal(size=2))
             for _ in range(20)]
    series = integrate_variation(neg, None, base, inits)
    control = max(deviation_ode_residual(neg, None, base, series))
    ok = worst <= 1e-6 and control >= 1e-3
    report(9, "deviation equation", ok,
           f"normal max = {worst:.3e}, control = {control:.3e}")


def sphere_patch():
    return Hypersurface(3, ["cos(y1)*cos(y2)", "sin(y1)*cos(y2)", "sin(y2)"],
                        [[0.2, 0.6], [0.2, 0.6]], base_point=[0.4, 0.4])


def test_10_pfaff_compatibility():
    system = euclid_system(3, scaled_momentum_force(3))
    surface = sphere_patch()
    field = solve_nu_grid(surface, system, 1.0, counts=[17, 17])
    theta = pfaff_compatibility_residual(surface, system, field, [0.4, 0.4])
    theta_ok = float(np.abs(theta).max())
    disc = field.path_discrepancy
    neg = euclid_system(3, swap_force(3))
    rng = np.random.default_rng(1010)
    control = 0.0
    for _ in range(5):
        y = rng.uniform(0.25, 0.55, size=2)
        th = pfaff_compatibility_residual(sphere_patch(), neg, 1.0, y)
        control = max(control, float(np.abs(th).max()))
    ok = theta_ok <= 1e-12 and disc <= 1e-10 and control >= 1e-3
    report(10, "pfaff compatibility", ok,
           f"theta={theta_ok:.3e}, path discrepancy={disc:.3e}, "
           f"control={control:.3e}")


def test_11_second_fundamental_form():
    system = euclid_system(3, scaled_momentum_force(3))
    rng = np.random.default_rng(1111)
    worst_sym = 0.0
    for _ in range(5):
        a, b, c, d = rng.uniform(-0.3, 0.3, size=4)
        chart = ["y1", "y2", f"{a}*y1^2 + {b}*y1*y2 + {c}*sin(y2) + {d}*cos(y1)"]
        surf = Hypersurface(3, chart, [[-0.5, 0.5], [-0.5, 0.5]],
                            base_point=[0.0, 0.0])
        sff = second_fundamental_form(surf, system, 1.0, None,
                                      rng.uniform(-0.3, 0.3, size=2))
        worst_sym = max(worst_sym, sff.symmetry_defect)
    worst_round = 0.0
    for _ in range(5):
        p = rng.normal(size=3)
        beta = rng.normal(size=(2, 2)) * 0.8
        beta = 0.5 * (beta + beta.T)
        nu0 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        surf = surface_with_prescribed_form(rng.normal(size=3), p, beta, nu0)
        sff = second_fundamental_form(surf, system, nu0, None, [0.0, 0.0])
        worst_round = max(worst_round, float(np.abs(sff.beta - beta).max()))
    ok = worst_sym <= 1e-12 and worst_round <= 1e-12
    report(11, "second fundamental form", ok,
           f"symmetry defect = {worst_sym:.3e}, roundtrip = {worst_round:.3e}")


def test_12_convergence_orders():
    # RK4 on the scalar nu equation, against the closed-form solution
    ell = Hypersurface(2, ["2*cos(y1)", "sin(y1)"], [[0.0, 1.0]], base_point=[0.0])
    system = euclid_system(2, ["1", "0"])

    def nu_error(count):
        field = solve_nu_grid(ell, system, 1.0, counts=[count])
        return float(abs(field.values[-1] - np.exp(2 * np.cos(1.0) - 2.0)))

    # steps coarse enough that RK4's truncation dominates the error at the
    # far end, so halving the step shows the fourth order
    r_nu = nu_error(11) / nu_error(21)
    # RK4 on a trajectory of the coupled model, against a fine reference
    sys2 = coupled_system()
    start = CotangentState(np.array([0.1, -0.2]), np.array([1.1, 0.6]))
    ref = integrate(sys2, start, 1.0, 1.0 / 3200).xs[-1]
    e1 = np.abs(integrate(sys2, start, 1.0, 0.02).xs[-1] - ref).max()
    e2 = np.abs(integrate(sys2, start, 1.0, 0.01).xs[-1] - ref).max()
    r_traj = float(e1 / e2)
    # parameter differencing of the deviation functions on an exactly normal
    # run: the measured phi IS the differencing error
    sys0 = euclid_system(2, ["0", "0"])
    ell_patch = Hypersurface(2, ["2*cos(y1)", "sin(y1)"], [[0.1, 0.5]],
                             base_point=[0.1])

    def phi_error(count):
        field = solve_nu_grid(ell_patch, sys0, 1.0, counts=[count])
        family = run_shift(ell_patch, sys0, field, 1.0, 1e-2)
        return float(family.max_abs_phi.max())

    r_phi = phi_error(201) / phi_error(401)
    ok = 12.0 <= r_nu <= 20.0 and 12.0 <= r_traj <= 20.0 and 3.5 <= r_phi <= 4.5
    report(12, "convergence orders", ok,
           f"nu RK4 ratio = {r_nu:.2f}, trajectory RK4 ratio = {r_traj:.2f}, "
           f"phi differencing ratio = {r_phi:.2f}")
