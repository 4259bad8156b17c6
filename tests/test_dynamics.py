"""Relative-form dynamics: right-hand sides and RK4 integration."""

import io

import numpy as np
import pytest

from helpers import (coupled_system, euclid_hamiltonian, euclid_lagrangian,
                     euclid_system, quartic_lagrangian,
                     scaled_momentum_force)
from nslab import (CotangentState, ForceField, HamiltonianModel,
                   LagrangianModel, NewtonianSystem, TangentState,
                   force_from_acceleration, hamiltonian_eval, integrate,
                   integrate_batch, legendre, rhs_p, rhs_v)
from nslab.errors import DegenerateOmega, ValidationError


class TestRhsMomentum:
    def test_unit_momentum(self):
        sys0 = euclid_system(2, ["0", "0"])
        dx, dp = rhs_p(sys0, CotangentState(np.array([0.3, -0.1]), np.array([1.0, 0.0])))
        np.testing.assert_allclose(dx, [1.0, 0.0])
        np.testing.assert_allclose(dp, [0.0, 0.0])

    def test_scaling_by_denominator(self):
        sys0 = euclid_system(2, ["0", "0"])
        dx, _ = rhs_p(sys0, CotangentState(np.zeros(2), np.array([2.0, 0.0])))
        np.testing.assert_allclose(dx, [0.5, 0.0])

    def test_force_enters_directly(self):
        sysf = euclid_system(2, scaled_momentum_force(2))
        _, dp = rhs_p(sysf, CotangentState(np.zeros(2), np.array([1.0, 0.0])))
        np.testing.assert_allclose(dp, [0.1, 0.0])

    def test_degenerate_omega(self):
        sys0 = euclid_system(2, ["0", "0"])
        with pytest.raises(DegenerateOmega):
            rhs_p(sys0, CotangentState(np.zeros(2), np.zeros(2)))


class TestRhsVelocity:
    def test_euclid(self):
        sys0 = euclid_system(2, ["0", "0"])
        dx, dv = rhs_v(sys0, TangentState(np.zeros(2), np.array([1.0, 0.0])))
        np.testing.assert_allclose(dx, [1.0, 0.0])
        np.testing.assert_allclose(dv, [0.0, 0.0])

    def test_potential_gives_scaled_gradient_force(self):
        lag = LagrangianModel(2, "0.5*(v1^2+v2^2) - (0.4*x1^2 + sin(x2))")
        system = NewtonianSystem(HamiltonianModel.from_lagrangian(lag),
                                 ForceField.zero(2))
        x = np.array([0.5, 0.2])
        v = np.array([1.0, -0.5])
        _, dv = rhs_v(system, TangentState(x, v))
        grad_u = np.array([0.8 * x[0], np.cos(x[1])])
        omega = float(v @ v)
        np.testing.assert_allclose(dv, -grad_u / omega, atol=1e-12)

    def test_conjugate_to_momentum_form(self):
        system = coupled_system()
        lag = system.lagrangian
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=2)
            v = rng.normal(size=2) + 0.8
            dx_v, dv = rhs_v(system, TangentState(x, v))
            p = lag.lv(x, v)
            dx_p, dp = rhs_p(system, CotangentState(x, p))
            np.testing.assert_allclose(dx_v, dx_p, atol=1e-9)
            # chain rule: dp = Lvx dx + Lvv dv along the motion
            dp_from_v = lag.lvx(x, v) @ dx_v + lag.lvv(x, v) @ dv
            np.testing.assert_allclose(dp_from_v, dp, atol=1e-9)


class TestIntegrate:
    def test_straight_line(self):
        sys0 = euclid_system(2, ["0", "0"])
        tr = integrate(sys0, CotangentState(np.zeros(2), np.array([1.0, 0.0])), 1.0, 1e-3)
        np.testing.assert_allclose(tr.xs[-1], [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(tr.fibers[-1], [1.0, 0.0], atol=1e-12)

    def test_energy_conserved_without_force(self):
        lag = LagrangianModel(2, "0.5*(v1^2+v2^2) - (0.3*sin(x1) + 0.2*x2^2)")
        H = HamiltonianModel.from_lagrangian(lag)
        system = NewtonianSystem(H, ForceField.zero(2))
        tr = integrate(system, CotangentState(np.array([0.1, 0.2]), np.array([1.0, 0.5])),
                       1.0, 1e-3)
        values = [hamiltonian_eval(H, tr.state(k), order=0).value
                  for k in range(0, len(tr.t), 100)]
        assert max(abs(v - values[0]) for v in values) <= 1e-10

    def test_representation_consistency(self):
        for lag in (euclid_lagrangian(2), quartic_lagrangian(2)):
            for force in (["0", "0"], scaled_momentum_force(2)):
                system = NewtonianSystem(HamiltonianModel.from_lagrangian(lag),
                                         ForceField(2, force))
                x0 = np.array([0.0, 0.1])
                v0 = np.array([1.2, -0.3])
                trv = integrate(system, TangentState(x0, v0), 1.0, 1e-3)
                trp = integrate(system, legendre(lag, TangentState(x0, v0)), 1.0, 1e-3)
                worst = 0.0
                for k in range(0, len(trv.t), 50):
                    pk = lag.lv(trv.xs[k], trv.fibers[k])
                    worst = max(worst, np.abs(pk - trp.fibers[k]).max(),
                                np.abs(trv.xs[k] - trp.xs[k]).max())
                assert worst <= 1e-6

    def test_time_reversal(self):
        sys0 = euclid_system(2, ["0", "0"])
        start = CotangentState(np.array([0.2, -0.4]), np.array([0.8, 0.6]))
        fwd = integrate(sys0, start, 1.0, 1e-3)
        back = integrate(sys0, CotangentState(fwd.xs[-1], -fwd.fibers[-1]), 1.0, 1e-3)
        np.testing.assert_allclose(back.xs[-1], start.x, atol=1e-9)
        np.testing.assert_allclose(-back.fibers[-1], start.p, atol=1e-9)

    def test_halving_step_shrinks_error_sixteen_fold(self):
        system = coupled_system()
        start = CotangentState(np.array([0.1, -0.2]), np.array([1.1, 0.6]))
        ref = integrate(system, start, 1.0, 1.0 / 3200).xs[-1]
        e1 = np.abs(integrate(system, start, 1.0, 0.02).xs[-1] - ref).max()
        e2 = np.abs(integrate(system, start, 1.0, 0.01).xs[-1] - ref).max()
        assert 12.0 <= e1 / e2 <= 20.0

    def test_rhs_errors_carry_time(self):
        # force drives the momentum through zero: omega degenerates mid-run
        system = euclid_system(2, ["0-1", "0"])
        with pytest.raises(DegenerateOmega) as err:
            integrate(system, CotangentState(np.zeros(2), np.array([1.0, 0.0])),
                      3.0, 1e-2)
        assert "t=" in str(err.value)

    def test_step_validation(self):
        sys0 = euclid_system(2, ["0", "0"])
        with pytest.raises(ValidationError):
            integrate(sys0, CotangentState(np.zeros(2), np.ones(2)), 1.0, -1e-3)


class TestBatch:
    def test_matches_single_trajectories_bitwise(self):
        system = euclid_system(2, scaled_momentum_force(2))
        rng = np.random.default_rng(1)
        X0 = rng.normal(size=(5, 2))
        P0 = rng.normal(size=(5, 2)) + 0.5
        t, xs, ps = integrate_batch(system, X0, P0, 0.5, 1e-2)
        for b in range(5):
            tr = integrate(system, CotangentState(X0[b], P0[b]), 0.5, 1e-2)
            assert np.array_equal(tr.xs, xs[:, b])
            assert np.array_equal(tr.fibers, ps[:, b])


class TestCsvExport:
    def test_header_and_shape(self):
        sys0 = euclid_system(2, ["0", "0"])
        tr = integrate(sys0, CotangentState(np.zeros(2), np.ones(2)), 0.1, 1e-2)
        buf = io.StringIO()
        tr.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x1,x2,p1,p2"
        assert len(lines) == len(tr.t) + 1

    def test_deterministic_bytes(self):
        sys0 = euclid_system(2, scaled_momentum_force(2))
        out = []
        for _ in range(2):
            tr = integrate(sys0, CotangentState(np.zeros(2), np.ones(2)), 0.2, 1e-2)
            buf = io.StringIO()
            tr.to_csv(buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]


class TestForceFromAcceleration:
    def test_closed_form_for_kinetic_model(self):
        lag = euclid_lagrangian(2)
        ff = force_from_acceleration(lag, ["1", "0"])
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.normal(size=2)
            accel = np.array([1.0, 0.0])
            expect = float(p @ p) * accel - 2 * p * float(p @ accel)
            np.testing.assert_allclose(ff.values(np.zeros(2), p), expect, atol=1e-12)

    def test_velocity_dependent_acceleration(self):
        lag = euclid_lagrangian(2)
        ff = force_from_acceleration(lag, ["x2*v1", "0"])
        x = np.array([0.5, 2.0])
        p = np.array([0.8, -0.6])
        u = p / float(p @ p)
        accel = np.array([x[1] * u[0], 0.0])
        expect = float(p @ p) * accel - 2 * p * float(p @ accel)
        np.testing.assert_allclose(ff.values(x, p), expect, atol=1e-12)

    def test_reproduces_second_order_motion(self):
        # trajectory of the converted system must satisfy d2x/dt2 = accel
        lag = euclid_lagrangian(2)
        system = NewtonianSystem(HamiltonianModel.from_lagrangian(lag),
                                 force_from_acceleration(lag, ["1", "0"]))
        tr = integrate(system, CotangentState(np.zeros(2), np.array([1.0, 0.2])), 1.0, 1e-3)
        # x follows the relative-form clock; check the curve is the parabola
        # x(s) = u0 s + a s^2 / 2 for some reparametrisation s(t)
        u0 = np.array([1.0, 0.2]) / float(1.0 + 0.04)
        a = np.array([1.0, 0.0])
        # eliminate s: the second component moves linearly in s
        s = tr.xs[:, 1] / u0[1]
        expect_x1 = u0[0] * s + 0.5 * s ** 2
        np.testing.assert_allclose(tr.xs[:, 0], expect_x1, atol=1e-6)

    def test_rejects_non_kinetic_models(self):
        with pytest.raises(ValidationError):
            force_from_acceleration(quartic_lagrangian(2), ["1", "0"])

    @pytest.mark.parametrize("accel", [["1"], ["1", None], ["1", [0]], ["x9", "0"]])
    def test_rejects_malformed_accelerations(self, accel):
        # a component of the wrong type, or with a symbol outside (x, v) of
        # dimension 2, is named by its index
        slot = ("acceleration" if len(accel) != 2
                else r"acceleration\[%d\]" % (accel[0] == "1"))
        with pytest.raises(ValidationError, match=f"^{slot}: "):
            force_from_acceleration(euclid_lagrangian(2), accel)
