"""Newtonian dynamical systems in relative form and their integration.

The primary parametrisation is the momentum form: dx^i = (dH/dp_i)/omega,
dp_i = -(dH/dx^i)/omega + Q_i, with the force covector Q authored over
(x, p).  The velocity form resolves the vertical Hessian against the time
derivative of the momentum covector.  Integration is fixed-step classical
fourth-order Runge-Kutta; trajectories on a shared time grid may be
integrated as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .calculus import (CotangentState, HamiltonianModel, TangentState,
                       SINGULAR_CUTOFF, _Table, _solve_batch)
from .errors import (DegenerateOmega, NslabNumericError, ValidationError)


class ForceField:
    """Extended force covector Q_i(x, p), components as expression trees."""

    def __init__(self, n, comps):
        self.n = int(n)
        comps = [expr.parse(c) if isinstance(c, str) else c for c in comps]
        if len(comps) != n:
            raise ValidationError("force", f"expected {n} components")
        for e in comps:
            expr.check_symbols(e, n, kinds=("x", "p"), where="force component")
        self.comps = comps
        xs = [expr.sym("x", i + 1) for i in range(n)]
        ps = [expr.sym("p", i + 1) for i in range(n)]
        self._value = _Table(comps)
        self._dx = _Table([[c.diff(s) for c in comps] for s in xs])
        self._dp = _Table([[c.diff(s) for c in comps] for s in ps])
        self.is_zero = all(c.is_zero() for c in comps)

    @classmethod
    def zero(cls, n):
        return cls(n, [expr.const(0.0)] * n)

    def values(self, x, p):
        return self._value(x=x, p=p)

    def dx(self, x, p):
        """[s][r] = dQ_r / dx^s."""
        return self._dx(x=x, p=p)

    def dp(self, x, p):
        """[r][s] = dQ_s / dp_r."""
        return self._dp(x=x, p=p)


def force_from_acceleration(lagrangian, accel):
    """Force covector reproducing a prescribed second-order acceleration.

    The acceleration components are expressions over (x, v) read as du/dt of
    the plain second-order system dx = u.  Supported for kinetic Lagrangians
    with identity vertical Hessian, where the conversion to relative form is
    the closed expression Q = omega * A(x, u) - 2 p <p | A(x, u)> with
    u = p / omega.
    """
    n = lagrangian.n
    kinetic = expr.parse("0.5*(" + "+".join(f"v{i+1}^2" for i in range(n)) + ")")
    if lagrangian.expr != kinetic:
        raise ValidationError(
            "acceleration", "closed-form conversion implemented for the "
            "unit kinetic Lagrangian only")
    accel = [expr.parse(a) if isinstance(a, str) else a for a in accel]
    omega = None
    for i in range(n):
        term = expr.mul(expr.sym("p", i + 1), expr.sym("p", i + 1))
        omega = term if omega is None else expr.add(omega, term)
    mapping = {expr.sym("v", i + 1): expr.div(expr.sym("p", i + 1), omega)
               for i in range(n)}
    a_at_u = [a.substitute(mapping) for a in accel]
    pa = None
    for i in range(n):
        term = expr.mul(expr.sym("p", i + 1), a_at_u[i])
        pa = term if pa is None else expr.add(pa, term)
    comps = [expr.sub(expr.mul(omega, a_at_u[i]),
                      expr.mul(expr.mul(expr.const(2.0), expr.sym("p", i + 1)), pa))
             for i in range(n)]
    return ForceField(n, comps)


@dataclass
class NewtonianSystem:
    model: HamiltonianModel
    force: ForceField

    def __post_init__(self):
        if self.force.n != self.model.n:
            raise ValidationError("force", "dimension differs from model")

    @property
    def n(self):
        return self.model.n

    @property
    def lagrangian(self):
        return self.model.lagrangian


def _check_omega(omega, where):
    bad = np.abs(omega) <= SINGULAR_CUTOFF
    if np.any(bad):
        raise DegenerateOmega(f"omega vanishes in {where}")


def rhs_p_array(system, x, p):
    data = system.model.partials(x, p, order=1)
    omega = np.sum(p * data.dp, axis=0)
    _check_omega(omega, "momentum-form right-hand side")
    dx = data.dp / omega
    dp = -data.dx / omega + system.force.values(x, p)
    return dx, dp


def rhs_p(system, costate):
    """Momentum-form relative dynamics at one point."""
    dx, dp = rhs_p_array(system, costate.x, costate.p)
    return dx, dp


def rhs_v_array(system, x, v):
    lag = system.lagrangian
    if lag is None:
        raise ValidationError("model", "velocity form needs a Lagrangian backing")
    lv = lag.lv(x, v)
    omega = np.sum(v * lv, axis=0)
    _check_omega(omega, "velocity-form right-hand side")
    dx = v / omega
    g = lag.lvv(x, v)
    q_at = system.force.values(x, lv)
    rhs = lag.lx(x, v) / omega + q_at - np.einsum("is...,s...->i...", lag.lvx(x, v), dx)
    dv = _solve_batch(g, rhs) if v.ndim > 1 else np.linalg.solve(g, rhs)
    return dx, dv


def rhs_v(system, state):
    """Velocity-form relative dynamics at one point."""
    dx, dv = rhs_v_array(system, state.x, state.v)
    return dx, dv


@dataclass
class Trajectory:
    t: np.ndarray           # (K+1,)
    xs: np.ndarray          # (K+1, n)
    fibers: np.ndarray      # (K+1, n)
    rep: str                # "momentum" or "velocity"
    h: float

    @property
    def n(self):
        return self.xs.shape[1]

    def state(self, k):
        if self.rep == "momentum":
            return CotangentState(self.xs[k], self.fibers[k])
        return TangentState(self.xs[k], self.fibers[k])

    def to_csv(self, target):
        fiber_names = ["p", "v"][self.rep == "velocity"]
        n = self.n
        header = "t," + ",".join(f"x{i+1}" for i in range(n)) + "," + \
            ",".join(f"{fiber_names}{i+1}" for i in range(n))
        own = isinstance(target, str)
        fh = open(target, "w", encoding="utf-8") if own else target
        try:
            fh.write(header + "\n")
            for k in range(len(self.t)):
                row = [repr(float(self.t[k]))]
                row += [repr(float(c)) for c in self.xs[k]]
                row += [repr(float(c)) for c in self.fibers[k]]
                fh.write(",".join(row) + "\n")
        finally:
            if own:
                fh.close()


def _steps(t_end, h):
    if h <= 0 or t_end <= 0:
        raise ValidationError("step", "t_end and h must be positive")
    steps = int(round(t_end / h))
    steps = max(steps, 1)
    return steps, t_end / steps


def _rk4(f, state, h, steps, record):
    """Generic fixed-step RK4 over a tuple-of-arrays state."""
    out = [record(state)]
    for k in range(steps):
        try:
            k1 = f(state)
            s2 = tuple(a + 0.5 * h * da for a, da in zip(state, k1))
            k2 = f(s2)
            s3 = tuple(a + 0.5 * h * da for a, da in zip(state, k2))
            k3 = f(s3)
            s4 = tuple(a + h * da for a, da in zip(state, k3))
            k4 = f(s4)
        except NslabNumericError as exc:
            raise type(exc)(f"{exc} (during step starting at t={k * h:.8g})") from exc
        state = tuple(a + (h / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
                      for a, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4))
        out.append(record(state))
    return out


def integrate(system, init, t_end, h):
    """Fixed-step RK4 trajectory from a tangent or cotangent initial state."""
    steps, h = _steps(t_end, h)
    if isinstance(init, CotangentState):
        f = lambda s: rhs_p_array(system, s[0], s[1])
        rep = "momentum"
        start = (init.x.copy(), init.p.copy())
    elif isinstance(init, TangentState):
        f = lambda s: rhs_v_array(system, s[0], s[1])
        rep = "velocity"
        start = (init.x.copy(), init.v.copy())
    else:
        raise ValidationError("init", "expected TangentState or CotangentState")
    rows = _rk4(f, start, h, steps, record=lambda s: (s[0].copy(), s[1].copy()))
    xs = np.array([r[0] for r in rows])
    fibers = np.array([r[1] for r in rows])
    t = np.arange(steps + 1) * h
    return Trajectory(t=t, xs=xs, fibers=fibers, rep=rep, h=h)


def integrate_batch(system, x0, p0, t_end, h):
    """Momentum-form RK4 for a batch of initial states sharing the grid.

    x0, p0: (B, n).  Returns (t, xs, ps) with xs, ps of shape (K+1, B, n).
    Batches integrate independently; the result is identical to row-by-row
    integration.
    """
    steps, h = _steps(t_end, h)
    X = np.asarray(x0, dtype=float).T.copy()
    P = np.asarray(p0, dtype=float).T.copy()
    f = lambda s: rhs_p_array(system, s[0], s[1])
    rows = _rk4(f, (X, P), h, steps, record=lambda s: (s[0].copy(), s[1].copy()))
    xs = np.array([r[0].T for r in rows])
    ps = np.array([r[1].T for r in rows])
    t = np.arange(steps + 1) * h
    return t, xs, ps
