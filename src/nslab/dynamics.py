"""Newtonian dynamical systems in relative form and their integration.

The primary parametrisation is the momentum form: dx^i = (dH/dp_i)/omega,
dp_i = -(dH/dx^i)/omega + Q_i, with the force covector Q authored over
(x, p).  The velocity form resolves the vertical Hessian against the time
derivative of the momentum covector.  Integration is fixed-step classical
fourth-order Runge-Kutta; trajectories on a shared time grid may be
integrated as one batch.  `rk4_step` is the package's one Runge-Kutta step
(the nu march and the variational integrator use it too), and `write_csv`
its one CSV writer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .calculus import (CotangentState, HamiltonianModel, TangentState,
                       _Table, _solve_batch, check_omega)
from .errors import NonFinite, NslabNumericError, ValidationError

# Rows a CSV writer formats per chunk: bounds the memory of the Python
# values of one chunk while keeping the per-chunk overhead negligible.
CSV_CHUNK = 4096


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


def rhs_p_array(system, x, p, start=None):
    """Momentum-form right-hand side (dx, dp) and the velocity v = dH/dp.

    `start` is a velocity near v: a derived Hamiltonian starts its Newton
    inversion of the Legendre map there.
    """
    data = system.model.partials(x, p, order=1, start=start)
    omega = np.sum(p * data.dp, axis=0)
    check_omega(omega, "omega vanishes in momentum-form right-hand side", x=x, p=p)
    dx = data.dp / omega
    dp = -data.dx / omega + system.force.values(x, p)
    return dx, dp, data.dp


def rhs_p(system, costate):
    """Momentum-form relative dynamics at one point."""
    dx, dp, _ = rhs_p_array(system, costate.x, costate.p)
    return dx, dp


def _momentum_rhs(system):
    """RK4 right-hand side over the state (x, p) in momentum form.

    Each call starts the Legendre inversion from the velocity of the
    previous call, one RK4 stage away, instead of a cold search.
    """
    velocity = None

    def f(state):
        nonlocal velocity
        dx, dp, velocity = rhs_p_array(system, state[0], state[1], start=velocity)
        return dx, dp

    return f


def rhs_v_array(system, x, v):
    lag = system.lagrangian
    if lag is None:
        raise ValidationError("model", "velocity form needs a Lagrangian backing")
    lv = lag.lv(x, v)
    omega = np.sum(v * lv, axis=0)
    check_omega(omega, "omega vanishes in velocity-form right-hand side", x=x, p=lv)
    dx = v / omega
    g = lag.lvv(x, v)
    q_at = system.force.values(x, lv)
    rhs = lag.lx(x, v) / omega + q_at - np.einsum("is...,s...->i...", lag.lvx(x, v), dx)
    return dx, _solve_batch(g, rhs)


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
        fiber = ["p", "v"][self.rep == "velocity"]
        header = (["t"] + [f"x{i+1}" for i in range(self.n)]
                  + [f"{fiber}{i+1}" for i in range(self.n)])
        write_csv(target, header, [self.t, self.xs, self.fibers])


def write_csv(target, header, blocks):
    """Write a CSV file (a path or an open text file): the `header` names,
    then one row per index of the blocks' leading axis, with the columns of
    the blocks (numeric arrays, one column if 1-D) side by side.

    Rows are formatted CSV_CHUNK at a time, column by column, from
    `.tolist()` values: str of a Python float is its shortest round-trip
    repr, so output is byte-deterministic.  An object block may hold ""
    for an empty cell.
    """
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    own = isinstance(target, str)
    fh = open(target, "w", encoding="utf-8") if own else target
    try:
        fh.write(",".join(header) + "\n")
        for first in range(0, len(blocks[0]), CSV_CHUNK):
            cells = [list(map(str, column)) for b in blocks
                     for column in b[first:first + CSV_CHUNK].T.tolist()]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))
    finally:
        if own:
            fh.close()


def _steps(t_end, h):
    if h <= 0 or t_end <= 0:
        raise ValidationError("step", "t_end and h must be positive")
    steps = int(round(t_end / h))
    steps = max(steps, 1)
    return steps, t_end / steps


def rk4_step(f, state, h):
    """One classical fourth-order Runge-Kutta step over a tuple-of-arrays
    state.  f(c, state) returns the derivatives of the state; c in
    {0, 1/2, 1} is the fraction of the step at which the stage sits, for
    right-hand sides that depend on the independent variable."""
    s1 = f(0.0, state)
    s2 = f(0.5, tuple(a + 0.5 * h * da for a, da in zip(state, s1)))
    s3 = f(0.5, tuple(a + 0.5 * h * da for a, da in zip(state, s2)))
    s4 = f(1.0, tuple(a + h * da for a, da in zip(state, s3)))
    return tuple(a + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                 for a, k1, k2, k3, k4 in zip(state, s1, s2, s3, s4))


def _rk4(f, state, h, steps):
    """Fixed-step RK4 of the autonomous system d state = f(state); a numeric
    error keeps its point and gains the time of the step.  Returns the
    states at every node, the initial one first (each step makes new arrays)."""
    out = [state]
    for k in range(steps):
        try:
            state = rk4_step(lambda c, s: f(s), state, h)
        except NslabNumericError as exc:
            exc.reason += f" (during step starting at t={k * h:.8g})"
            raise
        finite = np.logical_and.reduce([np.isfinite(a).all(axis=0) for a in state])
        if not finite.all():
            raise NonFinite(f"state not finite after the step starting at t={k * h:.8g}",
                            index=int(np.flatnonzero(~finite)[0]) if finite.ndim else None)
        out.append(state)
    return out


def integrate(system, init, t_end, h):
    """Fixed-step RK4 trajectory from a tangent or cotangent initial state."""
    steps, h = _steps(t_end, h)
    if isinstance(init, CotangentState):
        f = _momentum_rhs(system)
        rep = "momentum"
        start = (init.x.copy(), init.p.copy())
    elif isinstance(init, TangentState):
        f = lambda s: rhs_v_array(system, s[0], s[1])
        rep = "velocity"
        start = (init.x.copy(), init.v.copy())
    else:
        raise ValidationError("init", "expected TangentState or CotangentState")
    rows = _rk4(f, start, h, steps)
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
    rows = _rk4(_momentum_rhs(system), (X, P), h, steps)
    xs = np.array([r[0].T for r in rows])
    ps = np.array([r[1].T for r in rows])
    t = np.arange(steps + 1) * h
    return t, xs, ps
