"""Newtonian dynamical systems in relative form and their integration.

The primary parametrisation is the momentum form: dx^i = (dH/dp_i)/omega,
dp_i = -(dH/dx^i)/omega + Q_i, with the force covector Q authored over
(x, p).  The velocity form resolves the vertical Hessian against the time
derivative of the momentum covector.  Integration is fixed-step classical
fourth-order Runge-Kutta; trajectories on a shared time grid may be
integrated as one batch.  `rk4_step` is the package's one Runge-Kutta step
(the nu march uses it too), `_rk4` its one generator of the states of a
fixed-step integration (a trajectory, a batch, or a trajectory with its
variations), `rhs_p_variation` its one linearisation of the momentum form
and `write_csv`, which writes to a path, its one CSV writer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .calculus import (CotangentState, HamiltonianModel, TangentState, adj_solve,
                       check_hessian, check_omega, point_failure)
from .errors import NonFinite, NslabNumericError, ValidationError

# Rows a CSV writer formats per chunk: bounds the memory of the Python
# values of one chunk while keeping the per-chunk overhead negligible.
CSV_CHUNK = 4096


class ForceField:
    """Extended force covector Q_i(x, p), components as expression trees."""

    def __init__(self, n, comps):
        self.n = int(n)
        self.comps = comps = expr.components(comps, "force", (n,), {"x": n, "p": n})
        self._value = expr.Table(comps)
        self._dx = expr.Table(expr.gradient(comps, "x", n))
        self._dp = expr.Table(expr.gradient(comps, "p", n))
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
    accel = expr.components(accel, "acceleration", (n,), {"x": n, "v": n})
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


def _rhs_p(system, x, p, data):
    """(dx, dp, omega) of the momentum form from H's partials `data` at (x, p)."""
    omega = np.sum(p * data.dp, axis=0)
    check_omega(omega, "omega vanishes in momentum-form right-hand side", x=x, p=p)
    return data.dp / omega, -data.dx / omega + system.force.values(x, p), omega


def rhs_p_array(system, x, p, start=None):
    """Momentum-form right-hand side (dx, dp) and the velocity v = dH/dp.

    `start` is a velocity near v: a derived Hamiltonian starts its Newton
    inversion of the Legendre map there.
    """
    data = system.model.partials(x, p, order=1, start=start)
    dx, dp, _ = _rhs_p(system, x, p, data)
    return dx, dp, data.dp


def rhs_p_variation(system, x, p, H, omega, dX, dP):
    """The momentum form linearised at one point (x, p), from H's order-2
    partials H and omega there: the derivatives (dv, domega, dw) of
    v = dH/dp, omega = p.v and w = H_x/omega - Q along each row of the
    variations (dX, dP) of x and p.  dx = v/omega varies by
    (dv - domega dx)/omega and dp = -w by -dw."""
    dv = dX @ H.dxp + dP @ H.dpp
    dh = dX @ H.dxx + dP @ H.dxp.T
    dq = dX @ system.force.dx(x, p) + dP @ system.force.dp(x, p)
    domega = dP @ H.dp + dv @ p
    dw = dh / omega - np.outer(domega, H.dx) / omega**2 - dq
    return dv, domega, dw


def _momentum_rhs(system):
    """RK4 right-hand side over the state (x, p) in momentum form, or over
    (x, p, dX, dP) at one point, carrying rows of variations of x and p by
    rhs_p_variation.  Each call starts the Legendre inversion from the
    velocity of the previous call, one RK4 stage away, not a cold search."""
    velocity = None

    def f(state):
        nonlocal velocity
        x, p, *variation = state
        if not variation:
            dx, dp, velocity = rhs_p_array(system, x, p, start=velocity)
            return dx, dp
        H = system.model.partials(x, p, order=2, start=velocity)
        velocity = H.dp
        dx, dp, omega = _rhs_p(system, x, p, H)
        dv, domega, dw = rhs_p_variation(system, x, p, H, omega, *variation)
        return dx, dp, (dv - np.outer(domega, dx)) / omega, -dw

    return f


def rhs_v_array(system, x, v):
    lag = system.lagrangian
    if lag is None:
        raise ValidationError("model", "velocity form needs a Lagrangian backing")
    lv = lag.lv(x, v)
    omega = np.sum(v * lv, axis=0)
    check_omega(omega, "omega vanishes in velocity-form right-hand side", x=x, p=lv)
    dx = v / omega
    det, adj = check_hessian(lag.lvv(x, v), "vertical Hessian singular in velocity-form "
                             "right-hand side", x=x, p=lv)
    q_at = system.force.values(x, lv)
    rhs = lag.lx(x, v) / omega + q_at - np.einsum("is...,s...->i...", lag.lvx(x, v), dx)
    return dx, adj_solve(det, adj, rhs)


@dataclass
class Trajectory:
    t: np.ndarray           # (K+1,)
    xs: np.ndarray          # (K+1, n)
    fibers: np.ndarray      # (K+1, n)
    rep: str                # "momentum" or "velocity"
    h: float

    def state(self, k):
        if self.rep == "momentum":
            return CotangentState(self.xs[k], self.fibers[k])
        return TangentState(self.xs[k], self.fibers[k])


def write_csv(path, header, chunks):
    """Write the CSV file `path`: the `header` names, then the rows of each
    chunk in turn.  A chunk is a list of blocks (numeric arrays, one column
    if 1-D) holding one row per index of their leading axis, with the
    blocks' columns side by side.

    Rows are formatted CSV_CHUNK at a time, column by column, from
    `.tolist()` values: str of a Python float is its shortest round-trip
    repr, so output is byte-deterministic and does not depend on how the
    rows are split into chunks.  An object block may hold "" for an empty
    cell.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for blocks in chunks:
            blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
            for first in range(0, len(blocks[0]), CSV_CHUNK):
                cells = [list(map(str, column)) for b in blocks
                         for column in b[first:first + CSV_CHUNK].T.tolist()]
                fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


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


def _rk4(f, state, h, steps, names=("x", "p")):
    """Fixed-step RK4 of the autonomous system d state = f(state), as a
    generator of the states at every node, the initial one first (each step
    makes new arrays).  A numeric error keeps its point and gains the time
    of the step.  A state that is not finite after a step raises NonFinite
    naming its column and, under `names`, the coordinates of the state the
    step started from."""
    yield state
    for k in range(steps):
        # a state that overflows fails the finite check below, so numpy's
        # warnings on the way there would only repeat that error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                new = rk4_step(lambda c, s: f(s), state, h)
            except NslabNumericError as exc:
                exc.reason += f" (during step starting at t={k * h:.8g})"
                raise
        # per column of the batch shape of x, which every array of the state ends with
        finite = np.logical_and.reduce(
            [np.isfinite(a).reshape((-1,) + new[0].shape[1:]).all(axis=0) for a in new])
        if not finite.all():
            raise point_failure(
                NonFinite, f"state not finite after the step starting at t={k * h:.8g}",
                ~finite, **dict(zip(names, state)))
        state = new
        yield state


def integrate(system, init, t_end, h):
    """Fixed-step RK4 trajectory from a tangent or cotangent initial state."""
    steps, h = _steps(t_end, h)
    if isinstance(init, CotangentState):
        f = _momentum_rhs(system)
        rep = "momentum"
        start = (init.x.copy(), init.p.copy())
        names = ("x", "p")
    elif isinstance(init, TangentState):
        f = lambda s: rhs_v_array(system, s[0], s[1])
        rep = "velocity"
        start = (init.x.copy(), init.v.copy())
        names = ("x",)
    else:
        raise ValidationError("init", "expected TangentState or CotangentState")
    rows = list(_rk4(f, start, h, steps, names))
    xs = np.array([r[0] for r in rows])
    fibers = np.array([r[1] for r in rows])
    t = np.arange(steps + 1) * h
    return Trajectory(t=t, xs=xs, fibers=fibers, rep=rep, h=h)


def batch_steps(system, x0, p0, t_end, h):
    """Momentum-form RK4 for a batch of initial states sharing the grid,
    one time node at a time.

    x0, p0: (B, n).  Checks the step at once and returns an iterator of
    (t, x, p) with x, p of shape (B, n), the initial state first; each step
    is integrated when the iterator reaches it.  Batches integrate
    independently; the result is identical to row-by-row integration.
    """
    steps, h = _steps(t_end, h)
    X = np.asarray(x0, dtype=float).T.copy()
    P = np.asarray(p0, dtype=float).T.copy()
    states = _rk4(_momentum_rhs(system), (X, P), h, steps)
    return ((t, X.T, P.T) for t, (X, P) in zip(np.arange(steps + 1) * h, states))


def integrate_batch(system, x0, p0, t_end, h):
    """batch_steps collected: (t, xs, ps) with xs, ps of shape (K+1, B, n)."""
    t, xs, ps = zip(*batch_steps(system, x0, p0, t_end, h))
    return np.array(t), np.array(xs), np.array(ps)
