"""Newtonian dynamical systems in relative form and their integration.

The primary parametrisation is the momentum form: dx^i = (dH/dp_i)/omega,
dp_i = -(dH/dx^i)/omega + Q_i, with the force covector Q authored over
(x, p).  The velocity form resolves the vertical Hessian against the time
derivative of the momentum covector.  Integration is fixed-step classical
fourth-order Runge-Kutta; trajectories on a shared time grid may be
integrated as one batch.  `rk4_step` is the package's one Runge-Kutta step
(the nu march uses it too), `_rk4` its one generator of the states of a
fixed-step integration (a trajectory, a batch, or a trajectory with its
variations), `rhs_p_variation` its one linearisation of the momentum form,
`write_csv`, which writes to a path, its one CSV writer, and `replacing`
the one way every artifact file is written.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .calculus import (CotangentState, HamiltonianModel, TangentState, adj_solve,
                       check_hessian, check_omega, point_failure)
from .errors import NonFinite, NslabNumericError, ValidationError
from .tensorfields import ForceField

# Rows a CSV writer formats per chunk: bounds the memory of the Python
# values of one chunk while keeping the per-chunk overhead negligible.
CSV_CHUNK = 4096


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
    """RK4 right-hand side f(c, state) over the state (x, p) in momentum
    form, or over (x, p, dX, dP) at one point, carrying rows of variations
    of x and p by rhs_p_variation.  A derived Hamiltonian starts each
    stage's Legendre inversion near its velocity, extrapolated along the
    trajectory: a stage at fraction c > 0 of the step starts on the line
    through the velocities at the last two step starts, v_k + c (v_k -
    v_{k-1}); the stage at c = 0, and each stage of the first step, from
    the latest velocity (the very first cold).  A start that fails Newton
    repeats once from the cold search (invert_legendre_array)."""
    latest = now = before = None

    def f(c, state):
        nonlocal latest, now, before
        x, p, *variation = state
        start = latest if c == 0 or before is None else now + c * (now - before)
        if not variation:
            dx, dp, latest = rhs_p_array(system, x, p, start=start)
            out = dx, dp
        else:
            H = system.model.partials(x, p, order=2, start=start)
            latest = H.dp
            dx, dp, omega = _rhs_p(system, x, p, H)
            dv, domega, dw = rhs_p_variation(system, x, p, H, omega, *variation)
            out = dx, dp, (dv - np.outer(domega, dx)) / omega, -dw
        if c == 0:
            before, now = now, latest
        return out

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


def write_csv(path, header, chunks):
    """Write the CSV file `path`: the `header` names, then the rows of each
    chunk in turn.  A chunk is a list of blocks (numeric arrays, one column
    if 1-D) holding one row per index of their leading axis, with the
    blocks' columns side by side.

    Rows are formatted CSV_CHUNK at a time, block by block: a cell is str
    of its `.tolist()` value, and str of a Python float is its shortest
    round-trip repr, so output is byte-deterministic and does not depend on
    how the rows are split into chunks.  A float64 block formats each
    distinct bit pattern of its rows once (np.unique over an int64 view, so
    -0.0 and 0.0 stay apart) and gathers its cells through the inverse;
    the bytes are those of formatting every cell.  An object block may hold
    "" for an empty cell.

    Each chunk is checked before its rows are written: blocks of different
    row counts, or columns that do not add up to the header's width, raise
    ValueError.  The rows go to `path`.part, renamed to `path` once complete
    (see `replacing`).
    """
    with replacing(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for blocks in chunks:
            blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
            rows = sorted({len(b) for b in blocks})
            if len(rows) > 1:
                raise ValueError(f"{path}: blocks of one chunk have {rows} rows")
            width = sum(b.shape[1] for b in blocks)
            if width != len(header):
                raise ValueError(f"{path}: a chunk has {width} columns, "
                                 f"the header {len(header)}")
            for first in range(0, len(blocks[0]), CSV_CHUNK):
                cells = [column for b in blocks
                         for column in _columns(b[first:first + CSV_CHUNK])]
                fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


@contextlib.contextmanager
def replacing(path, mode):
    """The file `path`.part opened for writing in `mode` ("w", text in
    UTF-8, or "wb"), renamed to `path` once the block completes: after any
    error the part is removed, and `path` is left as it was."""
    part = path + ".part"
    try:
        with open(part, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def _columns(block):
    """The text of each column of a 2-D block, as lists of str."""
    if block.dtype != np.float64:
        return [list(map(str, column)) for column in block.T.tolist()]
    keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
    text = np.array(list(map(str, keys.view(np.float64).tolist())), dtype=object)
    # numpy 1.x returns the inverse flat, 2.x in the block's shape
    return text[inverse.reshape(block.shape)].T.tolist()


def time_steps(t_end, h):
    """(steps, h): the number of fixed RK4 steps to t_end, and their size."""
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
    """Fixed-step RK4 of the autonomous system d state = f(c, state), where
    c, the fraction of the step at which a stage sits (see rk4_step), only
    tells f where its stage is, as a generator of the states at every node,
    the initial one first (each step makes new arrays).  A numeric error keeps its point and gains the time
    of the step.  A state that is not finite after a step raises NonFinite
    naming its column and, under `names`, the coordinates of the state the
    step started from."""
    yield state
    for k in range(steps):
        # a state that overflows fails the finite check below, so numpy's
        # warnings on the way there would only repeat that error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                new = rk4_step(f, state, h)
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
    steps, h = time_steps(t_end, h)
    if isinstance(init, CotangentState):
        f = _momentum_rhs(system)
        rep = "momentum"
        start = (init.x.copy(), init.p.copy())
        names = ("x", "p")
    elif isinstance(init, TangentState):
        f = lambda c, s: rhs_v_array(system, s[0], s[1])
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
    steps, h = time_steps(t_end, h)
    X = np.asarray(x0, dtype=float).T.copy()
    P = np.asarray(p0, dtype=float).T.copy()
    states = _rk4(_momentum_rhs(system), (X, P), h, steps)
    return ((t, X.T, P.T) for t, (X, P) in zip(np.arange(steps + 1) * h, states))


def integrate_batch(system, x0, p0, t_end, h):
    """batch_steps collected: (t, xs, ps) with xs, ps of shape (K+1, B, n)."""
    t, xs, ps = zip(*batch_steps(system, x0, p0, t_end, h))
    return np.array(t), np.array(xs), np.array(ps)
