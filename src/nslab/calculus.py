"""Lagrangian and Hamiltonian models on a single global chart.

A LagrangianModel wraps an expression L(x, v) together with its symbolic
partials up to total order three; a HamiltonianModel either derives H(x, p)
from L through the inverse Legendre map or wraps a user-supplied expression.
All evaluators accept a single point (arrays of shape (n,)) or a batch
(arrays of shape (n, B)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .errors import (DegenerateOmega, NonConvergence, NonFinite,
                     SingularJacobian, ValidationError)

NEWTON_TOL = 1e-12
SINGULAR_CUTOFF = 1e-14
DERIV_RTOL = 1e-6


def _finite(name, a):
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValidationError(name, "entries must be finite")
    return a


@dataclass(frozen=True)
class ChartPoint:
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _finite("x", self.x))

    @property
    def n(self):
        return len(self.x)


@dataclass(frozen=True)
class TangentState:
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _finite("x", self.x))
        object.__setattr__(self, "v", _finite("v", self.v))
        if self.x.shape != self.v.shape:
            raise ValidationError("v", "shape must match x")

    @property
    def n(self):
        return len(self.x)


@dataclass(frozen=True)
class CotangentState:
    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _finite("x", self.x))
        object.__setattr__(self, "p", _finite("p", self.p))
        if self.x.shape != self.p.shape:
            raise ValidationError("p", "shape must match x")

    @property
    def n(self):
        return len(self.x)


@dataclass(frozen=True)
class VerticalMetric:
    g: np.ndarray
    g_inv: np.ndarray


def point_failure(cls, message, bad, **coords):
    """Error `cls` naming the first point of a batch at which `bad` holds.

    `bad` has the batch shape B of the coordinate arrays `coords` (some of
    `x`, `p`, `y`), each of shape (k, *B).
    """
    k = int(np.flatnonzero(bad)[0])
    named = {}
    for name, a in coords.items():
        a = np.asarray(a, dtype=float)
        named[name] = a.reshape(len(a), -1)[:, k].tolist()
    return cls(message, index=k, **named)


def check_omega(omega, message, **coords):
    """DegenerateOmega naming the first point where |omega| <= SINGULAR_CUTOFF;
    `coords` are passed to point_failure."""
    bad = np.abs(omega) <= SINGULAR_CUTOFF
    if np.any(bad):
        raise point_failure(DegenerateOmega, message, bad, **coords)


def _batch_shape(*arrays):
    for a in arrays:
        if a is not None and np.ndim(a) > 1:
            return np.shape(a)[1:]
    return ()


class _Table:
    """A nested array of expressions compiled to one evaluator."""

    def __init__(self, nested):
        arr = np.asarray(nested, dtype=object)
        self.shape = arr.shape
        self.exprs = arr
        self.fns = [e.fn() for e in arr.ravel()]

    def __call__(self, **env):
        bshape = _batch_shape(*env.values())
        vals = [f(**env) for f in self.fns]
        try:
            out = np.asarray(vals, dtype=float)
            if out.shape != (len(vals),) + bshape:
                raise ValueError
        except ValueError:
            # ragged mix of constants and arrays: broadcast explicitly
            out = np.stack([np.broadcast_to(np.asarray(v, dtype=float), bshape)
                            for v in vals])
        return out.reshape(self.shape + bshape)


class LagrangianModel:
    """L(x, v) with cached symbolic partials to total order three.

    Regularity (positive omega away from v = 0 and invertible vertical
    Hessian) is a property of the declared domain; it is checked by
    check_regularity, not enforced at construction.
    """

    def __init__(self, n, lagrangian):
        if isinstance(lagrangian, str):
            lagrangian = expr.parse(lagrangian)
        expr.check_symbols(lagrangian, n, kinds=("x", "v"), where="lagrangian")
        self.n = int(n)
        self.expr = lagrangian
        xs = [expr.sym("x", i + 1) for i in range(n)]
        vs = [expr.sym("v", i + 1) for i in range(n)]
        dv = [lagrangian.diff(s) for s in vs]
        dx = [lagrangian.diff(s) for s in xs]
        dvv = [[e.diff(s) for s in vs] for e in dv]
        dvx = [[e.diff(s) for s in xs] for e in dv]
        dxx = [[e.diff(s) for s in xs] for e in dx]
        self._exprs = {"v": dv, "x": dx, "vv": dvv, "vx": dvx, "xx": dxx,
                       "vvv": [[[e.diff(s) for s in vs] for e in row] for row in dvv],
                       "vvx": [[[e.diff(s) for s in xs] for e in row] for row in dvv],
                       "vxx": [[[e.diff(s) for s in xs] for e in row] for row in dvx]}
        self._tables = {"L": _Table([lagrangian])}
        self.is_velocity_quadratic = all(
            e.is_zero() for plane in self._exprs["vvv"] for row in plane for e in row)

    def table(self, key):
        tab = self._tables.get(key)
        if tab is None:
            tab = _Table(self._exprs[key])
            self._tables[key] = tab
        return tab

    def value(self, x, v):
        return self.table("L")(x=x, v=v)[0]

    def lv(self, x, v):
        return self.table("v")(x=x, v=v)

    def lx(self, x, v):
        return self.table("x")(x=x, v=v)

    def lvv(self, x, v):
        return self.table("vv")(x=x, v=v)

    def lvx(self, x, v):
        return self.table("vx")(x=x, v=v)

    def lxx(self, x, v):
        return self.table("xx")(x=x, v=v)

    def lvvv(self, x, v):
        return self.table("vvv")(x=x, v=v)

    def lvvx(self, x, v):
        return self.table("vvx")(x=x, v=v)

    def lvxx(self, x, v):
        return self.table("vxx")(x=x, v=v)


def omega_v(model, state):
    """Homogeneity denominator sum_i v^i dL/dv^i at a tangent state."""
    return float(np.dot(state.v, model.lv(state.x, state.v)))


def legendre(model, state):
    """Momentum covector p_i = dL/dv^i; the base point is unchanged."""
    return CotangentState(state.x, model.lv(state.x, state.v))


def mu_map(model, state):
    """Velocity of the modified flow, u^i = v^i / omega."""
    om = omega_v(model, state)
    check_omega(om, "omega vanishes in u = v/omega", x=state.x)
    return state.v / om


def vertical_metrics(model, state):
    """Vertical Hessian g_ij = d^2 L / dv^i dv^j and its inverse."""
    g = model.lvv(state.x, state.v)
    det = np.linalg.det(g)
    if abs(det) < SINGULAR_CUTOFF:
        raise SingularJacobian(f"det g = {det:.3e} below cutoff")
    return VerticalMetric(g=g, g_inv=np.linalg.inv(g))


def _solve_batch(g, rhs):
    """Solve g[:, :, b] z[:, b] = rhs[:, b] for every batch column."""
    gT = np.moveaxis(g, (0, 1), (-2, -1))
    rT = np.moveaxis(rhs, 0, -1)[..., None]
    try:
        sol = np.linalg.solve(gT, rT)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(str(exc)) from exc
    return np.moveaxis(sol[..., 0], -1, 0)


def _scale_search_start(model, x, p):
    """Pick v0 = s*p by minimising the Legendre residual over a log grid.

    Robust starting point for fiber-nonlinear models where neither v0 = p
    nor a quadratic estimate lands in the Newton basin for large momenta.
    x and p have shape (n, B).
    """
    scales = 2.0 ** np.arange(-30.0, 11.0)
    n, b = p.shape
    vs = p[:, None, :] * scales[None, :, None]          # (n, S, B)
    xs = np.broadcast_to(x[:, None, :], vs.shape)
    res = (model.lv(xs.reshape(n, -1), vs.reshape(n, -1))
           - p[:, None, :].repeat(len(scales), 1).reshape(n, -1))
    res = np.abs(res).max(axis=0).reshape(len(scales), b)
    res = np.where(np.isfinite(res), res, np.inf)
    return p * scales[np.argmin(res, axis=0)][None, :]


def _newton(model, x, p, v, max_iter):
    """Damped Newton iteration for lv(x, v) = p from the start v.

    Returns (v, iterations, error): `error` is the exception to raise, or
    None once every column meets the tolerance.
    """
    tol = NEWTON_TOL * np.maximum(1.0, np.abs(p).max(axis=0))
    F = model.lv(x, v) - p
    res = np.abs(F).max(axis=0)
    iterations = 0
    for it in range(max_iter):
        done = res <= tol
        if done.all():
            break
        iterations = it + 1
        g = model.lvv(x, v)
        det = np.linalg.det(np.moveaxis(g, (0, 1), (-2, -1)))
        singular = ~done & (np.abs(det) < SINGULAR_CUTOFF)
        if singular.any():
            return v, iterations, point_failure(
                SingularJacobian, "vertical Hessian singular during Legendre inversion",
                singular, x=x, p=p)
        if done.any():
            # converged columns take no step, and their Hessian may be singular (p = 0)
            step = np.zeros_like(v)
            step[:, ~done] = _solve_batch(g[:, :, ~done], F[:, ~done])
        else:
            step = _solve_batch(g, F)
        new_v = v - step
        new_F = model.lv(x, new_v) - p
        new_res = np.abs(new_F).max(axis=0)
        for _ in range(25):
            worse = ~done & (new_res > res) & (res > tol)
            if not worse.any():
                break
            step[:, worse] *= 0.5
            new_v = v - step
            new_F = model.lv(x, new_v) - p
            new_res = np.abs(new_F).max(axis=0)
        v, F, res = new_v, new_F, new_res
    else:
        return v, iterations, NonConvergence(
            f"Legendre inversion: residual {res.max():.3e} after {max_iter} iterations")
    if np.any(res > tol):
        return v, iterations, NonConvergence(
            f"Legendre inversion stalled at residual {res.max():.3e}")
    return v, iterations, None


def invert_legendre_array(model, x, p, start=None, max_iter=50):
    """Newton inversion of the Legendre map, batched over trailing axes.

    Returns (v, iterations). Residual target is 1e-12 relative to the
    momentum scale per point.  `start`, shaped like p, is a velocity near
    the solution (the previous stage's dH/dp along a trajectory); Newton
    starts there, and repeats once from the log-scale search if that
    fails or `start` is not finite.  Velocity-quadratic models ignore it:
    their closed-form start is already exact.  A momentum that is not
    finite raises NonFinite naming its column before any iteration.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    if single:
        x = x[:, None]
        p = p[:, None]
    bad = ~np.isfinite(p).all(axis=0)
    if bad.any():
        raise point_failure(NonFinite, "momentum not finite in Legendre inversion",
                            bad, x=x, p=p)
    iterations = 0
    if model.is_velocity_quadratic:
        zero = np.zeros_like(p)
        g = model.lvv(x, zero)
        singular = np.abs(np.linalg.det(np.moveaxis(g, (0, 1), (-2, -1)))) < SINGULAR_CUTOFF
        if singular.any():
            raise point_failure(SingularJacobian,
                                "vertical Hessian singular in closed-form Legendre inversion",
                                singular, x=x, p=p)
        v, iterations, error = _newton(model, x, p, _solve_batch(g, p - model.lv(x, zero)),
                                       max_iter)
    else:
        cold = start is None or not np.isfinite(start).all()
        if not cold:
            warm = np.asarray(start, dtype=float).reshape(p.shape)
            v, iterations, error = _newton(model, x, p, warm, max_iter)
            cold = error is not None
        if cold:
            v, cold_iterations, error = _newton(model, x, p,
                                                _scale_search_start(model, x, p), max_iter)
            iterations += cold_iterations
    if error is not None:
        raise error
    if single:
        return v[:, 0], iterations
    return v, iterations


def inverse_legendre(model, costate, return_iterations=False):
    """Velocity v with legendre(model, (x, v)) = p, by damped Newton."""
    v, iters = invert_legendre_array(model, costate.x, costate.p)
    state = TangentState(costate.x, v)
    if return_iterations:
        return state, iters
    return state


@dataclass
class HamiltonianData:
    value: float
    dp: np.ndarray = None
    dx: np.ndarray = None
    dpp: np.ndarray = None
    dxp: np.ndarray = None
    dxx: np.ndarray = None


class HamiltonianModel:
    """H(x, p): either derived from a Lagrangian or a supplied expression.

    dxp is indexed [q][k] = d^2 H / dx^q dp_k.
    """

    def __init__(self, n, source, lagrangian=None, expression=None):
        self.n = int(n)
        self.source = source
        self.lagrangian = lagrangian
        self.expr = expression
        if source == "expression":
            if isinstance(expression, str):
                self.expr = expr.parse(expression)
            expr.check_symbols(self.expr, n, kinds=("x", "p"), where="hamiltonian")
            xs = [expr.sym("x", i + 1) for i in range(n)]
            ps = [expr.sym("p", i + 1) for i in range(n)]
            dp = [self.expr.diff(s) for s in ps]
            dx = [self.expr.diff(s) for s in xs]
            self._tables = {
                "H": _Table([self.expr]),
                "p": _Table(dp),
                "x": _Table(dx),
                "pp": _Table([[e.diff(s) for s in ps] for e in dp]),
                "xp": _Table([[e.diff(s) for s in ps] for e in dx]),
                "xx": _Table([[e.diff(s) for s in xs] for e in dx]),
            }
        elif source != "derived":
            raise ValidationError("source", f"unknown Hamiltonian source {source!r}")
        if source == "derived" and lagrangian is None:
            raise ValidationError("lagrangian", "derived Hamiltonian requires a Lagrangian")

    @classmethod
    def from_lagrangian(cls, lag):
        return cls(lag.n, "derived", lagrangian=lag)

    @classmethod
    def from_expression(cls, n, expression, lagrangian=None):
        return cls(n, "expression", lagrangian=lagrangian, expression=expression)

    def partials(self, x, p, order=2, start=None):
        """Value and partials of H at (x, p); batched over trailing axes.

        `start` is a velocity near dH/dp, passed to the Legendre inversion of
        a derived Hamiltonian as its Newton start.
        """
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        if self.source == "expression":
            data = HamiltonianData(value=self._tables["H"](x=x, p=p)[0])
            if order >= 1:
                data.dp = self._tables["p"](x=x, p=p)
                data.dx = self._tables["x"](x=x, p=p)
            if order >= 2:
                data.dpp = self._tables["pp"](x=x, p=p)
                data.dxp = self._tables["xp"](x=x, p=p)
                data.dxx = self._tables["xx"](x=x, p=p)
            return data
        lag = self.lagrangian
        v, _ = invert_legendre_array(lag, x, p, start=start)
        value = np.sum(p * v, axis=0) - lag.value(x, v)
        data = HamiltonianData(value=value)
        if order >= 1:
            data.dp = v
            data.dx = -lag.lx(x, v)
        if order >= 2:
            g = lag.lvv(x, v)
            gT = np.moveaxis(g, (0, 1), (-2, -1))
            singular = np.abs(np.linalg.det(gT)) < SINGULAR_CUTOFF
            if singular.any():
                raise point_failure(SingularJacobian,
                                    "vertical Hessian singular in derived Hamiltonian",
                                    singular, x=x, p=p)
            ginv = np.moveaxis(np.linalg.inv(gT), (-2, -1), (0, 1))
            lvx = lag.lvx(x, v)
            data.dpp = ginv
            # d^2H/dx^q dp_k = dV^k/dx^q = -sum_i ginv[k,i] lvx[i,q]
            data.dxp = -np.einsum("ki...,iq...->qk...", ginv, lvx)
            lxx = lag.lxx(x, v)
            data.dxx = -lxx + np.einsum("iq...,ik...,kr...->qr...", lvx, ginv, lvx)
        return data


def hamiltonian_eval(model, costate, order=2):
    """H and requested partials at one cotangent state."""
    return model.partials(costate.x, costate.p, order=order)


def omega_p(model, costate):
    """Homogeneity denominator sum_i p_i dH/dp_i at a cotangent state."""
    data = model.partials(costate.x, costate.p, order=1)
    return float(np.dot(costate.p, data.dp))


@dataclass
class SampleDomain:
    """Box in x and a radius range for fiber sampling."""
    x_box: np.ndarray          # (n, 2) lower/upper
    fiber_range: tuple = (0.1, 10.0)
    count: int = 100
    seed: int = 0

    def sample(self, n):
        rng = np.random.default_rng(np.random.PCG64(self.seed))
        box = np.asarray(self.x_box, dtype=float)
        if box.shape != (n, 2):
            raise ValidationError("x_box", f"expected shape ({n}, 2)")
        xs = rng.uniform(box[:, 0], box[:, 1], size=(self.count, n)).T
        direction = rng.normal(size=(self.count, n))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.uniform(self.fiber_range[0], self.fiber_range[1], size=self.count)
        fibers = (direction * radius[:, None]).T
        return xs, fibers


@dataclass
class RegularityReport:
    count: int
    min_omega: float
    min_abs_det: float
    max_roundtrip: float
    omega_positive: bool
    det_ok: bool
    roundtrip_ok: bool
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return self.omega_positive and self.det_ok and self.roundtrip_ok


def check_regularity(model, domain):
    """Sampled regularity check: omega > 0 off the zero section, invertible
    vertical Hessian, and Legendre roundtrip within 1e-8."""
    xs, vs = domain.sample(model.n)
    failures = []
    omega = np.einsum("ib,ib->b", vs, model.lv(xs, vs))
    g = model.lvv(xs, vs)
    det = np.linalg.det(np.moveaxis(g, (0, 1), (-2, -1)))
    min_omega = float(omega.min())
    min_det = float(np.abs(det).min())
    try:
        ps = model.lv(xs, vs)
        v_back, _ = invert_legendre_array(model, xs, ps)
        roundtrip = float(np.abs(v_back - vs).max())
    except (NonConvergence, SingularJacobian) as exc:
        roundtrip = float("inf")
        failures.append(f"legendre roundtrip failed: {exc}")
    omega_ok = min_omega > 0.0
    det_ok = min_det > 1e-10
    rt_ok = roundtrip <= 1e-8
    if not omega_ok:
        failures.append(f"min omega = {min_omega:.3e} not positive")
    if not det_ok:
        failures.append(f"min |det g| = {min_det:.3e} too small")
    if not rt_ok:
        failures.append(f"max roundtrip error = {roundtrip:.3e} above 1e-8")
    return RegularityReport(count=domain.count, min_omega=min_omega,
                            min_abs_det=min_det, max_roundtrip=roundtrip,
                            omega_positive=omega_ok, det_ok=det_ok,
                            roundtrip_ok=rt_ok, failures=failures)
