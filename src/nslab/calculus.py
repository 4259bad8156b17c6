"""Lagrangian and Hamiltonian models on a single global chart.

A LagrangianModel wraps an expression L(x, v) together with its symbolic
partials up to total order three; a HamiltonianModel either derives H(x, p)
from L through the inverse Legendre map or wraps a user-supplied expression.
Construction builds the partials to order two, which a run reads; the
third-order partials of L are derived on first use.
All evaluators accept a single point (arrays of shape (n,)) or a batch
(arrays of shape (n, B)).  Every determinant, solve and inverse of a square
matrix comes from det_adj, one closed-form cofactor kernel per dimension.
The Legendre map is inverted by one damped Newton iteration, _newton; a
velocity-quadratic model starts it at v = 0, where its first step is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import expr
from .errors import (DegenerateOmega, NonConvergence, NonFinite,
                     SingularJacobian, ValidationError)

NEWTON_TOL = 1e-12
SINGULAR_CUTOFF = 1e-14
NEWTON_MAX_ITER = 50


def _finite(name, a):
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValidationError(name, "entries must be finite")
    return a


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

    def __len__(self):
        """Number of points: the size of the batch axes, 1 for a single point."""
        return math.prod(self.x.shape[1:])


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


@cache
def _det_adj_table(n):
    """The Table of det g and the entries of adj g in C order, in the symbols
    x1..x<n*n> that stand for the entries of g in C order; built once per n."""
    g = [[expr.sym("x", n * i + j + 1) for j in range(n)] for i in range(n)]
    return expr.Table([expr.det(g)] + [e for row in expr.adjugate(g) for e in row])


def det_adj(g):
    """(det g, adj g) for a stack g of shape (n, n, *B) of square matrices, in
    closed form by one generated cofactor kernel: det has shape B and adj the
    shape of g, with adj g . g = det g I.  Each column is computed by the
    same elementwise arithmetic, so a batch agrees bit for bit with
    point-by-point calls."""
    n = len(g)
    out = _det_adj_table(n)(x=g.reshape(n * n, *g.shape[2:]))
    return out[0], out[1:].reshape(g.shape)


def adj_solve(det, adj, rhs):
    """g^-1 rhs as adj . rhs / det for (det, adj) = det_adj(g) and rhs of
    shape (n, *B), the products summed in index order, so a batch agrees
    bit for bit with point-by-point calls."""
    z = adj[:, 0] * rhs[0]
    for j in range(1, len(rhs)):
        z += adj[:, j] * rhs[j]
    return z / det


def check_hessian(g, message, **coords):
    """SingularJacobian naming the first point where |det g| < SINGULAR_CUTOFF,
    for g of shape (n, n, *B); `coords` are passed to point_failure.  Returns
    det_adj(g) for the caller's solve or inverse."""
    det, adj = det_adj(g)
    bad = np.abs(det) < SINGULAR_CUTOFF
    if np.any(bad):
        raise point_failure(SingularJacobian, message, bad, **coords)
    return det, adj


class _DerivativeTables(dict):
    """Tables of an expression, under `name`, and of its partials: the table
    of a key is the gradient of the table its key extends by one symbol
    kind, with the new index last (key "vx" holds d2/dv^i dx^j at [i][j]).
    The keys in `eager` are built at construction, any other on first use."""

    def __init__(self, n, name, expression, eager):
        super().__init__({name: expr.Table(expression)})
        self.n, self.name = n, name
        for key in eager:
            self[key]

    def __missing__(self, key):
        parent = self[key[:-1] or self.name].exprs
        table = self[key] = expr.Table(expr.gradient(parent, key[-1], self.n, axis=-1))
        return table


class LagrangianModel:
    """L(x, v) with symbolic partials to total order three: those to order
    two are built at construction, the third-order ones on first use.

    Regularity (positive omega away from v = 0 and invertible vertical
    Hessian) is a property of the declared domain; it is checked by
    check_regularity, not enforced at construction.
    """

    def __init__(self, n, lagrangian):
        lagrangian = expr.component(lagrangian, "lagrangian", {"x": n, "v": n})
        self.n = int(n)
        self.expr = lagrangian
        self.tables = _DerivativeTables(n, "L", lagrangian, ("v", "x", "vv", "vx", "xx"))
        # every entry of L_vvv is zero; stops at the first that is not
        self.is_velocity_quadratic = all(e.diff(expr.sym("v", k + 1)).is_zero()
                                         for k in range(n) for e in self.tables["vv"].exprs.flat)

    def value(self, x, v):
        return self.tables["L"](x=x, v=v)

    def lv(self, x, v):
        return self.tables["v"](x=x, v=v)

    def lx(self, x, v):
        return self.tables["x"](x=x, v=v)

    def lvv(self, x, v):
        return self.tables["vv"](x=x, v=v)

    def lvx(self, x, v):
        return self.tables["vx"](x=x, v=v)

    def lxx(self, x, v):
        return self.tables["xx"](x=x, v=v)

    def lvvv(self, x, v):
        return self.tables["vvv"](x=x, v=v)

    def lvvx(self, x, v):
        return self.tables["vvx"](x=x, v=v)

    def lvxx(self, x, v):
        return self.tables["vxx"](x=x, v=v)


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
    det, adj = check_hessian(g, "vertical Hessian singular", x=state.x)
    return VerticalMetric(g=g, g_inv=adj / det)


SEARCH_SCALES = 2.0 ** np.arange(-30.0, 11.0)
# The start search evaluates L_v on at most this many columns at once (or on
# one scale's worth, B columns, if B is larger): every scale of a search over
# at most 256 columns in one evaluation.
SEARCH_COLUMNS = len(SEARCH_SCALES) * 256


def _scale_search_start(model, x, p):
    """Pick v0 = s*p by minimising the Legendre residual over a log grid.

    Robust starting point for fiber-nonlinear models where neither v0 = p
    nor a quadratic estimate lands in the Newton basin for large momenta.
    x and p have shape (n, B).  Each column takes the first scale of least
    residual, a non-finite residual counting as infinite (the first scale if
    none is finite); the scales are tried in groups of SEARCH_COLUMNS // B,
    keeping the running first minimum.
    """
    n, b = p.shape
    group = max(1, SEARCH_COLUMNS // b)
    best = np.full(b, np.inf)
    pick = np.zeros(b, dtype=int)
    for first in range(0, len(SEARCH_SCALES), group):
        scales = SEARCH_SCALES[first:first + group]
        vs = p[:, None, :] * scales[None, :, None]          # (n, S, B)
        xs = np.broadcast_to(x[:, None, :], vs.shape)
        lv = model.lv(xs.reshape(n, -1), vs.reshape(n, -1)).reshape(vs.shape)
        res = np.abs(lv - p[:, None, :]).max(axis=0)         # (S, B)
        res = np.where(np.isfinite(res), res, np.inf)
        least = res.min(axis=0)
        better = least < best
        best[better] = least[better]
        pick[better] = first + np.argmin(res[:, better], axis=0)
    return p * SEARCH_SCALES[pick][None, :]


def _newton(model, x, p, v):
    """Damped Newton iteration for lv(x, v) = p from the start v.

    Returns (v, iterations, error): `error` is the exception to raise, or
    None once every column meets the tolerance.
    """
    tol = NEWTON_TOL * np.maximum(1.0, np.abs(p).max(axis=0))
    F = model.lv(x, v) - p
    res = np.abs(F).max(axis=0)
    iterations = 0
    for it in range(NEWTON_MAX_ITER):
        done = res <= tol
        if done.all():
            break
        iterations = it + 1
        # converged columns take no step, and their Hessian may be singular (p = 0)
        cols = ~done if done.any() else slice(None)
        det, adj = det_adj(model.lvv(x[:, cols], v[:, cols]))
        singular = np.abs(det) < SINGULAR_CUTOFF
        if singular.any():
            bad = np.zeros_like(done)
            bad[cols] = singular
            return v, iterations, point_failure(
                SingularJacobian, "vertical Hessian singular during Legendre inversion",
                bad, x=x, p=p)
        step = np.zeros_like(v)
        step[:, cols] = adj_solve(det, adj, F[:, cols])
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
            f"Legendre inversion: residual {res.max():.3e} after {NEWTON_MAX_ITER} iterations")
    if np.any(res > tol):
        return v, iterations, NonConvergence(
            f"Legendre inversion stalled at residual {res.max():.3e}")
    return v, iterations, None


def invert_legendre_array(model, x, p, start=None):
    """Newton inversion of the Legendre map, batched over trailing axes.

    Returns (v, iterations). Residual target is 1e-12 relative to the
    momentum scale per point.  `start`, shaped like p, is a velocity near
    the solution (the previous stage's dH/dp along a trajectory); Newton
    starts there, and repeats once from the log-scale search if that
    fails or `start` is not finite.  Velocity-quadratic models ignore it:
    Newton starts at v = 0, and its first step, adj.(p - L_v(x, 0))/det
    of L_vv(x, 0), is already exact.  A momentum that is not
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
        # L_v is affine in v: the first Newton step from v = 0 is exact
        v, iterations, error = _newton(model, x, p, np.zeros_like(p))
    else:
        cold = start is None or not np.isfinite(start).all()
        if not cold:
            warm = np.asarray(start, dtype=float).reshape(p.shape)
            v, iterations, error = _newton(model, x, p, warm)
            cold = error is not None
        if cold:
            v, cold_iterations, error = _newton(model, x, p, _scale_search_start(model, x, p))
            iterations += cold_iterations
    if error is not None:
        raise error
    if single:
        return v[:, 0], iterations
    return v, iterations


@dataclass
class HamiltonianData:
    value: float = None
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
            self.expr = expr.component(expression, "hamiltonian", {"x": n, "p": n})
            self._tables = _DerivativeTables(n, "H", self.expr, ("p", "x", "pp", "xp", "xx"))
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
        """The value of H at (x, p) for order 0, its partials up to `order`
        otherwise (no right-hand side reads the value); batched over
        trailing axes.

        `start` is a velocity near dH/dp, passed to the Legendre inversion of
        a derived Hamiltonian as its Newton start.
        """
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        if self.source == "expression":
            data = HamiltonianData()
            if order == 0:
                data.value = self._tables["H"](x=x, p=p)
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
        data = HamiltonianData()
        if order == 0:
            data.value = np.sum(p * v, axis=0) - lag.value(x, v)
        if order >= 1:
            data.dp = v
            data.dx = -lag.lx(x, v)
        if order >= 2:
            det, adj = check_hessian(lag.lvv(x, v),
                                     "vertical Hessian singular in derived Hamiltonian", x=x, p=p)
            ginv = adj / det
            lvx = lag.lvx(x, v)
            data.dpp = ginv
            # d^2H/dx^q dp_k = dV^k/dx^q = -sum_i ginv[k,i] lvx[i,q]
            data.dxp = -np.einsum("ki...,iq...->qk...", ginv, lvx)
            lxx = lag.lxx(x, v)
            data.dxx = -lxx + np.einsum("iq...,ik...,kr...->qr...", lvx, ginv, lvx)
        return data


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
    det, _ = det_adj(model.lvv(xs, vs))
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
