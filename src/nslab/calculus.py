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


@dataclass(frozen=True)
class CotangentState:
    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _finite("x", self.x))
        object.__setattr__(self, "p", _finite("p", self.p))
        if self.x.shape != self.p.shape:
            raise ValidationError("p", "shape must match x")

    def __len__(self):
        """Number of points: the size of the batch axes, 1 for a single point."""
        return math.prod(self.x.shape[1:])


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
    The keys in `eager` are built at construction, any other on first use;
    `where` names the expression in an error."""

    def __init__(self, n, name, expression, eager, where):
        super().__init__({name: expr.Table(expression)})
        self.n, self.name, self.where = n, name, where
        for key in eager:
            self[key]

    def __missing__(self, key):
        parent = self[key[:-1] or self.name].exprs
        table = self[key] = expr.Table(expr.gradient(parent, key[-1], self.n, self.where, axis=-1))
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
        self.tables = _DerivativeTables(n, "L", lagrangian, ("v", "x", "vv", "vx", "xx"),
                                        "lagrangian")
        # every entry of L_vvv is zero; stops at the first that is not
        vv = list(self.tables["vv"].exprs.flat)
        self.is_velocity_quadratic = all(d.is_zero() for k in range(n) for d in expr.derivatives(
            vv, expr.sym("v", k + 1), "lagrangian"))

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
    b = p.shape[1]
    group = max(1, SEARCH_COLUMNS // b)
    best = np.full(b, np.inf)
    pick = np.zeros(b, dtype=int)
    for first in range(0, len(SEARCH_SCALES), group):
        scales = SEARCH_SCALES[first:first + group]
        vs = p[:, None, :] * scales[None, :, None]          # (n, S, B)
        lv = model.lv(np.broadcast_to(x[:, None, :], vs.shape), vs)
        lv -= p[:, None, :]
        res = np.abs(lv, out=lv).max(axis=0)                 # (S, B)
        res[~np.isfinite(res)] = np.inf
        least = res.min(axis=0)
        better = least < best
        np.copyto(best, least, where=better)
        np.copyto(pick, first + res.argmin(axis=0), where=better)
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
    done = res <= tol
    while not done.all():
        if iterations == NEWTON_MAX_ITER:
            return v, iterations, NonConvergence(
                f"Legendre inversion: residual {res.max():.3e} after {NEWTON_MAX_ITER} iterations")
        iterations += 1
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
        done = res <= tol
    return v, iterations, None


def invert_legendre_array(model, x, p, start=None):
    """Newton inversion of the Legendre map, batched over trailing axes.

    Returns (v, iterations). Residual target is 1e-12 relative to the
    momentum scale per point.  `start`, shaped like p, is a velocity near
    the solution (along a trajectory, dH/dp extrapolated from the last
    two steps, see dynamics._momentum_rhs); Newton starts there, and
    repeats once from the log-scale search if that fails or `start` is
    not finite.  Velocity-quadratic models ignore it:
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
    """H(x, p): the expression given, or else derived from the Lagrangian.

    dxp is indexed [q][k] = d^2 H / dx^q dp_k.
    """

    def __init__(self, n, lagrangian=None, expression=None):
        self.n = int(n)
        self.lagrangian = lagrangian
        self.expr = expression
        if expression is not None:
            self.expr = expr.component(expression, "hamiltonian", {"x": n, "p": n})
            self._tables = _DerivativeTables(n, "H", self.expr, ("p", "x", "pp", "xp", "xx"),
                                             "hamiltonian")
        elif lagrangian is None:
            raise ValidationError("lagrangian", "derived Hamiltonian requires a Lagrangian")

    def partials(self, x, p, order=2, start=None):
        """The value of H at (x, p) for order 0, its partials up to `order`
        otherwise (no right-hand side reads the value); batched over
        trailing axes.

        `start` is a velocity near dH/dp, passed to the Legendre inversion of
        a derived Hamiltonian as its Newton start.
        """
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        data = HamiltonianData()
        if self.expr is not None:
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


def _uniforms(seed, count):
    """Outputs k = 1..count of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014)
    from `seed`, each as its 53 high bits times 2**-53, a uniform in [0, 1).

    Output k is mix(seed + k * 0x9E3779B97F4A7C15) modulo 2**64.  Every
    operand is a uint64 array or scalar: the products wrap in the arrays, as
    the generator needs, and no Python int promotes them to float64.
    """
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0 ** -53


@dataclass
class SampleDomain:
    """Box in x and a radius range for fiber sampling."""
    x_box: np.ndarray          # (n, 2) lower/upper
    fiber_range: tuple = (0.1, 10.0)
    count: int = 100
    seed: int = 0

    def sample(self, n):
        """x uniform in the box, and p a direction uniform on the unit sphere
        (a Box-Muller Gaussian, normalised) times a radius uniform in
        fiber_range; each of shape (n, count).

        The uniforms are drawn in the order the laws are listed, each block
        point by point: count * n for x, 2 * count * n for the Gaussian and
        count for the radius.
        """
        box = np.asarray(self.x_box, dtype=float)
        if box.shape != (n, 2):
            raise ValidationError("x_box", f"expected shape ({n}, 2)")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError("seed", "expected an integer from 0 to 2**64 - 1")
        m = self.count * n
        u = _uniforms(self.seed, 3 * m + self.count)
        xs = box[:, :1] + (box[:, 1:] - box[:, :1]) * u[:m].reshape(self.count, n).T
        # 1 - u lies in (0, 1], so the logarithm is finite
        gauss = (np.sqrt(-2.0 * np.log1p(-u[m:2 * m])) * np.cos(2.0 * np.pi * u[2 * m:3 * m])
                 ).reshape(self.count, n).T
        lo, hi = self.fiber_range
        radius = lo + (hi - lo) * u[3 * m:]
        return xs, gauss / np.linalg.norm(gauss, axis=0) * radius


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
