"""Extended tensor fields and their calculus.

An extended tensor field assigns a tensor at the base point to every point
of the tangent or cotangent bundle; components here are expression trees
over (x, p) (momentum representation) or (x, v) (velocity representation).
Component array layout: upper indices first, then lower indices.  Gradient
index placement: the vertical momentum gradient prepends a new upper index
(axis 0); every other gradient prepends a new lower index (first axis of
the lower block).  Curvature layout: dynamic[k][r][i][j] and
riemann[k][r][i][j] with k, r upper and i, j lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr
from .calculus import check_omega, invert_legendre_array, point_failure
from .errors import (InsufficientSamples, RepresentationMismatch,
                     ValidationError, ZeroMomentum)

MOMENTUM = "momentum"
VELOCITY = "velocity"


def _fiber_kind(rep):
    if rep == MOMENTUM:
        return "p"
    if rep == VELOCITY:
        return "v"
    raise ValidationError("representation", f"unknown representation {rep!r}")


def _fiber_env(rep, x, fiber):
    return {"x": x, _fiber_kind(rep): fiber}


class ExtendedTensorField:
    """Tensor-valued function on the (co)tangent bundle, symbolic components."""

    def __init__(self, n, r, s, rep, comps):
        self.n = int(n)
        self.r = int(r)
        self.s = int(s)
        self.rep = rep
        self.comps = expr.components(comps, "tensor", (n,) * (r + s),
                                     {"x": n, _fiber_kind(rep): n})
        self._table = expr.Table(self.comps)

    @classmethod
    def scalar(cls, n, rep, expression):
        return cls(n, 0, 0, rep, expression)

    def eval(self, x, fiber):
        return self._table(**_fiber_env(self.rep, x, fiber))


class PullbackField:
    """Velocity-representation field composed with the inverse Legendre map.

    Evaluation maps the momentum fiber point through the Newton inversion and
    delegates to the underlying field; no symbolic components exist.
    """

    def __init__(self, base, lagrangian):
        if base.rep != VELOCITY:
            raise RepresentationMismatch("pullback expects a velocity-representation field")
        self.base = base
        self.lagrangian = lagrangian
        self.n = base.n
        self.r = base.r
        self.s = base.s
        self.rep = MOMENTUM

    def eval(self, x, fiber):
        v, _ = invert_legendre_array(self.lagrangian, np.asarray(x, float),
                                     np.asarray(fiber, float))
        return self.base.eval(x, v)


def convert_representation(field, lagrangian):
    """Compose a field with the Legendre map or its inverse.

    momentum -> velocity is exact symbolic substitution p_i -> dL/dv^i;
    velocity -> momentum needs the Newton inversion, so the result is an
    evaluation-only pullback.
    """
    if field.rep == MOMENTUM:
        lv = lagrangian.tables["v"].exprs
        mapping = {expr.sym("p", i + 1): lv[i] for i in range(lagrangian.n)}
        comps = np.empty_like(field.comps)
        for idx in np.ndindex(field.comps.shape):
            comps[idx] = field.comps[idx].substitute(mapping)
        return ExtendedTensorField(field.n, field.r, field.s, VELOCITY, comps)
    return PullbackField(field, lagrangian)


def vertical_gradient(field):
    """Fiber derivative: adds an upper index (momentum) or a lower one
    (velocity)."""
    upper = field.rep == MOMENTUM
    out = expr.gradient(field.comps, _fiber_kind(field.rep), field.n,
                        axis=0 if upper else field.r)
    return ExtendedTensorField(field.n, field.r + upper, field.s + (not upper),
                               field.rep, out)


class ExtendedConnection:
    """Symmetric extended affine connection, components over (x, fiber).

    Symmetry in the two lower indices is exact: structurally asymmetric input
    is replaced by the symmetric average at construction.
    """

    def __init__(self, n, comps, rep=MOMENTUM):
        self.n = int(n)
        self.rep = rep
        src = expr.components(comps, "connection", (n, n, n), {"x": n, _fiber_kind(rep): n})
        arr = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                arr[k][i][i] = src[k][i][i]
                for j in range(i + 1, n):
                    a, b = src[k][i][j], src[k][j][i]
                    e = a if a == b else expr.mul(expr.const(0.5), expr.add(a, b))
                    arr[k][i][j] = e
                    arr[k][j][i] = e
        self.comps = arr
        self._value = expr.Table(arr)

    @classmethod
    def flat(cls, n, rep=MOMENTUM):
        return cls(n, np.zeros((n, n, n)), rep=rep)

    @property
    def is_flat(self):
        return all(e.is_zero() for e in self.comps.ravel())

    @cached_property
    def _dx(self):
        return expr.Table(expr.gradient(self.comps, "x", self.n))

    @cached_property
    def _dfiber(self):
        return expr.Table(expr.gradient(self.comps, _fiber_kind(self.rep), self.n))

    def values(self, x, fiber):
        return self._value(**_fiber_env(self.rep, x, fiber))

    def dx(self, x, fiber):
        """[q][k][i][j] = d Gamma^k_ij / d x^q."""
        return self._dx(**_fiber_env(self.rep, x, fiber))

    def dfiber(self, x, fiber):
        """[q][k][i][j] = d Gamma^k_ij / d fiber_q."""
        return self._dfiber(**_fiber_env(self.rep, x, fiber))

    def shifted(self, shift):
        """Connection with components Gamma + T."""
        if shift.rep != self.rep:
            raise RepresentationMismatch("connection shift representation differs")
        comps = np.empty_like(self.comps)
        for idx in np.ndindex(self.comps.shape):
            comps[idx] = expr.add(self.comps[idx], shift.comps[idx])
        return ExtendedConnection(self.n, comps, rep=self.rep)


class ConnectionShift(ExtendedConnection):
    """Symmetric (1,2) tensor used to displace a connection."""


def horizontal_gradient(field, gamma):
    """Spatial covariant derivative; adds a lower index in front of the
    existing lower block.  The field and the connection must be supplied in
    the same representation."""
    if isinstance(field, PullbackField):
        raise RepresentationMismatch("pullback fields have no symbolic gradient")
    if field.rep != gamma.rep:
        raise RepresentationMismatch(
            f"field is {field.rep}, connection is {gamma.rep}")
    n = field.n
    r, s = field.r, field.s
    fiber = _fiber_kind(field.rep)
    fsyms = [expr.sym(fiber, i + 1) for i in range(n)]
    G = gamma.comps
    dfiber = expr.gradient(field.comps, fiber, n)
    out = expr.gradient(field.comps, "x", n, axis=r)     # the connection terms join below
    for idx in np.ndindex(field.comps.shape):
        up, lo = idx[:r], idx[r:]
        dXf = dfiber[(slice(None), *idx)]
        for q in range(n):
            e = out[up + (q,) + lo]
            if field.rep == MOMENTUM:
                for a in range(n):
                    for b in range(n):
                        e = expr.add(e, expr.mul(expr.mul(fsyms[a], G[a][q][b]), dXf[b]))
            else:
                for a in range(n):
                    for b in range(n):
                        e = expr.sub(e, expr.mul(expr.mul(fsyms[a], G[b][q][a]), dXf[b]))
            for k in range(r):
                for a in range(n):
                    swapped = up[:k] + (a,) + up[k + 1:] + lo
                    e = expr.add(e, expr.mul(G[up[k]][q][a], field.comps[swapped]))
            for k in range(s):
                for b in range(n):
                    swapped = up + lo[:k] + (b,) + lo[k + 1:]
                    e = expr.sub(e, expr.mul(G[b][q][lo[k]], field.comps[swapped]))
            out[up + (q,) + lo] = e
    return ExtendedTensorField(n, r, s + 1, field.rep, out)


def projector_matrix(v, p, omega):
    """P^r_s = delta^r_s - v^r p_s / omega, batched over trailing axes."""
    n = len(p)
    eye = np.eye(n).reshape((n, n) + (1,) * (np.ndim(p) - 1))
    return eye - _outer(v, p) / omega


def connection_term(gamma, x, p):
    """C_sq = p_k Gamma^k_sq at cotangent points (x, p) of shape (n, *B), the
    connection part of the covariant fiber variation xi = dp - C tau; zero
    for no connection or a flat one."""
    n = len(p)
    if gamma is None or gamma.is_flat:
        return np.zeros((n, n) + np.shape(p)[1:])
    if gamma.rep != MOMENTUM:
        raise RepresentationMismatch("connection term needs a momentum connection")
    return np.einsum("ksq...,k...->sq...", gamma.values(x, p), p)


def projector(hmodel, costate):
    """The projector matrix along the velocity onto the null space of p at a
    cotangent state, from first-order data of H only."""
    x, p = costate.x, costate.p
    if np.linalg.norm(p) == 0.0:
        raise ZeroMomentum("projector undefined at p = 0")
    v = hmodel.partials(x, p, order=1).dp
    omega = _dot(p, v)
    check_omega(omega, "projector divides by omega = 0", x=x, p=p)
    return projector_matrix(v, p, omega)


@dataclass(frozen=True)
class CurvaturePair:
    dynamic: np.ndarray    # [k][r][i][j]
    riemann: np.ndarray    # [k][r][i][j]


def curvature_from(gam, gam_x, gam_p, p):
    """Dynamic curvature -dGamma/dp and the extended Riemann-type tensor from
    connection values and derivatives; batched over trailing axes."""
    dynamic = -np.moveaxis(gam_p, 0, 1)      # [k][r][i][j] = -dGamma^k_ij/dp_r
    riemann = (np.einsum("ikjr...->krij...", gam_x)
               - np.einsum("jkir...->krij...", gam_x)
               + np.einsum("kim...,mjr...->krij...", gam, gam)
               - np.einsum("kjm...,mir...->krij...", gam, gam)
               + np.einsum("a...,ami...,mkjr...->krij...", p, gam, gam_p)
               - np.einsum("a...,amj...,mkir...->krij...", p, gam, gam_p))
    return CurvaturePair(dynamic=dynamic, riemann=riemann)


def curvature_tensors(gamma, costate):
    """Curvature pair of a connection at a cotangent state."""
    x, p = costate.x, costate.p
    return curvature_from(gamma.values(x, p), gamma.dx(x, p), gamma.dfiber(x, p), p)


def _dot(a, b):
    """a_i b_i, batched over trailing axes."""
    return np.einsum("i...,i...->...", a, b)


def _outer(a, b):
    """a_i b_j, batched over trailing axes."""
    return np.einsum("i...,j...->ij...", a, b)


def _swap(a):
    """Transpose of the two leading (index) axes."""
    return np.swapaxes(a, 0, 1)


class FieldPoint:
    """Numeric frame at a batch of cotangent points: all first- and
    second-order data of the Hamiltonian, force and connection that the
    residual and variational formulas consume.

    x and p have shape (n, *B).  Every array carries the batch shape B as
    trailing axes after its index axes; B = () is a single point.
    Index conventions: hxp[q][k] = d2H/dx^q dp_k; qx[s][r] = dQ_r/dx^s;
    qp[r][s] = dQ_s/dp_r; gam[k][i][j]; gam_x/gam_p prepend the derivative.
    """

    def __init__(self, hmodel, gamma, x, p, force=None):
        self.n = n = hmodel.n
        self.x = np.asarray(x, dtype=float)
        self.p = np.asarray(p, dtype=float)
        batch = self.p.shape[1:]
        data = hmodel.partials(self.x, self.p, order=2)
        self.v = data.dp
        self.omega = _dot(self.p, self.v)
        self.ginv = data.dpp
        self.hx = data.dx
        self.hxp = data.dxp
        self.hxx = data.dxx
        if force is None:
            self.q = np.zeros((n,) + batch)
            self.qx = np.zeros((n, n) + batch)
            self.qp = np.zeros((n, n) + batch)
        else:
            self.q = force.values(self.x, self.p)
            self.qx = force.dx(self.x, self.p)
            self.qp = force.dp(self.x, self.p)
        if gamma is None or gamma.is_flat:
            self.gam = np.zeros((n, n, n) + batch)
            self.gam_x = np.zeros((n, n, n, n) + batch)
            self.gam_p = np.zeros((n, n, n, n) + batch)
        else:
            if gamma.rep != MOMENTUM:
                raise RepresentationMismatch("point frame needs a momentum connection")
            self.gam = gamma.values(self.x, self.p)
            self.gam_x = gamma.dx(self.x, self.p)
            self.gam_p = gamma.dfiber(self.x, self.p)

    def require_omega(self):
        check_omega(self.omega, "omega vanishes", x=self.x, p=self.p)

    def require_momentum(self):
        bad = _dot(self.p, self.p) == 0.0
        if bad.any():
            raise point_failure(ZeroMomentum, "zero momentum", bad,
                                x=self.x, p=self.p)

    @cached_property
    def nabla_h(self):
        return self.hx + np.einsum("a...,asb...,b...->s...", self.p, self.gam, self.v)

    @cached_property
    def p_up(self):
        return np.einsum("ij...,j...->i...", self.ginv, self.p)

    @cached_property
    def vt_omega(self):
        return self.v + self.p_up

    @cached_property
    def nabla_omega(self):
        return (np.einsum("qk...,k...->q...", self.hxp, self.p)
                + np.einsum("a...,asb...,b...->s...", self.p, self.gam, self.vt_omega))

    @cached_property
    def nabla_q(self):
        """[s][r] = horizontal derivative of Q_r in direction s."""
        return (self.qx + np.einsum("a...,asb...,br...->sr...", self.p, self.gam, self.qp)
                - np.einsum("bsr...,b...->sr...", self.gam, self.q))

    @cached_property
    def nabla_vt_h(self):
        """[r][q] = horizontal derivative of the velocity field v^q."""
        return (self.hxp
                + np.einsum("a...,arb...,bq...->rq...", self.p, self.gam, self.ginv)
                + np.einsum("qra...,a...->rq...", self.gam, self.v))

    @cached_property
    def p_norm2(self):
        return _dot(self.p, self.p_up)

    @cached_property
    def projector(self):
        self.require_omega()
        return projector_matrix(self.v, self.p, self.omega)

    @cached_property
    def curvature(self):
        return curvature_from(self.gam, self.gam_x, self.gam_p, self.p)

    @cached_property
    def dw_dx(self):
        """[i][j] = d(nabla_j H)/dx^i."""
        return (self.hxx
                + np.einsum("a...,iajb...,b...->ij...", self.p, self.gam_x, self.v)
                + np.einsum("a...,ajb...,ib...->ij...", self.p, self.gam, self.hxp))

    @cached_property
    def dw_dp(self):
        """[m][j] = d(nabla_j H)/dp_m."""
        return (_swap(self.hxp)
                + np.einsum("mjb...,b...->mj...", self.gam, self.v)
                + np.einsum("a...,majb...,b...->mj...", self.p, self.gam_p, self.v)
                + np.einsum("a...,ajb...,bm...->mj...", self.p, self.gam, self.ginv))


def commutator_residual(hmodel, gamma, costate):
    """Identity defects of the two curvature commutators applied to H.

    Both returned matrices vanish identically for exact arithmetic; their
    numeric size measures the consistency of the horizontal gradient with the
    curvature tensors.  Batched over trailing axes of the costate arrays.
    Neither commutator reads a force.
    """
    fp = FieldPoint(hmodel, gamma, costate.x, costate.p)
    D, R = fp.curvature.dynamic, fp.curvature.riemann
    grad_w = (fp.dw_dx
              + np.einsum("a...,aib...,bj...->ij...", fp.p, fp.gam, fp.dw_dp)
              - np.einsum("bij...,b...->ij...", fp.gam, fp.nabla_h))
    res1 = grad_w - _swap(grad_w) - np.einsum("k...,ksij...,s...->ij...", fp.p, R, fp.v)
    mixed = fp.nabla_vt_h - _swap(fp.dw_dp)
    res2 = mixed - np.einsum("k...,kjis...,s...->ij...", fp.p, D, fp.v)
    return res1, res2


def concordance_residual(lagrangian, gamma, state):
    """Horizontal derivative of the fiber gradient of L; zero iff the
    connection is concordant with L at this point."""
    x, v = state.x, state.v
    lv = lagrangian.lv(x, v)
    g = lagrangian.lvv(x, v)
    lvx = lagrangian.lvx(x, v)
    if gamma is None:
        n = lagrangian.n
        gam = np.zeros((n, n, n))
    elif gamma.rep == VELOCITY:
        gam = gamma.values(x, v)
    else:
        gam = gamma.values(x, lv)
    return (lvx.T - np.einsum("a,bqa,bs->qs", v, gam, g)
            - np.einsum("bqs,b->qs", gam, lv))


def grid_derivative(arr, axis, spacing):
    """Second-order differences along one axis of evenly spaced samples:
    central inside, one-sided at the two ends."""
    src = np.moveaxis(arr, axis, 0)
    if src.shape[0] < 3:
        raise InsufficientSamples("need at least 3 samples along the axis")
    out = np.empty_like(arr)
    dst = np.moveaxis(out, axis, 0)
    dst[1:-1] = (src[2:] - src[:-2]) / (2.0 * spacing)
    dst[0] = (-3.0 * src[0] + 4.0 * src[1] - src[2]) / (2.0 * spacing)
    dst[-1] = (3.0 * src[-1] - 4.0 * src[-2] + src[-3]) / (2.0 * spacing)
    return out


def covariant_time_derivative(values, valence, xs, fibers, h, gamma):
    """Covariant derivative of tensor samples along a sampled curve.

    values: (K, n, ..., n) samples; valence = (r, s); xs, fibers: (K, n)
    samples of the curve and its lift; h: parameter step.  Time derivatives
    use central differences inside and one-sided second-order stencils at the
    ends; connection terms are evaluated on the lift.
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    fibers = np.asarray(fibers, dtype=float)
    K = values.shape[0]
    r, s = valence
    dt = grid_derivative(values, 0, h)
    xdot = grid_derivative(xs, 0, h)
    if gamma is None or gamma.is_flat:
        return dt
    out = dt.copy()
    for k in range(K):
        G = gamma.values(xs[k], fibers[k])
        up_weight = np.einsum("m,kma->ka", xdot[k], G)
        for axis in range(r):
            out[k] += np.moveaxis(
                np.tensordot(up_weight, values[k], axes=([1], [axis])), 0, axis)
        for axis in range(r, r + s):
            out[k] -= np.moveaxis(
                np.tensordot(up_weight, values[k], axes=([0], [axis])), 0, axis)
    return out
