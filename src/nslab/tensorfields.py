"""Extended tensor fields and the numeric frame of the residuals.

An extended tensor field assigns a tensor at the base point to every point
of the cotangent bundle; its components are expression trees over (x, p).
Component array layout: upper indices first, then lower indices.  A field's
`dx` and `dfiber` values prepend the new derivative index at axis 0 (the
force and connection layout).  Curvature layout: dynamic[k][r][i][j] and
riemann[k][r][i][j] with k, r upper and i, j lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr
# invert_legendre_array stays a name of this module, which perfbench's tracer wraps
from .calculus import check_omega, invert_legendre_array, point_failure  # noqa: F401
from .errors import InsufficientSamples, ZeroMomentum


class ExtendedTensorField:
    """Tensor-valued function on the cotangent bundle, symbolic components.

    The components are read under the slot name SLOT.  `values` evaluates
    them; `dx` and `dfiber` evaluate their first derivatives by x and by p,
    with the new index first, from tables built on first use.
    """

    SLOT = "tensor"

    def __init__(self, n, r, s, comps):
        self.n = int(n)
        self.r = int(r)
        self.s = int(s)
        self.comps = expr.components(comps, self.SLOT, (self.n,) * (self.r + self.s),
                                     {"x": self.n, "p": self.n})

    @cached_property
    def _value(self):
        return expr.Table(self.comps)

    @cached_property
    def _dx(self):
        return expr.Table(expr.gradient(self.comps, "x", self.n))

    @cached_property
    def _dfiber(self):
        return expr.Table(expr.gradient(self.comps, "p", self.n))

    def values(self, x, p):
        return self._value(x=x, p=p)

    def dx(self, x, p):
        """[q][...] = d component[...] / d x^q."""
        return self._dx(x=x, p=p)

    def dfiber(self, x, p):
        """[q][...] = d component[...] / d p_q."""
        return self._dfiber(x=x, p=p)


class ForceField(ExtendedTensorField):
    """Extended force covector Q_i(x, p): dx is [s][r] = dQ_r / dx^s and dp
    is [r][s] = dQ_s / dp_r."""

    SLOT = "force"

    def __init__(self, n, comps):
        super().__init__(n, 0, 1, comps)

    @classmethod
    def zero(cls, n):
        return cls(n, [expr.const(0.0)] * n)

    dp = ExtendedTensorField.dfiber


class ExtendedConnection(ExtendedTensorField):
    """Symmetric extended affine connection Gamma^k_ij over (x, p), also the
    (1,2) tensor T that displaces one: dx and dfiber are
    [q][k][i][j] = d Gamma^k_ij / d x^q and / d p_q.

    Symmetry in the two lower indices is exact: structurally asymmetric input
    is replaced by the symmetric average at construction.
    """

    SLOT = "connection"

    def __init__(self, n, comps):
        super().__init__(n, 1, 2, comps)
        arr = self.comps
        for k, i, j in np.ndindex(arr.shape):
            if i < j:
                a, b = arr[k, i, j], arr[k, j, i]
                e = a if a == b else expr.mul(expr.const(0.5), expr.add(a, b))
                arr[k, i, j] = arr[k, j, i] = e

    @classmethod
    def flat(cls, n):
        return cls(n, np.zeros((n, n, n)))

    def shifted(self, shift):
        """Connection with components Gamma + T."""
        comps = np.empty_like(self.comps)
        for idx in np.ndindex(self.comps.shape):
            comps[idx] = expr.add(self.comps[idx], shift.comps[idx])
        return ExtendedConnection(self.n, comps)


def projector_matrix(v, p, omega):
    """P^r_s = delta^r_s - v^r p_s / omega, batched over trailing axes."""
    n = len(p)
    eye = np.eye(n).reshape((n, n) + (1,) * (np.ndim(p) - 1))
    return eye - _outer(v, p) / omega


def connection_term(gamma, x, p):
    """C_sq = p_k Gamma^k_sq at cotangent points (x, p) of shape (n, *B), the
    connection part of the covariant fiber variation xi = dp - C tau; None
    is the flat connection."""
    if gamma is None:
        gamma = ExtendedConnection.flat(len(p))
    return np.einsum("ksq...,k...->sq...", gamma.values(x, p), p)


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
    A gamma of None is the flat connection.
    """

    def __init__(self, hmodel, gamma, force, x, p):
        self.n = hmodel.n
        self.x = np.asarray(x, dtype=float)
        self.p = np.asarray(p, dtype=float)
        data = hmodel.partials(self.x, self.p, order=2)
        self.v = data.dp
        self.omega = _dot(self.p, self.v)
        self.ginv = data.dpp
        self.hx = data.dx
        self.hxp = data.dxp
        self.hxx = data.dxx
        self.q = force.values(self.x, self.p)
        self.qx = force.dx(self.x, self.p)
        self.qp = force.dp(self.x, self.p)
        if gamma is None:
            gamma = ExtendedConnection.flat(self.n)
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
    fp = FieldPoint(hmodel, gamma, ForceField.zero(hmodel.n), costate.x, costate.p)
    D, R = fp.curvature.dynamic, fp.curvature.riemann
    grad_w = (fp.dw_dx
              + np.einsum("a...,aib...,bj...->ij...", fp.p, fp.gam, fp.dw_dp)
              - np.einsum("bij...,b...->ij...", fp.gam, fp.nabla_h))
    res1 = grad_w - _swap(grad_w) - np.einsum("k...,ksij...,s...->ij...", fp.p, R, fp.v)
    mixed = fp.nabla_vt_h - _swap(fp.dw_dp)
    res2 = mixed - np.einsum("k...,kjis...,s...->ij...", fp.p, D, fp.v)
    return res1, res2


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
