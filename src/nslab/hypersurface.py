"""Parametric hypersurfaces, the scalar field fixing initial momentum
magnitude, shift simulation with deviation functions, and the second
fundamental form.

A hypersurface is a chart map x(y) over m = n - 1 parameters.  Its normal
covector is the cofactor normal r_s = (-1)^s det(frame without row s), built
as expressions with its exact y-derivatives, normalised to unit Euclidean
length, with the overall sign fixed once at the base point (first nonzero
component positive) so that it varies continuously.  _psi_parts is the
one lift p = nu n of surface points, with the parts built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from types import SimpleNamespace

import numpy as np

from . import expr
from .calculus import check_omega, point_failure
# integrate_batch stays a name of this module, which perfbench's tracer wraps
from .dynamics import batch_steps, integrate_batch, rhs_p_variation, rk4_step  # noqa: F401
from .errors import (NonFinite, RankDeficient, ValidationError, VanishingNu,
                     ZeroMomentum, ZeroNu)
from .tensorfields import connection_term, grid_derivative, projector_matrix


class Hypersurface:
    """Chart map x(y) on a declared parameter box."""

    def __init__(self, n, chart, box, base_point=None):
        self.n = int(n)
        self.m = self.n - 1
        self.chart = chart = expr.components(chart, "chart", (self.n,), {"y": self.m})
        box = np.asarray(box, dtype=float)
        if box.shape != (self.m, 2):
            raise ValidationError("box", f"expected shape ({self.m}, 2)")
        if not np.all(np.isfinite(box)):
            raise ValidationError("box", "must be finite")
        self.box = box
        self.y0 = (np.asarray(base_point, dtype=float) if base_point is not None
                   else box[:, 0].copy())
        if self.y0.shape != (self.m,):
            raise ValidationError("base_point", f"expected {self.m} entries")
        if not np.all(np.isfinite(self.y0)):
            raise ValidationError("base_point", "must be finite")
        if np.any((self.y0 < box[:, 0]) | (self.y0 > box[:, 1])):
            raise ValidationError("base_point", "must lie inside the box")
        self._chart_table = expr.Table(chart)
        self._frame_table = expr.Table(expr.gradient(chart, "y", self.m, axis=-1))
        self._base_sign = None

    def chart_at(self, y):
        return self._chart_table(y=np.asarray(y, dtype=float))

    def frame_at(self, y):
        return self._frame_table(y=np.asarray(y, dtype=float))

    @cached_property
    def _cofactor_tables(self):
        """Tables of the cofactor normal r_s = (-1)^s det(frame without row s)
        by derivative order: the row r, and the rows r, dr/dy^1, ..., dr/dy^m.
        Derived on first use, so that building a surface stays cheap."""
        frame = self._frame_table.exprs.tolist()
        r = [expr.det(frame[:s] + frame[s + 1:]) for s in range(self.n)]
        r = [expr.neg(e) if s % 2 else e for s, e in enumerate(r)]
        return expr.Table([r]), expr.Table([r, *expr.gradient(r, "y", self.m)])


def tangent_frame(surface, y):
    """Columns are the tangent vectors of the coordinate curves at y."""
    return _checked_cofactor(surface, y)[0]


def _matrix_stack(a):
    """A (k, l, *B) array as a C-contiguous stack of (*B, k, l) matrices, the
    layout np.matmul reads fastest.  A transpose with explicit axes, because
    np.moveaxis costs several microseconds a call."""
    return np.ascontiguousarray(a.transpose(*range(2, a.ndim), 0, 1))


def _matmul(a, b, a_core, b_core):
    """a @ b at every point of the trailing batch axes, where a and b lead
    with a_core and b_core (1 for a vector, 2 for a matrix) core axes.

    The stacked np.matmul gives each point the reduction of its own
    single-point product, so a batch agrees bit for bit with point-by-point
    calls.
    """
    if a_core == 1:
        a = a[None]
    if b_core == 1:
        b = b[:, None]
    out = _matrix_stack(a) @ _matrix_stack(b)
    out = out.transpose(-2, -1, *range(out.ndim - 2))
    if b_core == 1:
        out = out[:, 0]
    return out[0] if a_core == 1 else out


def _checked_cofactor(surface, y, order=0):
    """(tau, jet, |r|) at y of shape (m, *B), where jet holds the rows of the
    cofactor table of `order`: r, then dr/dy^1, ..., dr/dy^m for order 1.
    NonFinite names the first point whose frame is not finite, which the
    rank test would read as rank deficient (infinite) or pass (NaN);
    RankDeficient the first point where |r| is negligible against the
    product of the frame's column lengths."""
    y = np.asarray(y, dtype=float)
    tau = surface.frame_at(y)
    finite = np.isfinite(tau).all(axis=(0, 1))
    if not np.all(finite):
        raise point_failure(NonFinite, "tangent frame not finite", ~finite, y=y)
    jet = surface._cofactor_tables[order](y=y)
    scale = np.prod(np.linalg.norm(tau, axis=0), axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    norm = np.sqrt(_matmul(jet[0], jet[0], 1, 1))
    bad = norm <= 1e-12 * scale
    if np.any(bad):
        raise point_failure(RankDeficient, "tangent frame rank deficient", bad, y=y)
    return tau, jet, norm


def normal_covector(surface, y, order=0):
    """Unit-normalised annihilator of the tangent frame, sign continuous
    from the base point; y has shape (m, *B), the normal n shape (n, *B).

    order 1 returns [n, dn] with the exact derivatives dn[i] = dn/dy^i of
    shape (m, n, *B): dn = (dR - n (n.dR))/|R| for R = sign * r.
    """
    _, jet, norm = _checked_cofactor(surface, y, order)
    if surface._base_sign is None:
        _, jet0, norm0 = _checked_cofactor(surface, surface.y0)
        unit0 = jet0[0] / norm0
        lead = unit0[np.argmax(np.abs(unit0) > 1e-12)]
        surface._base_sign = 1.0 if lead > 0 else -1.0
    R = surface._base_sign * jet
    nvec = R[0] / norm
    if order == 0:
        return nvec
    a = _matmul(R[1:], nvec, 2, 1)                      # [i] = n.dR_i
    return [nvec, (R[1:] - nvec * a[:, None]) / norm]


def nearest_node(axes, y):
    """Grid index of the node nearest to y, axis by axis."""
    return tuple(int(np.argmin(np.abs(ax - yi))) for ax, yi in zip(axes, np.atleast_1d(y)))


def grid_axes(box, counts):
    """Evenly spaced node axes over a parameter box, counts[i] nodes on axis i."""
    return tuple(np.linspace(lo, hi, int(c)) for (lo, hi), c in zip(box, counts))


@dataclass
class NuField:
    """Scalar momentum magnitude on the evenly spaced parameter grid."""
    axes: tuple
    values: np.ndarray
    y0: np.ndarray
    nu0: float
    path_discrepancy: float | None = None


def _nu_at(surface, system, nufield, y):
    """nu at y: a constant, nu0 at the base point, or else a NuField's value
    at the node nearest y marched on to y."""
    if not isinstance(nufield, NuField):
        return float(nufield)
    y = np.asarray(y, dtype=float)
    if np.array_equal(y, nufield.y0):
        return float(nufield.nu0)
    node = nearest_node(nufield.axes, y)
    start = [ax[k] for ax, k in zip(nufield.axes, node)]
    return _step_to(surface, system, nufield.values[node], start, y, range(surface.m))


def _psi_parts(surface, system, nu, y, order=1):
    """psi_i = -(nu^2/omega) A_i - nu B_i at y and the parts it is made of:
    x, tau, n, dn, the lift p = nu n, H's partials up to `order` at (x, p),
    omega = p.H_p, A_i = dn_i.H_p and B_i = w.tau_i for w = H_x/omega - Q.

    y has shape (m, *B) and nu shape B; psi has shape (m, *B).
    """
    y = np.asarray(y, dtype=float)
    x, tau = surface.chart_at(y), surface.frame_at(y)
    n, dn = normal_covector(surface, y, order=1)
    p = nu * n
    H = system.model.partials(x, p, order=order)
    omega = _matmul(p, H.dp, 1, 1)
    check_omega(omega, "omega vanishes on the lift", y=y, x=x, p=p)
    w = H.dx / omega - system.force.values(x, p)
    A, B = _matmul(dn, H.dp, 2, 1), _matmul(w, tau, 1, 2)
    return SimpleNamespace(x=x, tau=tau, n=n, dn=dn, p=p, H=H, omega=omega, A=A,
                           B=B, psi=-(nu**2 / omega) * A - nu * B)


def _pfaff_rhs(surface, system, nu, y):
    """Right-hand sides psi_i(nu, y) of the complete system for nu."""
    return _psi_parts(surface, system, nu, y).psi


def _march_axis(surface, system, nu, y, axis, coords):
    """RK4 march of nu along the parameter axis `axis`, one step to each of
    the coordinates `coords` in turn; yields nu after every step.

    nu (L,) holds the values at the points y (m, L), which share their
    coordinate on `axis`; the other rows of y stay fixed, so the L lines
    march as one batch.
    """
    y = np.array(y, dtype=float)

    def y_at(coord):
        out = y.copy()
        out[axis] = coord
        return out

    def rhs(c, state):
        # the stage at the fraction c of the step from start
        return (_pfaff_rhs(surface, system, state[0], y_at(start + c * h))[axis],)

    for coord in coords:
        start = y[axis, 0]
        h = coord - start
        (nu,) = rk4_step(rhs, (nu,), h)
        y[axis] = coord
        if not np.all(np.isfinite(nu)):
            raise point_failure(NonFinite, f"nu not finite while marching axis {axis}",
                                ~np.isfinite(nu), y=y)
        if np.any(np.abs(nu) < 1e-12):
            raise point_failure(VanishingNu, f"nu vanished while marching axis {axis}",
                                np.abs(nu) < 1e-12, y=y)
        yield nu


def _step_to(surface, system, nu, y, target, order):
    """nu marched from the point y to the point target, one RK4 step along
    each axis in `order`; an axis on which the two agree takes no step."""
    y, nu = np.array(y, dtype=float)[:, None], np.array([nu], dtype=float)
    for axis in order:
        if target[axis] != y[axis, 0]:
            (nu,) = _march_axis(surface, system, nu, y, axis, [target[axis]])
            y[axis] = target[axis]
    return nu[0]


def _sweep(surface, system, nu0, axes, order):
    """nu on the grid, marched from nu0 at the base point along the axes in
    `order`: to the base point's nearest node first, then along the lines of
    each axis through every node the earlier axes reached."""
    shape = tuple(len(ax) for ax in axes)
    node = nearest_node(axes, surface.y0)
    values = np.full(shape, np.nan)
    values[node] = _step_to(surface, system, nu0, surface.y0,
                            [ax[k] for ax, k in zip(axes, node)], order)
    done = []
    for axis in order:
        ranges = [range(shape[a]) if a in done else [node[a]] for a in range(len(axes))]
        lines = np.array(list(product(*ranges))).T                          # (m, L)
        y = np.array([axes[a][lines[a]] for a in range(len(axes))])
        idx = lines.copy()
        for ks in (range(node[axis] + 1, shape[axis]), range(node[axis] - 1, -1, -1)):
            march = _march_axis(surface, system, values[tuple(lines)], y, axis,
                                (axes[axis][k] for k in ks))
            for k, nu in zip(ks, march):
                idx[axis] = k
                values[tuple(idx)] = nu
        done.append(axis)
    return values


def solve_nu_grid(surface, system, nu0, counts=None):
    """RK4 integration of the complete system dnu/dy^i = psi_i(nu, y) from
    nu0 at the base point, axis by axis, on grid_axes(surface.box, counts):
    201 nodes on a curve and 31 per axis otherwise by default.

    Marches in the fixed axis order (first parameter first); for m >= 2
    again in reversed order, the maximal difference between the two sweeps
    stored as an integrability diagnostic.
    """
    if nu0 == 0.0:
        raise ZeroNu("nu0 must be nonzero")
    m = surface.m
    axes = grid_axes(surface.box, counts or [201 if m == 1 else 31] * m)
    fwd = _sweep(surface, system, nu0, axes, list(range(m)))
    disc = None
    if m > 1:
        rev = _sweep(surface, system, nu0, axes, list(reversed(range(m))))
        disc = float(np.abs(fwd - rev).max())
    return NuField(axes=axes, values=fwd, y0=surface.y0.copy(), nu0=nu0,
                   path_discrepancy=disc)


# solve_nu_curve stays a name of this module, which perfbench's tracer wraps
solve_nu_curve = solve_nu_grid


def pfaff_compatibility_residual(surface, system, nufield, y):
    """Antisymmetric part of the mixed second derivatives of nu:
    theta_ij = dpsi_i/dy^j + dpsi_i/dnu psi_j minus its transpose, by the
    chain rule through the linearisation of the momentum form
    (rhs_p_variation) and the first derivatives of the normal.  The second
    derivatives of the normal and of the chart enter dpsi_i/dy^j
    symmetrically in i and j, so they cancel from theta and are not
    computed.

    Identically zero for m = 1 where no compatibility constraint exists.
    """
    m = surface.m
    y = np.asarray(y, dtype=float)
    if m < 2:
        return np.zeros((m, m))
    nu = _nu_at(surface, system, nufield, y)
    s = _psi_parts(surface, system, nu, y, order=2)
    x, p, H, omega = s.x, s.p, s.H, s.omega
    # row d of each variation: d = 0 along nu, d = 1 + j along y^j
    dnu, dy = np.eye(m + 1)[0], np.eye(m + 1, m, -1)
    dx = dy @ s.tau.T
    dp = np.outer(dnu, s.n) + nu * dy @ s.dn
    dv, domega, dw = rhs_p_variation(system, x, p, H, omega, dx, dp)
    dpsi = (-(2.0 * nu * dnu / omega - nu**2 * domega / omega**2)[:, None] * s.A
            - (nu**2 / omega) * dv @ s.dn.T - dnu[:, None] * s.B - nu * dw @ s.tau)
    theta = dpsi[1:].T + np.outer(dpsi[0], s.psi)
    return theta - theta.T


@dataclass
class ShiftFamily:
    """Grid of trajectories with the deviation functions of the family."""
    t: np.ndarray                 # (K+1,)
    axes: tuple                   # parameter axes
    xs: np.ndarray                # (K+1, *grid, n)
    ps: np.ndarray                # (K+1, *grid, n)
    tau: np.ndarray               # (K+1, *grid, n, m)
    phi: np.ndarray               # (K+1, *grid, m)
    nu: NuField
    max_abs_phi: np.ndarray = field(init=False)   # (m,)

    def __post_init__(self):
        m = self.phi.shape[-1]
        flat = self.phi.reshape(-1, m)
        self.max_abs_phi = np.abs(flat).max(axis=0)


def shift_steps(surface, system, nufield, t_end, h):
    """The shifted family one time step at a time.

    Lifts the grid to p = nu * normal at once, then returns an iterator of
    (t, xs, ps, tau, phi) with xs, ps of shape (*grid, n), tau (*grid, n, m)
    and phi (*grid, m); each step is integrated when the iterator reaches
    it, so a caller that streams the steps holds one at a time.  Tangent
    frames along the shifted family are computed from neighbouring
    trajectories, matching the construction of the family itself.
    """
    axes = nufield.axes
    if len(axes) != surface.m:
        raise ValidationError("nufield", "grid dimension differs from surface")
    grid_shape = tuple(len(ax) for ax in axes) + (surface.n,)
    mesh = np.meshgrid(*axes, indexing="ij")
    ys = np.stack([g.ravel() for g in mesh])         # (m, B)
    xs0 = surface.chart_at(ys).T                     # (B, n)
    ps0 = nufield.values.reshape(-1)[:, None] * normal_covector(surface, ys).T

    def step(t, xs, ps):
        xs, ps = xs.reshape(grid_shape), ps.reshape(grid_shape)
        tau = np.empty(xs.shape + (len(axes),))
        for a, ax in enumerate(axes):
            tau[..., a] = grid_derivative(xs, a, ax[1] - ax[0])
        return t, xs, ps, tau, np.einsum("...s,...sm->...m", ps, tau)

    return (step(*state) for state in batch_steps(system, xs0, ps0, t_end, h))


def run_shift(surface, system, nufield, t_end, h):
    """Shift the hypersurface along trajectories started from the lift
    p = nu * normal, and measure the deviation functions on the family:
    shift_steps collected into a ShiftFamily."""
    t, xs, ps, tau, phi = map(np.array, zip(*shift_steps(surface, system, nufield,
                                                           t_end, h)))
    return ShiftFamily(t=t, axes=nufield.axes, xs=xs, ps=ps, tau=tau, phi=phi,
                       nu=nufield)


@dataclass
class SecondFundamentalForm:
    b: np.ndarray            # (n, n) outer components
    beta: np.ndarray         # (m, m) inner components
    symmetry_defect: float


def second_fundamental_form(surface, system, nufield, gamma, y):
    """Outer and inner components of the second fundamental form at y.

    The lift comes from _psi_parts.  The covariant derivative of the
    momentum lift across the surface is nu * dn with nu frozen at its value
    at y; the projector annihilates the discarded variation of nu exactly,
    so the form is unaffected.
    """
    nu = _nu_at(surface, system, nufield, y)
    return _form_of_lift(_psi_parts(surface, system, nu, y), nu, gamma)


def _form_of_lift(s, nu, gamma):
    """second_fundamental_form from the _psi_parts `s` of the lift by nu."""
    tau = s.tau
    P = projector_matrix(s.H.dp, s.p, s.omega)
    dp = nu * s.dn - tau.T @ connection_term(gamma, s.x, s.p)
    # b(E_j) = -P* f(P E_j): expand P E_j over the frame, push through f
    coeff, *_ = np.linalg.lstsq(tau, P, rcond=None)     # (m, n) columns solve tau c = P e_j
    f_cols = dp.T @ coeff                               # (n, n): f(P E_j) as columns
    bmat = -(P.T @ f_cols)                              # rows indexed by covector slot
    beta = tau.T @ bmat @ tau
    return SecondFundamentalForm(b=bmat, beta=beta,
                                 symmetry_defect=float(np.abs(bmat - bmat.T).max()))


PRESCRIBED_BOX_HALF = 0.5


def surface_with_prescribed_form(point, momentum, beta, nu0):
    """Graph hypersurface through `point`, tangent to the null space of the
    momentum covector, whose second fundamental form at the point is `beta`.

    The graph height is quadratic over an orthonormal basis of the null
    space; its sign absorbs the base-point orientation of the canonical
    normal so that the constructor and the extractor agree.
    """
    point = np.asarray(point, dtype=float)
    momentum = np.asarray(momentum, dtype=float)
    n = len(point)
    m = n - 1
    if np.linalg.norm(momentum) == 0.0:
        raise ZeroMomentum("prescribed-form construction needs p != 0")
    if nu0 == 0.0:
        raise ZeroNu("nu0 must be nonzero")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (m, m):
        raise ValidationError("beta", f"expected shape ({m}, {m})")
    if np.abs(beta - beta.T).max() > 1e-12 * max(1.0, np.abs(beta).max()):
        raise ValidationError("beta", "must be symmetric")
    _, _, vt = np.linalg.svd(momentum[None, :])
    u_n = vt[0] if vt[0] @ momentum > 0 else -vt[0]
    frame = vt[1:]
    lead = u_n[np.argmax(np.abs(u_n) > 1e-12)]
    sigma = 1.0 if lead > 0 else -1.0
    ys = [expr.sym("y", i + 1) for i in range(m)]
    z = expr.const(0.0)
    for i in range(m):
        for j in range(m):
            c = sigma * beta[i, j] / (2.0 * nu0)
            z = expr.add(z, expr.mul(expr.const(c), expr.mul(ys[i], ys[j])))
    chart = []
    for s in range(n):
        e = expr.const(point[s])
        for i in range(m):
            e = expr.add(e, expr.mul(expr.const(frame[i, s]), ys[i]))
        e = expr.add(e, expr.mul(expr.const(u_n[s]), z))
        chart.append(e)
    box = np.array([[-PRESCRIBED_BOX_HALF, PRESCRIBED_BOX_HALF]] * m)
    return Hypersurface(n, chart, box, base_point=np.zeros(m))
