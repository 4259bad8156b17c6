"""Parametric hypersurfaces, the scalar field fixing initial momentum
magnitude, shift simulation with deviation functions, and the second
fundamental form.

A hypersurface is a chart map x(y) over m = n - 1 parameters.  Its normal
covector is computed from cofactor minors of the tangent frame, normalised
to unit Euclidean length, with the overall sign fixed once at the base
point (first nonzero component positive) so that it varies continuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import expr
from .calculus import _Table, check_omega, point_failure
from .dynamics import integrate_batch, rk4_step
from .errors import (NonFinite, RankDeficient, ValidationError, VanishingNu,
                     ZeroMomentum, ZeroNu)
from .tensorfields import grid_derivative, projector_matrix

NORMAL_FD_STEP = 1e-4
PFAFF_FD_STEP = 1e-3


class Hypersurface:
    """Chart map x(y) on a declared parameter box."""

    def __init__(self, n, chart, box, base_point=None):
        self.n = int(n)
        self.m = self.n - 1
        chart = [expr.parse(c) if isinstance(c, str) else c for c in chart]
        if len(chart) != self.n:
            raise ValidationError("chart", f"expected {self.n} components")
        for e in chart:
            expr.check_symbols(e, 0, kinds=("y",), m=self.m, where="chart component")
        self.chart = chart
        box = np.asarray(box, dtype=float)
        if box.shape != (self.m, 2):
            raise ValidationError("box", f"expected shape ({self.m}, 2)")
        self.box = box
        self.y0 = (np.asarray(base_point, dtype=float) if base_point is not None
                   else box[:, 0].copy())
        if self.y0.shape != (self.m,):
            raise ValidationError("base_point", f"expected {self.m} entries")
        if np.any((self.y0 < box[:, 0]) | (self.y0 > box[:, 1])):
            raise ValidationError("base_point", "must lie inside the box")
        ys = [expr.sym("y", i + 1) for i in range(self.m)]
        self._chart_table = _Table(chart)
        self._frame_table = _Table([[c.diff(s) for s in ys] for c in chart])
        self._base_sign = None

    def chart_at(self, y):
        return self._chart_table(y=np.asarray(y, dtype=float))

    def frame_at(self, y):
        return self._frame_table(y=np.asarray(y, dtype=float))


def tangent_frame(surface, y):
    """Columns are the tangent vectors of the coordinate curves at y."""
    tau = surface.frame_at(y)
    sv = np.linalg.svd(tau, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1.0):
        raise RankDeficient(f"tangent frame rank deficient at y={y}")
    return tau


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
    a, b = (np.ascontiguousarray(np.moveaxis(c, (0, 1), (-2, -1))) for c in (a, b))
    out = np.moveaxis(a @ b, (-2, -1), (0, 1))
    if b_core == 1:
        out = out[:, 0]
    return out[0] if a_core == 1 else out


def _raw_normal(surface, y):
    tau = surface.frame_at(y)                               # (n, m, *B)
    rows = np.moveaxis(tau, (0, 1), (-2, -1))               # (*B, n, m)
    raw = np.stack([(-1.0) ** s * np.linalg.det(np.delete(rows, s, axis=-2))
                    for s in range(surface.n)])
    return raw, tau


def normal_covector(surface, y):
    """Unit-normalised annihilator of the tangent frame, sign continuous
    from the base point; y has shape (m, *B), the result (n, *B)."""
    y = np.asarray(y, dtype=float)
    raw, tau = _raw_normal(surface, y)
    scale = np.prod(np.linalg.norm(tau, axis=0), axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    norm = np.sqrt(_matmul(raw, raw, 1, 1))
    bad = norm <= 1e-12 * scale
    if np.any(bad):
        raise point_failure(RankDeficient, "tangent frame rank deficient", bad, y=y)
    if surface._base_sign is None:
        raw0, _ = _raw_normal(surface, surface.y0)
        norm0 = np.linalg.norm(raw0)
        if norm0 == 0.0:
            raise RankDeficient("tangent frame rank deficient at the base point")
        unit0 = raw0 / norm0
        lead = unit0[np.argmax(np.abs(unit0) > 1e-12)]
        surface._base_sign = 1.0 if lead > 0 else -1.0
    return surface._base_sign * raw / norm


def _normal_derivatives(surface, y, delta=NORMAL_FD_STEP):
    """dn[i][s] = central difference of the normal covector along y^i;
    y has shape (m, *B), the result (m, n, *B)."""
    m = surface.m
    dn = np.empty((m, surface.n) + y.shape[1:])
    for i in range(m):
        step = np.zeros((m,) + (1,) * (y.ndim - 1))
        step[i] = delta
        dn[i] = (normal_covector(surface, y + step)
                 - normal_covector(surface, y - step)) / (2.0 * delta)
    return dn


def nearest_node(axes, y):
    """Grid index of the node nearest to y, axis by axis."""
    return tuple(int(np.argmin(np.abs(ax - yi))) for ax, yi in zip(axes, np.atleast_1d(y)))


def grid_axes(box, counts):
    """Evenly spaced node axes over a parameter box, counts[i] nodes on axis i."""
    return tuple(np.linspace(lo, hi, int(c)) for (lo, hi), c in zip(box, counts))


@dataclass
class NormalField:
    """Unit normal covectors sampled on a parameter grid."""
    axes: tuple
    values: np.ndarray       # (*grid, n)

    def value_near(self, y):
        return self.values[nearest_node(self.axes, y)]


def sample_normals(surface, axes):
    """Evaluate the canonical normal covector on a full grid."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    ys = np.stack(np.meshgrid(*axes, indexing="ij"))        # (m, *grid)
    return NormalField(axes=axes, values=np.moveaxis(normal_covector(surface, ys), 0, -1))


@dataclass
class NuField:
    """Scalar momentum magnitude on the parameter grid."""
    axes: tuple
    values: np.ndarray
    y0: np.ndarray
    nu0: float
    path_discrepancy: float | None = None

    def value_near(self, y):
        return float(self.values[nearest_node(self.axes, y)])


def _nu_at(nufield, y):
    """nu at y: the value at the nearest node of a NuField, or a constant."""
    return nufield.value_near(y) if isinstance(nufield, NuField) else float(nufield)


def _pfaff_rhs(surface, system, nu, y):
    """Right-hand sides psi_i(nu, y) of the complete system for nu.

    y has shape (m, *B) and nu shape B; psi has shape (m, *B).
    """
    y = np.asarray(y, dtype=float)
    x = surface.chart_at(y)
    tau = surface.frame_at(y)
    nvec = normal_covector(surface, y)
    dn = _normal_derivatives(surface, y)
    p = nu * nvec
    data = system.model.partials(x, p, order=1)
    omega = _matmul(p, data.dp, 1, 1)
    check_omega(omega, "omega vanishes on the lift", y=y, x=x, p=p)
    qv = system.force.values(x, p)
    psi = (-(nu**2 / omega) * _matmul(dn, data.dp, 2, 1)
           - nu * _matmul(data.dx / omega - qv, tau, 1, 2))
    return psi


def _march_axis(surface, system, values, axes, lines, axis):
    """RK4 march of nu along one grid axis for a batch of lines, both
    directions from their shared start node.

    `lines` (m, L) holds the grid index of each line's start node; the rows
    other than `axis` stay fixed along the line.  The lines are independent,
    so they march as one batch.
    """
    ax = axes[axis]
    start = int(lines[axis, 0])
    y_lines = np.array([axes[a][lines[a]] for a in range(len(axes))])    # (m, L)

    def y_at(coord):
        y = y_lines.copy()
        y[axis] = coord
        return y

    def rhs(c, state):
        # the stage at the fraction c of the step from node k
        return (_pfaff_rhs(surface, system, state[0], y_at(ax[k] + c * h))[axis],)

    idx = lines.copy()
    for direction in (1, -1):
        nu = values[tuple(lines)]
        k = start
        while 0 <= k + direction < len(ax):
            h = ax[k + direction] - ax[k]
            (nu,) = rk4_step(rhs, (nu,), h)
            k += direction
            idx[axis] = k
            if not np.all(np.isfinite(nu)):
                raise point_failure(NonFinite, f"nu not finite while marching axis {axis}",
                                    ~np.isfinite(nu), y=y_at(ax[k]))
            if np.any(np.abs(nu) < 1e-12):
                raise point_failure(VanishingNu, f"nu vanished while marching axis {axis}",
                                    np.abs(nu) < 1e-12, y=y_at(ax[k]))
            values[tuple(idx)] = nu


def _solve_nu_sweep(surface, system, nu0, axes, base_idx, order):
    shape = tuple(len(ax) for ax in axes)
    values = np.full(shape, np.nan)
    values[base_idx] = nu0
    done_axes = []
    for axis in order:
        ranges = [range(shape[a]) if a in done_axes else [base_idx[a]]
                  for a in range(len(axes))]
        lines = np.array(list(product(*ranges))).T
        _march_axis(surface, system, values, axes, lines, axis)
        done_axes.append(axis)
    return values


def solve_nu_curve(surface, system, nu0, axis=None):
    """Solve the single ordinary differential equation for nu on a curve."""
    if surface.m != 1:
        raise ValidationError("surface", "curve solver needs n = 2")
    if nu0 == 0.0:
        raise ZeroNu("nu0 must be nonzero")
    if axis is None:
        axis = grid_axes(surface.box, [201])[0]
    axis = np.asarray(axis, dtype=float)
    values = _solve_nu_sweep(surface, system, nu0, (axis,),
                             nearest_node((axis,), surface.y0), [0])
    return NuField(axes=(axis,), values=values, y0=surface.y0.copy(), nu0=nu0)


def solve_nu_grid(surface, system, nu0, axes=None, counts=None):
    """Axis-by-axis integration of the complete system for nu on a grid.

    Marches in the fixed axis order (first parameter first), then again in
    reversed order; the maximal difference between the two sweeps is stored
    as an integrability diagnostic.
    """
    if surface.m < 2:
        raise ValidationError("surface", "grid solver needs n >= 3")
    if nu0 == 0.0:
        raise ZeroNu("nu0 must be nonzero")
    if axes is None:
        axes = grid_axes(surface.box, counts or [31] * surface.m)
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    base_idx = nearest_node(axes, surface.y0)
    fwd = _solve_nu_sweep(surface, system, nu0, axes, base_idx,
                          list(range(surface.m)))
    rev = _solve_nu_sweep(surface, system, nu0, axes, base_idx,
                          list(reversed(range(surface.m))))
    return NuField(axes=axes, values=fwd, y0=surface.y0.copy(), nu0=nu0,
                   path_discrepancy=float(np.abs(fwd - rev).max()))


def pfaff_compatibility_residual(surface, system, nufield, y,
                                 dy=PFAFF_FD_STEP, dnu=PFAFF_FD_STEP):
    """Antisymmetric part of the mixed second derivatives of nu.

    Identically zero for m = 1 where no compatibility constraint exists.
    """
    m = surface.m
    y = np.asarray(y, dtype=float)
    if m < 2:
        return np.zeros((m, m))
    nu = _nu_at(nufield, y)
    psi0 = _pfaff_rhs(surface, system, nu, y)
    dpsi_dnu = (_pfaff_rhs(surface, system, nu + dnu, y)
                - _pfaff_rhs(surface, system, nu - dnu, y)) / (2.0 * dnu)
    theta = np.empty((m, m))
    for j in range(m):
        step = np.zeros(m)
        step[j] = dy
        dpsi_dyj = (_pfaff_rhs(surface, system, nu, y + step)
                    - _pfaff_rhs(surface, system, nu, y - step)) / (2.0 * dy)
        theta[:, j] = dpsi_dyj + dpsi_dnu * psi0[j]
    return theta - theta.T


@dataclass
class DeviationSeries:
    t: np.ndarray
    phi: np.ndarray          # (K+1, m)

    @property
    def max_abs(self):
        return float(np.abs(self.phi).max())


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

    def deviation_series(self, idx):
        return DeviationSeries(t=self.t, phi=self.phi[(slice(None),) + tuple(idx)])


def run_shift(surface, system, nufield, t_end, h):
    """Shift the hypersurface along trajectories started from the lift
    p = nu * normal, and measure the deviation functions on the family.

    Tangent frames along the shifted family are computed from neighbouring
    trajectories, matching the construction of the family itself.
    """
    axes = nufield.axes
    m = surface.m
    if len(axes) != m:
        raise ValidationError("nufield", "grid dimension differs from surface")
    grid_shape = tuple(len(ax) for ax in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    ys = np.stack([g.ravel() for g in mesh])         # (m, B)
    xs0 = surface.chart_at(ys).T                     # (B, n)
    normals = sample_normals(surface, axes).values.reshape(-1, surface.n)
    nus = nufield.values.reshape(-1)
    ps0 = nus[:, None] * normals
    t, xs, ps = integrate_batch(system, xs0, ps0, t_end, h)
    K = len(t)
    xs = xs.reshape((K,) + grid_shape + (surface.n,))
    ps = ps.reshape((K,) + grid_shape + (surface.n,))
    tau = np.empty(xs.shape + (m,))
    for a in range(m):
        spacing = axes[a][1] - axes[a][0]
        tau[..., a] = grid_derivative(xs, 1 + a, spacing)
    phi = np.einsum("...s,...sm->...m", ps, tau)
    return ShiftFamily(t=t, axes=axes, xs=xs, ps=ps, tau=tau, phi=phi, nu=nufield)


@dataclass
class SecondFundamentalForm:
    b: np.ndarray            # (n, n) outer components
    beta: np.ndarray         # (m, m) inner components
    symmetry_defect: float


def _lift_at(surface, nufield, y):
    """Base point x, momentum p = nu * normal and nu at the surface point y."""
    nu = _nu_at(nufield, y)
    return surface.chart_at(y), nu * normal_covector(surface, y), nu


def second_fundamental_form(surface, system, nufield, gamma, y,
                            delta=NORMAL_FD_STEP):
    """Outer and inner components of the second fundamental form at y.

    The covariant derivative of the momentum lift across the surface is
    built from central differences of nu * normal with nu frozen at its
    value at y; the projector annihilates the discarded variation of nu
    exactly, so the form is unaffected.
    """
    y = np.asarray(y, dtype=float)
    x, p, nu = _lift_at(surface, nufield, y)
    tau = tangent_frame(surface, y)
    data = system.model.partials(x, p, order=1)
    omega = float(p @ data.dp)
    check_omega(omega, "omega vanishes on the lift", y=y, x=x, p=p)
    P = projector_matrix(data.dp, p, omega)
    dp = nu * _normal_derivatives(surface, y, delta)
    if gamma is not None and not gamma.is_flat:
        G = gamma.values(x, p)
        dp = dp - np.einsum("asr,a,si->ir", G, p, tau)
    # b(E_j) = -P* f(P E_j): expand P E_j over the frame, push through f
    coeff, *_ = np.linalg.lstsq(tau, P, rcond=None)     # (m, n) columns solve tau c = P e_j
    f_cols = dp.T @ coeff                               # (n, n): f(P E_j) as columns
    bmat = -(P.T @ f_cols)                              # rows indexed by covector slot
    beta = tau.T @ bmat @ tau
    return SecondFundamentalForm(b=bmat, beta=beta,
                                 symmetry_defect=float(np.abs(bmat - bmat.T).max()))


def surface_with_prescribed_form(point, momentum, beta, nu0, box_half=0.5):
    """Graph hypersurface through `point`, tangent to the null space of the
    momentum covector, whose second fundamental form at the point is `beta`.

    The graph height is quadratic over an orthonormal basis of the null
    space; its sign absorbs the base-point orientation of the canonical
    normal so that the constructor and the extractor agree.
    """
    from .calculus import ChartPoint
    if isinstance(point, ChartPoint):
        point = point.x
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
    box = np.array([[-box_half, box_half]] * m)
    surf = Hypersurface(n, chart, box, base_point=np.zeros(m))
    surf.adapted_frame = frame
    surf.adapted_axis = u_n
    surf.orientation = sigma
    return surf
