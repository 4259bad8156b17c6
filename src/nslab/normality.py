"""Normality residual evaluators and variational integrators.

Four residual families characterise Newtonian systems that move every
hypersurface normally: two weak-normality vectors (weak_a, weak_b) and two
additional-normality matrices (add_sym, add_proj).  All four vanish at every
cotangent point with p != 0 exactly when the system admits normal shift.

weak_b is evaluated from the covariant coefficient fields (alpha, beta, eta)
of the deviation equation; an independently transcribed expanded variant is
kept for cross-checking.  The two agree wherever the horizontal derivative of
omega annihilates <Q|v>, in particular on x-independent models with a flat
connection, and only the coefficient-field variant stays invariant under
connection shifts.

Every evaluator works on a FieldPoint frame batched over trailing axes; the
per-point functions are the single-point case of the same formulas, and
point-set callers pass their points through in blocks of POINT_BLOCK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import CotangentState
from .dynamics import Trajectory, rhs_v_array, rk4_step
from .errors import (DimensionTooSmall, NslabNumericError,
                     RepresentationMismatch, ValidationError)
from .tensorfields import FieldPoint, MOMENTUM, VELOCITY, _dot, _outer, _swap

__all__ = [
    "DeviationODECoeffs", "OperatorB", "VariationState", "VariationSeries",
    "PointResiduals", "ResidualReport", "InvarianceReport",
    "weak_residuals", "weak_residual_b_printed", "additional_residuals",
    "deviation_coefficients", "integrate_variation", "deviation_ode_residual",
    "connection_invariance_check", "b_symmetry_of_B", "evaluate_residuals",
    "variation_matrices",
]

# Point sets go through the batched frames in blocks of at most this many
# points: larger blocks are no faster, and the Legendre start search of a
# derived Hamiltonian allocates memory in proportion to the block.
POINT_BLOCK = 256


def point_columns(states, n):
    """x and p of a sequence of cotangent states as two (n, N) arrays."""
    if not len(states):
        return np.empty((n, 0)), np.empty((n, 0))
    return (np.stack([c.x for c in states], axis=1),
            np.stack([c.p for c in states], axis=1))


def in_blocks(fn, x, p):
    """fn(x[:, cols], p[:, cols]) for consecutive blocks of at most
    POINT_BLOCK columns, as a list.

    A point failure raised inside fn is renumbered to the offending point's
    column in x and p.
    """
    out = []
    for first in range(0, x.shape[1], POINT_BLOCK):
        cols = slice(first, first + POINT_BLOCK)
        try:
            out.append(fn(x[:, cols], p[:, cols]))
        except NslabNumericError as exc:
            if exc.index is not None:
                exc.index += first
            raise
    return out


def _frame(system, gamma, x, p):
    fp = FieldPoint(system.model, gamma, x, p, force=system.force)
    fp.require_momentum()
    fp.require_omega()
    return fp


@dataclass
class DeviationODECoeffs:
    alpha: np.ndarray
    beta_cov: np.ndarray
    eta: np.ndarray
    sigma: float
    a_coef: float         # coefficient of phi-dot in the deviation equation
    b_coef: float         # coefficient of phi


def _coefficient_fields(fp):
    v, p, om, q = fp.v, fp.p, fp.omega, fp.q
    u = v / om
    w = fp.nabla_h / om - q
    scal = _dot(fp.nabla_omega / om**2, u) + _dot(fp.vt_omega / om**2, q - fp.nabla_h / om)
    alpha = scal * v - np.einsum("s...,rs...->r...", u,
                                 fp.qp + _outer(fp.vt_omega, q) / om)
    beta = (scal * fp.nabla_h
            + np.einsum("s...,sr...->r...", u, fp.nabla_q)
            - np.einsum("s...,rs...->r...", u,
                        fp.nabla_q + _outer(fp.nabla_omega, q) / om)
            - np.einsum("s...,sr...->r...", w, fp.qp))
    pa = _dot(p, alpha)
    eta = beta - pa * w
    sigma = _dot(u, eta)
    return alpha, beta, eta, sigma, pa, w


def deviation_coefficients(system, gamma, costate):
    """Covariant coefficient fields of the second-order deviation equation."""
    fp = _frame(system, gamma, costate.x, costate.p)
    alpha, beta, eta, sigma, pa, _ = _coefficient_fields(fp)
    return DeviationODECoeffs(alpha=alpha, beta_cov=beta, eta=eta, sigma=sigma,
                              a_coef=-pa, b_coef=sigma)


def _weak(fp):
    alpha, _, eta, _, _, _ = _coefficient_fields(fp)
    P = fp.projector
    return (np.einsum("ij...,j...->i...", P, alpha),
            np.einsum("i...,ij...->j...", eta, P))


def weak_residuals(system, gamma, costate):
    """Left-hand sides of the two weak normality equations at a cotangent
    state, batched over trailing axes of its arrays."""
    return _weak(_frame(system, gamma, costate.x, costate.p))


def weak_residual_b_printed(system, gamma, costate):
    """Expanded transcription of the second weak equation (cross-check only)."""
    fp = _frame(system, gamma, costate.x, costate.p)
    v, p, om, q = fp.v, fp.p, fp.omega, fp.q
    u = v / om
    w = fp.nabla_h / om - q
    qpv = fp.qp + _outer(fp.vt_omega, q) / om
    g1 = (np.einsum("s...,sr...->r...", u, fp.nabla_q)
          + (_dot(fp.nabla_omega, v) / om**2) * q
          - np.einsum("s...,rs...->r...", u, fp.nabla_q)
          + fp.nabla_omega / om * _dot(q, v) / om)
    g2 = w * _dot(p, np.einsum("rs...,s...->r...", qpv, u))
    g3 = np.einsum("s...,sr...->r...", w, qpv)
    return np.einsum("i...,ij...->j...", g1 + g2 - g3, fp.projector)


@dataclass
class OperatorB:
    matrix: np.ndarray
    lambda_b: float


def _additional(fp):
    p, om, q = fp.p, fp.omega, fp.q
    P = fp.projector
    p_qp = np.einsum("r...,rs...->s...", p, fp.qp)
    C = (_outer(fp.p_norm2 * fp.nabla_h / om**2, q)
         - _outer(np.einsum("rq...,q...->r...", fp.nabla_vt_h, p) / om, q)
         - fp.nabla_q
         + _outer(fp.nabla_h / om, p_qp)
         + _outer(fp.nabla_h / om, q)
         + _swap(_outer(p_qp, q)))
    add_sym = np.einsum("rs...,si...,rj...->ij...", C - _swap(C), P, P)
    B = np.einsum("ij...,jk...,kl...->il...", P, _outer(fp.p_up, q) / om + fp.qp, P)
    lam = np.einsum("ii...->...", B) / (fp.n - 1)
    add_proj = B - lam * P
    return add_sym, OperatorB(matrix=B, lambda_b=lam), add_proj


def additional_residuals(system, gamma, costate):
    """Antisymmetrised compatibility residual, the force-shape operator B and
    its defect from a multiple of the projector."""
    if system.n < 3:
        raise DimensionTooSmall(
            "additional normality is unconstrained for n = 2")
    return _additional(_frame(system, gamma, costate.x, costate.p))


@dataclass
class VariationState:
    tau: np.ndarray
    fiber: np.ndarray       # xi (momentum rep) or theta (velocity rep)
    rep: str = MOMENTUM

    @property
    def xi(self):
        return self.fiber

    @property
    def theta(self):
        return self.fiber


@dataclass
class VariationSeries:
    t: np.ndarray
    tau: np.ndarray         # (K+1, n)
    fiber: np.ndarray       # (K+1, n)
    rep: str

    def state(self, k):
        return VariationState(self.tau[k], self.fiber[k], self.rep)


def _variation_matrix_momentum(fp):
    """Coefficient matrix of d/dt (tau, xi) on the base trajectory, with the
    frame's batch axes trailing."""
    n = fp.n
    v, p, om = fp.v, fp.p, fp.omega
    U = v / om
    w = fp.nabla_h / om - fp.q
    # fiber and spatial derivatives of the flow velocity field U^s
    dU_dp = fp.ginv / om - _outer(fp.vt_omega, v) / om**2
    dU_dx = fp.hxp / om - _outer(fp.omega_x, v) / om**2
    HU = (dU_dx + np.einsum("a...,arb...,bs...->rs...", p, fp.gam, dU_dp)
          + np.einsum("sra...,a...->rs...", fp.gam, U))
    # fiber and spatial derivatives of the covector field w_s
    dw_dp = fp.dw_dp / om - _outer(fp.vt_omega, fp.nabla_h) / om**2 - fp.qp
    dw_dx = fp.dw_dx / om - _outer(fp.omega_x, fp.nabla_h) / om**2 - fp.qx
    HW = (dw_dx + np.einsum("a...,arb...,bs...->rs...", p, fp.gam, dw_dp)
          - np.einsum("brs...,b...->rs...", fp.gam, w))
    D, R = fp.curvature.dynamic, fp.curvature.riemann
    A = np.einsum("m...,bms...->bs...", U, fp.gam)
    M = np.zeros((2 * n, 2 * n) + U.shape[1:])
    M[:n, :n] = _swap(HU) - np.einsum("m...,sma...->sa...", U, fp.gam)
    M[:n, n:] = _swap(dU_dp)
    M[n:, :n] = (-np.einsum("mqrs...,m...,q...->sr...", D, p, w)
                 - np.einsum("q...,m...,msqr...->sr...", U, p, R)
                 - _swap(HW))
    M[n:, n:] = (-np.einsum("q...,m...,mrqs...->sr...", U, p, D)
                 - _swap(dw_dp) + _swap(A))
    return M


def _variation_matrix_velocity(system, x, v):
    """Coefficient matrix of d/dt (tau, theta) for the velocity form."""
    lag = system.lagrangian
    n = lag.n
    lv = lag.lv(x, v)
    lx = lag.lx(x, v)
    g = lag.lvv(x, v)
    lvx = lag.lvx(x, v)
    lxx = lag.lxx(x, v)
    lvvv = lag.lvvv(x, v)
    lvvx = lag.lvvx(x, v)
    lvxx = lag.lvxx(x, v)
    om = float(v @ lv)
    xdot, vdot = rhs_v_array(system, x, v)
    p = lv
    qx = system.force.dx(x, p)
    qp = system.force.dp(x, p)
    # force through the Legendre map: dQ~_i/dx^s and dQ~_i/dv^s
    qx_t = qx.T + np.einsum("ki,ks->is", qp, lvx)
    qv_t = np.einsum("ki,ks->is", qp, g)
    m_tt = -np.outer(v, np.einsum("ks,k->s", lvx, v)) / om**2
    m_tth = (np.eye(n) / om - np.outer(v, lv) / om**2
             - np.outer(v, np.einsum("ks,k->s", g, v)) / om**2)
    c_th = (qv_t - np.einsum("isk,k->is", lvvv, vdot)
            - np.einsum("isk,k->is", lvvx, xdot)
            + lvx.T / om
            - np.outer(lx, lv + np.einsum("ks,k->s", g, v)) / om**2
            - lvx @ m_tth)
    c_t = (qx_t - np.einsum("iks,k->is", lvvx, vdot)
           - np.einsum("isk,k->is", lvxx, xdot)
           + lxx / om
           - np.outer(lx, np.einsum("ks,k->s", lvx, v)) / om**2
           - lvx @ m_tt)
    ginv = np.linalg.inv(g)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = m_tt
    M[:n, n:] = m_tth
    M[n:, :n] = ginv @ c_t
    M[n:, n:] = ginv @ c_th
    return M


def variation_matrices(system, gamma, base, rep=MOMENTUM):
    """Coefficient matrices of the linearised dynamics at every stored node."""
    if not isinstance(base, Trajectory):
        raise ValidationError("base", "expected a Trajectory")
    if base.rep != rep:
        raise RepresentationMismatch(
            f"base trajectory is {base.rep}, variation requested in {rep}")
    if rep == MOMENTUM:
        def block(x, p):
            return np.moveaxis(_variation_matrix_momentum(_frame(system, gamma, x, p)),
                               -1, 0)
        return [m for mats in in_blocks(block, base.xs.T, base.fibers.T)
                for m in mats]
    if rep == VELOCITY:
        return [_variation_matrix_velocity(system, base.xs[k], base.fibers[k])
                for k in range(len(base.t))]
    raise ValidationError("rep", f"unknown representation {rep!r}")


def integrate_variation(system, gamma, base, init, rep=MOMENTUM, mats=None):
    """Integrate the linearised dynamics along a stored base trajectory.

    Coefficient matrices are built at the stored nodes and interpolated
    linearly for the half-step Runge-Kutta stages, which makes the scheme
    second order in the base step (not fourth); pass a list of initial
    states to reuse the matrices across several runs.
    """
    single = isinstance(init, VariationState)
    inits = [init] if single else list(init)
    if mats is None:
        mats = variation_matrices(system, gamma, base, rep)
    K = len(base.t) - 1
    h = base.h
    n = base.n
    series = []
    for vs in inits:
        z = np.concatenate([np.asarray(vs.tau, float), np.asarray(vs.fiber, float)])
        out = np.empty((K + 1, 2 * n))
        out[0] = z
        for k in range(K):
            stage = {0.0: mats[k], 0.5: 0.5 * (mats[k] + mats[k + 1]), 1.0: mats[k + 1]}
            (z,) = rk4_step(lambda c, s: (stage[c] @ s[0],), (z,), h)
            out[k + 1] = z
        series.append(VariationSeries(t=base.t.copy(), tau=out[:, :n],
                                      fiber=out[:, n:], rep=rep))
    return series[0] if single else series


def _deviation_samples(system, gamma, base):
    """Coefficient fields of the deviation equation sampled along a trajectory."""
    def block(x, p):
        fp = _frame(system, gamma, x, p)
        alpha, beta, _, sigma, pa, w = _coefficient_fields(fp)
        return {"v": fp.v, "omega": fp.omega, "alpha": alpha, "beta": beta,
                "w": w, "sigma": sigma, "pa": pa}
    blocks = in_blocks(block, base.xs.T, base.fibers.T)
    S = {key: np.concatenate([b[key] for b in blocks], axis=-1).T
         for key in blocks[0]}
    S["p"] = base.fibers
    return S


def deviation_ode_residual(system, gamma, base, variations, samples=None):
    """Worst defect of the second-order deviation equation along a trajectory.

    phi and its first two derivatives are evaluated from the covariant
    formulas on the supplied variation series; the result is normalised by
    max(1, max |phi-ddot|).  A list of series gives a list of defects with
    the coefficient samples shared.
    """
    single = isinstance(variations, VariationSeries)
    many = [variations] if single else list(variations)
    if samples is None:
        samples = _deviation_samples(system, gamma, base)
    out = []
    for series in many:
        if series.rep != MOMENTUM:
            raise RepresentationMismatch("deviation residual runs in momentum form")
        phi = np.einsum("ks,ks->k", samples["p"], series.tau)
        phi_dot = (-np.einsum("ks,ks->k", samples["v"] / samples["omega"][:, None],
                              series.fiber)
                   - np.einsum("ks,ks->k", samples["w"], series.tau))
        phi_ddot = (np.einsum("ks,ks->k", samples["alpha"], series.fiber)
                    + np.einsum("ks,ks->k", samples["beta"], series.tau))
        resid = phi_ddot + samples["pa"] * phi_dot - samples["sigma"] * phi
        out.append(float(np.abs(resid).max() / max(1.0, np.abs(phi_ddot).max())))
    return out[0] if single else out


@dataclass
class PointResiduals:
    x: np.ndarray
    p: np.ndarray
    weak_a: np.ndarray
    weak_b: np.ndarray
    add_sym: np.ndarray | None
    add_proj: np.ndarray | None
    max_abs: dict       # family -> largest |entry|; None if not evaluated

    def norms(self):
        return dict(self.max_abs)


@dataclass
class ResidualReport:
    points: list
    max_weak_a: float
    max_weak_b: float
    max_add_sym: float | None
    max_add_proj: float | None


_FAMILIES = ("weak_a", "weak_b", "add_sym", "add_proj")


def evaluate_residuals(system, gamma, states):
    """All four residual families at each supplied cotangent state, from one
    batched frame per block of states."""
    def block(x, p):
        fp = _frame(system, gamma, x, p)
        out = dict(zip(_FAMILIES, _weak(fp)))
        if system.n >= 3:
            out["add_sym"], _, out["add_proj"] = _additional(fp)
        return out
    blocks = in_blocks(block, *point_columns(states, system.n))
    maxima = dict.fromkeys(_FAMILIES)
    columns = {}
    for key in blocks[0] if blocks else ():
        vals = np.concatenate([b[key] for b in blocks], axis=-1)
        norms = np.abs(vals).reshape(-1, len(states)).max(axis=0)
        maxima[key] = float(norms.max())
        columns[key] = (vals, norms.tolist())
    pts = []
    for k, c in enumerate(states):
        fields = dict.fromkeys(_FAMILIES)
        max_abs = dict.fromkeys(_FAMILIES)
        for key, (vals, norms) in columns.items():
            fields[key] = vals[..., k]
            max_abs[key] = norms[k]
        pts.append(PointResiduals(x=c.x, p=c.p, max_abs=max_abs, **fields))
    return ResidualReport(points=pts, max_weak_a=maxima["weak_a"],
                          max_weak_b=maxima["weak_b"], max_add_sym=maxima["add_sym"],
                          max_add_proj=maxima["add_proj"])


@dataclass
class InvarianceReport:
    weak_a_diff: float
    weak_b_diff: float
    add_proj_diff: float | None
    add_sym_diff: float | None
    add_proj_magnitude: float | None


def connection_invariance_check(system, gamma, shift, states):
    """Residual differences under the connection displacement Gamma -> Gamma + T."""
    from .tensorfields import ExtendedConnection
    base = gamma if gamma is not None else ExtendedConnection.flat(system.n)
    shifted = base.shifted(shift)
    additional = system.n >= 3

    def block(x, p):
        f0 = _frame(system, base, x, p)
        f1 = _frame(system, shifted, x, p)
        (wa0, wb0), (wa1, wb1) = _weak(f0), _weak(f1)
        worst = [np.abs(wa1 - wa0).max(), np.abs(wb1 - wb0).max()]
        if additional:
            s0, _, pr0 = _additional(f0)
            s1, _, pr1 = _additional(f1)
            worst += [np.abs(pr1 - pr0).max(), np.abs(s1 - s0).max(),
                      np.abs(pr0).max()]
        return worst
    worst = np.array(in_blocks(block, *point_columns(states, system.n)))
    worst = worst.reshape(-1, 5 if additional else 2).max(axis=0, initial=0.0).tolist()
    proj_d, sym_d, proj_mag = worst[2:] if additional else (None, None, None)
    return InvarianceReport(weak_a_diff=worst[0], weak_b_diff=worst[1],
                            add_proj_diff=proj_d, add_sym_diff=sym_d,
                            add_proj_magnitude=proj_mag)


def b_symmetry_of_B(surface, system, nufield, gamma, y):
    """Symmetry defect of the force-shape operator with respect to the second
    fundamental form at a surface point."""
    from .hypersurface import second_fundamental_form, tangent_frame
    from .hypersurface import _lift_at
    if system.n < 3:
        raise DimensionTooSmall("needs n >= 3")
    sff = second_fundamental_form(surface, system, nufield, gamma, y)
    x, p, _ = _lift_at(surface, nufield, y)
    _, Bop, _ = additional_residuals(system, gamma, CotangentState(x, p))
    frame = tangent_frame(surface, y)
    mism = sff.b @ Bop.matrix - Bop.matrix.T @ sff.b
    worst = 0.0
    for i in range(frame.shape[1]):
        for j in range(frame.shape[1]):
            worst = max(worst, abs(float(frame[:, i] @ mism @ frame[:, j])))
    return worst
