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
per-point functions are the single-point case of the same formulas.  The
point-set evaluators (evaluate_residuals, connection_invariance_check) take
one CotangentState whose x and p have shape (n, N) and pass its columns
through in blocks of POINT_BLOCK.  integrate_variation steps through
dynamics._rk4, and b_symmetry_of_B lifts by hypersurface._psi_parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import CotangentState, adj_solve, check_hessian
from .dynamics import Trajectory, _momentum_rhs, _rk4
from .errors import (DimensionTooSmall, InsufficientSamples, NslabNumericError,
                     RepresentationMismatch, ValidationError)
from .tensorfields import (FieldPoint, MOMENTUM, _dot, _outer, _swap, connection_term,
                           grid_derivative)

__all__ = [
    "DeviationODECoeffs", "OperatorB", "VariationState", "VariationSeries",
    "ResidualReport", "InvarianceReport",
    "weak_residuals", "weak_residual_b_printed", "additional_residuals",
    "deviation_coefficients", "integrate_variation", "deviation_ode_residual",
    "connection_invariance_check", "b_symmetry_of_B", "evaluate_residuals",
]

# Point sets go through the batched frames in blocks of at most this many
# points: a block's fixed cost is spread over more points, while the
# Legendre start search of a derived Hamiltonian evaluates at most
# calculus.SEARCH_COLUMNS columns at once whatever the block.
POINT_BLOCK = 1024


def in_blocks(fn, x, p):
    """fn(x[:, cols], p[:, cols]) for the fewest consecutive blocks of at
    most POINT_BLOCK columns, as a list; their sizes differ by at most one.

    Even blocks leave no block of one point beside larger ones: the frames'
    einsums round a one-point block differently, and a point's values would
    then depend on where the blocks fall.  A point failure raised inside fn
    is renumbered to the offending point's column in x and p.
    """
    out = []
    count = x.shape[1]
    blocks = -(-count // POINT_BLOCK)
    for b in range(blocks):
        first = count * b // blocks
        cols = slice(first, count * (b + 1) // blocks)
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
    fiber: np.ndarray       # xi (momentum base) or theta (velocity base)


@dataclass
class VariationSeries:
    t: np.ndarray
    tau: np.ndarray         # (K+1, n)
    fiber: np.ndarray       # (K+1, n)
    rep: str


def integrate_variation(system, gamma, base, init):
    """Integrate the linearised dynamics along a stored base trajectory, in
    its representation: `init` holds (tau, xi) on a momentum base and
    (tau, theta) on a velocity base; a list of them is integrated as one.

    The base is integrated again from its first node in momentum form by
    dynamics._rk4, with the plain variations (dx, dp) in its state (fourth
    order; a momentum base is reproduced bit for bit, and a NaN stops it).
    The fiber part is converted at the base's nodes: xi_s = dp_s -
    p_k Gamma^k_sq tau^q, or theta = g^-1 (dp - L_vx tau) with g = L_vv.
    """
    if not isinstance(base, Trajectory):
        raise ValidationError("base", "expected a Trajectory")
    single = isinstance(init, VariationState)
    inits = [init] if single else list(init)
    tau = np.array([vs.tau for vs in inits], dtype=float)           # (r, n)
    fiber = np.array([vs.fiber for vs in inits], dtype=float)
    xs, fibers, lag = base.xs.T, base.fibers.T, system.lagrangian
    if base.rep == MOMENTUM:
        C = connection_term(gamma, xs, fibers)                      # (n, n, K+1)
        start = (xs[:, 0], fibers[:, 0], tau, fiber + tau @ C[..., 0].T)
    else:
        x0, v0 = xs[:, 0], fibers[:, 0]
        start = (x0, lag.lv(x0, v0), tau, tau @ lag.lvx(x0, v0).T + fiber @ lag.lvv(x0, v0))
    states = list(_rk4(_momentum_rhs(system), start, base.h, len(base.t) - 1))
    dX, dP = (np.array([s[i] for s in states]) for i in (2, 3))     # (K+1, r, n)
    if base.rep == MOMENTUM:
        fiber = dP - np.einsum("sqk,krq->krs", C, dX)
    else:
        det, adj = check_hessian(lag.lvv(xs, fibers), "vertical Hessian singular on the base",
                                 x=xs)
        rhs = dP - np.einsum("iqk,krq->kri", lag.lvx(xs, fibers), dX)           # (K+1, r, n)
        fiber = adj_solve(det, adj[:, :, None], rhs.T).T
    series = [VariationSeries(t=base.t.copy(), tau=dX[:, r], fiber=fiber[:, r], rep=base.rep)
              for r in range(len(inits))]
    return series[0] if single else series


def _deviation_samples(system, gamma, base):
    """The coefficients pa and sigma of the deviation equation sampled along
    a trajectory, each of shape (K+1,)."""
    def block(x, p):
        _, _, _, sigma, pa, _ = _coefficient_fields(_frame(system, gamma, x, p))
        return pa, sigma
    return [np.concatenate(c) for c in zip(*in_blocks(block, base.xs.T, base.fibers.T))]


def deviation_ode_residual(system, gamma, base, variations):
    """Worst defect of the deviation equation phi'' + pa phi' - sigma phi = 0
    along a momentum trajectory, for phi = p.tau of a variation series.

    phi' and phi'' are measured from phi's samples by grid_derivative in
    time, so a series that does not solve the linearised dynamics fails.
    The defect is taken where both differences are central (all but two
    nodes at each end), second order in the step there, and normalised by
    max(1, max |phi''|) there.  A list of series gives a list of defects
    with the coefficient samples shared.
    """
    single = isinstance(variations, VariationSeries)
    many = [variations] if single else list(variations)
    if len(base.t) < 5:
        raise InsufficientSamples("deviation residual needs at least 5 nodes")
    pa, sigma = _deviation_samples(system, gamma, base)
    inner = slice(2, -2)
    out = []
    for series in many:
        if series.rep != MOMENTUM:
            raise RepresentationMismatch("deviation residual runs in momentum form")
        phi = np.einsum("ks,ks->k", base.fibers, series.tau)
        phi_dot = grid_derivative(phi, 0, base.h)
        phi_ddot = grid_derivative(phi_dot, 0, base.h)
        resid = phi_ddot + pa * phi_dot - sigma * phi
        out.append(float(np.abs(resid[inner]).max()
                         / max(1.0, np.abs(phi_ddot[inner]).max())))
    return out[0] if single else out


FAMILIES = ("weak_a", "weak_b", "add_sym", "add_proj")


@dataclass
class ResidualReport:
    """The residual families at N points, point-major.

    values[f] has shape (N, n) for the weak families and (N, n, n) for the
    additional ones, and norms[f] shape (N,), the largest |entry| of each
    point's residual; both are None for a family that was not evaluated
    (the additional families at n = 2).
    """
    values: dict
    norms: dict
    max_weak_a: float
    max_weak_b: float
    max_add_sym: float | None
    max_add_proj: float | None


def _columns(costate):
    """x and p of a point set, each of shape (n, N)."""
    if costate.x.ndim != 2:
        raise ValidationError("costate", "expected x and p of shape (n, N)")
    return costate.x, costate.p


def evaluate_residuals(system, gamma, costate):
    """All four residual families at the N points of `costate` (x and p of
    shape (n, N)), from one batched frame per block of points."""
    def block(x, p):
        fp = _frame(system, gamma, x, p)
        out = dict(zip(FAMILIES, _weak(fp)))
        if system.n >= 3:
            out["add_sym"], _, out["add_proj"] = _additional(fp)
        return out
    blocks = in_blocks(block, *_columns(costate))
    values = dict.fromkeys(FAMILIES)
    norms = dict.fromkeys(FAMILIES)
    maxima = dict.fromkeys(FAMILIES)
    for key in blocks[0] if blocks else ():
        vals = np.concatenate([b[key] for b in blocks], axis=-1)
        values[key] = np.ascontiguousarray(np.moveaxis(vals, -1, 0))
        norms[key] = np.abs(values[key]).reshape(len(values[key]), -1).max(axis=1)
        maxima[key] = float(norms[key].max())
    return ResidualReport(values=values, norms=norms, max_weak_a=maxima["weak_a"],
                          max_weak_b=maxima["weak_b"], max_add_sym=maxima["add_sym"],
                          max_add_proj=maxima["add_proj"])


@dataclass
class InvarianceReport:
    weak_a_diff: float
    weak_b_diff: float
    add_proj_diff: float | None
    add_sym_diff: float | None
    add_proj_magnitude: float | None


def connection_invariance_check(system, gamma, shift, costate):
    """Residual differences under the connection displacement Gamma -> Gamma + T,
    worst over the N points of `costate` (x and p of shape (n, N))."""
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
    worst = np.array(in_blocks(block, *_columns(costate)))
    worst = worst.reshape(-1, 5 if additional else 2).max(axis=0, initial=0.0).tolist()
    proj_d, sym_d, proj_mag = worst[2:] if additional else (None, None, None)
    return InvarianceReport(weak_a_diff=worst[0], weak_b_diff=worst[1],
                            add_proj_diff=proj_d, add_sym_diff=sym_d,
                            add_proj_magnitude=proj_mag)


def b_symmetry_of_B(surface, system, nufield, gamma, y):
    """Symmetry defect of the force-shape operator with respect to the second
    fundamental form at a surface point."""
    from .hypersurface import _nu_at, _psi_parts, second_fundamental_form
    if system.n < 3:
        raise DimensionTooSmall("needs n >= 3")
    nu = _nu_at(surface, system, nufield, y)
    lift = _psi_parts(surface, system, nu, y)
    sff = second_fundamental_form(surface, system, nu, gamma, y)
    _, Bop, _ = additional_residuals(system, gamma, CotangentState(lift.x, lift.p))
    mism = sff.b @ Bop.matrix - Bop.matrix.T @ sff.b
    return float(np.abs(lift.tau.T @ mism @ lift.tau).max())
