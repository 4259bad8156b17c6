"""Shared model builders and reference writers for the test suite."""

import signal
from contextlib import contextmanager

import numpy as np

from nslab import (ExtendedConnection, ForceField, HamiltonianModel,
                   LagrangianModel, NewtonianSystem)
from nslab import expr as ex


def kinetic(n, fiber="v"):
    return "0.5*(" + "+".join(f"{fiber}{i+1}^2" for i in range(n)) + ")"


def euclid_lagrangian(n):
    return LagrangianModel(n, kinetic(n))


def euclid_hamiltonian(n):
    return HamiltonianModel(n, euclid_lagrangian(n), kinetic(n, "p"))


def euclid_system(n, q_comps):
    return NewtonianSystem(euclid_hamiltonian(n), ForceField(n, q_comps))


def quartic_lagrangian(n):
    return LagrangianModel(n, "0.25*(" + "+".join(f"v{i+1}^2" for i in range(n)) + ")^2")


def potential_lagrangian():
    """Quadratic-in-velocity model with an x-dependent metric and potential."""
    return LagrangianModel(
        2, "0.5*((1.2+0.2*sin(x1))*v1^2 + (1.0+0.1*x2^2)*v2^2) - 0.3*cos(x1)*x2")


# Lagrangians not quadratic in v, whose derivative tables share subtrees
SHARED_LAGRANGIANS = ["0.25*(v1^2+v2^2+v3^2)^2",
                      "sqrt(1+x1^2)*(v1^2+v2^2+v3^2)^1.5+exp(x2)*v3^2"]


def coupled_system():
    lag = potential_lagrangian()
    return NewtonianSystem(HamiltonianModel(lag.n, lag),
                           ForceField(2, ["0.05*p2", "0.1*p1"]))


def scaled_momentum_force(n, factor="0.1"):
    return [f"{factor}*p{i+1}" for i in range(n)]


def radial_momentum_force(n, coef=0.1):
    mag = "sqrt(" + "+".join(f"p{i+1}^2" for i in range(n)) + ")"
    return [f"{coef}*{mag}*p{i+1}" for i in range(n)]


def swap_force(n):
    """x-independent force breaking both weak and additional normality."""
    comps = ["p2"] + ["0"] * (n - 1)
    return comps


def polynomial_connection(n, seed, scale=0.25):
    """Random symmetric connection with affine components in (x, p)."""
    rng = np.random.default_rng(seed)
    comps = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                c0, cx, cp = rng.normal(size=3) * scale
                e = ex.add(ex.const(c0),
                           ex.add(ex.mul(ex.const(cx), ex.sym("x", (k + j) % n + 1)),
                                  ex.mul(ex.const(cp), ex.sym("p", (i + j) % n + 1))))
                comps[k][i][j] = e
    return ExtendedConnection(n, comps)


def random_costates(n, count, seed, radius=(0.1, 10.0), x_scale=1.0):
    from nslab import CotangentState
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        p = direction * rng.uniform(*radius)
        out.append(CotangentState(rng.normal(size=n) * x_scale, p))
    return out


def stack_states(states):
    """One CotangentState holding the points of `states` as (n, N) columns."""
    from nslab import CotangentState
    return CotangentState(np.stack([c.x for c in states], axis=1),
                          np.stack([c.p for c in states], axis=1))


def long_sum_scenario(terms):
    """quartic_identities.json with its Lagrangian spelled as a sum of `terms`
    distinct convex terms, so its trees and kernels nest about `terms` deep."""
    parts = []
    for k in range(terms):
        c = f"{(k % 7 + 1) / 1000:.3f}"
        parts.append((f"{c}*(v1^2+v2^2)^2", f"{c}*v{k % 2 + 1}^4",
                       f"{c}*(1+0.{k % 9 + 1}*x{k % 2 + 1})*(v1^2+v2^2)")[k % 3])
    return {
        "model": {"dimension": 2, "lagrangian": " + ".join(parts),
                  "x_box": [[-1, 1], [-1, 1]], "fiber_range": [0.1, 10.0]},
        "force": ["0", "0"],
        "run": {"samples": 100, "seed": 7},
    }


def quotient_chain(nestings):
    """A Lagrangian in v1..v3: v1^2+v2^2+v3^2 inside `nestings` quotients
    (1+0.01*v1^2)/(... + 1), 2*nestings + 4 levels deep.  The quotient rule
    repeats each denominator, so the chain's derivatives reach their shared
    subtrees along paths whose number grows geometrically with the nesting."""
    text = "v1^2+v2^2+v3^2"
    for _ in range(nestings):
        text = f"(1+0.01*v1^2)/({text}+1)"
    return text


def tree_depth(e):
    """Levels of the tree `e`, a leaf having 1, counted level by level on
    lists, each level the distinct children of the last."""
    level, depth = [e], 0
    while level:
        depth += 1
        level = list({id(c): c for node in level for c in node.parts()[1]}.values())
    return depth


def horner_polynomial(steps):
    """A Lagrangian in v1, v2: v2^2 inside `steps` Horner steps 0.01+v1*(...),
    2*steps + 2 levels deep."""
    text = "v2^2"
    for _ in range(steps):
        text = f"0.01+v1*({text})"
    return text


@contextmanager
def deadline(seconds):
    """TimeoutError if the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference_csv(header, *chunks):
    """The CSV text of the rows of `chunks` in turn, each a list of blocks
    as dynamics.write_csv takes them: str of the .tolist() value of every
    cell."""
    lines = [",".join(header) + "\n"]
    for blocks in chunks:
        blocks = [b if b.ndim == 2 else b[:, None] for b in blocks]
        lines += [",".join(str(cell) for b in blocks for cell in b[i].tolist()) + "\n"
                  for i in range(len(blocks[0]))]
    return "".join(lines)
