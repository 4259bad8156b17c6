"""Outside-in tracer: spans around the public entry points of each nslab
layer, installed by patching module and class attributes.

Nothing under `src/` changes.  The patching works because the CLI and the
library look these names up at call time (module globals, class attributes
and the `cli.COMMANDS` table).  A name imported into several modules is
patched in each of them.  Spans stay in memory and are written once, after
the measured call, by `Tracer.write`.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all layers add up to the time spent inside
outermost spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict

import numpy as np


def _cols(array):
    """Batch columns of an evaluator argument: 1 for a single point."""
    shape = np.shape(array)
    return math.prod(shape[1:]) if len(shape) > 1 else 1


def _eval_cols(counts, args, kwargs, result):
    operands = list(args[1:]) + list(kwargs.values())
    counts["expr.eval.cols"] += max((_cols(a) for a in operands), default=1)


def _legendre(counts, args, kwargs, result):
    counts["calculus.legendre.cols"] += _cols(args[2])
    counts["calculus.legendre.newton_iters"] += result[1]


def _points(counts, args, kwargs, result):
    counts["normality.points"] += len(args[2])


def _emit_bytes(counts, args, kwargs, result):
    counts["cli.emit.bytes"] += os.path.getsize(result)


def targets():
    """(owner, attribute, span name, counter) for every wrapped boundary.

    `owner` is a module, a class or a dict; `counter`, when given, is called
    with (counts, args, kwargs, result) after the wrapped call returns.
    """
    from nslab import calculus, cli, dynamics, expr, hypersurface, normality
    from nslab import tensorfields
    lag_evals = ("value", "lv", "lx", "lvv", "lvx", "lxx", "lvvv", "lvvx", "lvxx")
    out = [(expr, "parse", "expr.parse", None)]
    out += [(calculus.LagrangianModel, name, "expr.eval", _eval_cols)
            for name in lag_evals]
    out += [(dynamics.ForceField, name, "expr.eval", _eval_cols)
            for name in ("values", "dx", "dp")]
    out += [(tensorfields.ExtendedConnection, name, "expr.eval", _eval_cols)
            for name in ("values", "dx", "dfiber")]
    out += [(hypersurface.Hypersurface, name, "expr.eval", _eval_cols)
            for name in ("chart_at", "frame_at")]
    out += [(mod, "invert_legendre_array", "calculus.legendre", _legendre)
            for mod in (calculus, cli, tensorfields)]
    out += [(calculus.HamiltonianModel, "partials", "calculus.partials", None),
            (dynamics, "rhs_p_array", "dynamics.rhs", None)]
    out += [(mod, "integrate_batch", "dynamics.integrate", None)
            for mod in (dynamics, hypersurface)]
    for name, span in (("solve_nu_curve", "hypersurface.nu"),
                       ("solve_nu_grid", "hypersurface.nu"),
                       ("pfaff_compatibility_residual", "hypersurface.theta"),
                       ("run_shift", "hypersurface.shift")):
        out += [(mod, name, span, None) for mod in (hypersurface, cli)]
    out += [(hypersurface, "normal_covector", "hypersurface.normal", None),
            (tensorfields.FieldPoint, "__init__", "tensorfields.fieldpoint", None)]
    out += [(mod, "evaluate_residuals", "normality.residuals", _points)
            for mod in (normality, cli)]
    out += [(cli, name, "cli.setup", None)
            for name in ("load_scenario", "build_model", "build_system",
                         "build_gamma", "build_shift_tensor", "build_surface")]
    out += [(cli, name, "cli.emit", _emit_bytes) for name in ("emit_csv", "emit_json")]
    out += [(cli.COMMANDS, key, "cli.rows", None) for key in cli.COMMANDS]
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Span recorder.  Use as a context manager around the traced call."""

    def __init__(self):
        self.spans = []          # (name id, start ns, end ns, parent index)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)
        self._ids = {}
        self._stack = []         # [span index, start ns, child ns]
        self._saved = []

    def _wrap(self, fn, name, counter):
        ident = self._ids.setdefault(name, len(self._ids))
        stack, spans = self._stack, self.spans
        calls, self_ns, counts = self.calls, self.self_ns, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0, 0]
            spans.append(None)
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                spans[frame[0]] = (ident, frame[1], end, parent)
                calls[name] += 1
                self_ns[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def _wrap_compile(self, fn):
        """Expression.fn: trace cache misses only, which compile."""
        inner = self._wrap(fn, "expr.compile", None)

        @functools.wraps(fn)
        def traced(expression):
            if getattr(expression, "_fn", None) is None:
                return inner(expression)
            return fn(expression)

        return traced

    def __enter__(self):
        from nslab import expr
        for owner, key, name, counter in targets():
            original = _get(owner, key)
            self._saved.append((owner, key, original))
            _set(owner, key, self._wrap(original, name, counter))
        self._saved.append((expr.Expression, "fn", expr.Expression.fn))
        expr.Expression.fn = self._wrap_compile(expr.Expression.fn)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)
        return False

    def metrics(self):
        """Per-layer metrics: self seconds, exact call counts and ratios."""
        calls, counts = self.calls, self.counts

        def sec(name):
            return self.self_ns[name] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "expr.parse.s": sec("expr.parse"),
            "expr.compile.count": calls["expr.compile"],
            "expr.compile.s": sec("expr.compile"),
            "expr.eval.calls": calls["expr.eval"],
            "expr.eval.s": sec("expr.eval"),
            "expr.eval.cols_per_call": ratio(counts["expr.eval.cols"],
                                             calls["expr.eval"]),
            "calculus.legendre.calls": calls["calculus.legendre"],
            "calculus.legendre.s": sec("calculus.legendre"),
            "calculus.legendre.cols": int(counts["calculus.legendre.cols"]),
            "calculus.legendre.newton_iters":
                int(counts["calculus.legendre.newton_iters"]),
            "calculus.partials.calls": calls["calculus.partials"],
            "calculus.partials.s": sec("calculus.partials"),
            "dynamics.rhs.calls": calls["dynamics.rhs"],
            "dynamics.rhs.s": sec("dynamics.rhs"),
            "dynamics.integrate.s": sec("dynamics.integrate"),
            "hypersurface.nu.s": sec("hypersurface.nu"),
            "hypersurface.normal.calls": calls["hypersurface.normal"],
            "hypersurface.normal.s": sec("hypersurface.normal"),
            "hypersurface.theta.s": sec("hypersurface.theta"),
            "hypersurface.shift.s": sec("hypersurface.shift"),
            "tensorfields.fieldpoint.calls": calls["tensorfields.fieldpoint"],
            "tensorfields.fieldpoint.s": sec("tensorfields.fieldpoint"),
            "tensorfields.fieldpoint.per_point":
                ratio(calls["tensorfields.fieldpoint"], counts["normality.points"]),
            "normality.residuals.s": sec("normality.residuals"),
            "normality.points": int(counts["normality.points"]),
            "cli.setup.s": sec("cli.setup"),
            "cli.rows.s": sec("cli.rows"),
            "cli.emit.s": sec("cli.emit"),
            "cli.emit.bytes": int(counts["cli.emit.bytes"]),
        }

    def write(self, path):
        """Write every span once: names, then [name id, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(self._ids), "spans": self.spans}, fh,
                      separators=(",", ":"))
