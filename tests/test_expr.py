"""Expression engine: parsing, exact derivatives, evaluation."""

import builtins
import copy
import functools
import math
import operator
import os
import pickle
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import SHARED_LAGRANGIANS, deadline, tree_depth
from nslab import cli, differentiate, parse
from nslab import expr as ex
from nslab.calculus import LagrangianModel
from nslab.errors import NonFiniteConstant, ParseError, UnknownSymbol

SAFE = st.floats(min_value=0.2, max_value=2.5)


def test_power_rule_on_square():
    d = differentiate(parse("v1*v1"), "v1")
    for v1 in (0.0, 1.5, -2.0):
        assert d.evaluate(v=np.array([v1])) == pytest.approx(2 * v1)


def test_constant_derivative_is_zero():
    assert differentiate(parse("5"), "x1").is_zero()


def test_product_and_independence():
    d = differentiate(parse("v1*v2 + exp(x1)"), "v1")
    assert d.evaluate(x=np.array([0.3]), v=np.array([2.0, -7.0])) == pytest.approx(-7.0)


def test_differentiation_is_closed():
    e = parse("sin(v1)*exp(x1) + v1^3/x1")
    for _ in range(4):
        e = differentiate(e, "v1")
        assert isinstance(e, ex.Expression)


def test_evaluation_is_pure():
    e = parse("sqrt(p1) + cos(p2)*x1")
    env = dict(x=np.array([1.5]), p=np.array([4.0, 0.5]))
    assert e.evaluate(**env) == e.evaluate(**env)


POOL = [
    "v1^2 + 3*v2",
    "sin(x1)*cos(v1)",
    "exp(0.3*v1) - log(v2 + 3)",
    "sqrt(v1^2 + v2^2)",
    "(v1 + v2)^3 / (1 + x1^2)",
    "v1^2.5",
    "p1*p2 - p1/p2",
    "cos(x2)^2 * v1 * v2",
]


@pytest.mark.parametrize("text", POOL)
@settings(max_examples=25, deadline=None)
@given(a=SAFE, b=SAFE, c=SAFE, d=SAFE)
def test_derivative_matches_central_differences(text, a, b, c, d):
    e = parse(text)
    step = 1e-5
    env = {"x": np.array([a, b]), "v": np.array([c, d]), "p": np.array([c, d])}
    for s in e.symbols():
        exact = differentiate(e, s).evaluate(**env)
        hi = {k: v.copy() for k, v in env.items()}
        lo = {k: v.copy() for k, v in env.items()}
        hi[s.kind][s.index - 1] += step
        lo[s.kind][s.index - 1] -= step
        fd = (e.evaluate(**hi) - e.evaluate(**lo)) / (2 * step)
        assert exact == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_batch_evaluation_broadcasts():
    e = parse("v1^2 + v2")
    V = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
    np.testing.assert_allclose(e.evaluate(v=V), V[0] ** 2 + V[1])


def test_power_is_right_associative():
    assert parse("2^3^2").evaluate() == pytest.approx(512.0)


def test_unary_minus_binds_looser_than_power():
    assert parse("-v1^2").evaluate(v=np.array([3.0])) == pytest.approx(-9.0)


def test_pi_constant():
    assert parse("cos(pi)").evaluate() == pytest.approx(-1.0)


def test_whitespace_insensitive():
    a = parse("v1 +  2* v2").evaluate(v=np.array([1.0, 2.0]))
    b = parse("v1+2*v2").evaluate(v=np.array([1.0, 2.0]))
    assert a == b


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse("v1 + $")
    assert err.value.line == 1
    assert err.value.column == 6


@pytest.mark.parametrize("bad", ["foo(v1)", "v1 +", "(v1", "q1", "v0", "1..2"])
def test_malformed_inputs_rejected(bad):
    with pytest.raises(ParseError):
        parse(bad)


@pytest.mark.parametrize("text, column", [
    ("v1 + log(0-1)", 6),        # math domain error
    ("v1 + sqrt(0-4)", 6),       # math domain error
    ("v1 * (0-1)^0.5", 11),      # folds to a complex number
    ("v1 + 0^(0-1)", 7),         # zero to a negative power
    ("v1 + exp(1000)", 6),       # overflow
    ("v1 + 10^400", 8),          # overflow
    ("v1 + 1e400", 6),           # literal overflows to inf
    ("v1 + 1e300*1e300", 11),    # product overflows to inf
    ("v1 + 1/0", 7),             # division by the constant zero
    ("v1/(2-2)", 3),             # the divisor folds to zero
])
def test_constant_fold_outside_the_reals_is_a_parse_error(text, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert "is not a finite real number" in str(err.value)


def test_derivative_fold_outside_the_reals_is_a_validation_error():
    # d/dv1 of 1e300*(1e300*v1) folds 1e300*1e300 while differentiating
    with pytest.raises(NonFiniteConstant):
        differentiate(parse("1e300*(1e300*v1)"), "v1")


def test_unknown_symbol_in_differentiate():
    with pytest.raises(UnknownSymbol):
        differentiate(parse("v1"), "w1")


def test_general_exponent_derivative():
    e = parse("v1^v2")
    env = {"v": np.array([1.7, 2.3])}
    step = 1e-6
    for name in ("v1", "v2"):
        s = ex.parse_symbol(name)
        hi = {"v": env["v"].copy()}
        lo = {"v": env["v"].copy()}
        hi["v"][s.index - 1] += step
        lo["v"][s.index - 1] -= step
        fd = (e.evaluate(**hi) - e.evaluate(**lo)) / (2 * step)
        assert differentiate(e, s).evaluate(**env) == pytest.approx(fd, rel=1e-7)


def test_constant_folding_keeps_trees_small():
    e = parse("0*v1 + 1*v2 + (2+3)")
    assert e == ex.add(ex.sym("v", 2), ex.const(5.0))


GRADIENT_INPUT = np.array([[parse(t) for t in row] for row in (
    ("x1^2*v2", "sin(x2)*v1", "exp(x1*x3)"),
    ("v1*v2*x3", "sqrt(1+x2^2)", "log(2+x1)*x2^3"))], dtype=object)
X_SYMS = [ex.sym("x", q + 1) for q in range(3)]


@pytest.mark.parametrize("axis, comprehension", [
    (0, lambda a: [[[differentiate(e, s) for e in row] for row in a] for s in X_SYMS]),
    (1, lambda a: [[[differentiate(e, s) for e in row] for s in X_SYMS] for row in a]),
    (-1, lambda a: [[[differentiate(e, s) for s in X_SYMS] for e in row] for row in a]),
])
def test_gradient_places_the_new_index_at_its_axis(axis, comprehension):
    got = ex.gradient(GRADIENT_INPUT, "x", 3, axis=axis)
    want = np.array(comprehension(GRADIENT_INPUT), dtype=object)
    assert got.shape == want.shape == {0: (3, 2, 3), 1: (2, 3, 3), -1: (2, 3, 3)}[axis]
    for idx in np.ndindex(want.shape):
        assert got[idx] == want[idx], idx


def test_gradient_of_a_single_expression_and_of_a_list():
    e = parse("x1^2*x2")
    assert list(ex.gradient(e, "x", 2)) == [differentiate(e, s) for s in X_SYMS[:2]]
    chart = [parse("cos(y1)*y2"), parse("y1")]
    frame = ex.gradient(chart, "y", 2, axis=-1)
    assert frame.tolist() == [[differentiate(c, f"y{i + 1}") for i in range(2)] for c in chart]


def laplace(rows):
    """Determinant by Laplace expansion along the first column, every minor
    built anew: the reference for the memoised expr.det."""
    if len(rows) == 1:
        return rows[0][0]
    out = ex.Const(0.0)
    for k, row in enumerate(rows):
        term = ex.mul(row[0], laplace([r[1:] for r in rows[:k] + rows[k + 1:]]))
        out = ex.sub(out, term) if k % 2 else ex.add(out, term)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_and_adjugate_are_the_laplace_expansion(n):
    # distinct symbols, with zeros on the anti-diagonal so that terms fold
    rows = [[ex.Const(0.0) if i + j == n - 1 and n > 2 else ex.sym("x", n * i + j + 1)
             for j in range(n)] for i in range(n)]
    assert ex.det(rows) == laplace(rows)
    adj = ex.adjugate(rows)
    for i, j in np.ndindex(n, n):
        if n == 1:
            want = ex.Const(1.0)
        else:
            minor = [row[:j] + row[j + 1:] for row in rows[:i] + rows[i + 1:]]
            want = ex.neg(laplace(minor)) if (i + j) % 2 else laplace(minor)
        assert adj[j][i] == want, (i, j)


# --- Table against an independent tree interpreter --------------------------

_OPS = {ex.Add: operator.add, ex.Sub: operator.sub, ex.Mul: operator.mul,
        ex.Div: operator.truediv, ex.Pow: operator.pow}


def interpret(e, env):
    """Evaluate a tree node by node with the numpy operations of its source."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Sym):
        return env[e.kind][e.index - 1]
    if isinstance(e, ex.Neg):
        return -interpret(e.a, env)
    if isinstance(e, ex.Func):
        return getattr(np, e.name)(interpret(e.a, env))
    return _OPS[type(e)](interpret(e.a, env), interpret(e.b, env))


_POOL_EXPRS = [parse(text) for text in POOL]
_VARIABLE = _POOL_EXPRS + [differentiate(e, s) for e in _POOL_EXPRS for s in sorted(
    e.symbols(), key=lambda s: s.name)]
COMPONENTS = st.one_of(st.sampled_from(_VARIABLE),
                       st.floats(min_value=-3.0, max_value=3.0).map(ex.const))


@st.composite
def tables(draw):
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2), (2, 1, 3)]))
    comps = draw(st.lists(COMPONENTS, min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    arr = np.empty(shape, dtype=object)
    for idx, e in zip(np.ndindex(shape), comps):
        arr[idx] = e
    return arr


# vertical Hessians and third derivatives, whose components share subtrees
SHARED = [LagrangianModel(3, text).tables[key].exprs
          for text in SHARED_LAGRANGIANS for key in ("vv", "vvv")]


@settings(max_examples=60, deadline=None)
@given(arr=st.one_of(tables(), st.sampled_from(SHARED)),
       batch=st.sampled_from([(), (1,), (7,), (2, 3)]), seed=st.integers(0, 2**16))
@example(arr=SHARED[0], batch=(7,), seed=1)
@example(arr=SHARED[1], batch=(), seed=2)
@example(arr=SHARED[2], batch=(2, 3), seed=3)
@example(arr=SHARED[3], batch=(7,), seed=4)
def test_table_matches_tree_interpreter(arr, batch, seed):
    rng = np.random.default_rng(seed)
    env = {kind: rng.uniform(0.2, 2.5, size=(3,) + batch) for kind in ("x", "v", "p")}
    got = ex.Table(arr)(**env)
    ref = np.empty(arr.shape + batch)
    for idx in np.ndindex(arr.shape):
        ref[idx] = interpret(arr[idx], env)
    assert np.shape(got) == arr.shape + batch
    # a 0-d table at a single point returns a scalar, not a 0-d array
    assert isinstance(got, np.ndarray) == bool(arr.shape + batch)
    assert np.array_equal(got, ref)


def test_quartic_hessian_kernel_evaluates_the_shared_sum_once():
    table = LagrangianModel(3, SHARED_LAGRANGIANS[0]).tables["vv"]
    shared = parse("v1^2+v2^2+v3^2").source()
    # written out component by component, each diagonal entry repeats it
    assert "".join(e.source() for e in table.exprs.flat).count(shared) == 3
    assert table.source.count(shared) == 1


SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def scenario_expressions():
    """Every expression of the shipped scenarios and of the derivative tables
    their runs build, and one with the node kinds those lack."""
    out = [parse("x1 - v1/(2 + log(x2))")]
    for name in sorted(os.listdir(SCENARIOS)):
        scenario = cli.load_scenario(os.path.join(SCENARIOS, name))
        system = cli.build_system(scenario)
        out += [e for table in system.lagrangian.tables.values() for e in table.exprs.flat]
        out += list(system.force.comps)
        if "surface" in scenario:
            chart = cli.build_surface(scenario, system.n).chart
            out += list(chart) + list(ex.gradient(chart, "y", system.n - 1).flat)
    return out


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda e: pickle.loads(pickle.dumps(e))],
                         ids=["copy", "deepcopy", "pickle"])
def test_expressions_copy_and_pickle(clone):
    # outside input of any depth reaches every walk: a 5,000-level sum
    deep = ex.component("+".join(["x1"] * 5000), "lagrangian", {"x": 1, "v": 1})
    assert tree_depth(deep) == 5000
    for e in scenario_expressions() + [deep]:
        e.fn()                            # a cached kernel is not carried over
        c = clone(e)
        assert c == e and type(c) is type(e)
        assert hash(c) == hash(e)
        assert c.source() == e.source()
        # symbols stay interned: the sets are equal only if the nodes are one
        assert c.symbols() == e.symbols()
        assert all(s is ex.sym(s.kind, s.index) for s in c.symbols())
        assert isinstance(c, ex.Sym) or getattr(c, "_fn", None) is None
        assert ex.Table(c).source == ex.Table(e).source
    assert clone(deep).evaluate(x=np.array([0.25])) == 0.25 * 5000


def test_building_the_sphere_scenario_compiles_nothing(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "sphere_radial.json")
    scenario = cli.load_scenario(path)
    compiled = []
    real = builtins.compile

    def counted(*args, **kwargs):
        compiled.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    system = cli.build_system(scenario)
    surface = cli.build_surface(scenario, system.n)
    assert compiled == []
    # the first call of a table compiles its one kernel, the second nothing
    surface.chart_at(surface.y0)
    surface.chart_at(surface.y0)
    assert compiled == ["<nslab-table>"]


def _generated(table):
    """A twin of `table` evaluated through its generated kernel, as a table
    with a symbol in it is."""
    ns = {"np": np}
    exec(table.source, ns)
    twin = ex.Table(table.exprs)
    twin.__dict__["_kernel"] = ns["kernel"]
    return twin


@pytest.mark.parametrize("values, args", [
    ([[1.5, -2.0, 0.0], [3.25, 1e-300, 7.0]], {"x": np.array([0.3, -0.7])}),
    (2.5, {}),
    (0.1, {"p": np.array([0.5, 1.0])}),
    ([[0.5, 0.25], [-1.0, 4.0]], {"x": np.ones((2, 4, 3)), "p": np.ones((2, 4, 3))}),
    ([-0.0, 0.0, -2.0], {"p": np.ones((2, 5))}),
    (-0.0, {}),
], ids=["point", "0-d", "0-d-point", "two-batch-axes", "minus-zero", "0-d-minus-zero"])
def test_a_constant_table_compiles_nothing_and_matches_its_kernel_bit_for_bit(
        monkeypatch, values, args):
    table = ex.Table(np.frompyfunc(ex.const, 1, 1)(values))
    compiled, real = [], builtins.compile
    monkeypatch.setattr(builtins, "compile",
                        lambda *a, **k: compiled.append(a[1]) or real(*a, **k))
    got = table(**args)
    assert compiled == [] and "source" not in table.__dict__
    want = _generated(table)(**args)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# --- expr.diff against sympy -------------------------------------------------

_SYMS = [ex.sym("x", 1), ex.sym("x", 2), ex.sym("v", 1), ex.sym("p", 1)]
_LEAVES = st.one_of(st.sampled_from(_SYMS),
                    st.sampled_from([0.5, 2.0, 3.0, -1.5]).map(ex.const))


def _non_constant(children):
    return children.filter(lambda e: not isinstance(e, ex.Const))


def _built(constructor, *args):
    """The node, or None where construction rejects it: a division by a
    child that folded to the constant 0."""
    try:
        return constructor(*args)
    except NonFiniteConstant:
        return None


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from([ex.add, ex.sub, ex.mul, ex.div]), children, children)
        .map(lambda t: _built(*t)).filter(lambda e: e is not None),
        children.map(ex.neg),
        st.tuples(_non_constant(children), st.sampled_from([2.0, 3.0, 0.5, -1.0, 2.5]))
        .map(lambda t: ex.power(t[0], ex.const(t[1]))),
        st.tuples(_non_constant(children), children).map(lambda t: ex.power(*t)),
        st.tuples(st.sampled_from(sorted(ex._FUNC_EVAL)), _non_constant(children))
        .map(lambda t: ex.func(*t)),
    )


TREES = st.recursive(_LEAVES, _extend, max_leaves=6)


def to_sympy(e, sp):
    if isinstance(e, ex.Const):
        return sp.Float(e.value)
    if isinstance(e, ex.Sym):
        return sp.Symbol(e.name)
    if isinstance(e, ex.Neg):
        return -to_sympy(e.a, sp)
    if isinstance(e, ex.Func):
        return getattr(sp, e.name)(to_sympy(e.a, sp))
    return _OPS[type(e)](to_sympy(e.a, sp), to_sympy(e.b, sp))


@settings(max_examples=80, deadline=None)
@given(e=TREES.filter(lambda e: e.symbols()), data=st.data())
def test_diff_matches_sympy(e, data):
    sp = pytest.importorskip("sympy")
    wrt = data.draw(st.sampled_from(sorted(e.symbols(), key=lambda s: s.name)))
    rng = np.random.default_rng(0)
    env = {"x": rng.uniform(0.3, 2.0, size=(2, 16)), "v": rng.uniform(0.3, 2.0, size=(1, 16)),
           "p": rng.uniform(0.3, 2.0, size=(1, 16))}
    derivative = sp.diff(to_sympy(e, sp), sp.Symbol(wrt.name))
    # sympy folds x1 - x1 to 0, where 0^-x1 becomes complex infinity
    assume(not derivative.has(sp.zoo, sp.nan))
    reference = sp.lambdify([sp.Symbol(s.name) for s in _SYMS], derivative, modules="numpy")
    with np.errstate(all="ignore"):
        ours = ex.Table(differentiate(e, wrt))(**env)
        theirs = np.broadcast_to(np.asarray(reference(*(env[s.kind][s.index - 1] for s in _SYMS)),
                                            dtype=float), (16,))
    both = np.isfinite(ours) & np.isfinite(theirs)
    np.testing.assert_allclose(ours[both], theirs[both], rtol=1e-7, atol=1e-9)


# --- the node protocol -------------------------------------------------------

def rebuilt(e, leaf):
    """A copy of the tree, node by node through the node classes, with each
    leaf replaced by leaf(e)."""
    if isinstance(e, (ex.Const, ex.Sym)):
        return leaf(e)
    if isinstance(e, ex.Neg):
        return ex.Neg(rebuilt(e.a, leaf))
    if isinstance(e, ex.Func):
        return ex.Func(e.name, rebuilt(e.a, leaf))
    return type(e)(rebuilt(e.a, leaf), rebuilt(e.b, leaf))


@settings(max_examples=100, deadline=None)
@given(e=TREES)
def test_an_equal_tree_is_equal_and_hashes_equal(e):
    copy = rebuilt(e, lambda leaf: ex.Const(leaf.value) if isinstance(leaf, ex.Const)
                   else ex.Sym(leaf.kind, leaf.index))
    assert copy == e and hash(copy) == hash(e)


@settings(max_examples=100, deadline=None)
@given(e=TREES)
def test_a_changed_leaf_makes_an_unequal_tree(e):
    other = rebuilt(e, lambda leaf: ex.Const(leaf.value + 1.0) if isinstance(leaf, ex.Const)
                    else ex.sym("y", leaf.index))
    assert other != e and e != other


@settings(max_examples=100, deadline=None)
@given(e=TREES)
def test_symbols_are_those_in_the_source(e):
    named = {ex.Sym(kind, int(i) + 1) for kind, i in re.findall(r"([xvpy])\[(\d+)\]", e.source())}
    assert e.symbols() == named


@given(kind=st.sampled_from(ex.SYMBOL_KINDS), index=st.integers(1, 10**6))
def test_a_symbol_is_one_node(kind, index):
    node = ex.Sym(kind, index)
    assert node is ex.sym(kind, index) is parse(f"{kind}{index}") is ex.parse_symbol(f"{kind}{index}")
    assert differentiate(parse(f"2*{kind}{index}"), node) == ex.const(2.0)


@pytest.mark.parametrize("index", [0, -1, 1.5])
def test_a_symbol_index_is_an_integer_of_at_least_1(index):
    # an index of 1.5 would make a second node named x1
    with pytest.raises(UnknownSymbol):
        ex.Sym("x", index)


def test_nodes_are_immutable():
    e = parse("x1 + sin(p1)")
    for node, field in ((e, "a"), (e.b, "name"), (ex.sym("x", 1), "index"), (ex.const(1), "value")):
        with pytest.raises(AttributeError):
            setattr(node, field, None)


# --- the reader: tokenizer, parser and nesting limits ------------------------

_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n  "])
# float literals only, in each spelling both grammars read, so that Python
# evaluates the same text in floats too
_NUMBER = st.builds(lambda a, b, e, form: (f"{a}.{b}", f"{a}.", f".{b}", f"{a}e{e}",
                                           f"{a}.{b}e{e}")[form],
                    st.integers(0, 99), st.integers(0, 99), st.integers(-2, 2),
                    st.integers(0, 4))
_NAME = st.sampled_from(["x1", "x2", "x3", "v1", "v2", "v3"])


def _joined(parts):
    """(text, Python's spelling of it) of `parts`, each a strategy of such
    pairs or a string both spell alike, joined by random whitespace."""
    pairs = [st.just((p, p)) if isinstance(p, str) else p for p in parts]
    return st.tuples(*[st.tuples(_SPACE, p) for p in pairs]).map(
        lambda items: tuple("".join(space + pair[k] for space, pair in items) for k in (0, 1)))


def _ops(*ops):
    return st.sampled_from(ops).map(lambda op: (op, op))


def _grow(inner):
    # the grammar's levels: signs, ^ (right-associative, Python's **), * /,
    # + -, and parentheses; each level's operand may be any deeper one
    return st.one_of(
        _joined(["(", inner, ")"]),
        _joined([_ops("-", "+"), inner]),
        _joined([inner, st.just(("^", "**")), inner]),
        _joined([inner, _ops("*", "/"), inner]),
        _joined([inner, _ops("+", "-"), inner]),
    )


READABLE = st.recursive(st.one_of(_NUMBER, _NAME).map(lambda t: (t, t)), _grow,
                         max_leaves=10)
_POSITIVE = st.floats(min_value=0.25, max_value=4.0)


def _python_value(text, env):
    """Python's float value of the text, None where it has none."""
    try:
        value = eval("(" + text + ")", {"__builtins__": {}}, env)   # noqa: S307
    except (ArithmeticError, ValueError):
        return None
    return value if isinstance(value, float) and math.isfinite(value) else None


@settings(max_examples=200, deadline=None)
@given(pair=READABLE, x=st.lists(_POSITIVE, min_size=3, max_size=3),
       v=st.lists(_POSITIVE, min_size=3, max_size=3))
@example(pair=("-v1^2.5", "-v1**2.5"), x=[1.0] * 3, v=[2.0] * 3)
@example(pair=("2.^-x1^.5*3.-\n1e1/v2/v3", "2.**-x1**.5*3.-\n1e1/v2/v3"),
         x=[1.5] * 3, v=[0.5, 3.0, 0.25])
def test_a_well_formed_text_evaluates_as_python_evaluates_it(pair, x, v):
    text, python_text = pair
    env = {f"{kind}{i + 1}": value for kind, vals in (("x", x), ("v", v))
           for i, value in enumerate(vals)}
    expected = _python_value(python_text, env)
    assume(expected is not None)
    with np.errstate(all="ignore"):      # Python overflows to inf silently
        got = parse(text).evaluate(x=np.array(x), v=np.array(v))
    assert got == expected


_EDIT_CHARS = st.one_of(st.sampled_from(list("0123456789.eE+-*/^() \n\txvpy$_,")),
                        st.characters())


@settings(max_examples=300, deadline=None)
@given(pair=READABLE, data=st.data())
def test_a_one_character_edit_parses_or_is_a_located_parse_error(pair, data):
    text = pair[0]
    at = data.draw(st.integers(0, len(text)))
    kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    char = data.draw(_EDIT_CHARS)
    edited = text[:at] + ("" if kind == "delete" else char) + text[at + (kind != "insert"):]
    try:
        parse(edited)
    except ParseError as err:
        lines = edited.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1


def test_reading_is_linear_in_the_text():
    text = "+".join(["1.5*v1^2*x2^2"] * 12800)
    assert len(text) == 179199
    start = time.perf_counter()
    parse(text)
    assert time.perf_counter() - start < 2.0


def test_token_whitespace_is_what_str_isspace_accepts():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", every)) == {c for c in every if c.isspace()}


@pytest.mark.parametrize("text, plain", [
    ("(" * 5000 + "v1^2" + ")" * 5000, "v1^2"),
    ("-" * 5000 + "v1", "v1"),
    ("-" * 5001 + "(v1)", "-v1"),
    ("2^" * 3000 + "x1", None),
], ids=["5000-parentheses", "5000-signs", "5001-signs", "3000-powers"])
def test_nesting_is_read_without_recursion(text, plain):
    tree = parse(text)
    if plain is not None:
        assert tree == parse(plain)


def test_a_parse_error_reports_the_line_and_column_of_a_later_line():
    with pytest.raises(ParseError) as err:
        parse("v1 +\n  x2 *\n\t(v3 $ 2)")
    assert (err.value.line, err.value.column, err.value.reason) == (
        3, 6, "unexpected character '$'")


def _sum_of_depth(depth):
    """A sum whose tree is `depth` levels deep: a left spine of additions
    over terms c*v1^2*x2 (4 levels), the first at the bottom."""
    terms = [f"{0.1 + 0.001 * k:.3f}*v{k % 2 + 1}^2*x{k % 2 + 1}" for k in range(depth - 3)]
    return " + ".join(terms)


def test_a_1000_level_sum_derives_to_third_order_and_compiles():
    text = _sum_of_depth(1000)
    tree = ex.component(text, "lagrangian", {"x": 2, "v": 2})
    assert tree_depth(tree) == 1000
    lag = LagrangianModel(2, tree)
    x, v = np.array([0.3, -0.2]), np.array([0.7, 1.1])
    for key in ("vvv", "vvx", "vxx", "xxx"):
        lag.tables[key]
    for key, table in lag.tables.items():
        assert np.all(np.isfinite(table(x=x, v=v))), key
    # the sum, in the order the tree adds it
    terms = [ex.parse(t).evaluate(x=x, v=v) for t in text.split(" + ")]
    assert lag.value(x, v) == functools.reduce(operator.add, terms)


def test_component_accepts_a_1504_level_sum():
    # as deep as the Lagrangian of helpers.long_sum_scenario(1500)
    text = _sum_of_depth(1504)
    tree = ex.component(text, "force[1]", {"x": 2, "v": 2})
    assert tree_depth(tree) == 1504
    assert tree == parse(text)


def _bracket_depth(line):
    depth = deepest = 0
    for c in line:
        depth += (c in "([") - (c in ")]")
        deepest = max(deepest, depth)
    return deepest


def test_a_long_sum_compiles_with_its_deep_subtrees_in_locals():
    text = _sum_of_depth(300)
    table = ex.Table(parse(text))
    lines = table.source.splitlines()
    assert max(map(_bracket_depth, lines)) <= ex.KERNEL_NEST
    assert sum(line.lstrip().startswith("t") for line in lines) >= 300 // ex.KERNEL_NEST
    x, v = np.array([0.3, -0.2]), np.array([0.7, 1.1])
    terms = [parse(t).evaluate(x=x, v=v) for t in text.split(" + ")]
    assert table(x=x, v=v) == functools.reduce(operator.add, terms)


def _spine(first, terms):
    """first + v2 + v2 + ..., `terms` additions deep, built by the folding
    constructors."""
    e = first
    for _ in range(terms):
        e = ex.add(e, ex.sym("v", 2))
    return e


def test_a_tree_of_any_depth_compiles_and_compares():
    tree = _spine(ex.sym("v", 1), 5000)
    assert tree == _spine(ex.sym("v", 1), 5000)
    assert tree != _spine(ex.sym("x", 1), 5000)
    assert ex.Table(tree)(v=np.array([0.5, 0.25])) == 0.5 + 0.25 * 5000


def test_a_subtree_shared_by_many_paths_is_differentiated_once():
    # e -> 0.5*e + 0.5*e, 60 times over: 2^60 paths lead to v1, and the
    # derivative keeps one node pair per level
    e = ex.sym("v", 1)
    for _ in range(60):
        half = ex.mul(ex.const(0.5), e)
        e = ex.add(half, half)
    with deadline(2):
        assert differentiate(e, "v1").evaluate(v=np.array([0.3])) == 1.0


def _halves(leaf, levels):
    """e -> 0.5*e + 0.5*e, `levels` times over: 2^levels paths lead to the leaf."""
    e = leaf
    for _ in range(levels):
        e = ex.add(ex.mul(ex.const(0.5), e), ex.mul(ex.const(0.5), e))
    return e


def test_a_subtree_shared_by_many_paths_is_compared_and_hashed_once():
    e = _halves(ex.sym("v", 1), 40)
    clone = pickle.loads(pickle.dumps(e))        # the same sharing, other nodes
    assert clone is not e
    with deadline(1):
        assert e == clone
        assert hash(e) == hash(clone)
        assert e != _halves(ex.sym("v", 2), 40)
        assert (_halves(ex.mul(ex.const(2.0), ex.sym("v", 1)), 40)
                != _halves(ex.mul(ex.const(3.0), ex.sym("v", 1)), 40))


def test_a_5000_addition_spine_derives_exactly():
    # far deeper than Python's frame limit: the derivation keeps no frame per level
    table = ex.Table(ex.gradient([_spine(ex.sym("v", 1), 5000)], "v", 2))
    assert table(v=np.array([0.5, 0.25])).tolist() == [[1.0], [5000.0]]
