"""Expression trees over chart and fiber symbols, with exact derivatives.

Symbols are x1..xn (base coordinates), v1..vn or p1..pn (fiber coordinates)
and y1..ym (hypersurface parameters).  Trees are immutable.  Construction
folds constants and absorbs additive/multiplicative units, nothing more; a
constant that is not a finite real number raises NonFiniteConstant, which
the parser reports as a ParseError at the offending token.
`parse` reads text in one pass, without recursion, so its time is linear in
the text and any nesting of parentheses and signs reads.
`component` (one expression) and `components` (a nested array) read every
expression given from outside the package, checking its type, shape and
symbols, `derivatives` is the one derivation (`gradient` builds every table
of derivatives by it), and `det` and `adjugate` build every determinant and
adjugate.  Every walk of one tree (hashing, copying, printing, symbols,
derivation, kernel generation) is `_post_order`, on a list, so a tree of
any depth is read, derived and compiled.
A Table evaluates a nested array of expressions through one generated
function, compiled on its first call, that accepts numpy arrays
(coordinate index first, optional batch axes after), so bulk evaluation
runs at numpy speed; the function computes each distinct subtree of its
components once, which derivative tables repeat many times.  A table of
constants only is filled by broadcasting, with no function generated.
"""

from __future__ import annotations

import math
import operator
import re
from functools import cached_property

import numpy as np

from .errors import NonFiniteConstant, ParseError, UnknownSymbol, ValidationError

SYMBOL_KINDS = ("x", "v", "p", "y")

_FUNC_EVAL = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log,
              "sin": math.sin, "cos": math.cos}


# ---------------------------------------------------------------------------
# folding constructors

def _fold(op, fn, *values):
    """Const(fn(*values)) for an operation `op` on constants; NonFiniteConstant
    when the result is not a finite real number."""
    try:
        value = fn(*values)
    except (ArithmeticError, ValueError):   # overflow, 0^-1, math domain error
        value = None
    if not isinstance(value, float) or not math.isfinite(value):
        label = (f"{op}({values[0]!r})" if len(values) == 1
                 else f" {op} ".join(map(repr, values)))
        raise NonFiniteConstant(f"constant {label} is not a finite real number")
    return Const(value)


def add(a, b):
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold("+", operator.add, a.value, b.value)
    return Add(a, b)


def sub(a, b):
    if b.is_zero():
        return a
    if a.is_zero():
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold("-", operator.sub, a.value, b.value)
    return Sub(a, b)


def mul(a, b):
    if a.is_zero() or b.is_zero():
        return Const(0.0)
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold("*", operator.mul, a.value, b.value)
    return Mul(a, b)


def div(a, b):
    if b.is_zero():
        raise NonFiniteConstant("division by the constant 0 is not a finite real number")
    if a.is_zero():
        return Const(0.0)
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold("/", operator.truediv, a.value, b.value)
    return Div(a, b)


def power(a, b):
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(1.0)
        if b.value == 1.0:
            return a
        if isinstance(a, Const):
            return _fold("^", operator.pow, a.value, b.value)
    return Pow(a, b)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def func(name, a):
    if isinstance(a, Const):
        return _fold(name, _FUNC_EVAL[name], a.value)
    return Func(name, a)


def const(value):
    """Const node of a value from outside the tree (a literal, a number);
    NonFiniteConstant unless it is a finite real number."""
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteConstant(f"constant {value!r} is not a finite real number")
    return Const(value)


# ---------------------------------------------------------------------------
# nodes

class Expression:
    """Base node. Subclasses are Const, Sym, the arithmetic nodes and Func,
    each defining `parts()`: (template, children), where source() is
    template.format(*children's sources).  A leaf (Const, Sym) has no
    children, so its template is its source.

    `_fields` are the slots that make a node (a leaf's payload, or a node's
    name and children), read as the tuple `_values` by equality, hashing
    and copying.
    """

    __slots__ = ("_fn",)

    def __init_subclass__(cls):
        get = operator.attrgetter(*cls._fields)      # one C call per read
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __setattr__(self, *a):
        raise AttributeError("Expression nodes are immutable")

    def __repr__(self):
        return self.source()

    def __eq__(self, other):
        # structural, on a list: any depth compares, and a pair of shared
        # subtrees is compared once however many paths reach it; a Const
        # child is compared in place
        pairs, seen = [(self, other)], set()
        while pairs:
            a, b = pairs.pop()
            if type(a) is not type(b):
                return False
            for u, w in zip(a._values, b._values):
                if not isinstance(u, Expression):
                    if u != w:
                        return False
                elif u is w:
                    continue
                elif type(u) is Const:
                    if type(w) is not Const or u.value != w.value:
                        return False
                elif (pair := (id(u), id(w))) not in seen:
                    seen.add(pair)
                    pairs.append((u, w))
        return True

    def __hash__(self):
        """Children first over _post_order, each distinct node hashed once."""
        done = {}                              # id(node) -> its hash
        for node in _post_order(self, done):
            done[id(node)] = hash((type(node).__name__, *[
                done[id(u)] if isinstance(u, Expression) else u for u in node._values]))
        return done[id(self)]

    def __reduce__(self):
        """Copy and pickle rebuild the tree from a flat list of (class,
        payload, child positions), children first and each distinct node
        once, so any depth copies; `_rebuild` calls each class, so a Sym
        stays interned."""
        at, nodes = {}, []                     # id(node) -> its position in nodes
        for node in _post_order(self, at):
            at[id(node)] = len(nodes)
            nodes.append((type(node), [u for u in node._values if not isinstance(u, Expression)],
                          [at[id(u)] for u in node._values if isinstance(u, Expression)]))
        return _rebuild, (nodes,)

    def source(self):
        """The numpy text of the tree, rendered children first: any depth renders."""
        text = {}                              # id(node) -> its source
        for node in _post_order(self, text):
            template, children = node.parts()
            text[id(node)] = template.format(*[text[id(c)] for c in children])
        return text[id(self)]

    def symbols(self):
        nodes = {}                             # id(node) -> node
        for node in _post_order(self, nodes):
            nodes[id(node)] = node
        return {node for node in nodes.values() if type(node) is Sym}

    def fn(self):
        """The 0-d Table of this expression, f(x=None, v=None, p=None, y=None)."""
        cached = getattr(self, "_fn", None)
        if cached is None:
            cached = Table(self)
            object.__setattr__(self, "_fn", cached)
        return cached

    def evaluate(self, x=None, v=None, p=None, y=None):
        return self.fn()(x=x, v=v, p=p, y=y)

    def is_zero(self):
        return isinstance(self, Const) and self.value == 0.0


class Const(Expression):
    __slots__ = _fields = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))

    def parts(self):
        return repr(self.value), ()


class Sym(Expression):
    """Symbol kind<index>.  Interned: Sym(kind, index) returns the one node
    of that symbol, so equality and hashing are identity."""

    __slots__ = _fields = ("kind", "index")
    _interned = {}
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, kind, index):
        node = cls._interned.get((kind, index))
        if node is None:
            if kind not in SYMBOL_KINDS:
                raise UnknownSymbol(f"unknown symbol kind {kind!r}")
            if index < 1 or index != int(index):    # 1.5 would alias x1
                raise UnknownSymbol(f"symbol index must be an integer >= 1, got {index}")
            node = object.__new__(cls)
            object.__setattr__(node, "kind", kind)
            object.__setattr__(node, "index", int(index))
            cls._interned[kind, index] = node
        return node

    @property
    def name(self):
        return f"{self.kind}{self.index}"

    def parts(self):
        return f"{self.kind}[{self.index - 1}]", ()


class _Binary(Expression):
    __slots__ = _fields = ("a", "b")
    template = "({} ? {})"   # each subclass puts its operator in

    def __init__(self, a, b):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def parts(self):
        return self.template, (self.a, self.b)


class Add(_Binary):
    __slots__, template = (), "({} + {})"


class Sub(_Binary):
    __slots__, template = (), "({} - {})"


class Mul(_Binary):
    __slots__, template = (), "({} * {})"


class Div(_Binary):
    __slots__, template = (), "({} / {})"


class Pow(_Binary):
    __slots__, template = (), "({} ** {})"


class Neg(Expression):
    __slots__ = _fields = ("a",)

    def __init__(self, a):
        object.__setattr__(self, "a", a)

    def parts(self):
        return "(-{})", (self.a,)


class Func(Expression):
    __slots__ = _fields = ("name", "a")

    def __init__(self, name, a):
        if name not in _FUNC_EVAL:
            raise UnknownSymbol(f"unknown function {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "a", a)

    def parts(self):
        return f"np.{self.name}({{}})", (self.a,)


def _post_order(e, done):
    """Each node of the tree `e` whose id is not a key of `done`, after its
    children, children left to right (as parts() lists them), walked on a
    list: any depth.  `done` is the caller's dict by id(node), which it fills
    with each node it is given before taking the next, so a node that many
    paths reach comes once."""
    if id(e) in done:
        return
    stack = [(e, iter(e.parts()[1]))]
    while stack:
        node, children = stack[-1]
        for c in children:
            if id(c) not in done:
                t = type(c)
                if t is Const or t is Sym:
                    yield c            # a leaf: no children to wait for
                else:                  # a Neg or Func has the one child a, any other a and b
                    stack.append((c, iter((c.a,) if t is Neg or t is Func else (c.a, c.b))))
                    break
        else:
            stack.pop()
            yield node


def _rebuild(nodes):
    """The tree of Expression.__reduce__'s list: its last node."""
    built = []
    for cls, payload, children in nodes:
        built.append(cls(*payload, *[built[k] for k in children]))
    return built[-1]


class Table:
    """A nested array of expressions evaluated by one generated kernel.

    `exprs` is the object array of the components, of any shape (0-d for a
    single expression).  The first call compiles kernel(x, v, p, y, out) from
    `source` (see kernel_source): every distinct non-leaf subtree of the
    components is computed once, and each component is written to out[i]
    in C order.  A table whose components are all constants compiles
    nothing: its kernel broadcasts their values.  The batch shape is the
    trailing shape of the first argument with more than one axis; the result
    has shape `exprs.shape + batch`, and a 0-d table at a single point
    returns a scalar.
    """

    def __init__(self, nested):
        self.exprs = np.asarray(nested, dtype=object)

    @cached_property
    def source(self):
        return kernel_source(self.exprs.flat)

    @cached_property
    def _kernel(self):
        if all(type(e) is Const for e in self.exprs.flat):
            values = np.array([e.value for e in self.exprs.flat])

            def broadcast(x, v, p, y, out):     # no symbol left: nothing to generate
                out.T[...] = values
                return out
            return broadcast
        ns = {"np": np}
        exec(compile(self.source, "<nslab-table>", "exec"), ns)
        return ns["kernel"]

    def __call__(self, x=None, v=None, p=None, y=None):
        batch = next((np.shape(a)[1:] for a in (x, v, p, y)
                      if a is not None and np.ndim(a) > 1), ())    # np.ndim(None) is slow
        out = self._kernel(x, v, p, y, np.empty((self.exprs.size,) + batch))
        return out.reshape(self.exprs.shape + batch)[()]


_LOCAL = re.compile(r"\bt\d+\b")     # a kernel local, t<k>
KERNEL_NEST = 50      # brackets a kernel line may nest; CPython's parser stops at 200


def kernel_source(components):
    """Source of kernel(x, v, p, y, out) setting out[i] to components[i].

    Subtrees are merged by structure (template and merged children), so each
    distinct non-leaf subtree is evaluated once: one read by more than one
    parent or component goes to a local t<k>, deleted after the last line
    that reads it, and one read once is written inline unless that would
    nest its brackets KERNEL_NEST deep, when it goes to a local too (so a
    long sum compiles).  A local only names a value.  Every node keeps
    its formula and operand order, so each value is the one its tree's own
    source computes, bit for bit.
    """
    keys, seen = {}, {}                # key -> k, in numbering order; id(node) -> k
    outputs, ends = [], []             # node of each component, nodes numbered by then
    for e in components:
        for node in _post_order(e, seen):
            template, children = node.parts()
            seen[id(node)] = keys.setdefault((template, *[seen[id(c)] for c in children]),
                                             len(keys))
        outputs.append(seen[id(e)])
        ends.append(len(keys))
    nodes = list(keys)
    uses = [0] * len(nodes)
    for k in outputs + [c for key in nodes for c in key[1:]]:
        uses[k] += 1

    text, nest, lines, start = [], [], [], 0     # nest: bracket depth of each text
    for i, (k_out, end) in enumerate(zip(outputs, ends)):
        for k in range(start, end):    # children are numbered before parents
            template, *children = nodes[k]
            body = template.format(*[text[c] for c in children])
            depth = 1 + max([nest[c] for c in children], default=0)
            if children and (uses[k] > 1 or depth >= KERNEL_NEST):
                lines.append(f"t{k} = {body}")
                body, depth = f"t{k}", 0
            text.append(body)
            nest.append(depth)
        start = end
        lines.append(f"out[{i}] = {text[k_out]}")

    last = {name: j for j, line in enumerate(lines)
            for name in _LOCAL.findall(line, line.index(" = "))}
    dead = {}
    for name, j in last.items():
        dead.setdefault(j, []).append(name)
    body = "".join(f"    {line}\n" + (f"    del {', '.join(dead[j])}\n" if j in dead else "")
                   for j, line in enumerate(lines))
    return "def kernel(x, v, p, y, out):\n" + body + "    return out\n"


def component(value, where, bounds):
    """An expression given from outside the package (a scenario, a caller):
    a string, a JSON number or an Expression, whose symbols have the kinds
    of `bounds` and indices up to bounds[kind] ({"x": n, "p": n}).  Any other
    value, or the first bad symbol in (kind, index) order, raises
    ValidationError naming `where`; a string that does not parse, ParseError."""
    if isinstance(value, str):
        try:
            value = parse(value)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc.reason}", exc.line, exc.column) from None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return const(value)
    elif not isinstance(value, Expression):
        raise ValidationError(where, f"expected an expression or a number, "
                                     f"got {type(value).__name__}")
    bad = [s for s in value.symbols() if s.index > bounds.get(s.kind, 0)]
    if bad:
        s = min(bad, key=lambda s: (s.kind, s.index))
        raise ValidationError(where, f"symbol {s.name} exceeds dimension {bounds[s.kind]}"
                              if s.kind in bounds else f"symbol {s.name} has unexpected kind")
    return value


def components(values, where, shape, bounds):
    """The object array of `shape` of the expressions in the nested array
    `values`, each read by `component` under its index (where[1],
    where[0][1][2]); another shape raises ValidationError naming `where`."""
    values = np.asarray(values, dtype=object)
    if values.shape != shape:
        raise ValidationError(where, f"expected shape {shape}")
    out = np.empty(shape, dtype=object)
    slot = where + "[%d]" * len(shape)
    for idx, value in np.ndenumerate(values):
        out[idx] = component(value, slot % idx, bounds)
    return out


sym = Sym    # the spelling callers use: sym("p", 1) is the node of p1


def derivatives(exprs, symbol):
    """The exact partial derivatives of the expressions `exprs` by the Sym
    `symbol`, one at a time, so a caller may stop early.  Every derivative
    rule is here.  Each distinct subtree (by identity) is differentiated
    once, after its children, over _post_order, into a memo that lives for
    this one derivation: any depth derives."""
    memo = {}                          # id(node) -> its derivative; `exprs` keep the nodes
    one, zero = Const(1.0), Const(0.0)
    for e in exprs:
        for node in _post_order(e, memo):
            cls = type(node)
            if cls is Sym or cls is Const:
                memo[id(node)] = one if node is symbol else zero
                continue
            a, da = node.a, memo[id(node.a)]
            if cls is Add:
                out = add(da, memo[id(node.b)])
            elif cls is Mul:
                out = add(mul(da, node.b), mul(a, memo[id(node.b)]))
            elif cls is Pow and type(node.b) is Const:
                out = mul(mul(node.b, power(a, Const(node.b.value - 1.0))), da)
            elif cls is Pow:            # a^b * (db*log(a) + b*da/a)
                out = mul(node, add(mul(memo[id(node.b)], Func("log", a)),
                                    div(mul(node.b, da), a)))
            elif cls is Sub:
                out = sub(da, memo[id(node.b)])
            elif cls is Div:
                out = div(sub(mul(da, node.b), mul(a, memo[id(node.b)])), mul(node.b, node.b))
            elif cls is Neg:
                out = neg(da)
            elif node.name == "sqrt":
                out = div(da, mul(Const(2.0), node))
            elif node.name == "exp":
                out = mul(node, da)
            elif node.name == "log":
                out = div(da, a)
            elif node.name == "sin":
                out = mul(Func("cos", a), da)
            else:                       # cos
                out = neg(mul(Func("sin", a), da))
            memo[id(node)] = out
        yield memo[id(e)]


def differentiate(expression, symbol):
    """Exact partial derivative; `symbol` is a Sym or a name like "v2"."""
    if isinstance(symbol, str):
        symbol = parse_symbol(symbol)
    if not isinstance(symbol, Sym):
        raise UnknownSymbol(f"not a symbol: {symbol!r}")
    return next(derivatives([expression], symbol))


def gradient(exprs, kind, count, axis=0):
    """The exact derivatives of a nested expression array by kind1..kind<count>:
    an object array with the new index, of length `count`, at `axis`, so
    gradient(a, "x", n)[q][i...] = d a[i...] / d x<q+1>, by one derivation
    per symbol."""
    exprs = np.asarray(exprs, dtype=object)
    out = np.fromiter((de for q in range(count)
                       for de in derivatives(exprs.flat, sym(kind, q + 1))),
                      dtype=object, count=count * exprs.size).reshape((count,) + exprs.shape)
    axes = list(range(1, out.ndim))
    axes.insert(axis % out.ndim, 0)    # a transpose: np.moveaxis costs microseconds more
    return out.transpose(axes)


def _minors(rows):
    """minor(r, c): the determinant of the square expression matrix `rows`
    restricted to the row and column index tuples r and c, by Laplace
    expansion along its first column.  Each minor is built once, so a full
    expansion costs about n 2^n nodes, not n!."""
    memo = {}

    def minor(r, c):
        if len(r) <= 1:
            return rows[r[0]][c[0]] if r else Const(1.0)
        out = memo.get((r, c))
        if out is None:
            out = Const(0.0)
            for k, i in enumerate(r):
                term = mul(rows[i][c[0]], minor(r[:k] + r[k + 1:], c[1:]))
                out = sub(out, term) if k % 2 else add(out, term)
            memo[r, c] = out
        return out

    return minor


def det(rows):
    """Determinant of a square matrix of expressions (a list of rows)."""
    full = tuple(range(len(rows)))
    return _minors(rows)(full, full)


def adjugate(rows):
    """Adjugate of a square matrix of expressions, adj[j][i] = (-1)^(i+j)
    times the minor of `rows` without row i and column j, so that
    adj . rows = det(rows) I.  Its minors are the trees det(rows) expands
    into, which a Table evaluating both computes once."""
    n = len(rows)
    minor = _minors(rows)
    drop = [tuple(k for k in range(n) if k != i) for i in range(n)]
    return [[neg(minor(drop[i], drop[j])) if (i + j) % 2 else minor(drop[i], drop[j])
             for i in range(n)] for j in range(n)]


_SYMBOL_RE = re.compile(r"([xvpy])([0-9]+)")


def parse_symbol(name):
    m = _SYMBOL_RE.fullmatch(name)
    if m is None:
        raise UnknownSymbol(f"unknown symbol {name!r}")
    return Sym(m.group(1), int(m.group(2)))


# ---------------------------------------------------------------------------
# parser: conventional infix grammar with ^ for power

# One token after optional whitespace (\s is str.isspace); "bad" is any other
# character, reported as unexpected.
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                       r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<op>[-+*/^()])|(?P<bad>\S))")

# infix operator -> (its precedence, the precedence from which the pending
# operators before it apply, its folding constructor); ^ is right-associative
# and binds tighter than a prefix minus (precedence 3), which binds tighter
# than * and /
_INFIX = {"+": (1, 1, add), "-": (1, 1, sub), "*": (2, 2, mul), "/": (2, 2, div),
          "^": (4, 5, power)}
_NEG = 3


def _error(message, text, pos):
    """ParseError at the offset `pos` of `text`, with its line and column."""
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _tokenize(text):
    """The tokens of `text` as (kind, text, offset), ending with ("end", "",
    len(text)), by one scan; a character that starts no token is an error."""
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip()))]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise _error(f"unexpected character {value!r}", text, pos)
    tokens.append(("end", "", len(text)))
    return tokens


def parse(text):
    """Parse infix text (symbols x1.., v1.., p1.., y1..; ^ for power).

    One precedence-climbing loop, without recursion: `pending` holds the
    operators whose right operand is not complete yet, above the "(" or
    function call they sit in (precedence 0), and each folds into `values`
    once the next token shows that its operand is.  Constructors run in the
    order of the recursive grammar, so a fold that is not a finite real
    number is reported at its operator (or number, or function name).
    """
    if not isinstance(text, str):
        raise ParseError("expression must be a string")
    tokens = _tokenize(text)
    values, pending = [], [(0, None, 0)]    # (precedence, fold or function name, offset)
    i = at = 0                              # at: offset of the constructor call in progress
    try:
        while True:
            # an operand: signs, "(" and function calls open, then a leaf
            kind, value, pos = tokens[i]
            i += 1
            if kind == "num":
                at = pos
                values.append(const(value))
            elif value in _FUNC_EVAL:
                _, following, after = tokens[i]
                i += 1
                if following != "(":
                    raise _error(f"expected '(', found {following!r}", text, after)
                pending.append((0, value, pos))
                continue
            elif value == "pi":
                values.append(Const(math.pi))
            elif kind == "name":
                try:
                    values.append(parse_symbol(value))
                except UnknownSymbol:
                    raise _error(f"unknown name {value!r}", text, pos) from None
            elif value == "(":
                pending.append((0, None, pos))
                continue
            elif value == "-":
                pending.append((_NEG, neg, pos))
                continue
            elif value == "+":
                continue
            else:
                raise _error(f"unexpected {value!r}" if value else "unexpected end of input",
                             text, pos)
            # after an operand: ")" closes, until an infix operator or the end
            while True:
                kind, value, pos = tokens[i]
                i += 1
                # any other token ends the operand: every operator pending
                # above the innermost "(" or call applies
                prec, applies, fold = _INFIX.get(value, (0, 1, None))
                while pending[-1][0] >= applies:
                    p, f, at = pending.pop()
                    if p == _NEG:
                        values[-1] = f(values[-1])
                    else:
                        b = values.pop()
                        values[-1] = f(values[-1], b)
                if fold is not None:
                    pending.append((prec, fold, pos))
                    break
                _, name, at = pending.pop()
                if not pending:
                    if kind != "end":
                        raise _error(f"unexpected trailing {value!r}", text, pos)
                    return values[0]
                if value != ")":
                    raise _error(f"expected ')', found {value!r}", text, pos)
                if name is not None:
                    values[-1] = func(name, values[-1])
    except NonFiniteConstant as exc:
        raise _error(str(exc), text, at) from None
