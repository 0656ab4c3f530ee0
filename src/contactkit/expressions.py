"""Scalar expression DSL with exact first/second derivatives.

Expressions are parsed from a small arithmetic grammar over named chart
coordinates and evaluated in batches by forward propagation of second-order
jets (value, gradient, Hessian).  No finite differencing happens anywhere in
this module; derivatives are exact up to floating-point rounding.

Grammar::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" integer)?
    base   := number | ident | "(" expr ")"
            | ("sin"|"cos"|"exp"|"sqrt"|"-") "(" expr ")" | "-" base

Unary minus binds like a ``base``, so ``-x^2`` means ``(-x)^2`` exactly as the
grammar reads.  ``^`` takes a literal (optionally signed) integer exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "UnknownCoordinateError",
    "EvalDomainError",
    "Jet2",
    "ScalarExpr",
    "parse",
    "const",
    "coord",
    "sin",
    "cos",
    "exp",
    "sqrt",
    "random_polynomial",
]


class ExprError(Exception):
    """Base class for expression DSL errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownCoordinateError(ExprError):
    """An identifier does not name a coordinate of the target chart."""

    def __init__(self, name: str, offset: int, coords: Sequence[str]):
        super().__init__(
            f"unknown coordinate {name!r} at offset {offset}; "
            f"chart coordinates are {', '.join(coords)}"
        )
        self.name = name
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the domain of an operation (division by zero, sqrt)."""


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of a scalar function at one point.

    ``gradient`` has shape (dim,) and ``hessian`` shape (dim, dim); the
    Hessian is built symmetric term by term, never symmetrized afterwards.
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


class _JetCtx:
    """Evaluation context: a batch of points plus shared coordinate jets."""

    __slots__ = ("points", "n", "dim", "_coord_grads")

    def __init__(self, points: np.ndarray):
        self.points = points
        self.n, self.dim = points.shape
        self._coord_grads: dict[int, np.ndarray] = {}

    def coord_grad(self, i: int) -> np.ndarray:
        g = self._coord_grads.get(i)
        if g is None:
            g = np.zeros((self.n, self.dim))
            g[:, i] = 1.0
            self._coord_grads[i] = g
        return g


# grad/hess use None as a structural zero; combinators below keep that sparse.


def _gadd(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _gsub(a, b):
    if a is None:
        return None if b is None else -b
    if b is None:
        return a
    return a - b


def _gscale(s, g):
    # s: scalar or (n,) array; g: (n,dim) or (n,dim,dim) or None
    if g is None:
        return None
    if np.ndim(s) == 1:
        s = s.reshape((-1,) + (1,) * (g.ndim - 1))
    return s * g


def _outer_sym(g1, g2):
    # symmetric product g1 (x) g2 + g2 (x) g1, or None if either is zero
    if g1 is None or g2 is None:
        return None
    m = np.einsum("ni,nj->nij", g1, g2)
    return m + np.swapaxes(m, 1, 2)


def _outer_self(g):
    if g is None:
        return None
    return np.einsum("ni,nj->nij", g, g)


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

# precedence levels for printing, mirroring the grammar nonterminals
_ADD, _MUL, _POW, _BASE = 1, 2, 3, 4


class _Node:
    __slots__ = ()

    level = _BASE

    def jet(self, ctx: _JetCtx):
        raise NotImplementedError

    def val(self, ctx: _JetCtx):
        raise NotImplementedError

    def diff(self, i: int) -> "_Node":
        raise NotImplementedError

    def subst(self, table: Sequence["_Node"]) -> "_Node":
        raise NotImplementedError

    def src(self) -> str:
        raise NotImplementedError

    def wrapped(self, minimum: int) -> str:
        s = self.src()
        return s if self.level >= minimum else f"({s})"

    def free(self, out: set) -> None:
        pass


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class _Const(_Node):
    __slots__ = ("v",)

    def __init__(self, v: float):
        self.v = float(v)

    def jet(self, ctx):
        return np.full(ctx.n, self.v), None, None

    def val(self, ctx):
        return np.full(ctx.n, self.v)

    def diff(self, i):
        return _Const(0.0)

    def subst(self, table):
        return self

    def src(self):
        return _fmt_number(self.v)  # negatives print as "-n", still a base


class _Coord(_Node):
    __slots__ = ("i", "name")

    def __init__(self, i: int, name: str):
        self.i = i
        self.name = name

    def jet(self, ctx):
        return ctx.points[:, self.i], ctx.coord_grad(self.i), None

    def val(self, ctx):
        return ctx.points[:, self.i]

    def diff(self, i):
        return _Const(1.0 if i == self.i else 0.0)

    def subst(self, table):
        return table[self.i]

    def src(self):
        return self.name

    def free(self, out):
        out.add(self.i)


class _Neg(_Node):
    __slots__ = ("a",)

    def __init__(self, a: _Node):
        self.a = a

    def jet(self, ctx):
        v, g, h = self.a.jet(ctx)
        return -v, _gscale(-1.0, g), _gscale(-1.0, h)

    def val(self, ctx):
        return -self.a.val(ctx)

    def diff(self, i):
        return _neg(self.a.diff(i))

    def subst(self, table):
        return _neg(self.a.subst(table))

    def src(self):
        return "-" + self.a.wrapped(_BASE)

    def free(self, out):
        self.a.free(out)


class _Add(_Node):
    __slots__ = ("a", "b")
    level = _ADD

    def __init__(self, a, b):
        self.a, self.b = a, b

    def jet(self, ctx):
        va, ga, ha = self.a.jet(ctx)
        vb, gb, hb = self.b.jet(ctx)
        return va + vb, _gadd(ga, gb), _gadd(ha, hb)

    def val(self, ctx):
        return self.a.val(ctx) + self.b.val(ctx)

    def diff(self, i):
        return _add(self.a.diff(i), self.b.diff(i))

    def subst(self, table):
        return _add(self.a.subst(table), self.b.subst(table))

    def src(self):
        return f"{self.a.wrapped(_ADD)} + {self.b.wrapped(_MUL)}"

    def free(self, out):
        self.a.free(out)
        self.b.free(out)


class _Sub(_Add):
    __slots__ = ()

    def jet(self, ctx):
        va, ga, ha = self.a.jet(ctx)
        vb, gb, hb = self.b.jet(ctx)
        return va - vb, _gsub(ga, gb), _gsub(ha, hb)

    def val(self, ctx):
        return self.a.val(ctx) - self.b.val(ctx)

    def diff(self, i):
        return _sub(self.a.diff(i), self.b.diff(i))

    def subst(self, table):
        return _sub(self.a.subst(table), self.b.subst(table))

    def src(self):
        return f"{self.a.wrapped(_ADD)} - {self.b.wrapped(_MUL)}"


class _Mul(_Node):
    __slots__ = ("a", "b")
    level = _MUL

    def __init__(self, a, b):
        self.a, self.b = a, b

    def jet(self, ctx):
        va, ga, ha = self.a.jet(ctx)
        vb, gb, hb = self.b.jet(ctx)
        v = va * vb
        g = _gadd(_gscale(va, gb), _gscale(vb, ga))
        h = _gadd(_gadd(_gscale(va, hb), _gscale(vb, ha)), _outer_sym(ga, gb))
        return v, g, h

    def val(self, ctx):
        return self.a.val(ctx) * self.b.val(ctx)

    def diff(self, i):
        return _add(_mul(self.a.diff(i), self.b), _mul(self.a, self.b.diff(i)))

    def subst(self, table):
        return _mul(self.a.subst(table), self.b.subst(table))

    def src(self):
        return f"{self.a.wrapped(_MUL)}*{self.b.wrapped(_POW)}"

    def free(self, out):
        self.a.free(out)
        self.b.free(out)


class _Div(_Node):
    __slots__ = ("a", "b")
    level = _MUL

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _recip(self, ctx):
        vb, gb, hb = self.b.jet(ctx)
        if np.any(vb == 0.0):
            raise EvalDomainError("division by zero during evaluation")
        u = 1.0 / vb
        u2 = u * u
        g = _gscale(-u2, gb)
        h = _gadd(_gscale(-u2, hb), _gscale(2.0 * u2 * u, _outer_self(gb)))
        return u, g, h

    def jet(self, ctx):
        va, ga, ha = self.a.jet(ctx)
        u, gu, hu = self._recip(ctx)
        v = va * u
        g = _gadd(_gscale(va, gu), _gscale(u, ga))
        h = _gadd(_gadd(_gscale(va, hu), _gscale(u, ha)), _outer_sym(ga, gu))
        return v, g, h

    def val(self, ctx):
        vb = self.b.val(ctx)
        if np.any(vb == 0.0):
            raise EvalDomainError("division by zero during evaluation")
        return self.a.val(ctx) / vb

    def diff(self, i):
        da, db = self.a.diff(i), self.b.diff(i)
        return _sub(_div(da, self.b), _div(_mul(self.a, db), _pow(self.b, 2)))

    def subst(self, table):
        return _div(self.a.subst(table), self.b.subst(table))

    def src(self):
        return f"{self.a.wrapped(_MUL)}/{self.b.wrapped(_POW)}"

    def free(self, out):
        self.a.free(out)
        self.b.free(out)


def _power_term(c: int, va, e: int):
    """``c * va**e``; a zero coefficient gives 0 also where ``va`` is 0 and
    ``e`` is negative (the k = 0, 1 derivative terms of ``a^k``), where the
    product would be ``0 * inf = nan``."""
    if c != 0 or e >= 0:
        return c * va**e
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(va == 0.0, 0.0, c * va**e)


class _Pow(_Node):
    __slots__ = ("a", "k")
    level = _POW

    def __init__(self, a, k: int):
        self.a = a
        self.k = int(k)

    def jet(self, ctx):
        k = self.k
        va, ga, ha = self.a.jet(ctx)
        if k < 0 and np.any(va == 0.0):
            raise EvalDomainError("zero raised to a negative power")
        v = va**k
        c1 = _power_term(k, va, k - 1)
        g = _gscale(c1, ga)
        h = _gadd(
            _gscale(c1, ha),
            _gscale(_power_term(k * (k - 1), va, k - 2), _outer_self(ga)),
        )
        return v, g, h

    def val(self, ctx):
        va = self.a.val(ctx)
        if self.k < 0 and np.any(va == 0.0):
            raise EvalDomainError("zero raised to a negative power")
        return va**self.k

    def diff(self, i):
        return _mul(_mul(_Const(self.k), _pow(self.a, self.k - 1)), self.a.diff(i))

    def subst(self, table):
        return _pow(self.a.subst(table), self.k)

    def src(self):
        return f"{self.a.wrapped(_BASE)}^{self.k}"

    def free(self, out):
        self.a.free(out)


class _Call(_Node):
    __slots__ = ("fn", "a")

    def __init__(self, fn: str, a: _Node):
        self.fn = fn
        self.a = a

    def jet(self, ctx):
        va, ga, ha = self.a.jet(ctx)
        if self.fn == "sin":
            v, d1, d2 = np.sin(va), np.cos(va), None
        elif self.fn == "cos":
            v, d1, d2 = np.cos(va), -np.sin(va), None
        elif self.fn == "exp":
            v = np.exp(va)
            d1, d2 = v, v
        else:  # sqrt
            if np.any(va < 0.0):
                raise EvalDomainError("sqrt of negative value")
            if np.any(va == 0.0):
                raise EvalDomainError("sqrt derivative undefined at zero")
            v = np.sqrt(va)
            d1 = 0.5 / v
            d2 = -0.25 / (va * v)
        if d2 is None:  # second derivative of sin/cos is -value
            d2 = -v
        g = _gscale(d1, ga)
        h = _gadd(_gscale(d1, ha), _gscale(d2, _outer_self(ga)))
        return v, g, h

    def val(self, ctx):
        va = self.a.val(ctx)
        if self.fn == "sin":
            return np.sin(va)
        if self.fn == "cos":
            return np.cos(va)
        if self.fn == "exp":
            return np.exp(va)
        if np.any(va < 0.0):
            raise EvalDomainError("sqrt of negative value")
        return np.sqrt(va)

    def diff(self, i):
        da = self.a.diff(i)
        if self.fn == "sin":
            outer = _Call("cos", self.a)
        elif self.fn == "cos":
            outer = _neg(_Call("sin", self.a))
        elif self.fn == "exp":
            outer = _Call("exp", self.a)
        else:
            outer = _div(_Const(0.5), _Call("sqrt", self.a))
        return _mul(outer, da)

    def subst(self, table):
        return _Call(self.fn, self.a.subst(table))

    def src(self):
        return f"{self.fn}({self.a.src()})"

    def free(self, out):
        self.a.free(out)


# smart constructors: light folding so derived expressions stay small


def _is_const(n: _Node, v: float | None = None) -> bool:
    return isinstance(n, _Const) and (v is None or n.v == v)


def _neg(a: _Node) -> _Node:
    if _is_const(a):
        return _Const(-a.v)
    if isinstance(a, _Neg):
        return a.a
    return _Neg(a)


def _add(a: _Node, b: _Node) -> _Node:
    if _is_const(a) and _is_const(b):
        return _Const(a.v + b.v)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(b, _Neg):
        return _Sub(a, b.a)
    return _Add(a, b)


def _sub(a: _Node, b: _Node) -> _Node:
    if _is_const(a) and _is_const(b):
        return _Const(a.v - b.v)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return _Sub(a, b)


def _mul(a: _Node, b: _Node) -> _Node:
    if _is_const(a) and _is_const(b):
        return _Const(a.v * b.v)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return _neg(b)
    if _is_const(b, -1.0):
        return _neg(a)
    return _Mul(a, b)


def _div(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return _Const(0.0)
    if _is_const(a) and _is_const(b) and b.v != 0.0:
        return _Const(a.v / b.v)
    return _Div(a, b)


def _pow(a: _Node, k: int) -> _Node:
    if k == 0:
        return _Const(1.0)
    if k == 1:
        return a
    if _is_const(a):
        return _Const(a.v**k)
    return _Pow(a, k)


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(_Token("number", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, coords: Sequence[str]):
        self.source = source
        self.coords = tuple(coords)
        self.index = {name: i for i, name in enumerate(self.coords)}
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}", t.pos)
        return self.next()

    def parse(self) -> _Node:
        node = self.expr()
        t = self.peek()
        if t.kind != "eof":
            raise ExprSyntaxError(f"unexpected {t.text!r}", t.pos)
        return node

    def expr(self) -> _Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            node = _Add(node, rhs) if op == "+" else _Sub(node, rhs)
        return node

    def term(self) -> _Node:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.factor()
            node = _Mul(node, rhs) if op == "*" else _Div(node, rhs)
        return node

    def factor(self) -> _Node:
        node = self.base()
        if self.peek().kind == "^":
            self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            t = self.expect("number")
            if not t.text.isdigit():
                raise ExprSyntaxError("exponent must be an integer", t.pos)
            node = _Pow(node, sign * int(t.text))
        return node

    def base(self) -> _Node:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return _Const(float(t.text))
        if t.kind == "ident":
            self.next()
            if t.text in _FUNCTIONS:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return _Call(t.text, inner)
            i = self.index.get(t.text)
            if i is None:
                raise UnknownCoordinateError(t.text, t.pos, self.coords)
            return _Coord(i, t.text)
        if t.kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if t.kind == "-":
            self.next()
            return _Neg(self.base())
        raise ExprSyntaxError(f"expected a value, got {t.text or 'end of input'!r}", t.pos)


# ---------------------------------------------------------------------------
# public wrapper
# ---------------------------------------------------------------------------


class ScalarExpr:
    """A scalar function of the coordinates of one chart.

    Immutable; supports arithmetic operators, exact jet evaluation, symbolic
    differentiation and substitution.  ``coords`` is the full ordered
    coordinate tuple the expression is bound to; ``free_coords`` the subset
    that actually occurs.
    """

    __slots__ = ("coords", "_root", "_source")

    def __init__(self, coords: Sequence[str], root: _Node, source: str | None = None):
        object.__setattr__(self, "coords", tuple(coords))
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_source", source)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("ScalarExpr is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def parse(source: str, coords: Sequence[str]) -> "ScalarExpr":
        return ScalarExpr(coords, _Parser(source, coords).parse(), source)

    @property
    def source(self) -> str:
        return self._source if self._source is not None else self._root.src()

    def __str__(self) -> str:
        return self._root.src()

    def __repr__(self) -> str:
        return f"ScalarExpr({self._root.src()!r})"

    @property
    def free_coords(self) -> tuple[str, ...]:
        idx: set[int] = set()
        self._root.free(idx)
        return tuple(self.coords[i] for i in sorted(idx))

    def constant_value(self) -> float | None:
        """The exact constant value if the expression folds to one, else None."""
        idx: set[int] = set()
        self._root.free(idx)
        if idx:
            return None
        ctx = _JetCtx(np.zeros((1, max(len(self.coords), 1))))
        return float(self._root.val(ctx)[0])

    # -- evaluation -------------------------------------------------------

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != len(self.coords):
            raise ValueError(
                f"points must have {len(self.coords)} coordinates, got shape {pts.shape}"
            )
        return pts

    def values(self, points: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape (n,)."""
        pts = self._check_points(points)
        return np.asarray(self._root.val(_JetCtx(pts)), dtype=float).reshape(len(pts)).copy()

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.values(points)

    def jets(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched jets: values (n,), gradients (n,d), Hessians (n,d,d)."""
        pts = self._check_points(points)
        n, d = pts.shape
        v, g, h = self._root.jet(_JetCtx(pts))
        v = np.asarray(v, dtype=float).reshape(n).copy()
        g = np.zeros((n, d)) if g is None else g
        h = np.zeros((n, d, d)) if h is None else h
        return v, g, h

    def eval_jet2(self, point: Sequence[float]) -> Jet2:
        """Exact value, gradient and Hessian at a single point."""
        v, g, h = self.jets(np.asarray(point, dtype=float))
        return Jet2(float(v[0]), g[0], h[0])

    # -- calculus ---------------------------------------------------------

    def derivative(self, coord_name: str) -> "ScalarExpr":
        """Exact symbolic partial derivative with respect to one coordinate."""
        try:
            i = self.coords.index(coord_name)
        except ValueError:
            raise UnknownCoordinateError(coord_name, 0, self.coords) from None
        return ScalarExpr(self.coords, self._root.diff(i))

    def substitute(
        self, mapping: Mapping[str, "ScalarExpr"], coords: Sequence[str]
    ) -> "ScalarExpr":
        """Replace each coordinate by an expression over ``coords``.

        Coordinates absent from ``mapping`` must themselves be coordinates of
        the target chart and pass through unchanged.
        """
        coords = tuple(coords)
        index = {name: i for i, name in enumerate(coords)}
        table: list[_Node] = []
        for name in self.coords:
            repl = mapping.get(name)
            if repl is not None:
                if tuple(repl.coords) != coords:
                    repl = repl.rebind(coords)
                table.append(repl._root)
            else:
                if name not in index:
                    raise UnknownCoordinateError(name, 0, coords)
                table.append(_Coord(index[name], name))
        return ScalarExpr(coords, self._root.subst(table))

    def rebind(self, coords: Sequence[str]) -> "ScalarExpr":
        """Re-index the expression onto a chart containing the same names."""
        return self.substitute({}, coords)

    # -- operators --------------------------------------------------------

    def _coerce(self, other) -> "_Node":
        if isinstance(other, ScalarExpr):
            if other.coords != self.coords:
                raise ValueError("operands bound to different coordinate tuples")
            return other._root
        if isinstance(other, (int, float)):
            return _Const(float(other))
        return NotImplemented

    def _wrap(self, node) -> "ScalarExpr":
        return ScalarExpr(self.coords, node)

    def __add__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(_add(self._root, rhs))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(_sub(self._root, rhs))

    def __rsub__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(_sub(rhs, self._root))

    def __mul__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(_mul(self._root, rhs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(_div(self._root, rhs))

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(_div(rhs, self._root))

    def __neg__(self):
        return self._wrap(_neg(self._root))

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be a literal integer")
        return self._wrap(_pow(self._root, k))


def parse(source: str, coords: Sequence[str]) -> ScalarExpr:
    """Parse ``source`` over the ordered coordinate names ``coords``."""
    return ScalarExpr.parse(source, coords)


def const(value: float, coords: Sequence[str]) -> ScalarExpr:
    return ScalarExpr(coords, _Const(value))


def coord(name: str, coords: Sequence[str]) -> ScalarExpr:
    coords = tuple(coords)
    try:
        i = coords.index(name)
    except ValueError:
        raise UnknownCoordinateError(name, 0, coords) from None
    return ScalarExpr(coords, _Coord(i, name))


def _call1(fn: str, a: ScalarExpr) -> ScalarExpr:
    return ScalarExpr(a.coords, _Call(fn, a._root))


def sin(a: ScalarExpr) -> ScalarExpr:
    return _call1("sin", a)


def cos(a: ScalarExpr) -> ScalarExpr:
    return _call1("cos", a)


def exp(a: ScalarExpr) -> ScalarExpr:
    return _call1("exp", a)


def sqrt(a: ScalarExpr) -> ScalarExpr:
    return _call1("sqrt", a)


def random_polynomial(
    coords: Sequence[str],
    max_degree: int,
    rng: np.random.Generator,
    n_terms: int = 8,
) -> ScalarExpr:
    """A seeded random polynomial of total degree <= ``max_degree``.

    Coefficients are uniform in [-1, 1]; exponent tuples are drawn uniformly
    by total degree so constants and mixed cubics both occur.
    """
    coords = tuple(coords)
    d = len(coords)
    node: _Node = _Const(0.0)
    for _ in range(n_terms):
        total = int(rng.integers(0, max_degree + 1))
        expo = np.zeros(d, dtype=int)
        for _ in range(total):
            expo[int(rng.integers(0, d))] += 1
        term: _Node = _Const(float(np.round(rng.uniform(-1.0, 1.0), 6)))
        for i, e in enumerate(expo):
            if e:
                term = _mul(term, _pow(_Coord(i, coords[i]), int(e)))
        node = _add(node, term)
    return ScalarExpr(coords, node)
