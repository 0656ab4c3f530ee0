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

Expressions form a hash-consed DAG.  Every node constructor returns the one
live node with its structure (class, operand nodes, constant bits,
coordinate, exponent or function name), so structurally equal expressions
are the same object; nothing is reordered or reassociated, and the table of
live nodes holds them weakly.  Each node caches the set of coordinates below
it as a bit mask and its symbolic partial derivatives once computed, so
``free_coords``, ``constant_value`` and ``derivative`` cost the distinct
nodes of an expression, not the nodes of the tree it writes out to
(:meth:`ScalarExpr.node_counts` gives both).

Values and jets are computed by one tape.  A single iterative compile of one
or more roots lists their distinct nodes in topological order, with each
node's operand steps and its last reader.  One loop over it computes each
distinct node's value, and up to the order asked for its gradient (order
1) and Hessian (order 2), once, with the arithmetic and domain checks of a
recursive walk; it drops each array after its last reader and hands out
each root's result as soon as it is computed.  Symbolic differentiation and
printing walk the DAG with explicit stacks too, so no expression is too deep
to evaluate, jet, differentiate or print.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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


# Gradients and Hessians are laid out point-last, (dim, n) and (dim, dim, n),
# so that a node's (n,) value scales them by plain broadcasting; None is a
# structural zero, and the combinators below keep it sparse.


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
    # s: scalar or (n,) array; g: (dim, n) or (dim, dim, n) or None
    return None if g is None else s * g


# The outer products go through einsum, not a broadcast multiply: einsum
# gives +0.0 for a -0.0 product, where a multiply gives -0.0, and the jets
# keep the signed zeros of the point-first layout before them.


def _outer_sym(g1, g2):
    # symmetric product g1 (x) g2 + g2 (x) g1, or None if either is zero
    if g1 is None or g2 is None:
        return None
    m = np.einsum("in,jn->ijn", g1, g2)
    return m + np.swapaxes(m, 0, 1)


def _outer_self(g):
    if g is None:
        return None
    return np.einsum("in,jn->ijn", g, g)


# ---------------------------------------------------------------------------
# AST nodes: a hash-consed DAG
# ---------------------------------------------------------------------------

# precedence levels for printing, mirroring the grammar nonterminals
_ADD, _MUL, _POW, _BASE = 1, 2, 3, 4

#: The intern table: structural key -> weak reference to the one live node
#: with that structure.  A key is the class's ``_tag`` and the node's own
#: fields, with operands named by ``id``: an id is unique while its node
#: lives, and a live node keeps its operands alive, so a key holds nothing
#: alive and a stale key can only lead to a dead reference.  There is no
#: lock: two threads building one structure at once may each get a node,
#: which loses sharing, not correctness.
_TABLE: dict[tuple, weakref.ref] = {}
#: Table size at which the next new node first sweeps out dead references:
#: twice the live size after the last sweep, so sweeping is amortized O(1).
_sweep_at = 1024

_float_bits = struct.Struct("<d").pack
_ref = weakref.ref


def _sweep() -> None:
    global _TABLE, _sweep_at
    _TABLE = {k: r for k, r in _TABLE.items() if r() is not None}
    _sweep_at = max(1024, 2 * len(_TABLE))


def _intern_size() -> int:
    """Live entries of the intern table, after sweeping out dead ones."""
    _sweep()
    return len(_TABLE)


class _Node:
    """One node of the expression DAG.

    Constructors intern: each returns the single live node with its
    structure (class, operand nodes, and ``v``/``i, name``/``k``/``fn``), so
    structurally equal expressions share one object and ``is`` is structural
    equality.  Nodes are immutable.  ``mask`` has bit ``i`` set when
    coordinate ``i`` occurs below the node; ``diff(i)`` is memoized on the
    node and dies with it.  ``_diff`` and ``src`` are handed their operands'
    derivatives and texts by the walks of ``diff`` and :func:`_source_text`.
    """

    __slots__ = ("mask", "_diffs", "__weakref__")

    #: distinct per class; the first item of every intern key
    _tag: int
    level = _BASE
    #: the operand nodes, evaluated in this order; ``None`` where the class
    #: has fewer than two
    a = b = None

    def diff(self, i: int) -> "_Node":
        # An explicit stack, so no depth is too deep; it descends only into
        # operands whose memo lacks i, so _diff runs once per node and i.
        stack: list = [self]
        push, pop, ready = stack.append, stack.pop, _READY
        while stack:
            node = pop()
            if node is ready:  # the operands below are done: this node's turn
                node = pop()
                b = node.b
                d = node._diff(i, node.a._diffs[i], None if b is None else b._diffs[i])
            elif i in (node._diffs or ()):
                continue  # done already, or reached again through a shared operand
            elif node.a is None:
                d = node._diff(i, None, None)
            else:
                push(node)
                push(ready)
                if node.b is not None and i not in (node.b._diffs or ()):
                    push(node.b)
                if i not in (node.a._diffs or ()):
                    push(node.a)
                continue
            if node._diffs is None:
                node._diffs = {i: d}
            else:
                node._diffs[i] = d
        return self._diffs[i]

    def _diff(self, i: int, da: "_Node | None", db: "_Node | None") -> "_Node":
        raise NotImplementedError

    def subst(self, done: Mapping["_Node", "_Node"], table: Sequence["_Node"]) -> "_Node":
        """This node rebuilt over the substituted operands in ``done``."""
        raise NotImplementedError

    def src(self, sa: str | None, sb: str | None) -> str:
        raise NotImplementedError


#: Marks, on an explicit walk's stack, that the node below it has had its
#: operands walked and is next.
_READY = object()


def _wrap(node: _Node, text: str, minimum: int) -> str:
    return text if node.level >= minimum else f"({text})"


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class _Const(_Node):
    __slots__ = ("v",)
    _tag = 0

    def __new__(cls, v: float):
        v = float(v)
        key = (cls._tag, _float_bits(v))  # bits keep 0.0/-0.0 and NaNs apart
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.v, node.mask, node._diffs = v, 0, None
        if len(_TABLE) >= _sweep_at:
            _sweep()
        _TABLE[key] = _ref(node)
        return node

    def _diff(self, i, da, db):
        return _Const(0.0)

    def subst(self, done, table):
        return self

    def src(self, sa, sb):
        return _fmt_number(self.v)  # negatives print as "-n", still a base


class _Coord(_Node):
    __slots__ = ("i", "name")
    _tag = 1

    def __new__(cls, i: int, name: str):
        key = (cls._tag, i, name)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.i, node.name, node.mask, node._diffs = i, name, 1 << i, None
        if len(_TABLE) >= _sweep_at:
            _sweep()
        _TABLE[key] = _ref(node)
        return node

    def _diff(self, i, da, db):
        return _Const(1.0 if i == self.i else 0.0)

    def subst(self, done, table):
        return table[self.i]

    def src(self, sa, sb):
        return self.name


class _Unary(_Node):
    """A node with one operand ``a``."""

    __slots__ = ("a",)


class _Neg(_Unary):
    __slots__ = ()
    _tag = 2

    def __new__(cls, a: _Node):
        key = (cls._tag, id(a))
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.a, node.mask, node._diffs = a, a.mask, None
        if len(_TABLE) >= _sweep_at:
            _sweep()
        _TABLE[key] = _ref(node)
        return node

    def _diff(self, i, da, db):
        return _neg(da)

    def subst(self, done, table):
        return _neg(done[self.a])

    def src(self, sa, sb):
        return "-" + _wrap(self.a, sa, _BASE)


class _Binary(_Node):
    __slots__ = ("a", "b")

    def __new__(cls, a: _Node, b: _Node):
        key = (cls._tag, id(a), id(b))
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.a, node.b, node.mask, node._diffs = a, b, a.mask | b.mask, None
        if len(_TABLE) >= _sweep_at:
            _sweep()
        _TABLE[key] = _ref(node)
        return node


class _Add(_Binary):
    __slots__ = ()
    _tag = 3
    level = _ADD

    def _diff(self, i, da, db):
        return _add(da, db)

    def subst(self, done, table):
        return _add(done[self.a], done[self.b])

    def src(self, sa, sb):
        return f"{_wrap(self.a, sa, _ADD)} + {_wrap(self.b, sb, _MUL)}"


class _Sub(_Add):
    __slots__ = ()
    _tag = 4

    def _diff(self, i, da, db):
        return _sub(da, db)

    def subst(self, done, table):
        return _sub(done[self.a], done[self.b])

    def src(self, sa, sb):
        return f"{_wrap(self.a, sa, _ADD)} - {_wrap(self.b, sb, _MUL)}"


class _Mul(_Binary):
    __slots__ = ()
    _tag = 5
    level = _MUL

    def _diff(self, i, da, db):
        return _add(_mul(da, self.b), _mul(self.a, db))

    def subst(self, done, table):
        return _mul(done[self.a], done[self.b])

    def src(self, sa, sb):
        return f"{_wrap(self.a, sa, _MUL)}*{_wrap(self.b, sb, _POW)}"


class _Div(_Binary):
    __slots__ = ()
    _tag = 6
    level = _MUL

    def _diff(self, i, da, db):
        return _sub(_div(da, self.b), _div(_mul(self.a, db), _pow(self.b, 2)))

    def subst(self, done, table):
        return _div(done[self.a], done[self.b])

    def src(self, sa, sb):
        return f"{_wrap(self.a, sa, _MUL)}/{_wrap(self.b, sb, _POW)}"


def _power_term(c: int, va, e: int):
    """``c * va**e``; a zero coefficient gives 0 also where ``va`` is 0 and
    ``e`` is negative (the k = 0, 1 derivative terms of ``a^k``), where the
    product would be ``0 * inf = nan``."""
    if c != 0 or e >= 0:
        return c * va**e
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(va == 0.0, 0.0, c * va**e)


class _Pow(_Unary):
    __slots__ = ("k",)
    _tag = 7
    level = _POW

    def __new__(cls, a: _Node, k: int):
        k = int(k)
        key = (cls._tag, id(a), k)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.a, node.k, node.mask, node._diffs = a, k, a.mask, None
        if len(_TABLE) >= _sweep_at:
            _sweep()
        _TABLE[key] = _ref(node)
        return node

    def _diff(self, i, da, db):
        return _mul(_mul(_Const(self.k), _pow(self.a, self.k - 1)), da)

    def subst(self, done, table):
        return _pow(done[self.a], self.k)

    def src(self, sa, sb):
        return f"{_wrap(self.a, sa, _BASE)}^{self.k}"


class _Call(_Unary):
    __slots__ = ("fn",)
    _tag = 8

    def __new__(cls, fn: str, a: _Node):
        key = (cls._tag, id(a), fn)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.fn, node.a, node.mask, node._diffs = fn, a, a.mask, None
        if len(_TABLE) >= _sweep_at:
            _sweep()
        _TABLE[key] = _ref(node)
        return node

    def _diff(self, i, da, db):
        if self.fn == "sin":
            outer = _Call("cos", self.a)
        elif self.fn == "cos":
            outer = _neg(_Call("sin", self.a))
        elif self.fn == "exp":
            outer = _Call("exp", self.a)
        else:
            outer = _div(_Const(0.5), _Call("sqrt", self.a))
        return _mul(outer, da)

    def subst(self, done, table):
        return _Call(self.fn, done[self.a])

    def src(self, sa, sb):
        return f"{self.fn}({sa})"


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
        try:
            return _Const(a.v**k)
        except (ZeroDivisionError, OverflowError):
            pass  # evaluation raises EvalDomainError or yields inf, as for a parsed power
    return _Pow(a, k)


# ---------------------------------------------------------------------------
# the DAG as a whole: compile, substitution, the tape of values and jets
# ---------------------------------------------------------------------------


def _compile(
    roots: Sequence[_Node],
) -> tuple[list[_Node], list[int], list[int], list[int], list[int]]:
    """The evaluation tape of ``roots``: ``(nodes, arg_a, arg_b, last, steps)``.

    ``nodes`` are the distinct nodes under ``roots``, each once and after its
    operands, in the order in which a recursive walk of the trees would
    first finish each.  For step ``k``, ``arg_a[k]`` and ``arg_b[k]`` are
    the steps of its operands ``a`` and ``b`` and ``last[k]`` the last step
    that reads it, each -1 where there is none; ``steps[r]`` is the step of
    ``roots[r]``.  The walk keeps an explicit stack, so no depth is too
    deep for it, and builds flat lists, no container per node.
    """
    step: dict = {None: -1}
    nodes: list[_Node] = []
    arg_a: list[int] = []
    arg_b: list[int] = []
    last: list[int] = []
    stack: list[_Node] = []
    # bound once: the walk is a tenth of a small expression's jets call
    get, push, pop = step.get, stack.append, stack.pop
    add_node, add_a, add_b, add_last = nodes.append, arg_a.append, arg_b.append, last.append
    for root in roots:
        push(root)
        while stack:
            node = stack[-1]
            if node in step:
                pop()
                continue
            a, b = get(node.a), get(node.b)
            if a is None or b is None:
                # operands first: a's subtree, then b's, then this node again
                if b is None:
                    push(node.b)
                if a is None:
                    push(node.a)
                continue
            pop()
            k = step[node] = len(nodes)
            add_node(node)
            add_a(a)
            add_b(b)
            add_last(-1)
            if a >= 0:
                last[a] = k
            if b >= 0:
                last[b] = k
    return nodes, arg_a, arg_b, last, [step[root] for root in roots]


def _source_text(root: _Node) -> str:
    """The source text of ``root``, by an explicit stack: each node's text is
    built from its operands' texts, which are dropped as it reads them."""
    texts: list[str] = []
    stack: list = [root]
    push, pop, put, take = stack.append, stack.pop, texts.append, texts.pop
    while stack:
        node = pop()
        if node is _READY:  # the operands' texts are on top, b's last
            node = pop()
            sb = None if node.b is None else take()
            put(node.src(take(), sb))
        elif node.a is None:
            put(node.src(None, None))
        else:
            push(node)
            push(_READY)
            if node.b is not None:
                push(node.b)
            push(node.a)
    return texts[0]


def _subst(root: _Node, table: Sequence[_Node]) -> _Node:
    """``root`` with coordinate ``i`` replaced by ``table[i]``, one rebuild
    per distinct node."""
    done: dict[_Node, _Node] = {}
    for node in _compile((root,))[0]:
        done[node] = node.subst(done, table)
    return done[root]


def _as_batch(points, dim: int) -> tuple[np.ndarray, bool]:
    """``points`` as an ``(n, dim)`` float array, and whether they were one
    point of shape ``(dim,)``."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (n, {dim}) or ({dim},), got {pts.shape}")
    return pts, single


@np.errstate(all="ignore")
def _jets_of(
    exprs: Sequence[ScalarExpr],
    points: np.ndarray,
    take: Callable[..., None],
    order: int = 2,
) -> None:
    """The values, gradients and Hessians, up to derivative ``order`` 0, 1
    or 2, of several expressions over one chart at a batch of ``points`` of
    shape (n, dim), from one tape.

    Each distinct node's value, gradient and Hessian are computed once from
    its operands' with a recursive walk's arithmetic, term for term, and
    domain checks; ``None`` stands for an identically zero gradient or
    Hessian, and a constant's value stays a scalar.  Order 1 gives the
    values and gradients of order 2 bit for bit, but every Hessian is
    ``None`` and none is formed; order 0 gives the values alone, and sqrt at
    0 does not raise.  Order 0 divides as a recursive walk of values does,
    by ``a / b``; orders 1 and 2 as a walk of jets does, by ``a * (1 / b)``.
    Whether an order-2 Hessian is ``None`` follows from the expression's
    structure alone (see :func:`_curved`).  The tape lays gradients and
    Hessians out point-last, as (dim, n) and (dim, dim, n).  As soon as it
    has computed ``exprs[r]`` it calls ``take(r, v, g, h)`` with ``g`` of
    shape (n, dim) and ``h`` of shape (n, dim, dim), point first: the
    transposed views ``g.T`` and ``h.transpose(2, 0, 1)`` of its own
    arrays.  ``take`` must copy what it keeps: the arrays may be shared or
    views of ``points``.  Afterwards, as for every step, the tape keeps the
    arrays only until the last step that reads them.  An overflow gives
    ``inf`` or ``nan`` without a numpy warning, in ``take`` too.
    """
    if not exprs:
        return
    derivatives, hessians = order > 0, order > 1
    nodes, arg_a, arg_b, last, steps = _compile([e._root for e in exprs])
    due = sorted(zip(steps, range(len(steps))))
    due.append((-1, -1))
    i = 0
    n, dim = points.shape
    V: list = [None] * len(nodes)
    G: list = [None] * len(nodes)
    H: list = [None] * len(nodes)
    g = h = None
    for k, node in enumerate(nodes):
        a, b = arg_a[k], arg_b[k]
        t = type(node)
        if t is _Mul:
            va, vb = V[a], V[b]
            v = va * vb
            if derivatives:
                # the structural zeros tested inline, the commonest node's
                # terms in _gadd's order; a node without a gradient has no
                # Hessian either
                ga, gb = G[a], G[b]
                if ga is None:
                    g = None if gb is None else va * gb
                    if hessians:
                        h = None if H[b] is None else va * H[b]
                elif gb is None:
                    g = vb * ga
                    if hessians:
                        h = None if H[a] is None else vb * H[a]
                else:
                    g = va * gb + vb * ga
                    if hessians:
                        ha, hb = H[a], H[b]
                        h = None if hb is None else va * hb
                        if ha is not None:
                            h = vb * ha if h is None else h + vb * ha
                        h = _outer_sym(ga, gb) if h is None else h + _outer_sym(ga, gb)
        elif t is _Add:
            v = V[a] + V[b]
            if derivatives:
                g = _gadd(G[a], G[b])
                if hessians:
                    h = _gadd(H[a], H[b])
        elif t is _Sub:
            v = V[a] - V[b]
            if derivatives:
                g = _gsub(G[a], G[b])
                if hessians:
                    h = _gsub(H[a], H[b])
        elif t is _Coord:
            v = points[:, node.i]
            if derivatives:
                g, h = np.zeros((dim, n)), None
                g[node.i] = 1.0
        elif t is _Const:
            v, g, h = node.v, None, None
        elif t is _Neg:
            v = -V[a]
            if derivatives:
                g = _gscale(-1.0, G[a])
                if hessians:
                    h = _gscale(-1.0, H[a])
        elif t is _Div:
            va, vb = V[a], V[b]
            if np.any(vb == 0.0):
                raise EvalDomainError("division by zero during evaluation")
            if derivatives:
                gb, ga = G[b], G[a]
                u = 1.0 / vb
                u2 = u * u
                gu = _gscale(-u2, gb)
                v = va * u
                g = _gadd(_gscale(va, gu), _gscale(u, ga))
                if hessians:
                    hu = _gadd(_gscale(-u2, H[b]), _gscale(2.0 * u2 * u, _outer_self(gb)))
                    h = _gadd(_gadd(_gscale(va, hu), _gscale(u, H[a])), _outer_sym(ga, gu))
            else:
                v = va / vb
        else:
            # powers and functions of a constant see it as an array, as
            # numpy's array and scalar kernels need not round alike
            va = V[a]
            if not isinstance(va, np.ndarray):
                va = np.full(n, va)
            if t is _Pow:
                e = node.k
                if e < 0 and np.any(va == 0.0):
                    raise EvalDomainError("zero raised to a negative power")
                v = va**e
                if derivatives:
                    ga = G[a]
                    d1 = _power_term(e, va, e - 1)
                    g = _gscale(d1, ga)
                    if hessians:
                        h = _gadd(
                            _gscale(d1, H[a]),
                            _gscale(_power_term(e * (e - 1), va, e - 2), _outer_self(ga)),
                        )
            else:
                fn = node.fn
                if fn == "sin":
                    v = np.sin(va)
                    if derivatives:
                        d1 = np.cos(va)
                elif fn == "cos":
                    v = np.cos(va)
                    if derivatives:
                        d1 = -np.sin(va)
                elif fn == "exp":
                    v = d1 = np.exp(va)
                else:  # sqrt
                    if np.any(va < 0.0):
                        raise EvalDomainError("sqrt of negative value")
                    if derivatives and np.any(va == 0.0):
                        raise EvalDomainError("sqrt derivative undefined at zero")
                    v = np.sqrt(va)
                    if derivatives:
                        d1 = 0.5 / v
                if derivatives:
                    ga = G[a]
                    g = _gscale(d1, ga)
                    if hessians:
                        if fn == "exp":
                            d2 = v
                        elif fn == "sqrt":
                            d2 = -0.25 / (va * v)
                        else:
                            d2 = -v
                        h = _gadd(_gscale(d1, H[a]), _gscale(d2, _outer_self(ga)))
        if due[i][0] == k:
            gt = None if g is None else g.T
            ht = None if h is None else h.transpose(2, 0, 1)
            while due[i][0] == k:
                take(due[i][1], v, gt, ht)
                i += 1
        if last[k] >= 0:
            V[k] = v
            if derivatives:
                G[k], H[k] = g, h
        if a >= 0 and last[a] == k:
            V[a] = G[a] = H[a] = None
        if b >= 0 and last[b] == k:
            V[b] = G[b] = H[b] = None


def _curved(exprs: Sequence[ScalarExpr]) -> bool:
    """Whether an order-2 tape of ``exprs`` gives some root a Hessian, not
    ``None``, read from their structure by the tape's own rules: a node
    has a gradient exactly when it is non-constant (a coordinate lies below
    it), constants and coordinates have no Hessian, ``+``, ``-`` and
    negation have one when an operand has, a product when both factors are
    non-constant or else when its non-constant factor has, a quotient when
    the divisor is non-constant or else when the dividend has, and a power
    or function call when its operand is non-constant."""
    nodes, arg_a, arg_b, _, steps = _compile([e._root for e in exprs])
    curved = [False] * (len(nodes) + 1)  # a missing operand, -1, reads the last False
    for k, node in enumerate(nodes):
        t = type(node)
        if t is _Const or t is _Coord:
            continue
        a, b = arg_a[k], arg_b[k]
        if t is _Pow or t is _Call:
            curved[k] = node.a.mask != 0
        elif t is _Div:
            curved[k] = node.b.mask != 0 or curved[a]
        elif t is _Mul:
            curved[k] = (node.a.mask != 0 and node.b.mask != 0) or curved[a] or curved[b]
        else:  # +, - and negation
            curved[k] = curved[a] or curved[b]
    return any(curved[k] for k in steps)


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_FUNCTIONS = ("sin", "cos", "exp", "sqrt")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` per token, ending with an ``eof`` token."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and source[i + 1].isdecimal()):
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdecimal():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdecimal():
                    j = k
                    while j < n and source[j].isdecimal():
                        j += 1
            tokens.append(("number", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, coords: Sequence[str]):
        self.source = source
        self.coords = tuple(coords)
        self.index = {name: i for i, name in enumerate(self.coords)}
        self.tokens = _tokenize(source)
        self.pos = 0

    def expect(self, kind: str) -> str:
        """Consume a token of ``kind`` and return its text."""
        got, text, offset = self.tokens[self.pos]
        if got != kind:
            raise ExprSyntaxError(f"expected {kind!r}", offset)
        self.pos += 1
        return text

    def parse(self) -> _Node:
        node = self.expr()
        kind, text, offset = self.tokens[self.pos]
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {text!r}", offset)
        return node

    def expr(self) -> _Node:
        node = self.term()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            node = _Add(node, rhs) if op == "+" else _Sub(node, rhs)
        return node

    def term(self) -> _Node:
        node = self.factor()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) in ("*", "/"):
            self.pos += 1
            rhs = self.factor()
            node = _Mul(node, rhs) if op == "*" else _Div(node, rhs)
        return node

    def factor(self) -> _Node:
        node = self.base()
        tokens = self.tokens
        if tokens[self.pos][0] == "^":
            self.pos += 1
            sign = 1
            if tokens[self.pos][0] == "-":
                self.pos += 1
                sign = -1
            offset = tokens[self.pos][2]
            text = self.expect("number")
            if not text.isdecimal():
                raise ExprSyntaxError("exponent must be an integer", offset)
            node = _Pow(node, sign * int(text))
        return node

    def base(self) -> _Node:
        kind, text, offset = self.tokens[self.pos]
        if kind == "number":
            self.pos += 1
            return _Const(float(text))
        if kind == "ident":
            self.pos += 1
            if text in _FUNCTIONS:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return _Call(text, inner)
            i = self.index.get(text)
            if i is None:
                raise UnknownCoordinateError(text, offset, self.coords)
            return _Coord(i, text)
        if kind == "(":
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "-":
            self.pos += 1
            return _Neg(self.base())
        raise ExprSyntaxError(f"expected a value, got {text or 'end of input'!r}", offset)


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
        return self._source if self._source is not None else _source_text(self._root)

    def __str__(self) -> str:
        return _source_text(self._root)

    def __repr__(self) -> str:
        return f"ScalarExpr({_source_text(self._root)!r})"

    @property
    def free_coords(self) -> tuple[str, ...]:
        mask = self._root.mask
        return tuple(name for i, name in enumerate(self.coords) if mask >> i & 1)

    def constant_value(self) -> float | None:
        """The exact constant value if the expression folds to one, else None."""
        root = self._root
        if root.mask:
            return None
        if type(root) is _Const:
            return root.v
        return float(_values_of((self,), np.zeros((1, len(self.coords))))[0][0])

    def node_counts(self) -> tuple[int, int]:
        """``(tree_nodes, distinct_nodes)``: the size of the expression written
        out as a tree, and the number of distinct nodes the evaluation tape
        visits.  Their ratio is the symbolic swell that interning removes."""
        nodes, arg_a, arg_b, _, _ = _compile((self._root,))
        size = [0] * (len(nodes) + 1)  # a missing operand, -1, reads the last 0
        for k in range(len(nodes)):
            size[k] = 1 + size[arg_a[k]] + size[arg_b[k]]
        return size[len(nodes) - 1], len(nodes)

    # -- evaluation -------------------------------------------------------

    def values(self, points: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape (n,)."""
        return _values_of((self,), points)[0]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.values(points)

    def jets(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched jets: values (n,), gradients (n,d), Hessians (n,d,d).

        Domain errors raise :class:`EvalDomainError`; an overflow gives
        ``inf`` or ``nan`` entries without a numpy warning, and the callers
        that need finite values check for them."""
        pts = _as_batch(points, len(self.coords))[0]
        n, d = pts.shape
        got = []
        _jets_of((self,), pts, lambda r, *jet: got.append(jet))
        ((v, g, h),) = got
        # fresh C-contiguous arrays, also from a scalar or a transposed view
        v = np.full(n, v)
        g = np.zeros((n, d)) if g is None else g.copy()
        h = np.zeros((n, d, d)) if h is None else h.copy()
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
        return ScalarExpr(coords, _subst(self._root, table))

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


def _values_of(exprs: Sequence[ScalarExpr], points: np.ndarray) -> list[np.ndarray]:
    """Values of several expressions over one chart at a batch of points,
    shape (n,) each, from one shared tape; every array is a fresh copy."""
    if not exprs:
        return []
    pts = _as_batch(points, len(exprs[0].coords))[0]
    n = len(pts)
    values: list = [None] * len(exprs)

    def take(r, v, g, h):
        values[r] = np.full(n, v)

    _jets_of(exprs, pts, take, order=0)
    return values


def _gradients_of(exprs: Sequence[ScalarExpr], points: np.ndarray) -> list[np.ndarray]:
    """Gradients of several expressions over one chart at a batch of points,
    shape (n, dim) each, from one shared order-1 tape; every array is a
    fresh copy, with the bits of :meth:`ScalarExpr.jets`' gradients."""
    if not exprs:
        return []
    pts = _as_batch(points, len(exprs[0].coords))[0]
    gradients: list = [None] * len(exprs)

    def take(r, v, g, h):
        gradients[r] = np.zeros(pts.shape) if g is None else g.copy()

    _jets_of(exprs, pts, take, order=1)
    return gradients


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
