"""Expression DSL: parser goldens, exact jets vs. finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit.expressions import (
    EvalDomainError,
    ExprSyntaxError,
    Jet2,
    ScalarExpr,
    UnknownCoordinateError,
    coord,
    const,
    parse,
    random_polynomial,
)

XYZ = ("x", "y", "z")


# --- finite-difference oracle (tests only; the library never differences) ---


def fd_gradient(f, point, h=1e-5):
    d = len(point)
    g = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        g[i] = (f(point + e)[0] - f(point - e)[0]) / (2 * h)
    return g


def fd_hessian(f, point, h=1e-5):
    d = len(point)
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                f(point + ei + ej)[0]
                - f(point + ei - ej)[0]
                - f(point - ei + ej)[0]
                + f(point - ei - ej)[0]
            ) / (4 * h * h)
    return H


# --- parsing -----------------------------------------------------------------


def test_parse_three_leaves():
    e = parse("z - y*x", XYZ)
    assert set(e.free_coords) == {"x", "y", "z"}
    assert e.values(np.array([1.0, 2.0, 3.0]))[0] == 1.0


def test_parse_constant_one():
    e = parse("1", XYZ)
    assert e.constant_value() == 1.0
    assert e.free_coords == ()


def test_parse_golden_quadratic():
    e = parse("(x^2 + y^2)/2", XYZ)
    assert e.values(np.array([3.0, 4.0, 0.0]))[0] == 12.5


def test_parse_error_offset_4():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("(x^2", XYZ)
    assert exc.value.offset == 4


def test_parse_error_unexpected_char():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x + $", XYZ)
    assert exc.value.offset == 4


def test_unknown_coordinate():
    with pytest.raises(UnknownCoordinateError) as exc:
        parse("x + w", XYZ)
    assert exc.value.name == "w"
    assert exc.value.offset == 4


def test_unary_minus_binds_as_base():
    # per the grammar "-x^2" is (-x)^2
    e = parse("-x^2", XYZ)
    assert e.values(np.array([3.0, 0.0, 0.0]))[0] == 9.0
    e2 = parse("-(x^2)", XYZ)
    assert e2.values(np.array([3.0, 0.0, 0.0]))[0] == -9.0


def test_integer_exponent_required():
    with pytest.raises(ExprSyntaxError):
        parse("x^y", XYZ)
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5", XYZ)


def test_negative_exponent():
    e = parse("x^-2", XYZ)
    assert e.values(np.array([2.0, 0.0, 0.0]))[0] == 0.25


@pytest.mark.parametrize("source", ["x*²", "x^²", "²*y"])
def test_superscript_digit_is_an_unexpected_character(source):
    # '²'.isdigit() holds, but float() and int() reject it
    with pytest.raises(ExprSyntaxError, match="unexpected character '²'"):
        parse(source, XYZ)


def test_other_decimal_digits_parse():
    assert parse("٣*x", XYZ)._root is parse("3*x", XYZ)._root
    assert parse("x^٣", XYZ)._root is parse("x^3", XYZ)._root


# --- jets --------------------------------------------------------------------


def test_jet_polynomial_golden():
    e = parse("z - y*x", XYZ)
    jet = e.eval_jet2((1.0, 2.0, 3.0))
    assert jet.value == 1.0
    assert np.array_equal(jet.gradient, [-2.0, -1.0, 1.0])
    expected_h = np.zeros((3, 3))
    expected_h[0, 1] = expected_h[1, 0] = -1.0
    assert np.array_equal(jet.hessian, expected_h)


def test_jet_constant():
    e = parse("1", XYZ)
    jet = e.eval_jet2((5.0, -7.0, 0.3))
    assert jet.value == 1.0
    assert not jet.gradient.any()
    assert not jet.hessian.any()


@pytest.mark.parametrize("k", [0, 1])
def test_jet_unit_powers_at_zero_base(k):
    # (xy)^0 and (xy)^1 are smooth where xy = 0; the power rule's terms
    # 0 * (xy)^-1 and 0 * (xy)^-2 must give 0 there, not nan
    jet = parse(f"(x*y)^{k}", XYZ).eval_jet2((0.0, 0.0, 1.0))
    plain = parse("x*y" if k else "1", XYZ).eval_jet2((0.0, 0.0, 1.0))
    assert jet.value == plain.value
    assert np.array_equal(jet.gradient, plain.gradient)
    assert np.array_equal(jet.hessian, plain.hessian)


@pytest.mark.parametrize("k", [0, 1])
def test_jet_unit_powers_away_from_zero_unchanged(k):
    # bit for bit the general power rule wherever the base is nonzero
    pts = np.array([[0.5, -2.0, 1.0], [-3.0, 0.25, 0.0]])
    v, g, h = parse(f"(x*y)^{k}", XYZ).jets(pts)
    bv, bg, bh = parse("x*y", XYZ).jets(pts)
    c1 = (k * bv ** (k - 1))[:, None]
    c2 = (k * (k - 1) * bv ** (k - 2))[:, None, None]
    assert v.tobytes() == (bv**k).tobytes()
    assert g.tobytes() == (c1 * bg).tobytes()
    expected_h = c1[:, :, None] * bh + c2 * np.einsum("ni,nj->nij", bg, bg)
    assert h.tobytes() == expected_h.tobytes()


def test_constant_power_with_no_float_value_evaluates_like_parsed():
    # 0^-1 and 1e200^2 have no finite float value: construction must not
    # raise, and evaluation must match the parsed powers
    pts = np.array([[1.0, 2.0, 3.0]])
    with pytest.raises(EvalDomainError, match="negative power"):
        (const(0.0, XYZ) ** -1).values(pts)
    with pytest.raises(EvalDomainError, match="negative power"):
        parse("0^-1", XYZ).values(pts)
    with np.errstate(over="ignore"):
        built = (const(1e200, XYZ) ** 2).values(pts)
        parsed = parse("1e200^2", XYZ).values(pts)
    assert np.isposinf(built[0]) and np.isposinf(parsed[0])


def test_constant_power_with_float_value_still_folds():
    cube = const(2.0, XYZ) ** 3
    assert cube.constant_value() == 8.0
    assert cube.node_counts() == (1, 1)


def test_jet_sin_exp_golden():
    e = parse("sin(x)*exp(y)", ("x", "y"))
    jet = e.eval_jet2((0.0, 0.0))
    assert jet.value == 0.0
    assert np.allclose(jet.gradient, [1.0, 0.0], atol=1e-15)
    assert abs(jet.hessian[0, 1] - 1.0) < 1e-15
    assert abs(jet.hessian[0, 0]) < 1e-15
    # frozen cross-check against the difference oracle
    pt = np.array([0.0, 0.0])
    assert np.allclose(jet.gradient, fd_gradient(e.values, pt), atol=1e-7)
    assert np.allclose(jet.hessian, fd_hessian(e.values, pt), atol=1e-7)


def test_division_by_zero():
    e = parse("1/x", XYZ)
    with pytest.raises(EvalDomainError):
        e.values(np.array([0.0, 1.0, 1.0]))


def test_sqrt_domain():
    e = parse("sqrt(x)", XYZ)
    with pytest.raises(EvalDomainError):
        e.values(np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(EvalDomainError):
        e.eval_jet2((0.0, 0.0, 0.0))  # derivative blows up at 0
    assert e.values(np.array([4.0, 0.0, 0.0]))[0] == 2.0


def test_sum_deeper_than_the_recursion_limit():
    import sys

    terms = 1499
    assert terms > sys.getrecursionlimit()
    e = parse(" + ".join(f"{i}*x" for i in range(1, terms + 1)), XYZ)
    pts = np.array([[1.0, 2.0, 3.0], [-2.0, 0.0, 1.0]])
    total = terms * (terms + 1) / 2
    assert e.values(pts).tolist() == [total, -2 * total]
    v, g, h = e.jets(pts)
    assert v.tolist() == [total, -2 * total]
    assert g.tolist() == [[total, 0.0, 0.0]] * 2
    assert not h.any()
    assert e.node_counts() == (4 * terms - 1, 3 * terms)
    assert e.derivative("x").constant_value() == total == 1124250
    assert e.derivative("y").constant_value() == 0.0
    printed = str(e)
    assert printed == " + ".join(f"{i}*x" for i in range(1, terms + 1))
    assert parse(printed, XYZ)._root is e._root


def test_diff_does_not_descend_into_memoized_nodes(monkeypatch):
    from contactkit import expressions

    calls = []
    for name in ("_Const", "_Coord", "_Neg", "_Add", "_Sub", "_Mul", "_Div", "_Pow", "_Call"):
        cls = getattr(expressions, name)
        original = vars(cls)["_diff"]

        def counted(self, i, da, db, original=original):
            calls.append(type(self).__name__)
            return original(self, i, da, db)

        monkeypatch.setattr(cls, "_diff", counted)
    coords = ("memo_x", "memo_y", "memo_z")  # names no other live node uses
    e = parse("sin(memo_x*memo_y) + memo_x^3/(1 + memo_z)", coords)
    nodes = expressions._compile((e._root,))[0]
    # each distinct node once, bar shared constants differentiated earlier
    fresh = [n for n in nodes if not n._diffs or 0 not in n._diffs]
    assert len(fresh) >= len(nodes) - 1
    e.derivative("memo_x")
    assert len(calls) == len(fresh)
    calls.clear()
    e.derivative("memo_x")
    (e * e - e).derivative("memo_x")
    assert calls == ["_Mul", "_Sub"]  # only the two new nodes


def test_tape_calls_leave_no_garbage():
    # A tape that held a reference cycle (a self-referencing closure, say)
    # would keep every call's nodes and arrays alive until the cyclic
    # collector ran.
    import gc

    from contactkit.expressions import _jets_of

    pts = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 2.0]])
    gc.collect()
    gc.disable()
    try:
        e = parse("sin(x)*exp(y)/(z^2 + 1) - sqrt(x^2 + 2)*y + 3 - 1/x^2", XYZ)
        d = e.derivative("x")
        gc.collect()
        e.values(pts)
        e.jets(pts)
        _jets_of([d, e, d], pts, lambda r, v, g, h: None)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hessian_built_symmetric():
    e = parse("exp(x*y) * sin(z) + x^3/(2 + y^2)", XYZ)
    _, _, h = e.jets(np.array([[0.3, -0.7, 1.1], [1.0, 2.0, -0.5]]))
    assert np.array_equal(h, np.swapaxes(h, 1, 2))  # exactly symmetric


# --- random expression generator for the difference-oracle sweep -------------


def _random_expr(rng, coords, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.4:
            return const(float(np.round(rng.uniform(-2, 2), 4)), coords)
        return coord(coords[int(rng.integers(len(coords)))], coords)
    a = _random_expr(rng, coords, depth - 1)
    b = _random_expr(rng, coords, depth - 1)
    pick = int(rng.integers(7))
    if pick == 0:
        return a + b
    if pick == 1:
        return a - b
    if pick == 2:
        return a * b
    if pick == 3:
        # denominator kept away from zero
        return a / (b * b + 2.0)
    if pick == 4:
        from contactkit.expressions import sin as esin

        return esin(a)
    if pick == 5:
        from contactkit.expressions import cos as ecos

        return ecos(a)
    # sqrt of a strictly positive expression
    from contactkit.expressions import sqrt as esqrt

    return esqrt(a * a + 1.5)


def _normalized(e, pt):
    # The second-difference oracle carries cancellation noise of roughly
    # eps * (intermediate magnitude) / h^2 ~ 2e-6 per unit of magnitude at
    # h = 1e-5.  Scaling the expression scales that noise linearly, so a
    # small overall factor keeps the oracle itself below the 1e-6 bar the
    # jets are held to.
    v = abs(e.values(pt)[0])
    return e * float(np.round(0.03 / max(1.0, v), 10))


def test_jets_match_finite_differences_1000():
    """Exact jets vs central differences (step 1e-5) for 1000 seeded cases."""
    rng = np.random.default_rng(20110615)
    coords = ("x", "y", "z")
    worst = 0.0
    for _ in range(1000):
        e = _random_expr(rng, coords, int(rng.integers(1, 4)))
        pt = rng.uniform(-0.8, 0.8, size=3)
        e = _normalized(e, pt)
        v, g, h = e.jets(pt)
        scale = max(1.0, abs(v[0]))
        g_fd = fd_gradient(e.values, pt)
        h_fd = fd_hessian(e.values, pt)
        rel_g = np.max(np.abs(g[0] - g_fd)) / scale
        rel_h = np.max(np.abs(h[0] - h_fd)) / scale
        worst = max(worst, rel_g, rel_h)
    assert worst < 1e-6, f"worst relative deviation {worst:.3e}"


def test_exp_jet_against_differences():
    rng = np.random.default_rng(7)
    from contactkit.expressions import exp as eexp

    for _ in range(50):
        a = _random_expr(rng, XYZ, 2)
        pt = rng.uniform(-0.6, 0.6, size=3)
        e = _normalized(eexp(a * 0.25), pt)
        v, g, h = e.jets(pt)
        scale = max(1.0, abs(v[0]))
        assert np.max(np.abs(g[0] - fd_gradient(e.values, pt))) / scale < 1e-6
        assert np.max(np.abs(h[0] - fd_hessian(e.values, pt))) / scale < 1e-6


# --- printing / round trip ---------------------------------------------------


def test_round_trip_exact_values_100_points():
    rng = np.random.default_rng(42)
    exprs = [
        parse("z - y*x", XYZ),
        parse("(x^2 + y^2)/2", XYZ),
        parse("sin(x)*exp(y) - sqrt(z^2 + 1)", XYZ),
        parse("-x^2 + 3*y/(z^2 + 2)", XYZ),
        random_polynomial(XYZ, 3, rng),
        random_polynomial(XYZ, 3, rng),
    ]
    pts = rng.uniform(-2, 2, size=(100, 3))
    for e in exprs:
        back = parse(str(e), XYZ)
        # identical evaluation, bit for bit: same operation tree
        assert np.array_equal(e.values(pts), back.values(pts))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    e = _random_expr(rng, XYZ, int(rng.integers(1, 5)))
    pts = rng.uniform(-1.5, 1.5, size=(16, 3))
    back = parse(str(e), XYZ)
    assert np.array_equal(e.values(pts), back.values(pts))
    # interning may make back and e one DAG; the tree-walking reference
    # evaluator keeps this an independent check
    assert np.array_equal(back.values(pts), _reference(e._root, pts))
    # printing is stable under one more round trip
    assert str(back) == str(e)


def test_symbolic_derivative_matches_jets():
    rng = np.random.default_rng(11)
    for _ in range(100):
        e = _random_expr(rng, XYZ, 3)
        pt = rng.uniform(-0.9, 0.9, size=3)
        _, g, _ = e.jets(pt)
        for i, name in enumerate(XYZ):
            dv = e.derivative(name).values(pt)[0]
            assert abs(dv - g[0, i]) <= 1e-12 * max(1.0, abs(dv))


def test_substitute():
    coords = ("u", "v")
    e = parse("x^2 + y", XYZ)
    sub = e.substitute(
        {
            "x": parse("u + v", coords),
            "y": parse("u*v", coords),
            "z": parse("0", coords),
        },
        coords,
    )
    pts = np.array([[1.0, 2.0], [0.5, -0.25]])
    expect = (pts[:, 0] + pts[:, 1]) ** 2 + pts[:, 0] * pts[:, 1]
    assert np.allclose(sub.values(pts), expect, atol=1e-15)


def test_random_polynomial_determinism_and_degree():
    a = random_polynomial(XYZ, 3, np.random.default_rng(5))
    b = random_polynomial(XYZ, 3, np.random.default_rng(5))
    assert str(a) == str(b)
    # third derivatives of a cubic are constant: fourth derivative vanishes
    d4 = a.derivative("x").derivative("x").derivative("x").derivative("x")
    assert d4.constant_value() == 0.0


def test_jet2_fields():
    jet = parse("x*y", ("x", "y")).eval_jet2((2.0, 3.0))
    assert isinstance(jet, Jet2)
    assert jet.value == 6.0
    assert jet.gradient.shape == (2,)
    assert jet.hessian.shape == (2, 2)


# --- hash-consed DAG ------------------------------------------------------------
#
# Interning makes structurally equal expressions one object, so comparing an
# expression with its printed-and-parsed copy can compare a DAG with itself.
# The recursive evaluator below is written from the node fields alone and
# walks the expression as a tree; the evaluation tape must agree with it bit
# for bit, domain errors included.


def _reference(node, pts):
    name = type(node).__name__
    if name == "_Const":
        return np.full(len(pts), node.v)
    if name == "_Coord":
        return pts[:, node.i]
    if name == "_Neg":
        return -_reference(node.a, pts)
    if name == "_Pow":
        a = _reference(node.a, pts)
        if node.k < 0 and np.any(a == 0.0):
            raise EvalDomainError("zero raised to a negative power")
        return a**node.k
    if name == "_Call":
        a = _reference(node.a, pts)
        if node.fn == "sqrt" and np.any(a < 0.0):
            raise EvalDomainError("sqrt of negative value")
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}[node.fn](a)
    a, b = _reference(node.a, pts), _reference(node.b, pts)
    if name == "_Add":
        return a + b
    if name == "_Sub":
        return a - b
    if name == "_Mul":
        return a * b
    assert name == "_Div", name
    if np.any(b == 0.0):
        raise EvalDomainError("division by zero during evaluation")
    return a / b


def _tree_size(node):
    return 1 + sum(_tree_size(c) for c in (node.a, node.b) if c is not None)


_CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 3.0])


def _dag_exprs():
    from contactkit.expressions import sqrt as esqrt

    leaves = st.one_of(
        _CONSTANTS.map(lambda v: const(v, XYZ)),
        st.sampled_from(XYZ).map(lambda name: coord(name, XYZ)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] / ab[1]),
            # powers through the parser: the smart constructor folds a
            # constant base in Python floats, which raise on 0^-1
            st.tuples(children, st.integers(-3, 3)).map(
                lambda ak: parse(f"({ak[0]})^{ak[1]}", XYZ)
            ),
            children.map(lambda a: -a),
            children.map(esqrt),
            # the parser builds raw nodes, without the smart constructors' folding
            children.map(lambda a: parse(f"({a})^-1 - -0.0*x", XYZ)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _outcome(fn):
    with np.errstate(all="ignore"):
        try:
            return fn()
        except EvalDomainError:
            return EvalDomainError


@settings(max_examples=300, deadline=None)
@given(
    _dag_exprs(),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0]), min_size=6, max_size=6),
)
def test_tape_matches_recursive_reference(e, values):
    pts = np.array(values).reshape(2, 3)
    got = _outcome(lambda: e.values(pts))
    want = _outcome(lambda: _reference(e._root, pts))
    if want is EvalDomainError:
        assert got is EvalDomainError
    else:
        assert got is not EvalDomainError
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


def test_structurally_equal_builds_are_identical():
    x, y = coord("x", XYZ), coord("y", XYZ)
    built = x * y + 1.0
    assert parse("x*y + 1", XYZ)._root is built._root
    assert parse("x*y + 1", XYZ)._root is parse("x * y+1", XYZ)._root
    assert (x * y)._root is (x * y)._root
    e = parse("sin(x)/(y^2 + 2) - sqrt(z^2 + 1)", XYZ)
    assert parse(str(e), XYZ)._root is e._root
    assert e.derivative("x")._root is e.derivative("x")._root


def test_intern_keys_are_structural():
    from contactkit.expressions import _Const, _Coord

    assert _Const(0.0) is not _Const(-0.0)
    assert _Const(-0.0) is _Const(-0.0)
    assert _Const(float("nan")) is _Const(float("nan"))
    assert _Coord(0, "x") is not _Coord(0, "y")
    assert _Coord(0, "x") is not _Coord(1, "x")
    # no reordering of commutative operands
    assert parse("x*y", XYZ)._root is not parse("y*x", XYZ)._root


def test_intern_table_releases_dead_nodes():
    import gc

    from contactkit.expressions import _intern_size

    gc.collect()
    before = _intern_size()
    e = parse("exp(0.001234*x) * sin(6789.25*y) / (x^2 + 4321.125)", XYZ)
    d = e.derivative("x").derivative("y")  # memoized derivatives form cycles
    e.values(np.ones((3, 3)))
    assert _intern_size() > before
    del e, d
    gc.collect()
    assert _intern_size() == before


def test_shared_dag_costs_distinct_nodes_not_tree_nodes():
    # 80 levels of e -> e*e + x: the tree has 2^82 - 3 nodes, the DAG 161
    e = coord("x", XYZ)
    for _ in range(80):
        e = e * e + coord("x", XYZ)
    tree, distinct = e.node_counts()
    assert tree == 2**82 - 3
    assert distinct == 1 + 2 * 80
    # memoized derivatives: linear in the levels, not exponential
    d_tree, d_distinct = e.derivative("x").node_counts()
    assert d_tree > 2**80
    assert d_distinct == 478
    # (asserting on locals: printing e itself would write out the tree)
    got = e.values(np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 0.0]])).tolist()
    assert got == [0.0, -1.0]
    free, constant = e.free_coords, e.constant_value()
    assert free == ("x",)
    assert constant is None


def test_node_counts_of_a_tree():
    e = parse("(x + y)*(x + y) - 1", XYZ)
    assert e.node_counts() == (_tree_size(e._root), 6)
    assert e.node_counts() == (9, 6)


# --- differential test against sympy (optional oracle) -------------------------


def _to_sympy(node, symbols):
    import sympy

    name = type(node).__name__
    if name == "_Const":
        return sympy.Rational(node.v)  # the exact binary value
    if name == "_Coord":
        return symbols[node.i]
    if name == "_Neg":
        return -_to_sympy(node.a, symbols)
    if name == "_Pow":
        return _to_sympy(node.a, symbols) ** node.k
    if name == "_Call":
        return getattr(sympy, node.fn)(_to_sympy(node.a, symbols))
    a, b = _to_sympy(node.a, symbols), _to_sympy(node.b, symbols)
    return {"_Add": a + b, "_Sub": a - b, "_Mul": a * b, "_Div": a / b}[name]


def test_derivatives_and_jets_match_sympy():
    """Memoized symbolic ``derivative`` and exact ``jets`` against
    ``sympy.diff`` evaluated by ``lambdify``, on 60 seeded expressions."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(XYZ)
    rng = np.random.default_rng(1101)
    pts = rng.uniform(-0.9, 0.9, size=(5, 3))

    def numeric(expr):
        f = sympy.lambdify(symbols, expr, "numpy")
        return np.broadcast_to(np.asarray(f(*pts.T), dtype=float), (len(pts),))

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    for _ in range(60):
        e = _random_expr(rng, XYZ, int(rng.integers(1, 4)))
        se = _to_sympy(e._root, symbols)
        v, g, h = e.jets(pts)
        assert close(v, numeric(se))
        for i, name in enumerate(XYZ):
            di = sympy.diff(se, symbols[i])
            want = numeric(di)
            assert close(e.derivative(name).values(pts), want), (str(e), name)
            assert close(g[:, i], want), (str(e), name)
            for j in range(i, 3):
                want2 = numeric(sympy.diff(di, symbols[j]))
                assert close(h[:, i, j], want2) and close(h[:, j, i], want2), (str(e), i, j)
                second = e.derivative(name).derivative(XYZ[j]).values(pts)
                assert close(second, want2), (str(e), i, j)


# --- the order-2 tape against the recursive jet walk ----------------------------
#
# The jet walk the tape replaced, kept as a reference: written from the node
# fields alone, it walks each expression as a tree, with its own copies of
# the structural-zero combinators.  The tape must agree with it bit for bit,
# including which gradients and Hessians are structurally zero (``None``),
# and raise the same domain errors.


def _ref_gadd(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _ref_gsub(a, b):
    if a is None:
        return None if b is None else -b
    if b is None:
        return a
    return a - b


def _ref_gscale(s, g):
    if g is None:
        return None
    if isinstance(s, np.ndarray) and s.ndim == 1:
        s = s[:, None] if g.ndim == 2 else s[:, None, None]
    return s * g


def _ref_outer_sym(g1, g2):
    if g1 is None or g2 is None:
        return None
    m = np.einsum("ni,nj->nij", g1, g2)
    return m + np.swapaxes(m, 1, 2)


def _ref_outer_self(g):
    if g is None:
        return None
    return np.einsum("ni,nj->nij", g, g)


def _ref_power_term(c, va, e):
    if c != 0 or e >= 0:
        return c * va**e
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(va == 0.0, 0.0, c * va**e)


def _reference_jet(node, pts):
    n, dim = pts.shape
    name = type(node).__name__
    if name == "_Const":
        return np.full(n, node.v), None, None
    if name == "_Coord":
        g = np.zeros((n, dim))
        g[:, node.i] = 1.0
        return pts[:, node.i], g, None
    if name == "_Neg":
        v, g, h = _reference_jet(node.a, pts)
        return -v, _ref_gscale(-1.0, g), _ref_gscale(-1.0, h)
    if name == "_Pow":
        k = node.k
        va, ga, ha = _reference_jet(node.a, pts)
        if k < 0 and np.any(va == 0.0):
            raise EvalDomainError("zero raised to a negative power")
        c1 = _ref_power_term(k, va, k - 1)
        c2 = _ref_power_term(k * (k - 1), va, k - 2)
        h = _ref_gadd(_ref_gscale(c1, ha), _ref_gscale(c2, _ref_outer_self(ga)))
        return va**k, _ref_gscale(c1, ga), h
    if name == "_Call":
        va, ga, ha = _reference_jet(node.a, pts)
        if node.fn == "sin":
            v, d1, d2 = np.sin(va), np.cos(va), None
        elif node.fn == "cos":
            v, d1, d2 = np.cos(va), -np.sin(va), None
        elif node.fn == "exp":
            v = np.exp(va)
            d1, d2 = v, v
        else:
            if np.any(va < 0.0):
                raise EvalDomainError("sqrt of negative value")
            if np.any(va == 0.0):
                raise EvalDomainError("sqrt derivative undefined at zero")
            v = np.sqrt(va)
            d1 = 0.5 / v
            d2 = -0.25 / (va * v)
        if d2 is None:
            d2 = -v
        h = _ref_gadd(_ref_gscale(d1, ha), _ref_gscale(d2, _ref_outer_self(ga)))
        return v, _ref_gscale(d1, ga), h
    va, ga, ha = _reference_jet(node.a, pts)
    vb, gb, hb = _reference_jet(node.b, pts)
    if name == "_Add":
        return va + vb, _ref_gadd(ga, gb), _ref_gadd(ha, hb)
    if name == "_Sub":
        return va - vb, _ref_gsub(ga, gb), _ref_gsub(ha, hb)
    if name == "_Div":
        # a * (1/b), with the jet of 1/b in place of b's
        if np.any(vb == 0.0):
            raise EvalDomainError("division by zero during evaluation")
        u = 1.0 / vb
        u2 = u * u
        hb = _ref_gadd(_ref_gscale(-u2, hb), _ref_gscale(2.0 * u2 * u, _ref_outer_self(gb)))
        vb, gb = u, _ref_gscale(-u2, gb)
    else:
        assert name == "_Mul", name
    g = _ref_gadd(_ref_gscale(va, gb), _ref_gscale(vb, ga))
    h = _ref_gadd(
        _ref_gadd(_ref_gscale(va, hb), _ref_gscale(vb, ha)), _ref_outer_sym(ga, gb)
    )
    return va * vb, g, h


def _jet_outcome(node, pts):
    """The reference jet of ``node``, or the message of its domain error."""
    with np.errstate(all="ignore"):
        try:
            return _reference_jet(node, pts)
        except EvalDomainError as exc:
            return str(exc)


def _assert_same_jet(got, want, n):
    v, g, h = got
    assert np.full(n, v).tobytes() == want[0].tobytes()
    for a, b in ((g, want[1]), (h, want[2])):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


_JET_POINTS = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0]), min_size=6, max_size=6
)


def _printed(e):
    """``e`` printed and parsed: raw nodes, without the smart constructors'
    folding, so constant operands of ``/``, ``^`` and ``*`` occur."""
    return parse(str(e), XYZ)


def _check_jet_tape(roots, pts, order=2):
    """One multi-root tape call of ``order`` 1 or 2 against the reference,
    root by root; at order 1 every Hessian is ``None``, and the values and
    gradients are the reference's bit for bit."""
    from contactkit.expressions import _jets_of

    want = [_jet_outcome(e._root, pts) for e in roots]
    if order == 1:
        want = [w if isinstance(w, str) else (w[0], w[1], None) for w in want]
    got = {}

    def take(r, v, g, h):
        assert r not in got
        got[r] = (v, g, h)

    errors = [w for w in want if isinstance(w, str)]
    if errors:
        # the first failing root in order raises first
        with pytest.raises(EvalDomainError) as raised:
            _jets_of(roots, pts, take, order=order)
        assert str(raised.value) == errors[0]
    else:
        _jets_of(roots, pts, take, order=order)
        assert sorted(got) == list(range(len(roots)))
    for r, jet in got.items():
        assert not isinstance(want[r], str)
        _assert_same_jet(jet, want[r], len(pts))


@settings(max_examples=300, deadline=None)
@given(st.lists(_dag_exprs(), min_size=1, max_size=3), _JET_POINTS)
def test_jet_tape_matches_recursive_reference(exprs, values):
    # Roots that share subexpressions: printed copies, and a first root that
    # reads later ones, so that they finish inside its walk; the last root
    # repeats the first.
    exprs = [*exprs, *map(_printed, exprs)]
    whole = exprs[0] * exprs[-1] - exprs[len(exprs) // 2]
    _check_jet_tape([whole, *exprs, whole], np.array(values).reshape(2, 3))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_jet_tape_matches_recursive_reference_on_functions(seed):
    # sin, cos, exp and sqrt of random trees, as built and as printed
    rng = np.random.default_rng(seed)
    e = _random_expr(rng, XYZ, 3)
    _check_jet_tape([e, _printed(e), -e], rng.uniform(-1.5, 1.5, size=(4, 3)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_dag_exprs(), min_size=1, max_size=3), _JET_POINTS)
def test_order_one_tape_is_the_jet_without_hessians(exprs, values):
    # the roots of test_jet_tape_matches_recursive_reference, at order 1
    exprs = [*exprs, *map(_printed, exprs)]
    whole = exprs[0] * exprs[-1] - exprs[len(exprs) // 2]
    _check_jet_tape([whole, *exprs, whole], np.array(values).reshape(2, 3), order=1)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_order_one_tape_is_the_jet_without_hessians_on_functions(seed):
    rng = np.random.default_rng(seed)
    e = _random_expr(rng, XYZ, 3)
    _check_jet_tape([e, _printed(e), -e], rng.uniform(-1.5, 1.5, size=(4, 3)), order=1)


def _hessian_verdict(exprs, pts):
    """Whether an order-2 tape gives some root a Hessian that is not
    ``None``, or ``None`` where it raises a domain error."""
    from contactkit.expressions import _jets_of

    seen = []
    try:
        _jets_of(exprs, pts, lambda r, v, g, h: seen.append(h is not None))
    except EvalDomainError:
        return None
    return any(seen)


@settings(max_examples=300, deadline=None)
@given(st.lists(_dag_exprs(), min_size=1, max_size=3))
def test_structural_curvature_is_the_order_two_verdict(exprs):
    # Whether a Hessian is None does not depend on the points, so any
    # points where the tape raises nothing decide it.
    from contactkit.expressions import _curved

    exprs = [*exprs, *map(_printed, exprs)]
    rng = np.random.default_rng(len(exprs))
    for roots in [[e] for e in exprs] + [exprs]:
        verdicts = {_hessian_verdict(roots, rng.uniform(0.2, 1.7, size=(2, 3))) for _ in range(4)}
        verdicts.discard(None)
        assert len(verdicts) <= 1
        if verdicts:
            assert _curved(roots) == verdicts.pop()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_structural_curvature_is_the_order_two_verdict_on_functions(seed):
    from contactkit.expressions import _curved

    rng = np.random.default_rng(seed)
    e = _random_expr(rng, XYZ, 3)
    verdict = _hessian_verdict([e], rng.uniform(0.2, 1.7, size=(4, 3)))
    if verdict is not None:
        assert _curved([e]) == verdict


def _has_division(e):
    from contactkit.expressions import _compile

    return any(type(node).__name__ == "_Div" for node in _compile((e._root,))[0])


def _message(fn):
    """``fn()``, or the message of its domain error."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except EvalDomainError as exc:
            return str(exc)


@settings(max_examples=300, deadline=None)
@given(_dag_exprs().filter(lambda e: not _has_division(e)), _JET_POINTS)
def test_values_are_the_values_of_the_jets(e, values):
    # Values divide by a / b and jets by a * (1 / b), so DAGs without a
    # quotient must agree bit for bit; sqrt at 0 has a value but no jet.
    pts = np.array(values).reshape(2, 3)
    got = _message(lambda: e.values(pts))
    want = _message(lambda: e.jets(pts)[0])
    if isinstance(want, str):
        if want != "sqrt derivative undefined at zero":
            assert got == want
    else:
        assert not isinstance(got, str)
        assert got.tobytes() == want.tobytes()


def test_jets_of_streams_each_root_when_computed():
    from contactkit.expressions import _jets_of

    e = parse("x*y - 2 + sin(z)", XYZ)
    pts = np.array([[0.5, -1.0, 2.0]])
    got = []
    _jets_of([e, e.derivative("y")], pts, lambda r, *jet: got.append((r, jet)))
    # d/dy of x*y is x, the first node of e's walk, so root 1 comes first
    assert [r for r, _ in got] == [1, 0]
    _assert_same_jet(got[1][1], e.jets(pts), 1)


@settings(max_examples=200, deadline=None)
@given(_dag_exprs(), _JET_POINTS)
def test_jets_are_fresh_point_first_arrays(e, values):
    # The tape lays jets out point-last; jets hands them out point first, as
    # C-contiguous arrays of their own, with the reference's bits.
    pts = np.array(values).reshape(2, 3)
    want = _jet_outcome(e._root, pts)
    got = _message(lambda: e.jets(pts))
    if isinstance(want, str):
        assert got == want
        return
    shapes = ((2,), (2, 3), (2, 3, 3))
    for a, b, shape in zip(got, want, shapes):
        assert a.shape == shape and a.flags.c_contiguous and a.flags.owndata
        assert a.tobytes() == (np.zeros(shape) if b is None else np.full(shape, b)).tobytes()
