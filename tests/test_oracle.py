"""Structure fields against a 50-digit recomputation of their defining system.

The expression DAG is translated to mpmath, node by node, and evaluated at 50
significant digits; derivatives are the package's symbolic ``derivative``
(checked against sympy in ``test_expressions.py``) evaluated the same way.
At 16 seeded points of every default model the oracle then solves

    eta(X) = h,    X -| d eta - a eta = -dh

for ``(X, a)`` by mpmath LU.  For ``h = 1`` that is the Reeb field ``R``
(and ``a = 0``); for other ``h`` it is ``X_h`` with ``a = R h``, which the
oracle also forms as ``dh(R)`` to tie the two solves together.  The Jacobi
bracket is formed without any field Jacobian, as ``{f, g} = X_f g - g R f``
(Cartan's formula applied to ``eta([X_f, X_g])``), so it checks the float
solver's differentiated system rather than restating it.  The contact
verdict is checked against the same 50-digit ``M``: its determinant and its
Hadamard ratio ``|det M| / prod_i |row_i M|``.

A sweep over badly scaled contact forms on the chart ``x, y, z`` checks the
same quantities where the bordered matrix has widely different row sizes:
``c (dz - eps y dx)``, contact for every ``eps > 0`` since ``x' = eps x``
maps it to ``c (dz - y dx')``, and ``dz - y^3 dx`` next to its singular set
``y = 0``.
"""

import numpy as np
import pytest

from contactkit.charts import Chart, one_form
from contactkit.contact import (
    ContactSystem,
    hamiltonian_field,
    is_contact_form,
    jacobi_bracket,
    reeb_field,
)
from contactkit.expressions import random_polynomial
from contactkit.models import build_model, default_model_keys

mpmath = pytest.importorskip("mpmath")

SEED = 20110615
POINTS = 16
DIGITS = 50

#: Largest accepted error of a float result, relative to ``max(1, |exact|)``
#: over the points of one model, or in the sweep below to the largest
#: ``|exact|``.  Measured errors are below 1e-13.
BOUND = 1e-11


def _to_mpmath(node, x, memo):
    """Value of the DAG below ``node`` at the mpf point ``x``."""
    hit = memo.get(node)
    if hit is not None:
        return hit
    name = type(node).__name__
    if name == "_Const":
        value = mpmath.mpf(node.v)  # the exact binary value
    elif name == "_Coord":
        value = x[node.i]
    elif name == "_Neg":
        value = -_to_mpmath(node.a, x, memo)
    elif name == "_Pow":
        value = _to_mpmath(node.a, x, memo) ** node.k
    elif name == "_Call":
        value = getattr(mpmath, node.fn)(_to_mpmath(node.a, x, memo))
    else:
        a, b = _to_mpmath(node.a, x, memo), _to_mpmath(node.b, x, memo)
        value = {"_Add": a + b, "_Sub": a - b, "_Mul": a * b, "_Div": a / b}[name]
    memo[node] = value  # keyed by the node, which the memo keeps alive
    return value


class _Exact:
    """50-digit solves of the field system of one contact form at one point."""

    def __init__(self, system, point):
        self.coords = system.chart.coords
        self.x = [mpmath.mpf(float(c)) for c in point]
        self.memo = {}
        d = len(self.coords)
        self.E = [mpmath.mpf(0)] * d
        dE = [[mpmath.mpf(0)] * d for _ in range(d)]  # dE[i][k] = d_i eta_k
        for (k,), expr in system.eta.coefficients.items():
            self.E[k] = self.value(expr)
            dE_k = self.grad(expr)
            for i in range(d):
                dE[i][k] = dE_k[i]
        # D[i][j] = d eta(e_i, e_j); row j of the system is (X -| d eta)_j.
        D = [[dE[i][j] - dE[j][i] for j in range(d)] for i in range(d)]
        self.M = mpmath.matrix(d + 1, d + 1)
        for j in range(d):
            for i in range(d):
                self.M[j, i] = D[i][j]
            self.M[j, d] = -self.E[j]
            self.M[d, j] = self.E[j]
        self.reeb = self.field(1.0, [0.0] * d)[0]

    def value(self, expr):
        return _to_mpmath(expr._root, self.x, self.memo)

    def grad(self, expr):
        return [self.value(expr.derivative(name)) for name in self.coords]

    def field(self, h, dh):
        """``(X, a)`` solving the system with right-hand side ``(-dh, h)``."""
        rhs = mpmath.matrix([-mpmath.mpf(v) for v in dh] + [mpmath.mpf(h)])
        sol = mpmath.lu_solve(self.M, rhs)
        d = len(self.coords)
        return [sol[i] for i in range(d)], sol[d]

    def solved(self, expr):
        h, dh = self.value(expr), self.grad(expr)
        X, a = self.field(h, dh)
        return h, dh, X, a


def _pair(u, v):
    return mpmath.fsum(p * q for p, q in zip(u, v))


def _mpf_values(got):
    """The float results ``got`` as mpf values.  A ``nan`` compares false
    with everything, so ``max`` would pass over it: non-finite results fail
    here instead."""
    got = np.asarray(got, dtype=float).reshape(-1)
    assert np.all(np.isfinite(got)), got
    return [mpmath.mpf(float(g)) for g in got]


def _error(got, exact):
    """Largest ``|got - exact| / max(1, |exact|)`` over matching entries."""
    worst = mpmath.mpf(0)
    for g, e in zip(_mpf_values(got), exact):
        worst = max(worst, abs(g - e) / max(1, abs(e)))
    return float(worst)


def _exact_frames(system, pts):
    with mpmath.workdps(DIGITS):
        return [_Exact(system, p) for p in pts]


@pytest.fixture(scope="module", params=default_model_keys())
def model(request):
    system = build_model(request.param).system
    pts = system.chart.sample(POINTS, SEED)
    return system, pts, _exact_frames(system, pts)


def _polynomials(system, count, salt):
    rng = np.random.default_rng([SEED, salt])
    return [random_polynomial(system.chart.coords, 3, rng) for _ in range(count)]


def test_reeb_field_matches_exact_solve(model):
    system, pts, exact = model
    got = reeb_field(system).evaluate(pts)
    with mpmath.workdps(DIGITS):
        err = max(_error(got[n], ex.reeb) for n, ex in enumerate(exact))
        # the exact solve itself: a = R 1 = 0, eta(R) = 1
        for ex in exact:
            _, a = ex.field(1.0, [0.0] * len(pts[0]))
            assert abs(a) < mpmath.mpf(10) ** (10 - DIGITS)
            assert abs(_pair(ex.E, ex.reeb) - 1) < mpmath.mpf(10) ** (10 - DIGITS)
    assert err <= BOUND, err


def test_hamiltonian_fields_match_exact_solve(model):
    system, pts, exact = model
    for h in _polynomials(system, 3, 71):
        field = hamiltonian_field(system, h)
        X, a = field.evaluate(pts), field.reeb_derivative(pts)
        err_X = err_a = 0.0
        with mpmath.workdps(DIGITS):
            for n, ex in enumerate(exact):
                _, dh, X_exact, a_exact = ex.solved(h)
                # the bordered unknown is the Reeb derivative dh(R)
                assert abs(a_exact - _pair(dh, ex.reeb)) < mpmath.mpf(10) ** (10 - DIGITS)
                err_X = max(err_X, _error(X[n], X_exact))
                err_a = max(err_a, _error([a[n]], [a_exact]))
        assert err_X <= BOUND, (system.name, str(h), err_X)
        assert err_a <= BOUND, (system.name, str(h), err_a)


def test_jacobi_bracket_matches_exact_formula(model):
    system, pts, exact = model
    fns = _polynomials(system, 3, 72)
    for f, g in ((fns[0], fns[1]), (fns[1], fns[2]), (fns[2], fns[0])):
        got = jacobi_bracket(system, f, g).evaluate(pts)
        with mpmath.workdps(DIGITS):
            want = []
            for ex in exact:
                _, df, X_f, _ = ex.solved(f)
                g_value, dg = ex.value(g), ex.grad(g)
                want.append(_pair(X_f, dg) - g_value * _pair(df, ex.reeb))
            err = _error(got, want)
        assert err <= BOUND, (system.name, str(f), str(g), err)


def test_contact_verdict_matches_exact_determinant(model):
    system, pts, exact = model
    detail = is_contact_form(system, samples=POINTS, seed=SEED).detail
    with mpmath.workdps(DIGITS):
        dets, ratios = [], []
        for ex in exact:
            det = abs(mpmath.det(ex.M))
            size = ex.M.rows
            rows = [mpmath.norm([ex.M[r, c] for c in range(size)]) for r in range(size)]
            dets.append(det)
            ratios.append(det / mpmath.fprod(rows))
        err_det = _error([detail["min_abs_determinant"]], [min(dets)])
        err_ratio = _error([detail["min_determinant_ratio"]], [min(ratios)])
    assert err_det <= BOUND, (system.name, err_det)
    assert err_ratio <= BOUND, (system.name, err_ratio)


# -- badly scaled contact forms --------------------------------------------


def _scaled_error(got, exact):
    """Largest ``|got - exact|`` over the largest ``|exact|``.  At ``c =
    1e150`` the fields are about ``1e-150``, where an error relative to
    ``max(1, |exact|)`` would hide any error at all."""
    worst = max(abs(g - e) for g, e in zip(_mpf_values(got), exact))
    return float(worst / max(abs(e) for e in exact))


def _sweep_errors(system, pts):
    """Scaled errors of the Reeb field, ``X_h``, ``a = R h`` and ``{f, g}``
    over ``pts``, against the 50-digit solve."""
    exact = _exact_frames(system, pts)
    h, f, g = _polynomials(system, 3, 73)
    field = hamiltonian_field(system, h)
    got = {
        "reeb": reeb_field(system).evaluate(pts),
        "X": field.evaluate(pts),
        "a": field.reeb_derivative(pts),
        "bracket": jacobi_bracket(system, f, g).evaluate(pts),
    }
    with mpmath.workdps(DIGITS):
        want = {"reeb": [], "X": [], "a": [], "bracket": []}
        for ex in exact:
            _, _, X, a = ex.solved(h)
            _, df, X_f, _ = ex.solved(f)
            want["reeb"] += ex.reeb
            want["X"] += X
            want["a"].append(a)
            want["bracket"].append(_pair(X_f, ex.grad(g)) - ex.value(g) * _pair(df, ex.reeb))
        return {key: _scaled_error(got[key], want[key]) for key in got}


@pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-16])
def test_anisotropically_small_forms_match_exact_solve(c, eps):
    chart = Chart("c3", ("x", "y", "z"))
    system = ContactSystem(chart, one_form(chart, {"z": c, "x": f"-{c * eps!r}*y"}))
    errors = _sweep_errors(system, chart.sample(POINTS, SEED))
    assert max(errors.values()) <= BOUND, errors


@pytest.mark.parametrize("y", [10.0**-k for k in range(1, 9)])
def test_forms_next_to_the_singular_set_match_exact_solve(y):
    chart = Chart("c3", ("x", "y", "z"))
    system = ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y^3"}))
    pts = chart.sample(POINTS, SEED).copy()
    pts[:, 1] = y
    errors = _sweep_errors(system, pts)
    assert max(errors.values()) <= BOUND, errors
