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
"""

import numpy as np
import pytest

from contactkit.contact import hamiltonian_field, is_contact_form, jacobi_bracket, reeb_field
from contactkit.expressions import random_polynomial
from contactkit.models import build_model, default_model_keys

mpmath = pytest.importorskip("mpmath")

SEED = 20110615
POINTS = 16
DIGITS = 50

#: Largest accepted error of a float result, relative to ``max(1, |exact|)``
#: over the points of one model.  Measured errors are below 1e-13.
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


def _error(got, exact):
    """Largest ``|got - exact| / max(1, |exact|)`` over matching entries."""
    got = np.asarray(got, dtype=float).reshape(-1)
    worst = mpmath.mpf(0)
    for g, e in zip(got, exact):
        worst = max(worst, abs(mpmath.mpf(float(g)) - e) / max(1, abs(e)))
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
