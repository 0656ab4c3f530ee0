"""Exterior calculus on charts: goldens by hand expansion, closure properties."""

import numpy as np
import pytest

from contactkit.charts import (
    Chart,
    ChartMismatchError,
    DifferentialForm,
    FormDegreeError,
    SamplingError,
    basis_field,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    one_form,
    vector_field,
    wedge,
    zero_form,
)
from contactkit.expressions import parse

R3 = Chart("r3", ("x", "y", "z"))
DARBOUX1 = Chart("darboux1", ("z", "p1", "q1"))
CONE3 = Chart(
    "r3_cone",
    ("x", "y", "z", "r"),
    bounds=((-2, 2), (-2, 2), (-2, 2), (0.1, 10.0)),
    log_coords=frozenset({"r"}),
)


def eta_r3():
    return one_form(R3, {"z": "1", "x": "-y"})


def test_chart_sampler_deterministic_and_in_bounds():
    pts1 = R3.sample(64, 7)
    pts2 = R3.sample(64, 7)
    assert np.array_equal(pts1, pts2)
    assert pts1.shape == (64, 3)
    assert np.all(np.abs(pts1) <= 2.0)


@pytest.mark.parametrize("count", [0, -3])
def test_chart_sample_needs_a_positive_count(count):
    with pytest.raises(SamplingError, match="positive"):
        R3.sample(count, 7)


def test_chart_domain_predicate_respected():
    c = Chart(
        "halfplane",
        ("x", "y"),
        bounds=((-1, 1), (-1, 1)),
        domain=parse("x", ("x", "y")),
    )
    pts = c.sample(100, 3)
    assert np.all(pts[:, 0] > 0)


def test_chart_domain_impossible():
    c = Chart(
        "empty",
        ("x",),
        bounds=((-1.0, 1.0),),
        domain=parse("-1 - x^2", ("x",)),
    )
    with pytest.raises(SamplingError):
        c.sample(8, 0)


def test_log_coordinate_sampling():
    pts = CONE3.sample(200, 5)
    r = pts[:, 3]
    assert np.all((r >= 0.1) & (r <= 10.0))
    # log-uniform: median near 1, not near 5
    assert 0.4 < np.median(r) < 2.5


class TestKeptSamples:
    """``Chart.sample`` draws once per (count, seed) and keeps the points on
    the chart: the same read-only array on every call, gone with the chart."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        draw = Chart._draw

        def counting(self, rng, count):
            calls.append(count)
            return draw(self, rng, count)

        monkeypatch.setattr(Chart, "_draw", counting)
        return calls

    def test_one_draw_per_count_and_seed(self, draws):
        chart = Chart("r3", ("x", "y", "z"))
        first = chart.sample(16, 1)
        assert len(draws) == 1
        assert chart.sample(16, 1) is first
        assert len(draws) == 1
        chart.sample(16, 2)
        chart.sample(8, 1)
        assert len(draws) == 3
        assert chart.sample(16, 2) is not first
        assert len(draws) == 3

    def test_domain_rejection_draws_once(self, draws):
        chart = Chart("disc", ("x", "y"), domain=parse("1 - x^2 - y^2", ("x", "y")))
        first = chart.sample(64, 3)
        n = len(draws)
        assert n >= 1
        assert chart.sample(64, 3) is first
        assert len(draws) == n

    def test_same_points_as_a_fresh_chart(self):
        kept = R3.sample(64, 7)
        fresh = Chart("r3", ("x", "y", "z")).sample(64, 7)
        assert fresh is not kept
        assert fresh.tobytes() == kept.tobytes()

    def test_read_only_and_owns_its_data(self):
        pts = Chart("r3", ("x", "y", "z")).sample(10, 4)
        assert pts.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 1.0

    def test_custom_sampler_array_left_writeable(self):
        own = np.full((5, 3), 0.5)

        def sampler(count, seed):
            return own[:count]

        chart = Chart("custom", ("x", "y", "z"), sampler=sampler)
        pts = chart.sample(5, 0)
        assert pts is not own and np.array_equal(pts, own)
        assert not pts.flags.writeable
        assert own.flags.writeable
        own[0, 0] = 9.0  # the kept points are a copy
        assert chart.sample(5, 0)[0, 0] == 0.5

    def test_equality_and_hash_ignore_kept_points(self):
        used, unused = Chart("r3", ("x", "y", "z")), Chart("r3", ("x", "y", "z"))
        used.sample(8, 1)
        assert used == unused
        assert hash(used) == hash(unused)
        assert "_samples" not in repr(used)

    def test_kept_points_die_with_the_chart(self):
        import gc
        import weakref

        chart = Chart("r3", ("x", "y", "z"))
        pts = weakref.ref(chart.sample(32, 9))
        gc.collect()
        assert pts() is not None  # held by the chart
        del chart
        gc.collect()
        assert pts() is None


# --- exterior derivative -----------------------------------------------------


def test_d_of_contact_form():
    d_eta = exterior_derivative(eta_r3())
    assert d_eta.degree == 2
    assert d_eta.slots() == [(0, 1)]
    pts = R3.sample(16, 1)
    assert np.allclose(d_eta.coefficient((0, 1)).values(pts), 1.0)


def test_d_of_constant_zero_form():
    d_c = exterior_derivative(zero_form(R3, 5.0))
    assert d_c.coefficients == {}


def test_d_on_cone_form():
    # r^2 (dz - y dx): d gives r^2 dx^dy + 2r dr^(dz - y dx).
    # NB "-r^2*y" would be ((-r)^2)*y under this grammar; parenthesize.
    omega = one_form(CONE3, {"z": "r^2", "x": "-(r^2*y)"})
    d_omega = exterior_derivative(omega)
    pts = CONE3.sample(32, 2)
    x, y, z, r = pts.T
    got = {k: v for k, v in d_omega.coefficient_arrays(pts).items()}
    assert set(got) == {(0, 1), (0, 3), (2, 3)}
    assert np.allclose(got[(0, 1)], r**2, atol=1e-12)  # dx^dy
    assert np.allclose(got[(0, 3)], 2 * r * y, atol=1e-12)  # dx^dr
    assert np.allclose(got[(2, 3)], -2 * r, atol=1e-12)  # dz^dr
    with pytest.raises(FormDegreeError):
        exterior_derivative(exterior_derivative(d_omega))


def test_dd_is_zero_on_builtin_forms():
    rng_forms = [
        eta_r3(),
        one_form(R3, {"x": "sin(y)*z", "y": "exp(x/3)", "z": "x*y*z"}),
        zero_form(R3, parse("x^2*y - z^3", R3.coords)),
        one_form(DARBOUX1, {"z": "1", "q1": "-p1"}),
    ]
    for omega in rng_forms:
        dd = exterior_derivative(exterior_derivative(omega))
        pts = omega.chart.sample(64, 9)
        assert np.max(dd.max_abs(pts), initial=0.0) < 1e-10


# --- wedge -------------------------------------------------------------------


def test_wedge_eta_with_deta():
    top = wedge(eta_r3(), exterior_derivative(eta_r3()))
    pts = np.array([[1.0, 2.0, 3.0]])
    assert top.slots() == [(0, 1, 2)]
    assert top.coefficient((0, 1, 2)).values(pts)[0] == 1.0


def test_wedge_self_is_zero():
    alpha = one_form(R3, {"x": "y", "y": "z^2", "z": "x"})
    sq = wedge(alpha, alpha)
    pts = R3.sample(32, 4)
    assert np.max(sq.max_abs(pts), initial=0.0) < 1e-12


def test_wedge_basis():
    dx = one_form(R3, {"x": 1.0})
    dy = one_form(R3, {"y": 1.0})
    w = wedge(dx, dy)
    assert w.slots() == [(0, 1)]
    assert w.coefficient((0, 1)).constant_value() == 1.0


def test_wedge_graded_antisymmetry():
    rng = np.random.default_rng(12)
    alpha = one_form(R3, {"x": "y^2", "y": "sin(z)", "z": "x"})
    beta = one_form(R3, {"x": "z", "y": "x*y", "z": "1"})
    gamma = exterior_derivative(beta)  # degree 2
    pts = R3.sample(64, 13)
    # 1-form ^ 1-form: anticommute
    ab = wedge(alpha, beta)
    ba = wedge(beta, alpha)
    assert np.max((ab + ba).max_abs(pts), initial=0.0) < 1e-12
    # 1-form ^ 2-form: commute
    ag = wedge(alpha, gamma)
    ga = wedge(gamma, alpha)
    assert np.max((ag - ga).max_abs(pts), initial=0.0) < 1e-12


def test_wedge_degree_overflow():
    alpha = one_form(R3, {"x": 1.0})
    beta = exterior_derivative(one_form(R3, {"x": "y*z", "y": "x"}))
    with pytest.raises(FormDegreeError):
        wedge(wedge(alpha, beta), beta)


# --- vector fields -----------------------------------------------------------


def test_vector_field_single_point_and_batch_shapes():
    X = vector_field(R3, {"x": "y*z", "y": "x"})
    J = [[0.0, 3.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert X.evaluate((1.0, 2.0, 3.0)).tolist() == [6.0, 1.0, 0.0]
    assert X.jacobian((1.0, 2.0, 3.0)).tolist() == J
    assert X.evaluate(np.ones((4, 3))).shape == (4, 3)
    assert X.jacobian(np.ones((4, 3))).shape == (4, 3, 3)
    with pytest.raises(ValueError):
        X.jacobian(np.ones((4, 2)))


def test_form_single_point_is_row_zero_of_the_batch():
    eta = one_form(R3, {"z": "1", "x": "-y"})
    pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 4.0]])
    cases = [
        (eta.covector, (3,)),
        (exterior_derivative(eta).matrix, (3, 3)),
        (eta.max_abs, (1,)),
        (DifferentialForm(R3, 1).max_abs, (1,)),
    ]
    for evaluate, shape in cases:
        one, batch = evaluate(pts[0]), evaluate(pts)
        assert one.shape == shape
        assert one.reshape(batch[0].shape).tolist() == batch[0].tolist()
        with pytest.raises(ValueError):
            evaluate(np.ones((2, 2)))
    assert eta.covector(pts[0]).tolist() == [-2.0, 0.0, 1.0]


# --- interior product --------------------------------------------------------


def test_interior_reeb_pairing():
    contracted = interior_product(basis_field(R3, "z"), eta_r3())
    assert contracted.degree == 0
    assert contracted.coefficient(()).constant_value() == 1.0


def test_interior_no_overlap():
    dxdy = wedge(one_form(R3, {"x": 1.0}), one_form(R3, {"y": 1.0}))
    out = interior_product(basis_field(R3, "z"), dxdy)
    assert out.coefficients == {}


def test_interior_hand_contraction():
    X = vector_field(R3, {"y": "y", "z": "z"})
    dxdy = wedge(one_form(R3, {"x": 1.0}), one_form(R3, {"y": 1.0}))
    out = interior_product(X, dxdy)
    vals = out.covector(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(vals, [[-2.0, 0.0, 0.0]])  # -y dx at y=2


def test_interior_degree_zero_rejected():
    with pytest.raises(FormDegreeError):
        interior_product(basis_field(R3, "x"), zero_form(R3, 1.0))


# --- Lie bracket -------------------------------------------------------------


def test_bracket_commuting_pair():
    X = basis_field(R3, "x")
    Y = vector_field(R3, {"y": "y", "z": "z"})
    B = lie_bracket(X, Y)
    pts = R3.sample(32, 21)
    assert np.max(np.abs(B.evaluate(pts))) < 1e-15


def test_bracket_self():
    X = vector_field(R3, {"x": "sin(y)", "y": "x*z", "z": "exp(x/2)"})
    B = lie_bracket(X, X)
    pts = R3.sample(32, 22)
    assert np.max(np.abs(B.evaluate(pts))) < 1e-15


def test_bracket_hand_formula():
    X = basis_field(R3, "z")
    Y = vector_field(R3, {"y": "y", "z": "z"})
    B = lie_bracket(X, Y)
    pts = R3.sample(16, 23)
    expect = np.zeros((16, 3))
    expect[:, 2] = 1.0  # [d_z, y d_y + z d_z] = d_z
    assert np.allclose(B.evaluate(pts), expect, atol=1e-15)


def test_bracket_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        lie_bracket(basis_field(R3, "x"), basis_field(DARBOUX1, "z"))


def test_bracket_jacobi_identity():
    X = vector_field(R3, {"x": "y", "y": "-x", "z": "(x^2 - y^2)/2"})
    Y = vector_field(R3, {"y": "y", "z": "z"})
    Z = vector_field(R3, {"x": "1", "z": "y"})
    total = (
        lie_bracket(lie_bracket(X, Y), Z)
        + lie_bracket(lie_bracket(Y, Z), X)
        + lie_bracket(lie_bracket(Z, X), Y)
    )
    pts = R3.sample(64, 24)
    assert np.max(np.abs(total.evaluate(pts))) < 1e-8


# --- Lie derivative ----------------------------------------------------------


def test_lie_derivative_reeb_invariance():
    out = lie_derivative(basis_field(R3, "z"), eta_r3())
    pts = R3.sample(64, 31)
    assert np.max(out.max_abs(pts), initial=0.0) < 1e-15


def test_lie_derivative_darboux_momentum_direction():
    eta = one_form(DARBOUX1, {"z": "1", "q1": "-p1"})
    out = lie_derivative(basis_field(DARBOUX1, "p1"), eta)
    pts = DARBOUX1.sample(16, 32)
    vals = out.covector(pts)
    expect = np.zeros((16, 3))
    expect[:, DARBOUX1.index("q1")] = -1.0  # -dq1
    assert np.allclose(vals, expect, atol=1e-15)


def test_lie_derivative_contact_generator():
    eta = one_form(DARBOUX1, {"z": "1", "q1": "-p1"})
    X = vector_field(DARBOUX1, {"p1": "1", "z": "q1"})
    out = lie_derivative(X, eta)
    pts = DARBOUX1.sample(32, 33)
    assert np.max(out.max_abs(pts), initial=0.0) < 1e-15


def test_lie_derivative_product_rule():
    X = vector_field(R3, {"x": "y", "y": "-x", "z": "x*y"})
    alpha = one_form(R3, {"x": "z^2", "y": "x", "z": "sin(y)"})
    beta = one_form(R3, {"x": "y", "z": "exp(x/4)"})
    lhs = lie_derivative(X, wedge(alpha, beta))
    rhs = wedge(lie_derivative(X, alpha), beta) + wedge(alpha, lie_derivative(X, beta))
    pts = R3.sample(64, 34)
    assert np.max((lhs - rhs).max_abs(pts), initial=0.0) < 1e-8


def test_lie_derivative_of_zero_form():
    f = zero_form(R3, parse("x*y + z", R3.coords))
    X = vector_field(R3, {"x": "1", "y": "x"})
    out = lie_derivative(X, f)
    pts = R3.sample(16, 35)
    # X(f) = y + x*x
    assert np.allclose(
        out.coefficient(()).values(pts), pts[:, 1] + pts[:, 0] ** 2, atol=1e-14
    )
