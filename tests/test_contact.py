"""Contact-core checks: solved fields, brackets, classification, transport."""

import ast
import gc
import json
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit import contact as contact_module
from contactkit import registry as registry_module
from contactkit.charts import Chart, exterior_derivative, one_form, wedge
from contactkit.contact import (
    TOLERANCES,
    CheckResult,
    ConformalFactorError,
    ContactConditionError,
    ContactSystem,
    CoordinateMap,
    InverseMismatchError,
    SingularSystemError,
    classify_system,
    conformal_bracket_law,
    conjugacy_transport,
    hamiltonian_contract_checks,
    hamiltonian_field,
    independence_rank,
    involution_table,
    is_contact_form,
    is_first_integral,
    is_good,
    isotropy_defect,
    jacobi_bracket,
    reeb_defining_check,
    reeb_field,
    verify_flow_identity,
)
from contactkit.expressions import EvalDomainError, ScalarExpr, const, parse, random_polynomial
from contactkit.models import build_model, default_model_keys

SEED = 20110615


def darboux3() -> ContactSystem:
    chart = Chart("darboux3", ("x", "y", "z"))
    return ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y"}), name="darboux3")


def heisenberg(n: int) -> ContactSystem:
    coords = []
    for j in range(1, n + 1):
        coords += [f"x{j}", f"y{j}"]
    coords.append("z")
    chart = Chart(f"heisenberg{2 * n + 1}", tuple(coords))
    coeffs = {"z": 1.0}
    for j in range(1, n + 1):
        coeffs[f"x{j}"] = f"-y{j}"
    return ContactSystem(chart, one_form(chart, coeffs), name=chart.name)


def cosphere2() -> ContactSystem:
    coords = ("x0", "x1", "p1")
    chart = Chart(
        "cosphere2",
        coords,
        bounds=((-2.0, 2.0), (-2.0, 2.0), (-0.9, 0.9)),
        domain=parse("1 - p1^2", coords),
    )
    eta = one_form(chart, {"x0": "sqrt(1 - p1^2)", "x1": "p1"})
    return ContactSystem(chart, eta, name="cosphere2")


def degenerate3() -> ContactSystem:
    chart = Chart("degenerate3", ("x", "y", "z"))
    return ContactSystem(chart, one_form(chart, {"z": 1.0}), verify=False)


MODELS = [darboux3, heisenberg, cosphere2]


def all_models():
    return [darboux3(), heisenberg(1), heisenberg(2), cosphere2()]


# -- contact condition ----------------------------------------------------


class TestContactCondition:
    def test_darboux_passes_with_unit_determinant(self):
        # The verdict reads the bordered matrix M = [[D^T, -E], [E^T, 0]],
        # whose determinant is Pf(M)^2 = (eta ^ d eta)^2.  For eta = dz - y dx,
        # d eta = dx ^ dy and eta ^ d eta = dz ^ dx ^ dy = dx ^ dy ^ dz, so
        # det M = 1 at every point.
        system = darboux3()
        result = is_contact_form(system, samples=128, seed=SEED)
        assert result.passed
        assert result.samples == 128
        assert abs(result.detail["min_abs_determinant"] - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_records_stay_finite_at_extreme_scales(self, scale):
        # The bordered contact matrix M is 4 x 4 and degree 1 in eta, so
        # |det M| = scale^4 det M(dz - y dx) = scale^4 (see the unit
        # determinant above) and leaves the float range at both ends; the
        # record carries its log instead.
        from contactkit.cone import build_cone, nondegeneracy_check

        chart = Chart("darboux3", ("x", "y", "z"))
        system = ContactSystem(chart, one_form(chart, {"z": scale, "x": f"-{scale!r}*y"}))
        cone = build_cone(system, verify=False)
        for result in (
            is_contact_form(system, samples=64, seed=SEED),
            nondegeneracy_check(cone, samples=64, seed=SEED),
        ):
            assert result.passed
            json.dumps(result.to_record(), allow_nan=False)
            assert "min_abs_determinant" not in result.detail
            assert np.isfinite(result.detail["min_log_abs_determinant"])
        got = is_contact_form(system, samples=64, seed=SEED).detail["min_log_abs_determinant"]
        assert got == pytest.approx(4 * np.log(scale), rel=1e-12)

    @pytest.mark.parametrize("key", ["darboux(1)", "darboux(2)", "heisenberg(1)", "heisenberg(2)"])
    def test_flat_models_have_unit_determinant(self, key):
        # eta = dz - sum_j y_j dx_j: d eta = sum_j dx_j ^ dy_j, so
        # (d eta)^n / n! = dx_1 ^ dy_1 ^ ... ^ dx_n ^ dy_n and
        # eta ^ (d eta)^n / n! = +-(the coordinate volume); det M = Pf(M)^2 = 1.
        system = build_model(key).system
        pts = system.chart.sample(128, SEED)
        M = contact_module._Geometry(system, pts).M
        assert np.max(np.abs(np.linalg.det(M) - 1.0)) < 1e-12
        result = is_contact_form(system, samples=128, seed=SEED)
        assert abs(result.detail["min_abs_determinant"] - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_determinant_is_the_squared_volume_coefficient(self, seed):
        # det M = Pf(M)^2, and the Pfaffian of the bordered 4 x 4 matrix is
        # E_x D_yz - E_y D_xz + E_z D_xy, the coefficient of eta ^ d eta.
        # The coefficient comes here by the exterior calculus of the charts
        # module, independently of M.  The error is taken relative to the
        # product of M's row norms, the scale the Hadamard ratio divides by
        # (it bounds |det M|); relative to det M alone it is unbounded near
        # the zeros of eta ^ d eta.
        chart = Chart("c3", ("x", "y", "z"))
        rng = np.random.default_rng(seed)
        eta = one_form(chart, {c: random_polynomial(chart.coords, 2, rng) for c in chart.coords})
        volume = wedge(eta, exterior_derivative(eta)).coefficient((0, 1, 2))
        pts = chart.sample(32, SEED)
        M = contact_module._Geometry(ContactSystem(chart, eta, verify=False), pts).M
        scale = np.prod(np.linalg.norm(M, axis=2), axis=1)
        assert np.all(np.abs(np.linalg.det(M) - volume.values(pts) ** 2) <= 1e-12 * scale)

    def test_degenerate_form_fails_with_witness(self):
        result = is_contact_form(degenerate3(), samples=64, seed=SEED)
        assert not result.passed
        assert result.witness is not None
        assert len(result.witness) == 3

    def test_cosphere_passes(self):
        assert is_contact_form(cosphere2(), samples=128, seed=SEED).passed

    def test_construction_rejects_degenerate_form(self):
        chart = Chart("degenerate3", ("x", "y", "z"))
        with pytest.raises(ContactConditionError):
            ContactSystem(chart, one_form(chart, {"z": 1.0}))

    def test_even_dimensional_chart_rejected(self):
        chart = Chart("plane", ("x", "y"))
        with pytest.raises(ValueError, match="odd"):
            ContactSystem(chart, one_form(chart, {"x": 1.0}), verify=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteInput:
    """An inf or nan reaching the batched SVD would hang it; these raise."""

    def test_overflowing_eta_raises_at_the_point(self):
        chart = Chart("c3", ("x", "y", "z"))
        system = ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y^2"}))
        point = (0.1, 1e200, 0.3)
        with pytest.raises(EvalDomainError, match=r"not finite at \(0\.1, 1e\+200, 0\.3\)"):
            hamiltonian_field(system, chart.parse("x")).evaluate(point)
        with pytest.raises(EvalDomainError):
            jacobi_bracket(system, chart.parse("x"), chart.parse("y")).at(point)
        assert system._geometry is None  # no half-built geometry is kept

    def test_overflow_gives_no_numpy_warning(self):
        chart = Chart("c3", ("x", "y", "z"))
        system = ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y^2"}))
        point = (0.1, 1e200, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(chart.parse("y^2").values(np.array([point]))[0])
            assert np.isinf(chart.parse("y^3").jets(point)[0][0])
            with pytest.raises(EvalDomainError, match="not finite"):
                hamiltonian_field(system, chart.parse("x")).evaluate(point)
            # finite eta, overflowing h: the solve gives non-finite entries
            X = hamiltonian_field(system, chart.parse("exp(1000*z)")).evaluate((0.1, 0.2, 0.9))
            assert not np.all(np.isfinite(X))

    def test_nan_eta_is_not_reported_as_degenerate(self):
        chart = Chart("c3", ("x", "y", "z"))
        with pytest.raises(EvalDomainError, match="eta or d\\(eta\\) is not finite"):
            ContactSystem(chart, one_form(chart, {"z": 1.0, "x": float("nan")}))

    def test_infinite_field_rejected_before_rank(self):
        h = const(float("inf"), darboux3().chart.coords)
        with pytest.raises(EvalDomainError, match="a field is not finite"):
            independence_rank(darboux3(), [h], samples=8, seed=SEED)


# -- functions on other coordinates ----------------------------------------


def _foreign(text: str) -> ScalarExpr:
    """A function of as many variables as ``darboux3``'s chart, other names."""
    return parse(text, ("a", "b", "c"))


@pytest.mark.parametrize(
    "operation",
    [
        lambda s, a, b: hamiltonian_field(s, a),
        lambda s, a, b: jacobi_bracket(s, a, b).at((1.0, 2.0, 3.0)),
        lambda s, a, b: is_good(s, a),
        lambda s, a, b: is_first_integral(s, s.chart.parse("-y"), b),
        lambda s, a, b: verify_flow_identity(s, a, b),
        lambda s, a, b: isotropy_defect(s, a, b),
        lambda s, a, b: involution_table(s, (s.chart.parse("x"), b)),
        lambda s, a, b: independence_rank(s, (a,)),
        lambda s, a, b: hamiltonian_contract_checks(s, a),
        lambda s, a, b: conformal_bracket_law(
            s, _foreign("1 + a^2"), s.chart.parse("x"), s.chart.parse("z")
        ),
        lambda s, a, b: conjugacy_transport(s, CoordinateMap.identity(s.chart), a),
        # classify_system's family: a system cannot carry such a function.
        lambda s, a, b: ContactSystem(s.chart, s.eta, hamiltonian=a, integrals=(b,)),
    ],
    ids=[
        "hamiltonian_field",
        "jacobi_bracket",
        "is_good",
        "is_first_integral",
        "verify_flow_identity",
        "isotropy_defect",
        "involution_table",
        "independence_rank",
        "hamiltonian_contract_checks",
        "conformal_bracket_law",
        "conjugacy_transport",
        "classify_system_family",
    ],
)
def test_function_on_other_coordinates_rejected(operation):
    # Read by position, ``b`` on the chart (x, y, z) would be ``y``: the
    # bracket {a, b} of ``dz - y dx`` would come out as 1.0 at (1, 2, 3).
    sys = darboux3()
    with pytest.raises(ValueError, match="bound to different coordinates than the chart"):
        operation(sys, _foreign("a"), _foreign("b"))


# -- Reeb field -----------------------------------------------------------


class TestReebField:
    def test_darboux_golden_point(self):
        R = reeb_field(darboux3())
        np.testing.assert_allclose(
            R.evaluate((0.3, -1.2, 0.7)), [0.0, 0.0, 1.0], atol=1e-12
        )

    def test_heisenberg_is_vertical(self):
        sys = heisenberg(2)
        pts = sys.chart.sample(64, SEED)
        expected = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        assert np.max(np.abs(reeb_field(sys).evaluate(pts) - expected)) < 1e-12

    def test_cosphere_golden_point(self):
        R = reeb_field(cosphere2())
        np.testing.assert_allclose(
            R.evaluate((0.5, -1.0, 0.8)), [0.6, 0.8, 0.0], atol=1e-12
        )

    def test_defining_residuals_on_all_models(self):
        for sys in all_models():
            result = reeb_defining_check(sys, samples=256, seed=SEED)
            assert result.passed, f"{sys.name}: {result}"
            assert result.max_residual < 1e-9

    def test_degenerate_point_raises_singular_error(self):
        with pytest.raises(SingularSystemError):
            reeb_field(degenerate3()).evaluate((0.1, 0.2, 0.3))

    @pytest.mark.parametrize("c", [1e-150, 1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100, 1e150])
    def test_scaled_form_has_scaled_reeb_field(self, c):
        chart = Chart("darboux3", ("x", "y", "z"))
        system = ContactSystem(chart, one_form(chart, {"z": c, "x": f"-{c!r}*y"}))
        pts = chart.sample(64, SEED)
        R = reeb_field(darboux3()).evaluate(pts)
        np.testing.assert_allclose(reeb_field(system).evaluate(pts) * c, R, rtol=1e-12, atol=1e-12)
        assert reeb_defining_check(system, samples=64, seed=SEED).passed


class TestSingularSystemGuard:
    """Where the contact condition fails the field system is singular, and
    every solve there raises :class:`SingularSystemError` at the point."""

    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-13])
    def test_nearly_degenerate_forms_raise(self, c, eps):
        # c * (dz - (eps * y + z) dx): eta /\ d(eta) is c^2 eps dx^dy^dz,
        # while d(eta) has the dx^dz part c dx^dz, so the smallest Hadamard
        # ratio of the bordered matrix is about 0.15 eps at any scale c.
        chart = Chart("c3", ("x", "y", "z"))
        eta = one_form(chart, {"z": c, "x": f"-{c * eps!r}*y - {c!r}*z"})
        system = ContactSystem(chart, eta, verify=False)
        pts = chart.sample(16, SEED)
        with pytest.raises(SingularSystemError, match="contact condition fails"):
            reeb_field(system).evaluate(pts)
        with pytest.raises(SingularSystemError):
            hamiltonian_field(system, chart.parse("x*z")).evaluate(pts)

    def test_exactly_singular_point_in_a_batch_is_named(self):
        # dz - y^3 dx is contact except on y = 0, where d(eta) vanishes.
        chart = Chart("c3", ("x", "y", "z"))
        system = ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y^3"}))
        pts = chart.sample(128, SEED).copy()
        pts[57, 1] = 0.0
        with pytest.raises(SingularSystemError) as caught:
            hamiltonian_field(system, chart.parse("x")).evaluate(pts)
        point = tuple(float(c) for c in pts[57])
        assert caught.value.point == point
        assert str(point) in str(caught.value)

    def test_solve_is_finite_next_to_the_singular_set(self):
        chart = Chart("c3", ("x", "y", "z"))
        system = ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y^3"}))
        pts = chart.sample(128, SEED).copy()
        pts[57, 1] = 1e-3  # |d(eta)| = 3e-6: well conditioned enough
        assert np.all(np.isfinite(reeb_field(system).evaluate(pts)))


# -- Hamiltonian fields ---------------------------------------------------


class TestHamiltonianField:
    def test_translation_generator(self):
        sys = darboux3()
        X = hamiltonian_field(sys, sys.chart.parse("-y"))
        pts = sys.chart.sample(64, SEED)
        expected = np.tile([1.0, 0.0, 0.0], (64, 1))
        assert np.max(np.abs(X.evaluate(pts) - expected)) < 1e-12

    def test_dilation_field_golden_point(self):
        sys = darboux3()
        X = hamiltonian_field(sys, sys.chart.parse("z"))
        np.testing.assert_allclose(
            X.evaluate((2.0, 3.0, 5.0)), [0.0, 3.0, 5.0], atol=1e-12
        )

    def test_unit_hamiltonian_matches_reeb(self):
        for sys in (darboux3(), cosphere2()):
            pts = sys.chart.sample(64, SEED)
            gap = hamiltonian_field(sys, const(1.0, sys.chart.coords)).evaluate(
                pts
            ) - reeb_field(sys).evaluate(pts)
            assert np.max(np.abs(gap)) < 1e-12

    def test_contract_on_random_polynomials(self):
        for sys in all_models():
            rng = np.random.default_rng([SEED, sys.chart.dim])
            for _ in range(20):
                h = random_polynomial(sys.chart.coords, 3, rng)
                pairing, invariance = hamiltonian_contract_checks(
                    sys, h, samples=128, seed=SEED
                )
                assert pairing.passed, f"{sys.name}: {pairing}"
                assert invariance.passed, f"{sys.name}: {invariance}"

    def test_jacobian_matches_finite_differences(self):
        sys = cosphere2()
        X = hamiltonian_field(sys, sys.chart.parse("x1*p1 + x0^2/4"))
        pts = sys.chart.sample(5, SEED)
        J = X.jacobian(pts)
        step = 1e-6
        for k in range(3):
            offset = np.zeros(3)
            offset[k] = step
            column = (X.evaluate(pts + offset) - X.evaluate(pts - offset)) / (2 * step)
            assert np.max(np.abs(J[:, :, k] - column)) < 1e-6

    def test_single_point_and_batch_shapes(self):
        sys = darboux3()
        X = hamiltonian_field(sys, sys.chart.parse("z"))
        single = X.evaluate((1.0, 1.0, 1.0))
        batch = X.evaluate(np.ones((4, 3)))
        assert single.shape == (3,)
        assert batch.shape == (4, 3)
        assert X.jacobian((1.0, 1.0, 1.0)).shape == (3, 3)
        assert isinstance(X.reeb_derivative((1.0, 1.0, 1.0)), float)


# -- Jacobi bracket -------------------------------------------------------


class TestJacobiBracket:
    def test_involutive_pair_vanishes(self):
        sys = darboux3()
        bracket = jacobi_bracket(sys, sys.chart.parse("-y"), sys.chart.parse("z"))
        pts = sys.chart.sample(128, SEED)
        assert np.max(np.abs(bracket.evaluate(pts))) < 1e-12

    def test_self_bracket_vanishes(self):
        sys = darboux3()
        f = sys.chart.parse("x*z + y^2")
        bracket = jacobi_bracket(sys, f, f)
        pts = sys.chart.sample(64, SEED)
        assert np.max(np.abs(bracket.evaluate(pts))) == 0.0

    def test_unit_bracket_golden(self):
        sys = darboux3()
        bracket = jacobi_bracket(sys, const(1.0, sys.chart.coords), sys.chart.parse("z"))
        assert abs(bracket.at((1.0, 2.0, 3.0)) - 1.0) < 1e-12

    def test_antisymmetry_on_random_pairs(self):
        for sys in all_models():
            rng = np.random.default_rng([SEED, 77, sys.chart.dim])
            pts = sys.chart.sample(64, SEED)
            for _ in range(5):
                f = random_polynomial(sys.chart.coords, 3, rng)
                g = random_polynomial(sys.chart.coords, 3, rng)
                total = jacobi_bracket(sys, f, g).evaluate(pts) + jacobi_bracket(
                    sys, g, f
                ).evaluate(pts)
                assert np.max(np.abs(total)) < 1e-9

    def test_verdict_matches_field_commutator(self):
        sys = darboux3()
        chart = sys.chart
        pts = chart.sample(64, SEED)
        for f_src, g_src in [("-y", "z"), ("x", "z"), ("y", "z"), ("x*y", "z^2")]:
            f, g = chart.parse(f_src), chart.parse(g_src)
            bracket_zero = np.max(np.abs(jacobi_bracket(sys, f, g).evaluate(pts))) < 1e-8
            Xf, Xg = hamiltonian_field(sys, f), hamiltonian_field(sys, g)
            Jf, Jg = Xf.jacobian(pts), Xg.jacobian(pts)
            vf, vg = Xf.evaluate(pts), Xg.evaluate(pts)
            commutator = np.einsum("nj,nij->ni", vf, Jg) - np.einsum(
                "nj,nij->ni", vg, Jf
            )
            commutator_zero = np.max(np.abs(commutator)) < 1e-8
            assert bracket_zero == commutator_zero, (f_src, g_src)


# -- goodness and first integrals -----------------------------------------


class TestGoodness:
    def test_translation_hamiltonian_is_good(self):
        sys = darboux3()
        assert is_good(sys, sys.chart.parse("-y"), samples=128, seed=SEED).passed

    def test_height_function_fails_with_unit_residual(self):
        sys = darboux3()
        result = is_good(sys, sys.chart.parse("z"), samples=128, seed=SEED)
        assert not result.passed
        assert abs(result.max_residual - 1.0) < 1e-12

    def test_constants_are_good(self):
        for sys in (darboux3(), cosphere2()):
            assert is_good(sys, const(1.0, sys.chart.coords), seed=SEED).passed


class TestFirstIntegral:
    def test_height_is_integral_of_translation(self):
        sys = darboux3()
        chart = sys.chart
        assert is_first_integral(
            sys, chart.parse("-y"), chart.parse("z"), seed=SEED
        ).passed

    def test_reversed_pair_fails(self):
        sys = darboux3()
        chart = sys.chart
        result = is_first_integral(sys, chart.parse("z"), chart.parse("-y"), seed=SEED)
        assert not result.passed
        assert result.max_residual > 0.1

    def test_constants_are_integrals_of_everything(self):
        sys = darboux3()
        assert is_first_integral(
            sys, sys.chart.parse("x*z + y"), const(5.0, sys.chart.coords), seed=SEED
        ).passed


class TestFlowIdentity:
    def test_involutive_pair(self):
        sys = darboux3()
        result = verify_flow_identity(
            sys, sys.chart.parse("-y"), sys.chart.parse("z"), seed=SEED
        )
        assert result.passed
        assert result.max_residual < 1e-12

    def test_reversed_pair(self):
        sys = darboux3()
        result = verify_flow_identity(
            sys, sys.chart.parse("z"), sys.chart.parse("-y"), seed=SEED
        )
        assert result.passed
        assert result.max_residual < 1e-12

    def test_random_pairs_on_heisenberg(self):
        sys = heisenberg(1)
        rng = np.random.default_rng([SEED, 3])
        for _ in range(20):
            h = random_polynomial(sys.chart.coords, 3, rng)
            f = random_polynomial(sys.chart.coords, 3, rng)
            assert verify_flow_identity(sys, h, f, samples=128, seed=SEED).passed

    def test_universal_on_all_models(self):
        for sys in all_models():
            rng = np.random.default_rng([SEED, 11, sys.chart.dim])
            for _ in range(5):
                h = random_polynomial(sys.chart.coords, 3, rng)
                f = random_polynomial(sys.chart.coords, 3, rng)
                result = verify_flow_identity(sys, h, f, samples=64, seed=SEED)
                assert result.passed, f"{sys.name}: {result}"


def _dense_dM(system, pts):
    """``dM[n, k, row, col] = d_k M[row, col]`` of the bordered matrix ``M =
    [[D^T, -E], [E^T, 0]]``, assembled densely from eta's coefficient jets:
    the reference for the solve's Jacobian term."""
    n, d = pts.shape
    dE = np.zeros((n, d, d))
    dM = np.zeros((n, d, d + 1, d + 1))
    for (k,), coefficient in system.eta.coefficients.items():
        _, grad, hess = coefficient.jets(pts)
        dE[:, :, k] = grad
        dM[:, :, k, :d] += hess
        dM[:, :, :d, k] -= hess
    dM[:, :, :d, d] = -dE
    dM[:, :, d, :d] = dE
    return dM


def _solved_apart(system, geometry, expr):
    """One function's solve from its own ``jets``, with the right-hand
    sides built from dense zeros and the Jacobian term from the dense
    ``dM``: the reference for one shared tape and for the contraction of
    eta's Hessians."""
    h, dh, d2h = expr.jets(geometry.points)
    n, d = geometry.points.shape
    with np.errstate(all="ignore"):
        inverse = geometry.inverse()
        b = np.empty((n, d + 1))
        b[:, :d] = -dh
        b[:, d] = h
        Y = (inverse @ b[:, :, None])[:, :, 0]
        db = np.empty((n, d + 1, d))
        db[:, :d, :] = -np.swapaxes(d2h, 1, 2)
        db[:, d, :] = dh
        dY = inverse @ (db - np.einsum("nkri,ni->nrk", _dense_dM(system, geometry.points), Y))
    return h, dh, Y[:, d], Y[:, :d], dY[:, :d, :]


class TestOneTapePerSolve:
    """Every function a check solves is jetted on one tape, and solving them
    together changes no bit of any one of them."""

    PAIRS = (
        ("x1*y1 - z^2 + 0.5*x1^3", "2.5"),  # constant f: no gradient
        ("x1 - 2*y1 + z", "x1*z^2 - y1"),  # linear h: no Hessian
        ("-1", "y1 + 3"),  # constant h: no gradient
        ("z^2 - x1", "0"),  # zero f: a zero field
    )

    def test_warm_flow_identity_compiles_once(self, monkeypatch):
        from contactkit import expressions

        sys = heisenberg(1)
        h, f = (sys.chart.parse(s) for s in self.PAIRS[0])
        cold = verify_flow_identity(sys, h, f, samples=64, seed=SEED)
        compile_ = expressions._compile
        roots = []
        monkeypatch.setattr(
            expressions, "_compile", lambda r: roots.append(len(r)) or compile_(r)
        )
        warm = verify_flow_identity(sys, h, f, samples=64, seed=SEED)
        assert roots == [2]
        assert warm.max_residual == cold.max_residual

    @pytest.mark.parametrize("sources", PAIRS)
    def test_together_equals_one_at_a_time(self, sources):
        sys = heisenberg(1)
        geometry = contact_module._shared_geometry(sys, sys.chart.sample(64, SEED))
        exprs = [sys.chart.parse(s) for s in sources]
        for s, expr in zip(geometry.solved(*exprs, jacobians=True), exprs):
            got = (s.value, s.grad, s.a, s.X, s.dX)
            for a, b in zip(got, _solved_apart(sys, geometry, expr)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestJacobianTerm:
    """The solve's Jacobian term ``d_k M [X; a]`` is contracted from eta's
    Hessians on request; the geometry keeps no ``d M``."""

    CURVED = ("cosphere_torus(2)", "sphere_weighted(1,1,1)", "sphere_weighted(3,2,4,3,3)")

    @staticmethod
    def _tapes(monkeypatch):
        tapes = []
        jets_of = contact_module._jets_of

        def spy(exprs, *args, **kwargs):
            tapes.append(tuple(exprs))
            return jets_of(exprs, *args, **kwargs)

        monkeypatch.setattr(contact_module, "_jets_of", spy)
        return tapes

    @pytest.mark.parametrize("key", CURVED)
    def test_jacobian_matches_dense_reference_and_differences(self, key):
        system = build_model(key).system
        h = random_polynomial(system.chart.coords, 3, np.random.default_rng([SEED, 43]))
        pts = system.chart.sample(64, SEED)
        field = hamiltonian_field(system, h)
        J = field.jacobian(pts)
        geometry = system._geometry
        assert geometry.curved
        reference = _solved_apart(system, geometry, h)[4]
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(J - reference)) <= 1e-12 * scale
        step = 1e-6
        for k in range(system.chart.dim):
            offset = np.zeros(system.chart.dim)
            offset[k] = step
            column = (field.evaluate(pts + offset) - field.evaluate(pts - offset)) / (2 * step)
            assert np.max(np.abs(J[:, :, k] - column)) <= 1e-6 * scale

    def test_request_without_jacobians_runs_no_eta_tape(self, monkeypatch):
        system = build_model("cosphere_torus(2)").system
        rng = np.random.default_rng([SEED, 44])
        h, f = (random_polynomial(system.chart.coords, 3, rng) for _ in range(2))
        pts = system.chart.sample(64, SEED)
        geometry = contact_module._shared_geometry(system, pts)
        assert geometry.curved
        tapes = self._tapes(monkeypatch)
        assert all(s.dX is None for s in geometry.solved(h, f))
        field = hamiltonian_field(system, h)
        field.evaluate(pts)
        field.reeb_derivative(pts)
        is_good(system, h, samples=64, seed=SEED)
        is_first_integral(system, h, f, samples=64, seed=SEED)
        isotropy_defect(system, h, f).evaluate(pts)
        independence_rank(system, (h, f), samples=64, seed=SEED)
        assert system._geometry is geometry
        assert tapes == [(h, f), (h,), (h,), (h,), (h,), (h, f), (h, f)]
        # A request that reads dX jets eta's coefficients once more.
        field.jacobian(pts)
        assert tapes[7:] == [(h,), tuple(system.eta.coefficients.values())]

    def test_flat_eta_never_jets_eta_again(self, monkeypatch):
        system = heisenberg(1)
        h, f = (system.chart.parse(s) for s in TestOneTapePerSolve.PAIRS[1])
        pts = system.chart.sample(64, SEED)
        assert not contact_module._shared_geometry(system, pts).curved
        tapes = self._tapes(monkeypatch)
        verify_flow_identity(system, h, f, samples=64, seed=SEED)
        hamiltonian_field(system, h).jacobian(pts)
        assert tapes == [(h, f), (h,)]

    @pytest.mark.parametrize("key", ("darboux(1)", *CURVED))
    def test_kept_arrays_stay_within_the_bordered_size(self, key):
        system = build_model(key).system
        h = random_polynomial(system.chart.coords, 3, np.random.default_rng([SEED, 45]))
        pts = system.chart.sample(64, SEED)
        hamiltonian_field(system, h).jacobian(pts)
        geometry = system._geometry
        arrays, pending = [], list(vars(geometry).values())
        while pending:
            value = pending.pop()
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, (tuple, list)):
                pending.extend(value)
        assert geometry._inverse is not None and len(arrays) >= 9
        n, d = pts.shape
        assert max(a.size for a in arrays) <= n * (d + 1) ** 2


class TestTapeOrders:
    """Only a solve that asks for Jacobians forms Hessians: the geometry's
    tape of eta and every other solve are of order 1, and ``curved`` is read
    from the expressions."""

    def test_only_jacobian_solves_run_order_two(self, monkeypatch):
        system = build_model("cosphere_torus(2)").system
        eta = tuple(system.eta.coefficients.values())
        h = random_polynomial(system.chart.coords, 3, np.random.default_rng([SEED, 46]))
        pts = system.chart.sample(64, SEED)
        calls = []
        jets_of = contact_module._jets_of

        def spy(exprs, points, take, order=2):
            calls.append((tuple(exprs), order))
            return jets_of(exprs, points, take, order)

        monkeypatch.setattr(contact_module, "_jets_of", spy)
        geometry = contact_module._Geometry(system, pts)
        assert geometry.curved
        (plain,) = geometry.solved(h)
        (full,) = geometry.solved(h, jacobians=True)
        assert calls == [(eta, 1), ((h,), 1), ((h,), 2), (eta, 2)]
        for a, b in zip((plain.value, plain.grad, plain.a, plain.X), (full.value, full.grad, full.a, full.X)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("key", default_model_keys())
    def test_structural_curvature_is_the_order_two_verdict(self, key):
        """On eta, the scalar data and the cone form of every default model."""
        from contactkit.cone import build_cone
        from contactkit.expressions import _curved, _jets_of

        model = build_model(key)
        system = model.system
        cone = build_cone(system, verify=False)
        pts = system.chart.sample(16, SEED)
        groups = [
            (tuple(system.eta.coefficients.values()), pts),
            *(((e,), pts) for e in (*system.integrals, *(h for _, h in model.hamiltonian_pairs))),
            *(((e,), cone.cone_chart.sample(16, SEED)) for e in cone.omega.coefficients.values()),
        ]
        for exprs, at in groups:
            seen = []
            _jets_of(exprs, at, lambda r, v, g, h: seen.append(h is not None))
            assert _curved(exprs) == any(seen)
        hessians = []
        _jets_of(groups[0][0], pts, lambda r, v, g, h: hessians.append(h is not None))
        assert contact_module._Geometry(system, pts).curved == any(hessians)


# -- isotropy defect ------------------------------------------------------


class TestIsotropyDefect:
    def test_golden_point_value(self):
        sys = darboux3()
        defect = isotropy_defect(sys, sys.chart.parse("-y"), sys.chart.parse("z"))
        assert abs(defect.at((1.0, 2.0, 3.0)) - 2.0) < 1e-12

    def test_equals_second_coordinate_everywhere(self):
        sys = darboux3()
        defect = isotropy_defect(sys, sys.chart.parse("-y"), sys.chart.parse("z"))
        pts = sys.chart.sample(64, SEED)
        assert np.max(np.abs(defect.evaluate(pts) - pts[:, 1])) < 1e-12

    def test_same_function_twice_vanishes(self):
        sys = darboux3()
        h = sys.chart.parse("x*y - z")
        defect = isotropy_defect(sys, h, h)
        pts = sys.chart.sample(64, SEED)
        assert np.max(np.abs(defect.evaluate(pts))) == 0.0

    def test_reeb_direction_in_kernel(self):
        sys = heisenberg(1)
        h1 = sys.chart.parse("(x1^2 + y1^2)/2")
        defect = isotropy_defect(sys, h1, const(1.0, sys.chart.coords))
        pts = sys.chart.sample(64, SEED)
        assert np.max(np.abs(defect.evaluate(pts))) < 1e-12

    @pytest.mark.parametrize(
        "make, h, f, point",
        [
            (darboux3, "x*z + y", "z - x^2", (1.0, -2.0, 3.0)),
            (lambda: heisenberg(1), "x1*z + y1", "(x1^2 + y1^2)/2 - z", (0.5, -1.0, 2.0)),
            (cosphere2, "x1*p1", "x0 - p1^2", (0.3, 0.4, 0.5)),
        ],
        ids=["darboux3", "heisenberg(1)", "cosphere2"],
    )
    def test_expansion_identity(self, make, h, f, point):
        # dEta(X_h, X_f) = X_h f - X_f h - {h, f}, from the public evaluators.
        sys = make()
        h, f = sys.chart.parse(h), sys.chart.parse(f)
        tol = TOLERANCES["isotropy_identity"]
        for pts in (sys.chart.sample(64, SEED), np.array(point)):
            X_h = hamiltonian_field(sys, h).evaluate(pts)
            X_f = hamiltonian_field(sys, f).evaluate(pts)
            expansion = (
                np.sum(X_h * f.jets(pts)[1], axis=-1)
                - np.sum(X_f * h.jets(pts)[1], axis=-1)
                - jacobi_bracket(sys, h, f).evaluate(pts)
            )
            assert np.max(np.abs(isotropy_defect(sys, h, f).evaluate(pts) - expansion)) <= tol


# -- involution table and independence ------------------------------------


class TestInvolutionTable:
    def test_darboux_pair_all_pass(self):
        sys = darboux3()
        table = involution_table(
            sys, [sys.chart.parse("-y"), sys.chart.parse("z")], seed=SEED
        )
        assert all(entry.passed for row in table for entry in row)

    def test_heisenberg_triple_all_pass(self):
        sys = heisenberg(2)
        fns = [
            const(1.0, sys.chart.coords),
            sys.chart.parse("(x1^2 + y1^2)/2"),
            sys.chart.parse("(x2^2 + y2^2)/2"),
        ]
        table = involution_table(sys, fns, samples=64, seed=SEED)
        assert all(entry.passed for row in table for entry in row)

    def test_pass_fail_matrix_is_symmetric(self):
        sys = darboux3()
        fns = [sys.chart.parse(src) for src in ("x", "z", "-y")]
        table = involution_table(sys, fns, samples=64, seed=SEED)
        verdicts = [[entry.passed for entry in row] for row in table]
        assert verdicts == [list(col) for col in zip(*verdicts)]
        assert all(verdicts[i][i] for i in range(3))
        assert not all(entry for row in verdicts for entry in row)

    def test_requires_two_functions(self):
        sys = darboux3()
        with pytest.raises(ValueError, match="two"):
            involution_table(sys, [sys.chart.parse("z")], seed=SEED)


class TestIndependenceRank:
    def test_cosphere_pair_independent_everywhere_sampled(self):
        sys = cosphere2()
        rank, fraction = independence_rank(
            sys, [const(1.0, sys.chart.coords), sys.chart.parse("p1")], seed=SEED
        )
        assert rank == 2
        assert fraction == 1.0

    def test_single_function_has_rank_one(self):
        sys = darboux3()
        rank, fraction = independence_rank(sys, [const(1.0, sys.chart.coords)], seed=SEED)
        assert rank == 1
        assert fraction == 1.0

    def test_cosphere_triple_caps_at_rank_two(self):
        sys = cosphere2()
        fns = [
            const(1.0, sys.chart.coords),
            sys.chart.parse("sqrt(1 - p1^2)"),
            sys.chart.parse("p1"),
        ]
        rank, _ = independence_rank(sys, fns, seed=SEED)
        assert rank == 2

    def test_duplicate_function_stays_rank_one(self):
        sys = darboux3()
        one = const(1.0, sys.chart.coords)
        rank, fraction = independence_rank(sys, [one, const(1.0, sys.chart.coords)], seed=SEED)
        assert rank == 1
        assert fraction == 1.0


class TestPointwiseRank:
    @pytest.mark.parametrize("width", (1, 2))
    def test_matches_the_svd_with_zero_columns(self, width):
        rng = np.random.default_rng([SEED, 46, width])
        columns = rng.normal(size=(40, 5, width))
        columns[::3] = 0.0
        columns[1, :, 0] = 0.0
        columns[4] = 0.0
        columns[4, 3, :] = 1e-300  # its square underflows; it is still not zero
        pts = rng.normal(size=(40, 5))
        rel = TOLERANCES["rank_svd"]
        svals = np.linalg.svd(columns, compute_uv=False)
        ranks = np.sum(svals > rel * svals[:, :1], axis=1)
        expected = (int(ranks.max()), float(np.mean(ranks == ranks.max())))
        assert contact_module._pointwise_rank(columns, rel, pts) == expected
        zeros = np.zeros((4, 5, width))
        assert contact_module._pointwise_rank(zeros, rel, pts[:4]) == (0, 1.0)

    def test_single_column_takes_no_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", None)
        columns = np.zeros((3, 5, 1))
        columns[1, 2, 0] = -2.0
        assert contact_module._pointwise_rank(columns, 1e-8, np.zeros((3, 5))) == (1, 1 / 3)


# -- classification -------------------------------------------------------


def example_darboux_system() -> ContactSystem:
    chart = Chart("darboux3", ("x", "y", "z"))
    return ContactSystem(
        chart,
        one_form(chart, {"z": 1.0, "x": "-y"}),
        hamiltonian=chart.parse("-y"),
        integrals=(chart.parse("z"),),
        name="darboux3-translation",
    )


class TestClassification:
    def test_darboux_translation_system(self):
        record = classify_system(example_darboux_system(), samples=128, seed=SEED)
        assert record.completely_integrable_witnessed
        assert record.good
        assert not record.completely_good
        assert not record.reeb_type

    def test_heisenberg_reeb_type_system(self):
        sys = heisenberg(1)
        full = ContactSystem(
            sys.chart,
            sys.eta,
            hamiltonian=const(1.0, sys.chart.coords),
            integrals=(sys.chart.parse("(x1^2 + y1^2)/2"),),
            name="heisenberg-rotation",
        )
        record = classify_system(full, samples=128, seed=SEED)
        assert record.completely_integrable_witnessed
        assert record.good
        assert record.completely_good
        assert record.reeb_type
        assert record.detail["completely_good_cross_check_agrees"]

    def test_duplicate_constant_fails_independence(self):
        sys = darboux3()
        full = ContactSystem(
            sys.chart,
            sys.eta,
            hamiltonian=const(1.0, sys.chart.coords),
            integrals=(const(1.0, sys.chart.coords),),
        )
        record = classify_system(full, samples=128, seed=SEED)
        assert not record.completely_integrable_witnessed
        assert record.detail["rank"] == 1

    def test_wrong_integral_count_raises(self):
        sys = darboux3()
        full = ContactSystem(sys.chart, sys.eta, hamiltonian=sys.chart.parse("-y"))
        with pytest.raises(ValueError, match="integrals"):
            classify_system(full, seed=SEED)

    def test_missing_hamiltonian_raises(self):
        with pytest.raises(ValueError, match="hamiltonian"):
            classify_system(darboux3(), seed=SEED)


class TestReebTypeImplication:
    def test_never_reeb_type_without_completely_good(self):
        corpus = []
        corpus.append(example_darboux_system())
        h1 = heisenberg(1)
        corpus.append(
            ContactSystem(
                h1.chart,
                h1.eta,
                hamiltonian=const(1.0, h1.chart.coords),
                integrals=(h1.chart.parse("(x1^2 + y1^2)/2"),),
            )
        )
        h2 = heisenberg(2)
        corpus.append(
            ContactSystem(
                h2.chart,
                h2.eta,
                hamiltonian=const(1.0, h2.chart.coords),
                integrals=(
                    h2.chart.parse("(x1^2 + y1^2)/2"),
                    h2.chart.parse("(x2^2 + y2^2)/2"),
                ),
            )
        )
        cos = cosphere2()
        corpus.append(
            ContactSystem(
                cos.chart,
                cos.eta,
                hamiltonian=const(1.0, cos.chart.coords),
                integrals=(cos.chart.parse("p1"),),
                name="cosphere-momentum",
            )
        )
        dar = darboux3()
        corpus.append(
            ContactSystem(
                dar.chart,
                dar.eta,
                hamiltonian=const(1.0, dar.chart.coords),
                integrals=(const(1.0, dar.chart.coords),),
            )
        )
        for sys in corpus:
            record = classify_system(sys, samples=128, seed=SEED)
            assert not (record.reeb_type and not record.completely_good), sys.name


# -- centralizer property -------------------------------------------------


class TestCentralizerProperty:
    def test_verdicts_agree_on_random_functions(self):
        for sys in all_models():
            rng = np.random.default_rng([SEED, 23, sys.chart.dim])
            pts = sys.chart.sample(64, SEED)
            one = const(1.0, sys.chart.coords)
            candidates = [random_polynomial(sys.chart.coords, 3, rng) for _ in range(6)]
            candidates.append(one * 1.0)
            for g in candidates:
                bracket_resid = np.max(
                    np.abs(jacobi_bracket(sys, g, one).evaluate(pts))
                )
                Xg = hamiltonian_field(sys, g)
                R = reeb_field(sys)
                commutator = np.einsum(
                    "nj,nij->ni", Xg.evaluate(pts), R.jacobian(pts)
                ) - np.einsum("nj,nij->ni", R.evaluate(pts), Xg.jacobian(pts))
                commutator_resid = np.max(np.abs(commutator))
                assert (bracket_resid < 1e-8) == (commutator_resid < 1e-8)


# -- conformal rescale ----------------------------------------------------


class TestConformalBracketLaw:
    def test_constant_factor(self):
        sys = darboux3()
        result = conformal_bracket_law(
            sys,
            const(2.0, sys.chart.coords),
            sys.chart.parse("-y"),
            sys.chart.parse("z"),
            seed=SEED,
        )
        assert result.passed

    def test_exponential_factor(self):
        sys = darboux3()
        result = conformal_bracket_law(
            sys,
            sys.chart.parse("exp(x)"),
            sys.chart.parse("-y"),
            sys.chart.parse("z"),
            seed=SEED,
        )
        assert result.passed
        assert result.max_residual < 1e-7

    def test_unit_factor_degenerates_to_identity(self):
        sys = darboux3()
        result = conformal_bracket_law(
            sys,
            const(1.0, sys.chart.coords),
            sys.chart.parse("x*y"),
            sys.chart.parse("z^2"),
            seed=SEED,
        )
        assert result.passed
        assert result.max_residual < 1e-10

    def test_random_factor_and_pair_on_heisenberg(self):
        sys = heisenberg(1)
        chart = sys.chart
        factor = chart.parse("exp(x1/4) + y1^2/8")
        rng = np.random.default_rng([SEED, 9])
        for _ in range(3):
            g = random_polynomial(chart.coords, 2, rng)
            h = random_polynomial(chart.coords, 2, rng)
            assert conformal_bracket_law(sys, factor, g, h, samples=64, seed=SEED).passed

    def test_nonpositive_factor_rejected(self):
        sys = darboux3()
        with pytest.raises(ConformalFactorError):
            conformal_bracket_law(
                sys,
                sys.chart.parse("-1"),
                sys.chart.parse("x"),
                sys.chart.parse("z"),
                seed=SEED,
            )


# -- rescaling law --------------------------------------------------------


def heisenberg5() -> ContactSystem:
    return heisenberg(2)


class TestRescalingLaw:
    """The structure does not change when eta is rescaled by ``g > 0``: the
    field of ``h`` for ``g eta`` is the field of ``h / g`` for eta, and the
    Reeb field of ``g eta`` is the field of ``1 / g``."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([darboux3, heisenberg5, cosphere2]), st.integers(0, 2**32 - 1))
    def test_fields_of_rescaled_form(self, make, seed):
        system = make()
        coords = system.chart.coords
        rng = np.random.default_rng(seed)
        q = random_polynomial(coords, 2, rng, n_terms=3)
        g = 1.0 + q * q
        h = random_polynomial(coords, 3, rng)
        rescaled = ContactSystem(system.chart, system.eta.scaled(g), verify=False)
        pts = system.chart.sample(64, SEED)
        pairs = [
            (hamiltonian_field(rescaled, h), hamiltonian_field(system, h / g)),
            (reeb_field(rescaled), hamiltonian_field(system, 1.0 / g)),
        ]
        for got, want in pairs:
            expected = want.evaluate(pts)
            scale = np.maximum(1.0, np.abs(expected))
            assert np.max(np.abs(got.evaluate(pts) - expected) / scale) < 1e-10


# -- conjugacy transport --------------------------------------------------


class TestConjugacyTransport:
    def test_vertical_translation_preserves_everything(self):
        sys = darboux3()
        chart = sys.chart
        diffeo = CoordinateMap(
            chart,
            (chart.parse("x"), chart.parse("y"), chart.parse("z + 1")),
            (chart.parse("x"), chart.parse("y"), chart.parse("z - 1")),
        )
        moved, check = conjugacy_transport(sys, diffeo, chart.parse("-y"), seed=SEED)
        assert check.passed
        assert check.detail["base_passed"] and check.detail["transported_passed"]
        pts = sys.chart.sample(32, SEED)
        np.testing.assert_allclose(
            moved.eta.covector(pts), sys.eta.covector(pts), atol=1e-14
        )

    def test_linear_stretch_preserves_goodness(self):
        sys = darboux3()
        chart = sys.chart
        diffeo = CoordinateMap(
            chart,
            (chart.parse("x"), chart.parse("2*y"), chart.parse("2*z")),
            (chart.parse("x"), chart.parse("y/2"), chart.parse("z/2")),
        )
        moved, check = conjugacy_transport(sys, diffeo, chart.parse("-y"), seed=SEED)
        assert check.passed
        assert is_contact_form(moved, samples=64, seed=SEED).passed
        assert is_good(moved, moved.hamiltonian, samples=64, seed=SEED).passed

    def test_identity_map_returns_equal_system(self):
        sys = darboux3()
        moved, check = conjugacy_transport(
            sys, CoordinateMap.identity(sys.chart), sys.chart.parse("-y"), seed=SEED
        )
        assert check.passed
        pts = sys.chart.sample(32, SEED)
        np.testing.assert_allclose(
            moved.eta.covector(pts), sys.eta.covector(pts), atol=0
        )
        np.testing.assert_allclose(
            moved.hamiltonian.values(pts), -pts[:, 1], atol=0
        )

    def test_badness_also_transports(self):
        sys = darboux3()
        chart = sys.chart
        diffeo = CoordinateMap(
            chart,
            (chart.parse("x"), chart.parse("2*y"), chart.parse("2*z")),
            (chart.parse("x"), chart.parse("y/2"), chart.parse("z/2")),
        )
        moved, check = conjugacy_transport(sys, diffeo, chart.parse("z"), seed=SEED)
        assert check.passed
        assert not check.detail["base_passed"]
        assert not check.detail["transported_passed"]

    def test_wrong_inverse_rejected(self):
        sys = darboux3()
        chart = sys.chart
        diffeo = CoordinateMap(
            chart,
            (chart.parse("x"), chart.parse("y"), chart.parse("z + 1")),
            (chart.parse("x"), chart.parse("y"), chart.parse("z - 2")),
        )
        with pytest.raises(InverseMismatchError):
            conjugacy_transport(sys, diffeo, chart.parse("-y"), seed=SEED)


# -- plumbing -------------------------------------------------------------


class TestCheckResult:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="invariant"):
            CheckResult("demo", True, 2.0, 4, 1.0)

    def test_records_serialize_to_json(self):
        result = is_contact_form(darboux3(), samples=16, seed=SEED)
        text = json.dumps(result.to_record())
        assert '"contact_condition"' in text

    def test_classification_record_serializes(self):
        record = classify_system(example_darboux_system(), samples=32, seed=SEED)
        payload = json.loads(json.dumps(record.to_record()))
        assert payload["completely_integrable_witnessed"] is True


# -- shared geometry -------------------------------------------------------


class TestSharedFrame:
    """Checks on one (system, points) share the geometry kept on the system:
    one inverse of the bordered matrix, the same results as a fresh solve,
    nothing of the caller's kept.  (The tests named ``..._svd`` predate the inverse;
    ``inv_calls`` counts the solve kernel.)"""

    @pytest.fixture
    def inv_calls(self, monkeypatch):
        calls = []
        inv = np.linalg.inv

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return inv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counting)
        return calls

    def test_results_identical_on_hit_and_miss(self, monkeypatch):
        sys = heisenberg(1)
        rng = np.random.default_rng([SEED, 41])
        h = random_polynomial(sys.chart.coords, 3, rng)
        f = random_polynomial(sys.chart.coords, 3, rng)
        checks = [
            lambda: verify_flow_identity(sys, h, f, seed=SEED),
            lambda: is_good(sys, h, seed=SEED),
            lambda: is_first_integral(sys, h, f, seed=SEED),
            lambda: reeb_defining_check(sys, seed=SEED),
            lambda: hamiltonian_contract_checks(sys, h, seed=SEED),
            lambda: involution_table(sys, (h, f), seed=SEED),
            lambda: is_contact_form(sys, seed=SEED),
            lambda: hamiltonian_field(sys, f).residual_arrays(sys.chart.sample(128, SEED)),
        ]
        misses = []
        for check in checks:
            object.__setattr__(sys, "_geometry", None)
            misses.append(check())
        hits = [check() for check in checks]
        *results, arrays = misses
        assert results == hits[:-1]  # CheckResult equality compares residuals exactly
        for name, values in arrays.items():
            assert values.tobytes() == hits[-1][name].tobytes()

    def test_one_svd_for_repeated_flow_checks(self, inv_calls):
        sys = heisenberg(1)
        rng = np.random.default_rng([SEED, 42])
        pairs = [
            (random_polynomial(sys.chart.coords, 3, rng), random_polynomial(sys.chart.coords, 3, rng))
            for _ in range(200)
        ]
        for h, f in pairs:
            assert verify_flow_identity(sys, h, f, samples=128, seed=SEED).passed
        assert inv_calls == [(128, 4, 4)]

    def test_evaluator_calls_share_one_svd(self, inv_calls):
        sys = darboux3()
        field = hamiltonian_field(sys, sys.chart.parse("x*z + y"))
        pts = sys.chart.sample(16, SEED)
        field.evaluate(pts)
        field.jacobian(pts)
        field.residuals(pts)
        reeb_field(sys).evaluate(pts)
        assert len(inv_calls) == 1

    def test_other_system_or_points_miss(self, inv_calls):
        first, twin = darboux3(), darboux3()
        h, f = first.chart.parse("x*z + y"), first.chart.parse("z")
        verify_flow_identity(first, h, f, seed=SEED)
        verify_flow_identity(twin, h, f, seed=SEED)  # equal but not the same system
        verify_flow_identity(first, h, f, seed=SEED)  # first kept its own geometry
        verify_flow_identity(first, h, f, seed=SEED + 1)
        verify_flow_identity(first, h, f, samples=64, seed=SEED)
        verify_flow_identity(first, h, f, samples=64, seed=SEED)
        assert len(inv_calls) == 4
        assert twin._geometry is not first._geometry

    def test_interleaved_systems_keep_their_geometry(self, inv_calls):
        # Each conformal law builds a rescaled system; the base system's
        # geometry survives it, so only the rescaled ones are solved again.
        sys = darboux3()
        h, g, factor = sys.chart.parse("x*z + y"), sys.chart.parse("z"), sys.chart.parse("1 + x^2")
        for _ in range(2):
            is_good(sys, h, seed=SEED)
            assert conformal_bracket_law(sys, factor, g, h, seed=SEED).passed
        assert inv_calls == [(128, 4, 4)] * 3

    def test_dropped_system_is_freed(self):
        # The geometry refers to nothing of its system, so dropping a model
        # frees it and its arrays at once, without the cyclic collector.
        model = build_model("darboux(1)")
        assert reeb_defining_check(model.system, seed=SEED).passed
        assert model.system._geometry is not None
        ref = weakref.ref(model.system)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_verdict_guard_and_solve_read_one_matrix(self, monkeypatch):
        # One slogdet of M gives the Hadamard ratio that the contact verdict
        # and the solve guard both read, and one inverse serves every solve.
        sys = darboux3()
        calls = []

        def counting(name):
            kernel = getattr(np.linalg, name)
            return lambda *args, **kwargs: calls.append(name) or kernel(*args, **kwargs)

        for name in ("slogdet", "inv"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        pts = sys.chart.sample(128, SEED)
        verdict = is_contact_form(sys, seed=SEED)
        geometry = sys._geometry
        ratio = geometry.hadamard[0]
        assert verdict.detail["min_determinant_ratio"] == float(ratio.min())
        assert reeb_defining_check(sys, seed=SEED).passed
        hamiltonian_field(sys, sys.chart.parse("x*z")).evaluate(pts)
        assert sys._geometry is geometry
        assert calls == ["slogdet", "inv"]
        # A ratio below the floor at one point fails both there.
        lowered = ratio.copy()
        lowered[5] = contact_module.SINGULAR_RATIO / 2
        monkeypatch.setattr(geometry, "hadamard", (lowered, *geometry.hadamard[1:]))
        monkeypatch.setattr(geometry, "_inverse", None)
        verdict = is_contact_form(sys, seed=SEED)
        assert not verdict.passed and verdict.witness == tuple(pts[5])
        with pytest.raises(SingularSystemError, match="Hadamard ratio 5.000e-13") as caught:
            reeb_field(sys).evaluate(pts)
        assert caught.value.point == tuple(pts[5])
        assert calls == ["slogdet", "inv"]

    def test_shared_arrays_reject_writes(self):
        sys = darboux3()
        reeb_defining_check(sys, seed=SEED)
        geometry = sys._geometry
        shared = [geometry.points, geometry.E, geometry.dE, geometry.D, geometry.M]
        shared += [*geometry.hadamard, geometry.inverse(), geometry.reeb()]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_slot_keeps_the_chart_sample_and_matches_by_identity(self, inv_calls, monkeypatch):
        sys = darboux3()
        pts = sys.chart.sample(32, SEED)
        reeb_defining_check(sys, samples=32, seed=SEED)
        geometry = sys._geometry
        assert geometry.points is pts  # kept, not copied
        monkeypatch.setattr(geometry, "key", b"")  # an identity match needs no bytes
        hamiltonian_field(sys, sys.chart.parse("x")).evaluate(pts)
        assert sys._geometry is geometry
        own = np.array(pts)  # equal bytes in a writeable array of the caller's
        hamiltonian_field(sys, sys.chart.parse("x")).evaluate(own)
        assert sys._geometry is not geometry
        assert sys._geometry.points is not own
        assert len(inv_calls) == 2

    def test_one_point_value_leaves_the_slot(self, inv_calls):
        sys = darboux3()
        h, f = sys.chart.parse("-y"), sys.chart.parse("z")
        reeb_defining_check(sys, seed=SEED)
        geometry = sys._geometry
        assert abs(isotropy_defect(sys, h, f).at((1.0, 2.0, 3.0)) - 2.0) < 1e-12
        assert jacobi_bracket(sys, h, f).at((1.0, 2.0, 3.0)) == pytest.approx(0.0, abs=1e-12)
        assert hamiltonian_field(sys, h).evaluate((1.0, 2.0, 3.0)).tolist() == [1.0, 0.0, 0.0]
        assert sys._geometry is geometry
        is_good(sys, h, seed=SEED)
        assert [shape[0] for shape in inv_calls] == [128, 1, 1, 1]

    def test_slot_keeps_no_expression_data(self):
        sys = heisenberg(1)
        h, f = sys.chart.parse("x1*z + y1"), sys.chart.parse("z^2")
        verify_flow_identity(sys, h, f, seed=SEED)
        jacobi_bracket(sys, h, f).evaluate(sys.chart.sample(8, SEED))
        geometry = sys._geometry
        held = vars(geometry).values()
        assert not any(
            isinstance(value, (dict, list, set, ScalarExpr, contact_module._Solved))
            for value in held
        )

    def test_construction_check_leaves_the_slot(self):
        sys = darboux3()
        reeb_defining_check(sys, seed=SEED)
        geometry = sys._geometry
        chart = Chart("darboux3", ("x", "y", "z"))
        built = ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y"}))
        assert sys._geometry is geometry
        assert built._geometry is None  # the 32-point check keeps nothing
        ref = weakref.ref(built)
        del built
        gc.collect()
        assert ref() is None


class TestToleranceRegistry:
    """Every named tolerance lives in the one ``TOLERANCES`` literal of
    ``registry.py``, so the registry is the same whatever was imported."""

    SOURCES = sorted(Path(contact_module.__file__).parent.glob("*.py"))

    @staticmethod
    def _literal_keys() -> set[str]:
        tree = ast.parse(Path(registry_module.__file__).read_text())
        for node in tree.body:
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "TOLERANCES"
            ):
                return {key.value for key in node.value.keys}
        raise AssertionError("no TOLERANCES literal in registry.py")

    @classmethod
    def _read_names(cls) -> set[tuple[str, str]]:
        """``(file, name)`` for every name a module reads as a literal, by
        ``resolve_tolerance("name")`` or ``TOLERANCES["name"]``."""
        read = set()
        for path in cls.SOURCES:
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "resolve_tolerance"
                    and node.args
                ):
                    name = node.args[0]
                elif (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "TOLERANCES"
                ):
                    name = node.slice
                else:
                    continue
                if isinstance(name, ast.Constant):
                    read.add((path.name, name.value))
        return read

    def test_every_resolved_name_is_in_the_literal(self):
        keys = self._literal_keys()
        assert keys == set(TOLERANCES)
        resolved = self._read_names()
        assert {"cone_closure", "level_set", "goodness"} <= {name for _, name in resolved}
        assert {(f, name) for f, name in resolved if name not in keys} == set()

    def test_every_literal_key_is_read(self):
        # an entry no check reads would be a --tol name that changes nothing
        assert self._literal_keys() - {name for _, name in self._read_names()} == set()

    def test_no_module_mutates_the_registry(self):
        for path in self.SOURCES:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    assert node.value.id != "TOLERANCES", f"{path.name} mutates TOLERANCES"
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                            assert target.value.id != "TOLERANCES", f"{path.name} mutates TOLERANCES"
