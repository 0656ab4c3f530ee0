"""Symplectization checks: cone form, Liouville scaling, lifts, induced Hamiltonians."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactkit import cone as cone_module
from contactkit import expressions
from contactkit.charts import (
    Chart,
    ChartMismatchError,
    DifferentialForm,
    VectorField,
    basis_field,
    interior_product,
    lie_bracket,
    lie_derivative,
    one_form,
    vector_field,
)
from contactkit.cli import RunConfig
from contactkit.commands import model_battery
from contactkit.cone import (
    ContactTransformationError,
    _bracket,
    _ConeGeometry,
    _field_arrays,
    _liouville_bracket,
    build_cone,
    closure_check,
    commuting_lift_check,
    cone_hamiltonian,
    homogeneity_check,
    lift,
    lift_checks,
    nondegeneracy_check,
    reeb_rate,
    scale_covariance_check,
)
from contactkit.contact import (
    TOLERANCES,
    ContactConditionError,
    ContactSystem,
    independence_rank,
    is_contact_form,
)
from contactkit.expressions import coord, parse, random_polynomial
from contactkit.models import build_model, default_model_keys

SEED = 20110615


def darboux3() -> ContactSystem:
    chart = Chart("darboux3", ("x", "y", "z"))
    eta = one_form(chart, {"z": 1.0, "x": "-y"})
    return ContactSystem(chart, eta, reeb=basis_field(chart, "z"), name="darboux3")


def heisenberg(n: int) -> ContactSystem:
    coords = []
    for j in range(1, n + 1):
        coords += [f"x{j}", f"y{j}"]
    coords.append("z")
    chart = Chart(f"heisenberg{2 * n + 1}", tuple(coords))
    coeffs = {"z": 1.0}
    for j in range(1, n + 1):
        coeffs[f"x{j}"] = f"-y{j}"
    eta = one_form(chart, coeffs)
    return ContactSystem(chart, eta, reeb=basis_field(chart, "z"), name=chart.name)


def cosphere2() -> ContactSystem:
    coords = ("x0", "x1", "p1")
    chart = Chart(
        "cosphere2",
        coords,
        bounds=((-2.0, 2.0), (-2.0, 2.0), (-0.9, 0.9)),
        domain=parse("1 - p1^2", coords),
    )
    eta = one_form(chart, {"x0": "sqrt(1 - p1^2)", "x1": "p1"})
    reeb = vector_field(chart, {"x0": "sqrt(1 - p1^2)", "x1": "p1"})
    return ContactSystem(chart, eta, reeb=reeb, name="cosphere2")


def dilation_field(system: ContactSystem):
    """The Hamiltonian pair (y d/dy + z d/dz, z) on the three-dimensional chart."""
    X = vector_field(system.chart, {"y": "y", "z": "z"})
    return X, system.chart.parse("z")


def translation_field(system: ContactSystem):
    """The Hamiltonian pair (d/dx, -y) on the three-dimensional chart."""
    return basis_field(system.chart, "x"), system.chart.parse("-y")


# -- construction ----------------------------------------------------------


class TestBuildCone:
    def test_cone_form_matches_hand_expansion(self):
        cone = build_cone(darboux3())
        pts = cone.cone_chart.sample(32, SEED)
        x, y, z, r = (pts[:, i] for i in range(4))
        slots = cone.omega.coefficient_arrays(pts)
        assert sorted(slots) == [(0, 1), (0, 3), (2, 3)]
        np.testing.assert_allclose(slots[(0, 1)], r**2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(slots[(0, 3)], 2 * r * y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(slots[(2, 3)], -2 * r, rtol=0, atol=1e-12)

    def test_cone_chart_extends_base(self):
        base = cosphere2()
        cone = build_cone(base)
        assert cone.cone_chart.coords == base.chart.coords + ("r",)
        assert cone.radial == "r"
        assert cone.n == base.n
        pts = cone.cone_chart.sample(256, SEED)
        assert pts[:, -1].min() >= 0.1 and pts[:, -1].max() <= 10.0
        assert np.all(1 - pts[:, 2] ** 2 > 0)

    def test_radial_sampling_is_log_uniform(self):
        cone = build_cone(darboux3())
        r = cone.cone_chart.sample(4096, SEED)[:, -1]
        below = np.mean(r < 1.0)
        assert 0.4 < below < 0.6

    def test_closed(self):
        for system in (darboux3(), heisenberg(2)):
            check = closure_check(build_cone(system), samples=64, seed=SEED)
            assert check.passed
            assert check.max_residual < 1e-10

    def test_nondegenerate(self):
        check = nondegeneracy_check(build_cone(heisenberg(2)), samples=64, seed=SEED)
        assert check.passed
        assert check.detail["min_determinant_ratio"] > 1e-10

    def test_degenerate_base_propagates(self):
        chart = Chart("flat3", ("x", "y", "z"))
        degenerate = ContactSystem(chart, one_form(chart, {"z": 1.0}), verify=False)
        with pytest.raises(ContactConditionError, match="not symplectic"):
            build_cone(degenerate)

    def test_radial_name_clash(self):
        chart = Chart("clash", ("x", "r", "z"))
        system = ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-r"}), verify=False)
        with pytest.raises(ValueError, match="already uses coordinate"):
            build_cone(system)

    def test_bad_radial_bounds(self):
        with pytest.raises(ValueError, match="radial bounds"):
            build_cone(darboux3(), radial_bounds=(0.0, 10.0))

    def test_infinite_radial_bound_is_rejected(self):
        with pytest.raises(ValueError, match="radial bounds must be finite"):
            build_cone(darboux3(), radial_bounds=(0.1, float("inf")))


class TestClosureRoundingFloor:
    """``cone_closure`` on ``cosphere_torus(2)``, where the partials summed by
    ``d(omega)`` reach 1e8 near ``p1^2 + p2^2 = 1`` and cancel exactly."""

    @staticmethod
    def cone():
        return build_cone(build_model("cosphere_torus(2)").system, verify=False)

    @pytest.mark.parametrize(
        "seed, samples",
        [(20110615, 4096), (1, 4096), (2, 4096), (303, 4096), (205, 128)],
    )
    def test_rounding_does_not_fail(self, seed, samples):
        # each of these failed on rounding alone against the absolute 1e-10
        check = closure_check(self.cone(), samples=samples, seed=seed)
        assert check.passed
        assert check.tolerance == 1e-10
        assert 0.0 < check.detail["max_rounding_floor"] < 1e-6

    def test_defect_fails_at_every_point(self):
        # d(1e-6 r dx0^dp1) = 1e-6 dx0^dp1^dr; a function of r alone added to
        # an (., r) coefficient would leave the form closed
        cone = self.cone()
        slot = (cone.cone_chart.index("x0"), cone.cone_chart.index("p1"))
        defect = DifferentialForm(cone.cone_chart, 2, {slot: 1e-6 * cone.radial_coordinate()})
        broken = replace(cone, omega=cone.omega + defect)
        pts = cone.cone_chart.sample(4096, SEED)
        excess, _ = _ConeGeometry(broken, pts).closure
        assert np.all(excess > TOLERANCES["cone_closure"])
        assert not closure_check(broken, samples=4096, seed=SEED).passed


def darboux_scaled(c: float) -> ContactSystem:
    chart = Chart("darboux3", ("x", "y", "z"))
    return ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y"}).scaled(c))


def cosphere2_scaled(c: float) -> ContactSystem:
    base = cosphere2()
    return ContactSystem(base.chart, base.eta.scaled(c))


def degenerate_scaled(c: float) -> ContactSystem:
    chart = Chart("flat3", ("x", "y", "z"))
    return ContactSystem(chart, one_form(chart, {"z": c}), verify=False)


class TestScaleFreeVerdicts:
    """Both determinant-ratio verdicts are invariant under eta -> c eta."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e))
    @example(1e-150)
    @example(1e150)
    def test_invariant_under_scaling(self, c):
        for model in (darboux_scaled, cosphere2_scaled, degenerate_scaled):
            plain, scaled = model(1.0), model(c)
            for check in (
                lambda s: is_contact_form(s, samples=32, seed=SEED),
                lambda s: nondegeneracy_check(build_cone(s, verify=False), samples=32, seed=SEED),
            ):
                ref, got = check(plain), check(scaled)
                assert got.passed == ref.passed
                assert got.detail["min_determinant_ratio"] == pytest.approx(
                    ref.detail["min_determinant_ratio"], rel=1e-9
                )

    def test_large_form_constructs(self):
        chart = Chart("darboux3", ("x", "y", "z"))
        ContactSystem(chart, one_form(chart, {"z": 1e10, "x": "-1e10*y"}))

    def test_cone_over_tiny_form_is_nondegenerate(self):
        cone = build_cone(darboux_scaled(1e-100))
        check = nondegeneracy_check(cone, samples=128, seed=SEED)
        assert check.passed
        assert check.detail["min_determinant_ratio"] > 1e-3


# -- homogeneity and scale covariance --------------------------------------


class TestLiouvilleScaling:
    def test_liouville_doubles_cone_form(self):
        for system in (darboux3(), heisenberg(1), cosphere2()):
            check = homogeneity_check(build_cone(system), samples=64, seed=SEED)
            assert check.passed
            assert check.max_residual < 1e-8

    def test_zero_form_has_no_homogeneity_defect(self):
        # omega = d(r^2 * 0) has no coefficients to take a maximum over
        chart = Chart("flat3", ("x", "y", "z"))
        cone = build_cone(ContactSystem(chart, one_form(chart, {}), verify=False), verify=False)
        check = homogeneity_check(cone, samples=8, seed=SEED)
        assert check.passed and check.max_residual == 0.0

    @pytest.mark.parametrize("factor", [2.0, 5.0])
    def test_scale_covariance(self, factor):
        for system in (darboux3(), heisenberg(1)):
            check = scale_covariance_check(build_cone(system), factor, samples=64, seed=SEED)
            assert check.passed
            assert check.max_residual < 1e-9
            assert check.detail["factor"] == factor

    def test_scale_factor_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            scale_covariance_check(build_cone(darboux3()), -2.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_scale_factor_must_be_finite(self, factor):
        with pytest.raises(ValueError, match="positive and finite"):
            scale_covariance_check(build_cone(darboux3()), factor)


# -- symbolic Reeb derivative ----------------------------------------------


class TestReebRate:
    def test_vertical_coordinate_has_unit_rate(self):
        system = darboux3()
        assert reeb_rate(system, system.chart.parse("z")).constant_value() == 1.0

    def test_reeb_invariant_hamiltonians_have_zero_rate(self):
        system = darboux3()
        assert reeb_rate(system, system.chart.parse("-y")).constant_value() == 0.0
        h1 = heisenberg(1).chart.parse("(x1^2 + y1^2) / 2")
        assert reeb_rate(heisenberg(1), h1).constant_value() == 0.0

    def test_needs_closed_form_reeb(self):
        chart = Chart("bare3", ("x", "y", "z"))
        system = ContactSystem(chart, one_form(chart, {"z": 1.0, "x": "-y"}))
        with pytest.raises(ValueError, match="closed-form reeb"):
            reeb_rate(system, chart.parse("z"))

    def test_rejects_foreign_coordinates(self):
        with pytest.raises(ValueError, match="coordinates"):
            reeb_rate(darboux3(), parse("z", ("a", "b", "z")))


# -- lifting ---------------------------------------------------------------


class TestLift:
    def test_translation_lifts_unchanged(self):
        system = darboux3()
        cone = build_cone(system)
        lifted = lift(cone, *translation_field(system))
        pts = cone.cone_chart.sample(32, SEED)
        expected = np.zeros((32, 4))
        expected[:, 0] = 1.0
        np.testing.assert_allclose(lifted.evaluate(pts), expected, rtol=0, atol=1e-12)

    def test_dilation_gains_radial_correction(self):
        system = darboux3()
        cone = build_cone(system)
        lifted = lift(cone, *dilation_field(system))
        pts = cone.cone_chart.sample(32, SEED)
        expected = np.zeros((32, 4))
        expected[:, 1] = pts[:, 1]
        expected[:, 2] = pts[:, 2]
        expected[:, 3] = -pts[:, 3] / 2
        np.testing.assert_allclose(lifted.evaluate(pts), expected, rtol=0, atol=1e-12)

    def test_reeb_lifts_to_itself(self):
        system = heisenberg(1)
        cone = build_cone(system)
        lifted = lift(cone, system.reeb, system.chart.parse("1"))
        pts = cone.cone_chart.sample(32, SEED)
        expected = np.zeros((32, 4))
        expected[:, 2] = 1.0
        np.testing.assert_allclose(lifted.evaluate(pts), expected, rtol=0, atol=1e-12)

    def test_lift_checks_pass(self):
        system = darboux3()
        cone = build_cone(system)
        lifted = lift(cone, *dilation_field(system))
        invariance, commutation = lift_checks(cone, lifted, samples=64, seed=SEED)
        assert invariance.name == "lift_invariance"
        assert commutation.name == "lift_liouville_commutation"
        assert invariance.passed and invariance.max_residual < 1e-8
        assert commutation.passed and commutation.max_residual < 1e-8

    def test_non_contact_field_is_rejected(self):
        system = darboux3()
        cone = build_cone(system)
        bad = basis_field(system.chart, "y")
        with pytest.raises(ContactTransformationError, match="not an infinitesimal"):
            lift(cone, bad, system.chart.parse("0"))


# -- induced cone Hamiltonians ---------------------------------------------


class TestConeHamiltonian:
    def expected_cases(self, system):
        r = "r^2"
        return [
            (translation_field(system), f"-({r}) * y"),
            (dilation_field(system), f"({r}) * z"),
            ((system.reeb, system.chart.parse("1")), r),
        ]

    def test_hand_computed_values(self):
        system = darboux3()
        cone = build_cone(system)
        pts = cone.cone_chart.sample(64, SEED)
        for (field, h), expected_source in self.expected_cases(system):
            lifted = lift(cone, field, h, samples=64, seed=SEED, verify=False)
            induced, check = cone_hamiltonian(cone, lifted, h, samples=64, seed=SEED)
            expected = parse(expected_source, cone.cone_chart.coords)
            np.testing.assert_allclose(
                induced.values(pts), expected.values(pts), rtol=0, atol=1e-12
            )
            assert check.name == "cone_contraction"
            assert check.passed
            assert check.max_residual < 1e-8

    def test_heisenberg_integral(self):
        system = heisenberg(1)
        cone = build_cone(system)
        h1 = system.chart.parse("(x1^2 + y1^2) / 2")
        field = vector_field(
            system.chart, {"x1": "-y1", "y1": "x1", "z": "(x1^2 - y1^2) / 2"}
        )
        lifted = lift(cone, field, h1, samples=64, seed=SEED, verify=False)
        induced, check = cone_hamiltonian(cone, lifted, h1, samples=64, seed=SEED)
        pts = cone.cone_chart.sample(64, SEED)
        expected = parse("r^2 * (x1^2 + y1^2) / 2", cone.cone_chart.coords)
        np.testing.assert_allclose(induced.values(pts), expected.values(pts), rtol=0, atol=1e-12)
        assert check.passed


# -- commuting families ----------------------------------------------------


class TestCommutingLifts:
    """``commuting_lifts`` checks the brackets and records the number of
    fields; the family's rank is taken on the base chart, where
    ``classification_verdicts`` reads it."""

    def test_darboux_pair(self):
        system = darboux3()
        cone = build_cone(system)
        pairs = [translation_field(system), dilation_field(system)]
        lifted = [lift(cone, X, h, samples=128, seed=SEED, verify=False) for X, h in pairs]
        check = commuting_lift_check(cone, lifted, samples=128, seed=SEED)
        assert check.passed
        assert check.max_residual < 1e-8
        assert check.detail == {"fields": 2}
        rank, fraction = independence_rank(system, [h for _, h in pairs], 128, SEED)
        assert rank == 2 and fraction > 0.99

    def test_heisenberg_integrable_family(self):
        system = heisenberg(1)
        cone = build_cone(system)
        h1 = system.chart.parse("(x1^2 + y1^2) / 2")
        field = vector_field(
            system.chart, {"x1": "-y1", "y1": "x1", "z": "(x1^2 - y1^2) / 2"}
        )
        pairs = [(system.reeb, system.chart.parse("1")), (field, h1)]
        lifted = [lift(cone, X, h, samples=128, seed=SEED, verify=False) for X, h in pairs]
        check = commuting_lift_check(cone, lifted, samples=128, seed=SEED)
        assert check.passed
        assert check.detail == {"fields": 2}
        assert independence_rank(system, [h for _, h in pairs], 128, SEED)[0] == 2 == system.n + 1

    def test_single_field_is_trivially_commuting(self):
        system = darboux3()
        cone = build_cone(system)
        lifted = lift(cone, *translation_field(system), samples=32, seed=SEED, verify=False)
        check = commuting_lift_check(cone, [lifted], samples=32, seed=SEED)
        assert check.passed
        assert check.max_residual == 0.0
        assert check.detail == {"fields": 1}
        assert independence_rank(system, [translation_field(system)[1]], 32, SEED)[0] == 1

    def test_computes_no_rank(self, monkeypatch):
        model = build_model("sphere_weighted(3,2,4,3,3)")
        cone = build_cone(model.system, verify=False)
        lifted = [lift(cone, X, h, 32, SEED, verify=False) for X, h in model.commuting_pairs]

        def no_svd(*args, **kwargs):
            raise AssertionError("commuting_lift_check computed an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert commuting_lift_check(cone, lifted, 32, SEED).detail == {"fields": len(lifted)}

    def test_needs_at_least_one_pair(self):
        with pytest.raises(ValueError, match="at least one"):
            commuting_lift_check(build_cone(darboux3()), [])


class TestFieldsOnTheConeChart:
    """Each check that takes lifted fields refuses a field on another chart
    with an error naming both charts."""

    MATCH = r"'darboux\(1\)'.*'cone\(darboux\(1\)\)'"

    @staticmethod
    def base_pair():
        model = build_model("darboux(1)")
        return build_cone(model.system, verify=False), model.hamiltonian_pairs[0]

    def test_lift_checks(self):
        cone, (field, _) = self.base_pair()
        with pytest.raises(ChartMismatchError, match=self.MATCH):
            lift_checks(cone, field, 16)

    def test_cone_hamiltonian(self):
        cone, (field, h) = self.base_pair()
        with pytest.raises(ChartMismatchError, match=self.MATCH):
            cone_hamiltonian(cone, field, h, 16)

    def test_commuting_lift_check(self):
        cone, (field, _) = self.base_pair()
        with pytest.raises(ChartMismatchError, match=self.MATCH):
            commuting_lift_check(cone, [field, field], 16)


# -- one cone and one lift per pair in a battery ---------------------------


class TestKeptConeAndLifts:
    """A battery builds one cone and one lift per (field, Hamiltonian) pair
    and passes them to the checks; the system and the cone keep only the
    geometry of their latest check, no lift."""

    @pytest.fixture
    def preconditions(self, monkeypatch):
        """Counts precondition checks: only the precondition needs the
        symbolic Reeb rate."""
        calls = []
        rate = cone_module.reeb_rate

        def counting(system, hamiltonian):
            calls.append(str(hamiltonian))
            return rate(system, hamiltonian)

        monkeypatch.setattr(cone_module, "reeb_rate", counting)
        return calls

    def test_battery_checks_each_precondition_once(self, preconditions):
        model = build_model("heisenberg(2)")
        entries = model_battery(model, RunConfig(samples=16))
        assert all(result.passed for _, result in entries)
        assert len(model.hamiltonian_pairs) == 3
        assert preconditions == [str(h) for _, h in model.hamiltonian_pairs]

    def test_every_lift_checks_its_precondition_at_the_battery_samples(self, monkeypatch):
        # example_3_10's closed-form cone lifts are checked against the
        # battery's own lifts: each pair is lifted once, and its precondition
        # is checked at the battery's samples and seed, not the defaults
        import inspect

        received = []
        signature = inspect.signature(lift)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            received.append((bound.arguments["samples"], bound.arguments["seed"]))
            return lift(*args, **kwargs)

        monkeypatch.setattr(cone_module, "lift", recording)
        model = build_model("example_3_10")
        entries = model_battery(model, RunConfig(samples=128, seed=SEED))
        assert all(result.passed for _, result in entries)
        assert received == [(128, SEED)] * len(model.hamiltonian_pairs)

    def test_example_battery_builds_its_cone_once(self, monkeypatch):
        # its own cone and the rescaled one of scale_covariance; the closed
        # forms are checked on the battery's cone, not on cones of their own
        calls = []
        for name in ("build_cone", "closure_check", "nondegeneracy_check"):

            def counted(*args, _original=getattr(cone_module, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cone_module, name, counted)
        entries = model_battery(build_model("example_3_10"), RunConfig(samples=128, seed=SEED))
        assert {"cone_lifts", "cone_hamiltonians"} <= {label for label, _ in entries}
        assert sorted(calls) == ["build_cone", "build_cone", "closure_check", "nondegeneracy_check"]

    def test_foreign_commuting_pair_is_rejected(self):
        model = build_model("heisenberg(1)")
        foreign = (model.system.reeb, model.system.chart.parse("1"))
        with pytest.raises(ValueError, match="not one of its hamiltonian_pairs"):
            replace(model, commuting_pairs=(*model.commuting_pairs, foreign))

    def test_dropped_system_and_cone_free_their_points_without_gc(self):
        import gc
        import weakref

        chart = Chart("darboux3", ("x", "y", "z"))
        eta = one_form(chart, {"z": 1.0, "x": "-y"})
        system = ContactSystem(chart, eta, reeb=basis_field(chart, "z"))
        gc.disable()
        try:
            cone = build_cone(system, verify=False)
            lifted = lift(cone, *dilation_field(system), samples=16, seed=SEED, verify=False)
            lift_checks(cone, lifted, samples=16, seed=SEED)
            kept = [weakref.ref(c.sample(16, SEED)) for c in (chart, cone.cone_chart)]
            kept.append(weakref.ref(cone._geometry))
            del system, cone, chart, eta, lifted
            assert [ref() is None for ref in kept] == [True, True, True]
        finally:
            gc.enable()

    def test_cone_checks_run_before_the_system_keeps_its_geometry(self, monkeypatch):
        # the cone's arrays and the facts' base geometry are never held at once
        model = build_model("sphere_weighted(3,2,4,3,3)")
        seen = []
        for name in (
            "closure_check",
            "nondegeneracy_check",
            "homogeneity_check",
            "scale_covariance_check",
            "lift_checks",
            "cone_hamiltonian",
            "commuting_lift_check",
        ):

            def watched(*args, _check=getattr(cone_module, name), _name=name, **kwargs):
                seen.append((_name, model.system._geometry is None))
                return _check(*args, **kwargs)

            monkeypatch.setattr(cone_module, name, watched)
        entries = model_battery(model, RunConfig(samples=128, seed=SEED))
        assert all(result.passed for _, result in entries)
        assert len(seen) == 4 + 2 * len(model.hamiltonian_pairs) + bool(model.commuting_pairs)
        assert all(free for _, free in seen), seen
        assert model.system._geometry is not None  # the facts keep theirs

    def test_battery_builds_one_cone_geometry_at_its_points(self, monkeypatch):
        built = []

        class Counting(_ConeGeometry):
            def __init__(self, cone, pts):
                built.append((cone.cone_chart.name, pts))
                super().__init__(cone, pts)

        monkeypatch.setattr(cone_module, "_ConeGeometry", Counting)
        model = build_model("heisenberg(2)")
        entries = model_battery(model, RunConfig(samples=128, seed=SEED))
        assert all(result.passed for _, result in entries)
        [(name, pts)] = built
        cone_chart = build_cone(model.system, verify=False).cone_chart
        assert name == cone_chart.name
        np.testing.assert_array_equal(pts, cone_chart.sample(128, SEED))

    def test_verify_runs_on_every_call(self, monkeypatch):
        system = darboux3()
        build_cone(system, verify=False)
        checks = []
        closure = cone_module.closure_check

        def counting(cone, **kwargs):
            checks.append(kwargs["samples"])
            return closure(cone, **kwargs)

        monkeypatch.setattr(cone_module, "closure_check", counting)
        build_cone(system, verify=False)
        build_cone(system)
        build_cone(system, samples=16)
        assert checks == [32, 16]

    def test_degenerate_base_raises_on_every_verified_call(self):
        chart = Chart("flat3", ("x", "y", "z"))
        degenerate = ContactSystem(chart, one_form(chart, {"z": 1.0}), verify=False)
        build_cone(degenerate, verify=False)
        for _ in range(2):
            with pytest.raises(ContactConditionError, match="not symplectic"):
                build_cone(degenerate)

    def test_scale_covariance_reuses_the_plain_cone(self, monkeypatch):
        system = darboux3()
        cone = build_cone(system, radial_bounds=(0.5, 2.0), verify=False)
        built = []
        build = cone_module.build_cone

        def counting(base, **kwargs):
            built.append((base, kwargs["radial_bounds"]))
            return build(base, **kwargs)

        monkeypatch.setattr(cone_module, "build_cone", counting)
        check = scale_covariance_check(cone, 2.0, samples=32, seed=SEED)
        assert check.passed
        [(rescaled, bounds)] = built  # only the cone over (M, 2 eta) is built
        assert rescaled is not system and bounds == (0.5, 2.0)

    def test_failed_precondition_is_not_kept(self, preconditions):
        system = darboux3()
        cone = build_cone(system, verify=False)
        bad = basis_field(system.chart, "y")
        for _ in range(2):
            with pytest.raises(ContactTransformationError, match="not an infinitesimal"):
                lift(cone, bad, system.chart.parse("0"))
        assert len(preconditions) == 2


# -- derived vertical families ---------------------------------------------


class TestVerticalHamiltonians:
    """Hamiltonians f(z) on the three-dimensional chart.

    Solving the defining equations by hand for eta = dz - y dx gives
    X = f'(z) y d/dy + f(z) d/dz with rate a = f'(z); these exercise lifts
    with a genuinely nonconstant radial correction.
    """

    def vertical_pair(self, system, f):
        y = coord("y", system.chart.coords)
        fp = f.derivative("z")
        X = vector_field(system.chart, {"y": y * fp, "z": f})
        return X, f

    def test_random_vertical_hamiltonians(self):
        system = darboux3()
        cone = build_cone(system)
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            f = random_polynomial(("z",), 3, rng).rebind(system.chart.coords)
            X, h = self.vertical_pair(system, f)
            lifted = lift(cone, X, h, samples=64, seed=SEED)
            invariance, commutation = lift_checks(cone, lifted, samples=64, seed=SEED)
            assert invariance.passed and commutation.passed
            _, contraction = cone_hamiltonian(cone, lifted, h, samples=64, seed=SEED)
            assert contraction.passed

    def test_rate_matches_derivative(self):
        system = darboux3()
        f = system.chart.parse("z^3 / 3")
        rate = reeb_rate(system, f)
        pts = system.chart.sample(32, SEED)
        np.testing.assert_allclose(rate.values(pts), pts[:, 2] ** 2, rtol=0, atol=1e-12)


# -- tolerance registry ----------------------------------------------------


class TestToleranceRegistry:
    def test_cone_tolerances_registered(self):
        expected = {
            "cone_closure": 1e-10,
            "cone_nondegeneracy": 1e-10,
            "cone_homogeneity": 1e-8,
            "lift_precondition": 1e-8,
            "lift_invariance": 1e-8,
            "lift_commuting": 1e-8,
            "cone_contraction": 1e-8,
            "scale_covariance": 1e-9,
        }
        for name, value in expected.items():
            assert TOLERANCES[name] == value


# -- expression size -------------------------------------------------------


def _distinct_structures(roots) -> int:
    """Distinct structures under ``roots``, from the node fields alone: each
    node is named by its class, its own fields and the names of its
    operands, so equal structures get one name whatever their identity."""
    names: dict = {}
    named: dict[int, int] = {}

    def name_of(node) -> int:
        hit = named.get(id(node))
        if hit is None:
            fields = tuple(
                np.float64(node.v).tobytes() if field == "v" else getattr(node, field)
                for field in ("v", "i", "name", "k", "fn")
                if hasattr(node, field)
            )
            operands = tuple(name_of(c) for c in (node.a, node.b) if c is not None)
            key = (type(node).__name__, fields, operands)
            hit = named[id(node)] = names.setdefault(key, len(names))
        return hit

    for root in roots:
        name_of(root)
    return len(names)


def test_lifted_lie_derivative_swell_counts():
    """``L_X omega`` of the lifted Reeb field of sphere_weighted(3,2,4,3,3):
    written out as trees its 28 coefficients have 459,895 nodes; the shared
    evaluation tape visits its 3,441 distinct nodes once each."""
    from contactkit.charts import lie_derivative
    from contactkit.expressions import _compile
    from contactkit.models import build_model

    model = build_model("sphere_weighted(3,2,4,3,3)")
    cone = build_cone(model.system, verify=False)
    field, hamiltonian = model.hamiltonian_pairs[0]
    form = lie_derivative(lift(cone, field, hamiltonian, verify=False), cone.omega)
    exprs = [form.coefficients[key] for key in sorted(form.coefficients)]
    assert len(exprs) == 28
    assert sum(e.node_counts()[0] for e in exprs) == 459_895
    roots = [e._root for e in exprs]
    tape = _compile(roots)[0]  # the nodes the tapes compute, in order
    assert len(tape) == len(set(map(id, tape))) == 3_441
    assert _distinct_structures(roots) == 3_441
    assert all(1 < e.node_counts()[1] <= 3_441 for e in exprs)


def test_pointwise_tape_counts(monkeypatch):
    """sphere_weighted(3,2,4,3,3): the cone geometry's one tape has omega's
    28 coefficients and the 175 of their 224 non-zero partials that
    ``d(omega)`` and the homogeneity defect read as roots, on 1,654
    distinct nodes; the lifted Reeb field's tape has its 8 components and
    13 non-zero partials, on 85 distinct nodes, and ``L_X omega`` evaluates
    all 224 partials of omega again, on 2,094 distinct nodes."""
    model = build_model("sphere_weighted(3,2,4,3,3)")
    cone = build_cone(model.system, verify=False)
    lifted = lift(cone, *model.hamiltonian_pairs[0], samples=128, seed=SEED, verify=False)
    cone.cone_chart.sample(128, SEED)  # the sampler's own tape comes first
    compiled = []
    compile_ = expressions._compile

    def recording(roots):
        tape = compile_(roots)
        compiled.append((len(roots), len(tape[0])))
        return tape

    monkeypatch.setattr(expressions, "_compile", recording)
    closure_check(cone, samples=128, seed=SEED)
    assert compiled == [(203, 1_654)]
    lift_checks(cone, lifted, samples=128, seed=SEED)
    assert compiled == [(203, 1_654), (21, 85), (224, 2_094)]


def test_cone_hamiltonian_tape_takes_no_field_partials(monkeypatch):
    """sphere_weighted(3,2,4,3,3): the contraction reads the lifted Reeb
    field's values and the gradient of ``r^2 h = r^2``, so its one tape has
    the field's 8 components, ``r^2`` and its one non-zero partial as roots,
    and none of the field's 13 partials."""
    model = build_model("sphere_weighted(3,2,4,3,3)")
    cone = build_cone(model.system, verify=False)
    vector, hamiltonian = model.hamiltonian_pairs[0]
    lifted = lift(cone, vector, hamiltonian, samples=128, seed=SEED, verify=False)
    closure_check(cone, samples=128, seed=SEED)  # keeps the cone geometry
    roots = []
    compile_ = expressions._compile

    def recording(exprs):
        roots.append(len(exprs))
        return compile_(exprs)

    monkeypatch.setattr(expressions, "_compile", recording)
    _, result = cone_hamiltonian(cone, lifted, hamiltonian, samples=128, seed=SEED)
    assert result.passed
    assert roots[-1] == 10


# -- pointwise contracts against the symbolic calculus ---------------------

#: The pointwise formulas and the symbolic forms sum the same products in
#: other orders, so they may differ by rounding: per point, at most this
#: many unit roundoffs, times the dimension ``D``, of the largest products
#: they sum (``|X| |d omega| + |omega| |J|`` for ``L_X omega``).  Over the
#: default models the largest deviation seen was 5.1 of the 32 allowed at
#: D = 8.
ORACLE_ROUNDOFFS_PER_DIM = 4
_U = np.finfo(float).eps / 2


def _random_field(chart: Chart, rng) -> VectorField:
    return VectorField(
        chart, tuple(random_polynomial(chart.coords, 2, rng, n_terms=4) for _ in chart.coords)
    )


def _largest(a: np.ndarray) -> np.ndarray:
    """Per point (the first axis), the largest |entry|."""
    return np.abs(a).reshape(len(a), -1).max(axis=1)


def _within_rounding(got, want, scale, dim):
    deviation = _largest(got - want)
    assert np.all(deviation <= ORACLE_ROUNDOFFS_PER_DIM * dim * _U * scale)


def _upper(form, pts):
    """The coefficients of a 2-form at every slot above the diagonal, (n,
    D(D-1)/2) in row-major order, zeros where it has none."""
    dim = form.chart.dim
    values = form.coefficient_arrays(pts)
    return np.stack(
        [values.get((i, j), np.zeros(len(pts))) for i in range(dim) for j in range(i + 1, dim)],
        axis=1,
    )


def _largest_partial(form, pts):
    """Per point, the largest |first partial| of a coefficient of ``form``,
    from the coefficients' own jets."""
    return _largest(np.stack([e.jets(pts)[1] for e in form.coefficients.values()], axis=1))


def _within_rounding_entrywise(got, want, scale, dim):
    """Every entry of ``got`` (point first) within rounding of ``want``."""
    deviation = np.abs(got - want).reshape(len(got), -1)
    assert np.all(deviation <= ORACLE_ROUNDOFFS_PER_DIM * dim * _U * scale[:, None])


@pytest.mark.parametrize("key", default_model_keys())
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pointwise_contracts_match_the_symbolic_calculus(key, seed):
    """On seeded random polynomial fields, not lifts (a lift's residuals are
    ~0 and would hide a wrong formula), the pointwise ``L_X omega``,
    ``[X, Psi]``, ``X -| omega``, ``[X, Y]`` and ``L_Psi omega - 2 omega``
    equal the symbolic forms at the same points to within rounding."""
    cone = build_cone(build_model(key).system, verify=False)
    chart, omega = cone.cone_chart, cone.omega
    dim = chart.dim
    pts = chart.sample(16, SEED)
    rng = np.random.default_rng(seed)
    Xf, Yf = _random_field(chart, rng), _random_field(chart, rng)
    geometry = _ConeGeometry(cone, pts)
    X, J = _field_arrays(cone, Xf, pts)
    Y, JY = _field_arrays(cone, Yf, pts)
    r = pts[:, -1]
    dW = _largest_partial(omega, pts)
    W = _largest(geometry.W)
    lie_values = geometry.lie(X, J)
    assert lie_values.shape == (len(pts), dim * (dim - 1) // 2)
    _within_rounding_entrywise(
        lie_values,
        _upper(lie_derivative(Xf, omega), pts),
        _largest(X) * dW + W * _largest(J),
        dim,
    )
    _within_rounding(
        _liouville_bracket(X, J, r),
        lie_bracket(Xf, cone.liouville).evaluate(pts),
        _largest(X) + r * _largest(J),
        dim,
    )
    _within_rounding(
        geometry.contraction(X), interior_product(Xf, omega).covector(pts), _largest(X) * W, dim
    )
    _within_rounding(
        _bracket(X, J, Y, JY),
        lie_bracket(Xf, Yf).evaluate(pts),
        _largest(X) * _largest(JY) + _largest(Y) * _largest(J),
        dim,
    )
    defect = (lie_derivative(cone.liouville, omega) - omega.scaled(2.0)).coefficient_arrays(pts)
    assert set(defect) <= set(geometry.slots)
    zero = np.zeros(len(pts))
    _within_rounding_entrywise(
        geometry.homogeneity.T,
        np.stack([defect.get(slot, zero) for slot in geometry.slots], axis=1),
        r * dW + W,
        dim,
    )


# -- the streamed cone geometry against dense partials ---------------------


def _dense_partials(omega, pts):
    """``dW[k, l, n]``: the partial along coordinate ``l`` of omega's
    coefficient at its ``k``-th slot, zeros where it is structurally zero."""
    n, dim = pts.shape
    dW = np.zeros((len(omega.coefficients), dim, n))
    for k, expr in enumerate(omega.coefficients.values()):
        for name in expr.free_coords:
            dW[k, expr.coords.index(name)] = expr.derivative(name).values(pts)
    return dW


@pytest.mark.parametrize("key", default_model_keys())
def test_streamed_geometry_equals_dense_partials_bit_for_bit(key):
    """The closure, the homogeneity defect and ``L_X omega`` that the cone
    geometry streams from its tapes have the bits of the same sums over a
    dense array of every partial: ``d(omega)``'s coefficients summed in
    ``_exterior_terms`` order, and ``X^l d_l omega`` in the order of ``l``."""
    from contactkit.charts import _exterior_terms

    cone = build_cone(build_model(key).system, verify=False)
    pts = cone.cone_chart.sample(64, SEED)
    geometry = _ConeGeometry(cone, pts)
    slots = list(cone.omega.coefficients)
    dW = _dense_partials(cone.omega, pts)
    by_slot = {}
    for slot, sign, coefficient, i in _exterior_terms(cone.omega):
        by_slot.setdefault(slot, []).append(sign * dW[slots.index(coefficient), i])
    excess, floor = np.zeros(len(pts)), np.zeros(len(pts))
    for parts in by_slot.values():
        parts = np.stack(parts)
        slot_floor = cone_module.CLOSURE_ROUNDING_FACTOR * cone_module._UNIT_ROUNDOFF * np.sum(
            np.abs(parts), axis=0
        )
        excess = np.maximum(excess, np.abs(np.sum(parts, axis=0)) - slot_floor)
        floor = np.maximum(floor, slot_floor)
    assert geometry.closure[0].tobytes() == excess.tobytes()
    assert geometry.closure[1].tobytes() == floor.tobytes()
    W = cone.omega.matrix(pts)
    assert geometry.W.tobytes() == W.tobytes()
    radial = pts.shape[1] - 1
    defect = pts[:, radial] * dW[:, radial, :]
    for k, (i, j) in enumerate(slots):
        defect[k] -= (1.0 if j == radial else 2.0) * W[:, i, j]
    assert geometry.homogeneity.tobytes() == defect.tobytes()
    field = _random_field(cone.cone_chart, np.random.default_rng([SEED, 7]))
    X, J = _field_arrays(cone, field, pts)
    A = W @ J
    L = A - np.swapaxes(A, 1, 2)
    along = np.einsum("kln,nl->kn", dW, X)
    for k, (i, j) in enumerate(slots):
        L[:, i, j] += along[k]
    upper_i, upper_j = np.triu_indices(pts.shape[1], 1)
    assert geometry.lie(X, J).tobytes() == L[:, upper_i, upper_j].copy().tobytes()


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("key", ["cosphere_torus(2)", "sphere_weighted(3,2,4,3,3)"])
def test_cone_geometry_keeps_no_partials(key):
    """Every array a cone geometry keeps has at most ``n D^2`` entries: it
    keeps no ``dW (K, D, n)``."""
    cone = build_cone(build_model(key).system, verify=False)
    pts = cone.cone_chart.sample(64, SEED)
    closure_check(cone, samples=64, seed=SEED)
    geometry = cone._geometry
    n, dim = pts.shape
    kept = [a for value in vars(geometry).values() for a in _arrays(value)]
    assert kept and all(a.size <= n * dim * dim for a in kept)


# -- the lift's pointwise precondition --------------------------------------


@pytest.mark.parametrize("key", default_model_keys())
def test_pointwise_precondition_matches_the_symbolic_form(key):
    """On a random polynomial field and rate, which satisfy no identity,
    ``max_j |(L_X eta)_j - a eta_j|`` from one order-1 tape equals the max
    coefficient of the symbolic ``L_X eta - a eta`` to within rounding."""
    system = build_model(key).system
    chart, eta = system.chart, system.eta
    rng = np.random.default_rng([SEED, 11])
    field = _random_field(chart, rng)
    rate = random_polynomial(chart.coords, 2, rng, n_terms=4)
    pts = chart.sample(64, SEED)
    got = cone_module._precondition_residuals(system, field, rate, pts)
    want = (lie_derivative(field, eta) - eta.scaled(rate)).max_abs(pts)
    E = eta.covector(pts)
    dE = _largest(np.stack([e.jets(pts)[1] for e in eta.coefficients.values()], axis=1))
    X, J = field.evaluate(pts), field.jacobian(pts)
    scale = _largest(X) * dE + _largest(E) * (_largest(J) + np.abs(rate.values(pts)))
    assert np.all(np.abs(got - want) <= ORACLE_ROUNDOFFS_PER_DIM * chart.dim * _U * scale)
    assert np.all(want > 0.0)


@pytest.mark.parametrize("key", default_model_keys())
def test_non_contact_field_raises_on_every_model(key):
    """A Hamiltonian field plus a random polynomial field is no contact
    transformation on any default model."""
    model = build_model(key)
    cone = build_cone(model.system, verify=False)
    field, hamiltonian = model.hamiltonian_pairs[0]
    bad = field + _random_field(model.system.chart, np.random.default_rng([SEED, 13]))
    tol = TOLERANCES["lift_precondition"]
    with pytest.raises(ContactTransformationError, match=rf"max \|L_X eta - a eta\| = .* > {tol:g} at"):
        lift(cone, bad, hamiltonian)
    lift(cone, field, hamiltonian)  # the field itself lifts
