"""Symplectization checks: cone form, Liouville scaling, lifts, induced Hamiltonians."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactkit import cone as cone_module
from contactkit import expressions
from contactkit.cli import RunConfig, model_battery
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
from contactkit.contact import TOLERANCES, ContactConditionError, ContactSystem, is_contact_form
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
        excess, _ = _ConeGeometry(broken, pts).closure()
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
    def test_darboux_pair(self):
        system = darboux3()
        cone = build_cone(system)
        pairs = [translation_field(system), dilation_field(system)]
        lifted = [lift(cone, X, h, samples=128, seed=SEED, verify=False) for X, h in pairs]
        check = commuting_lift_check(cone, lifted, samples=128, seed=SEED)
        assert check.passed
        assert check.max_residual < 1e-8
        assert check.detail["lifted_rank"] == 2
        assert check.detail["expected_rank"] == 2
        assert check.detail["rank_fraction"] > 0.99

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
        assert check.detail["lifted_rank"] == 2 == check.detail["expected_rank"]

    def test_single_field_is_trivially_commuting(self):
        system = darboux3()
        cone = build_cone(system)
        lifted = lift(cone, *translation_field(system), samples=32, seed=SEED, verify=False)
        check = commuting_lift_check(cone, [lifted], samples=32, seed=SEED)
        assert check.passed
        assert check.max_residual == 0.0
        assert check.detail["lifted_rank"] == 1

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
        # example_3_10's own cone facts lift too; each lift must check the
        # precondition at the battery's samples and seed, not its defaults
        import inspect

        from contactkit import cli as cli_module

        received = []
        signature = inspect.signature(lift)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            received.append((bound.arguments["samples"], bound.arguments["seed"]))
            return lift(*args, **kwargs)

        monkeypatch.setattr(cone_module, "lift", recording)
        monkeypatch.setattr(cli_module, "lift", recording)
        model = build_model("example_3_10")
        entries = model_battery(model, RunConfig(samples=128, seed=SEED))
        assert all(result.passed for _, result in entries)
        assert len(received) > 2 * len(model.hamiltonian_pairs)
        assert set(received) == {(128, SEED)}

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
        from contactkit import cli as cli_module

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

            def watched(*args, _check=getattr(cli_module, name), _name=name, **kwargs):
                seen.append((_name, model.system._geometry is None))
                return _check(*args, **kwargs)

            monkeypatch.setattr(cli_module, name, watched)
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
    28 coefficients and their 224 non-zero partials as roots, on 2,192
    distinct nodes; the lifted Reeb field's tape has its 8 components and
    13 non-zero partials, on 85 distinct nodes."""
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
    assert compiled == [(252, 2_192)]
    lift_checks(cone, lifted, samples=128, seed=SEED)
    assert compiled == [(252, 2_192), (21, 85)]


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


def _dense(slots, rows, n, dim):
    out = np.zeros((n, dim, dim))
    for (i, j), v in zip(slots, rows):
        out[:, i, j] = v
        out[:, j, i] = -v
    return out


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
    dW = _largest(np.moveaxis(geometry.dW, 2, 0))
    W = _largest(geometry.W)
    _within_rounding(
        geometry.lie(X, J),
        lie_derivative(Xf, omega).matrix(pts),
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
    _within_rounding(
        _dense(geometry.slots, geometry.homogeneity(), len(pts), dim),
        _dense(defect.keys(), defect.values(), len(pts), dim),
        r * dW + W,
        dim,
    )
