"""Model library: key dispatch, expected facts, closed-form pair consistency."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contactkit.charts import lie_bracket
from contactkit.contact import hamiltonian_field
from contactkit.models import (
    basic_example,
    build_model,
    cosphere_torus,
    darboux,
    default_model_keys,
    heisenberg,
    heisenberg_integrals,
    sphere_weighted,
)

SEED = 20110615


# -- key dispatch ----------------------------------------------------------


class TestKeys:
    @pytest.mark.parametrize("key", default_model_keys())
    def test_default_keys_round_trip(self, key):
        assert build_model(key).key == key

    def test_whitespace_is_tolerated(self):
        assert build_model(" darboux( 2 ) ").key == "darboux(2)"

    @pytest.mark.parametrize(
        "key",
        [
            "nosuchmodel",
            "darboux",
            "darboux(1, 2)",
            "darboux(0)",
            "heisenberg()",
            "example_3_10(3)",
            "sphere_weighted(2)",
            "sphere_weighted(2,1)",
            "sphere_weighted(2,1,2)",
            "sphere_weighted(1,0,1)",
            "darboux(-1)",
            "darboux(x)",
        ],
    )
    def test_bad_keys_raise(self, key):
        with pytest.raises(ValueError):
            build_model(key)


# -- the central invariant: every expected fact passes ---------------------


class TestExpectedFacts:
    @pytest.mark.parametrize("key", default_model_keys())
    def test_all_facts_pass_at_128_samples(self, key):
        descriptor = build_model(key)
        entries = descriptor.verify_all(samples=128, seed=SEED)
        assert entries, "model publishes no facts"
        for label, result in entries:
            assert result.passed, f"{key} {label}: {result}"

    def test_facts_carry_provenance_tags(self):
        for key in default_model_keys():
            for fact in build_model(key).expected:
                assert fact.source in {"definition", "hand computation", "construction"}

    def test_fact_lookup(self):
        descriptor = darboux(1)
        assert descriptor.fact("contact_condition").name == "contact_condition"
        with pytest.raises(KeyError):
            descriptor.fact("nonexistent")


# -- the battery ------------------------------------------------------------


class TestBattery:
    """``verify_all`` is the battery that ``contactkit verify`` prints."""

    EXPECTED_CHECKS = Path(__file__).parents[1] / "perfbench" / "expected_checks.json"

    @pytest.mark.parametrize("key", default_model_keys())
    def test_labels_are_the_verify_labels(self, key):
        expected = json.loads(self.EXPECTED_CHECKS.read_text())[key]
        assert [label for label, _ in build_model(key).verify_all(16, SEED)] == expected

    def test_tolerance_overrides_reach_the_cone_phase(self):
        entries = build_model("example_3_10").verify_all(16, SEED, {"lift_invariance": 0.25})
        tolerances = {label: result.tolerance for label, result in entries}
        assert tolerances["cone_lifts"] == 0.25
        assert {tolerances[f"lift_invariance[{h}]"] for h in ("-y", "z")} == {0.25}

    @staticmethod
    def _with_lifts(model, translation, dilation):
        translation_pair, dilation_pair = model.hamiltonian_pairs
        return replace(
            model,
            expected_lifts=((translation_pair, *translation), (dilation_pair, *dilation)),
        )

    def test_wrong_closed_form_lift_fails_cone_lifts(self):
        model = self._with_lifts(
            basic_example(),
            ((("x", "2"),), "-(r^2 * y)"),
            ((("y", "y"), ("z", "z"), ("r", "-r / 2")), "r^2 * z"),
        )
        verdicts = {label: result.passed for label, result in model.verify_all(16, SEED)}
        assert (verdicts["cone_lifts"], verdicts["cone_hamiltonians"]) == (False, True)

    def test_wrong_induced_hamiltonian_fails_cone_hamiltonians(self):
        model = self._with_lifts(
            basic_example(),
            ((("x", "1"),), "r^2 * y"),
            ((("y", "y"), ("z", "z"), ("r", "-r / 2")), "r^2 * z"),
        )
        verdicts = {label: result.passed for label, result in model.verify_all(16, SEED)}
        assert (verdicts["cone_lifts"], verdicts["cone_hamiltonians"]) == (True, False)

    def test_foreign_expected_lift_is_rejected(self):
        model = build_model("heisenberg(1)")
        foreign = (model.system.reeb, model.system.chart.parse("1"))
        with pytest.raises(ValueError, match="expected lift .* not one of its hamiltonian_pairs"):
            replace(model, expected_lifts=((foreign, (), "r^2"),))


# -- closed-form pair data -------------------------------------------------


class TestHamiltonianPairs:
    @pytest.mark.parametrize("key", default_model_keys())
    def test_pairs_match_solved_fields(self, key):
        descriptor = build_model(key)
        system = descriptor.system
        pts = system.chart.sample(64, SEED)
        assert descriptor.hamiltonian_pairs
        for field, h in descriptor.hamiltonian_pairs:
            solved = hamiltonian_field(system, h).evaluate(pts)
            np.testing.assert_allclose(solved, field.evaluate(pts), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("key", default_model_keys())
    def test_commuting_pairs_commute(self, key):
        descriptor = build_model(key)
        pts = descriptor.system.chart.sample(64, SEED)
        fields = [field for field, _ in descriptor.commuting_pairs]
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                values = lie_bracket(fields[i], fields[j]).evaluate(pts)
                assert np.max(np.abs(values)) < 1e-9

    def test_commuting_family_has_full_size(self):
        for key in ("darboux(2)", "heisenberg(2)", "cosphere_torus(2)", "example_3_10"):
            descriptor = build_model(key)
            assert len(descriptor.commuting_pairs) == descriptor.system.n + 1


# -- family specifics ------------------------------------------------------


class TestDarboux:
    def test_contact_form_coefficients(self):
        descriptor = darboux(2)
        chart = descriptor.system.chart
        assert chart.coords == ("q1", "q2", "p1", "p2", "z")
        pts = chart.sample(16, SEED)
        arrays = descriptor.system.eta.coefficient_arrays(pts)
        assert sorted(arrays) == [(0,), (1,), (4,)]
        np.testing.assert_allclose(arrays[(0,)], -pts[:, 2])
        np.testing.assert_allclose(arrays[(1,)], -pts[:, 3])
        np.testing.assert_allclose(arrays[(4,)], 1.0)

    def test_momentum_translation_moves_the_form(self):
        fact = darboux(1).fact("momentum_translation_non_invariance")
        result = fact.run(64, SEED)
        assert result.passed
        assert result.detail["floor"] == 1e-6


class TestHeisenberg:
    def test_integral_sources(self):
        assert heisenberg_integrals(2) == (
            "1",
            "(x1^2 + y1^2) / 2",
            "(x2^2 + y2^2) / 2",
        )

    def test_rotation_field_at_a_point(self):
        descriptor = heisenberg(1)
        h1 = descriptor.system.integrals[0]
        value = hamiltonian_field(descriptor.system, h1).evaluate(
            np.array([1.0, 2.0, 3.0])
        )
        np.testing.assert_allclose(value, [-2.0, 1.0, -1.5], atol=1e-12)

    def test_duplicate_constant_drops_rank(self):
        for n in (1, 2):
            result = heisenberg(n).fact("duplicate_constant_rank_drop").run(128, SEED)
            assert result.passed
            assert result.detail["rank"] == n


class TestCosphereTorus:
    def test_momentum_family_rank_detail(self):
        result = cosphere_torus(1).fact("momentum_family_rank").run(256, SEED)
        assert result.passed
        assert result.detail["rank"] == 2
        assert result.detail["fraction"] == 1.0

    def test_redundant_family_never_exceeds_cap(self):
        result = cosphere_torus(1).fact("redundant_family_rank_cap").run(1024, SEED)
        assert result.passed
        assert result.detail["rank"] <= 2


class TestBasicExample:
    def test_key_and_data(self):
        descriptor = basic_example()
        assert descriptor.key == "example_3_10"
        assert str(descriptor.system.hamiltonian) == "-y"
        assert str(descriptor.system.integrals[0]) == "z"

    def test_report_lines(self):
        assert basic_example().report_lines() == ("isotropy_defect(1,2,3) = 2",)


class TestSphereWeighted:
    def test_round_sphere_reeb(self):
        descriptor = sphere_weighted(1, (1, 1))
        chart = descriptor.system.chart
        pts = chart.sample(32, SEED)
        values = descriptor.system.reeb.evaluate(pts)
        x0 = np.sqrt(1.0 - pts[:, 0] ** 2 - pts[:, 1] ** 2 - pts[:, 2] ** 2)
        np.testing.assert_allclose(values[:, 0], x0, atol=1e-12)
        np.testing.assert_allclose(values[:, 1], -pts[:, 2], atol=1e-12)
        np.testing.assert_allclose(values[:, 2], pts[:, 1], atol=1e-12)

    def test_weighted_level_set_holds(self):
        result = sphere_weighted(3, (2, 4, 3, 3)).fact("unit_level_set").run(128, SEED)
        assert result.passed
        assert result.max_residual < 1e-12

    @pytest.mark.parametrize(
        "n,weights",
        [(1, (1,)), (1, (1, 1, 1)), (2, (0, 1, 1)), (2, (1, -2, 1)), (0, (1,))],
    )
    def test_invalid_parameters(self, n, weights):
        with pytest.raises(ValueError):
            sphere_weighted(n, weights)
