"""End-to-end acceptance checks: the headline behaviors of the package,
with pinned tolerances and runtime bounds."""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from contactkit.charts import seeded_rng, vector_field
from contactkit.cone import (
    build_cone,
    closure_check,
    cone_hamiltonian,
    homogeneity_check,
    lift,
    lift_checks,
)
from contactkit.contact import (
    ContactSystem,
    classify_system,
    conformal_bracket_law,
    hamiltonian_field,
    independence_rank,
    involution_table,
    isotropy_defect,
    reeb_defining_check,
    reeb_field,
    verify_flow_identity,
)
from contactkit.expressions import exp, random_polynomial
from contactkit.models import build_model, default_model_keys
from contactkit.ypq import (
    YpqParams,
    circle_pairing_check,
    circle_weights,
    class_table,
    classify,
    hirzebruch_data,
    quotient_kahler_data,
    quotient_reeb_weights,
    reeb_weights,
    reparametrize_torus,
    sasaki_cone_membership,
    totient,
    vertex_minimum,
)

SEED = 20110615


def free_members(p_max: int) -> list[YpqParams]:
    """Every free member with ``p <= p_max``, class by class."""
    return [YpqParams(p, q) for p, qs in class_table(p_max).items() for q in qs]


class TestBasicExampleDossier:
    """The full dossier of the basic 3-dimensional example, under 1 second."""

    def test_dossier(self):
        start = time.perf_counter()
        model = build_model("example_3_10")
        system = model.system
        chart = system.chart
        h = system.hamiltonian
        f = system.integrals[0]
        pts = chart.sample(128, SEED)

        # Hamiltonian fields: X_h is the unit x-translation, X_f the
        # dilation of the (y, z) plane.
        Xh = hamiltonian_field(system, h).evaluate(pts)
        assert float(np.max(np.abs(Xh - np.array([1.0, 0.0, 0.0])))) < 1e-9
        Xf = hamiltonian_field(system, f).evaluate(pts)
        target = np.stack([np.zeros(len(pts)), pts[:, 1], pts[:, 2]], axis=1)
        assert float(np.max(np.abs(Xf - target))) < 1e-9

        # The pairing of the two fields through the contact structure is the
        # coordinate y; value 2 at the probe point (1, 2, 3).
        defect = isotropy_defect(system, h, f)
        assert float(np.max(np.abs(defect(pts) - pts[:, 1]))) < 1e-9
        assert abs(defect.at((1.0, 2.0, 3.0)) - 2.0) < 1e-9

        # Lifts to the cone: the translation is unchanged; the dilation
        # acquires the radial correction -r/2.
        cone = build_cone(system, verify=False)
        cone_pts = cone.cone_chart.sample(128, SEED)
        lifted_h = lift(cone, vector_field(chart, {"x": "1"}), h, samples=128, verify=False)
        target_h = vector_field(cone.cone_chart, {"x": "1"})
        assert (
            float(np.max(np.abs(lifted_h.evaluate(cone_pts) - target_h.evaluate(cone_pts))))
            < 1e-9
        )
        dilation = vector_field(chart, {"y": "y", "z": "z"})
        lifted_f = lift(cone, dilation, f, samples=128, verify=False)
        target_f = vector_field(cone.cone_chart, {"y": "y", "z": "z", "r": "-r / 2"})
        assert (
            float(np.max(np.abs(lifted_f.evaluate(cone_pts) - target_f.evaluate(cone_pts))))
            < 1e-9
        )

        # Induced homogeneous Hamiltonians on the cone: -r^2 y and r^2 z.
        induced_h, check_h = cone_hamiltonian(cone, lifted_h, h)
        expected = cone.cone_chart.parse("-(r^2 * y)")
        assert (
            float(np.max(np.abs(induced_h.values(cone_pts) - expected.values(cone_pts))))
            < 1e-9
        )
        assert check_h.max_residual < 1e-9
        induced_f, check_f = cone_hamiltonian(cone, lifted_f, f)
        expected = cone.cone_chart.parse("r^2 * z")
        assert (
            float(np.max(np.abs(induced_f.values(cone_pts) - expected.values(cone_pts))))
            < 1e-9
        )
        assert check_f.max_residual < 1e-9

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"dossier took {elapsed:.2f}s"


class TestFlowIdentitySweep:
    """X_h f = (R h) f + {h, f} over seeded random polynomial pairs."""

    def test_random_pairs(self):
        start = time.perf_counter()
        worst = 0.0
        for key in ("darboux(1)", "darboux(2)", "heisenberg(1)", "heisenberg(2)"):
            system = build_model(key).system
            rng = seeded_rng(SEED, f"acceptance:flow:{key}")
            for _ in range(200):
                h = random_polynomial(system.chart.coords, 3, rng)
                f = random_polynomial(system.chart.coords, 3, rng)
                result = verify_flow_identity(system, h, f, samples=128, seed=SEED)
                worst = max(worst, result.max_residual)
                assert result.passed, result
        assert worst < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"flow-identity sweep took {elapsed:.2f}s"


class TestReebContract:
    """The Reeb defining equations at 256 samples on every model family."""

    @pytest.mark.parametrize("key", default_model_keys())
    def test_defining_equations(self, key):
        system = build_model(key).system
        result = reeb_defining_check(system, samples=256, seed=SEED)
        assert result.passed
        assert result.max_residual < 1e-9

    def test_cosphere_reeb_components(self):
        system = build_model("cosphere_torus(1)").system
        pts = system.chart.sample(256, SEED)
        observed = reeb_field(system).evaluate(pts)
        p1 = pts[:, 2]
        expected = np.stack([np.sqrt(1.0 - p1**2), p1, np.zeros(len(pts))], axis=1)
        assert float(np.max(np.abs(observed - expected))) < 1e-9


class TestMomentumRank:
    """Pointwise rank of the momentum family on the flat-torus cosphere."""

    def test_full_rank_everywhere(self):
        system = build_model("cosphere_torus(1)").system
        fns = (system.chart.parse("1"), system.chart.parse("p1"))
        rank, fraction = independence_rank(system, fns, samples=256, seed=SEED)
        assert rank == 2
        assert fraction == 1.0

    def test_redundant_family_never_exceeds_cap(self):
        system = build_model("cosphere_torus(1)").system
        p0 = system.chart.parse("sqrt(1 - p1^2)")
        fns = (system.chart.parse("1"), p0, system.chart.parse("p1"))
        rank, _ = independence_rank(system, fns, samples=1024, seed=SEED)
        assert rank == 2


class TestHeisenbergClassification:
    """Classification verdicts and the one-way implication between the
    constant-Hamiltonian family property and complete goodness."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_verdicts(self, n):
        system = build_model(f"heisenberg({n})").system
        record = classify_system(system, samples=256, seed=SEED)
        assert record.completely_integrable_witnessed
        assert record.good
        assert record.completely_good
        assert record.reeb_type
        assert record.detail["rank"] == n + 1
        assert record.detail["rank_fraction"] >= 0.99

    @pytest.mark.parametrize("n", [1, 2])
    def test_involution_table_all_pass(self, n):
        system = build_model(f"heisenberg({n})").system
        table = involution_table(system, system.family(), samples=256, seed=SEED)
        assert all(entry.passed for row in table for entry in row)

    def test_implication_fuzz(self):
        # 500 perturbed systems: whatever the mutation does to the integral
        # family, a system classified as having the constant-one family
        # property must also be completely good.
        pool = [
            build_model(key).system
            for key in (
                "heisenberg(1)",
                "heisenberg(2)",
                "cosphere_torus(1)",
                "cosphere_torus(2)",
                "example_3_10",
            )
        ]
        rng = seeded_rng(SEED, "acceptance:classification-fuzz")
        positives = 0
        for case in range(500):
            base = pool[int(rng.integers(len(pool)))]
            family = list(base.family())
            kind = int(rng.integers(4))
            index = int(rng.integers(len(family)))
            if kind == 1:
                family[index] = random_polynomial(base.chart.coords, 2, rng)
            elif kind == 2:
                family[index] = base.chart.parse("1")
            elif kind == 3:
                family[index] = family[index] * 2.0
            system = ContactSystem(
                base.chart,
                base.eta,
                hamiltonian=family[0],
                integrals=tuple(family[1:]),
                reeb=base.reeb,
                verify=False,
            )
            record = classify_system(system, samples=32, seed=SEED + case)
            assert not record.reeb_type or record.completely_good, (
                f"case {case}: family-property verdict without complete goodness"
            )
            positives += int(record.reeb_type)
        assert positives > 0  # the implication was exercised, not vacuous


class TestConformalLaw:
    """{g, h} under a positive rescale of the structure form."""

    def test_exponential_factors(self):
        system = build_model("darboux(1)").system
        chart = system.chart
        rng = seeded_rng(SEED, "acceptance:conformal")
        for _ in range(50):
            a, b, c, d = rng.uniform(-0.5, 0.5, 4)
            linear = (
                chart.parse("q1") * float(a)
                + chart.parse("p1") * float(b)
                + chart.parse("z") * float(c)
                + float(d)
            )
            factor = exp(linear)
            g = random_polynomial(chart.coords, 3, rng)
            h = random_polynomial(chart.coords, 3, rng)
            result = conformal_bracket_law(system, factor, g, h, samples=128, seed=SEED)
            assert result.passed
            assert result.max_residual < 1e-7


class TestSymplectization:
    """Cone-form contracts on the basic example and the group models."""

    @pytest.mark.parametrize("key", ["example_3_10", "heisenberg(1)", "heisenberg(2)"])
    def test_cone_contracts(self, key):
        model = build_model(key)
        cone = build_cone(model.system, verify=False)
        closed = closure_check(cone, samples=128, seed=SEED)
        assert closed.passed and closed.max_residual < 1e-10
        homogeneous = homogeneity_check(cone, samples=128, seed=SEED)
        assert homogeneous.passed and homogeneous.max_residual < 1e-8
        for vector, hamiltonian in model.hamiltonian_pairs:
            lifted = lift(cone, vector, hamiltonian, verify=False)
            invariance, commutation = lift_checks(cone, lifted, samples=128, seed=SEED)
            assert invariance.passed and invariance.max_residual < 1e-8
            assert commutation.passed


class TestToricExactness:
    """Exact integer identities across every valid parameter pair."""

    def test_sweep(self):
        start = time.perf_counter()
        pairs = free_members(100)
        # Sum of totient(p) over 2 <= p <= 100; the nominal figure of 3044
        # for this family size counts the empty p = 1 class as one entry.
        assert len(pairs) == 3043
        assert len(pairs) == sum(totient(p) for p in range(2, 101))
        for params in pairs:
            assert sum(circle_weights(params)) == 0
            reparametrize_torus(params)  # raises if the exact identity fails
            index, ramification = hirzebruch_data(params)
            if params.p % 2 == 1:
                assert (index, ramification) == (2 * params.q, params.p)
            else:
                assert (index, ramification) == (params.q, params.p // 2)
            pair, (first, second) = quotient_kahler_data(params)
            assert first == params.p
            both_odd = params.p % 2 == 1 and params.q % 2 == 1
            assert (second == 2) == both_odd
            assert pair != (1, 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"toric sweep took {elapsed:.2f}s"


class TestToricPositivity:
    """Strict positivity of the Reeb pairings and vanishing of the reduction
    circle on the level set, for every valid parameter pair."""

    def test_exact_minima_positive(self):
        for params in free_members(100):
            assert vertex_minimum(params, reeb_weights(params)) > 0
            assert vertex_minimum(params, quotient_reeb_weights(params)) > 0

    def test_circle_vanishes_on_level_set(self):
        for params in free_members(100):
            result = circle_pairing_check(params, count=128, seed=SEED)
            assert result.passed
            assert result.max_residual < 1e-12

    def test_spot_membership_value(self):
        member, minimum = sasaki_cone_membership(YpqParams(3, 1), (4, 2, 3, 3))
        assert member
        assert minimum == Fraction(3, 4)
        assert float(minimum) == pytest.approx(0.75)


class TestEnumerationCli:
    """The enumeration subcommand: class sizes, classification, determinism."""

    @staticmethod
    def _run_enumerate():
        return subprocess.run(
            [sys.executable, "-m", "contactkit.cli", "ypq", "--enumerate", "30"],
            capture_output=True,
            check=True,
        )

    def test_class_sizes_and_determinism(self):
        first = self._run_enumerate()
        second = self._run_enumerate()
        assert first.stdout == second.stdout  # byte-identical reruns
        lines = first.stdout.decode().splitlines()
        sizes = {}
        for line in lines:
            head, _, _ = line.partition("  class size")
            p = int(head.split("=")[1])
            sizes[p] = int(line.split("class size")[1].split()[0])
        assert sorted(sizes) == list(range(2, 31))
        for p, size in sizes.items():
            assert size == totient(p)
        assert sizes[5] == 4
        assert sizes[12] == 4
        assert sizes[30] == 8

    def test_classification_matches_p_equality(self):
        pairs = free_members(30)
        rng = seeded_rng(SEED, "acceptance:classify")
        for _ in range(50):
            a = pairs[int(rng.integers(len(pairs)))]
            b = pairs[int(rng.integers(len(pairs)))]
            assert classify(a, b) == (a.p == b.p)


class TestReadmeQuickStart:
    """README's "Python quick start" block runs as written, so it follows
    the API."""

    def test_quick_start_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Python quick start\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        proc = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
