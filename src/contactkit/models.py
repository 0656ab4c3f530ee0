"""Worked contact models with machine-checkable expected facts.

Each model family builds a :class:`~contactkit.contact.ContactSystem` on an
explicit chart, together with a list of :class:`ExpectedFact` entries --
named, independently known properties (closed-form Reeb fields, bracket
relations, classification verdicts) that the numerical operations must
reproduce at seeded samples -- and its closed-form (field, Hamiltonian)
pairs, which the battery lifts to the cone.  :meth:`ModelDescriptor.verify_all`
is the model's whole battery, the one ``contactkit verify`` prints.

Model keys are stable strings so the same systems are addressable from tests
and from the command line:

    darboux(n)                    flat chart, eta = dz - sum p_i dq^i
    heisenberg(n)                 eta = dz - sum y_i dx^i with its rotation
                                  integrals; the canonical Reeb-type system
    cosphere_torus(n)             unit-momentum chart over the torus with the
                                  fibre momenta as integrals
    example_3_10                  the three-dimensional translation/dilation
                                  worked example, including its cone data
    sphere_weighted(n,w0,...,wn)  the unit level set of a weighted Hermitian
                                  norm with its weighted-rotation Reeb field
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import cone as cone_mod
from .charts import Chart, VectorField, basis_field, lie_bracket, lie_derivative, one_form, vector_field, wedge
from .contact import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    CheckResult,
    ContactSystem,
    _make_result,
    classify_system,
    hamiltonian_field,
    is_contact_form,
    isotropy_defect,
    independence_rank,
    jacobi_bracket,
    reeb_defining_check,
    reeb_field,
    resolve_tolerance,
)
from .expressions import ScalarExpr, const, coord, parse

__all__ = [
    "ExpectedFact",
    "ModelDescriptor",
    "build_model",
    "darboux",
    "heisenberg",
    "heisenberg_integrals",
    "cosphere_torus",
    "basic_example",
    "sphere_weighted",
    "default_model_keys",
]

# Provenance tags for expected facts: how the expectation is known.
SOURCE_DEFINITION = "definition"
SOURCE_HAND = "hand computation"
SOURCE_CONSTRUCTION = "construction"

#: The per-run tolerance overrides an expected fact passes to the operations.
Tolerances = Mapping[str, float] | None

#: The factor by which the battery's ``scale_covariance`` check rescales eta.
_SCALE_FACTOR = 2.0


@dataclass(frozen=True)
class ExpectedFact:
    """A named, independently known property of a model.

    ``source`` records how the expectation is known: ``"definition"`` for the
    defining equations themselves, ``"hand computation"`` for closed forms
    worked out by hand, ``"construction"`` for properties built into the
    chart.  ``run(samples, seed, tolerances=None)`` evaluates the property
    numerically; ``tolerances`` overrides the registry tolerances it uses.
    """

    name: str
    source: str
    run: Callable[..., CheckResult]


@dataclass(frozen=True)
class ModelDescriptor:
    """A model system bundled with its expected facts.

    ``hamiltonian_pairs`` lists closed-form pairs ``(field, eta(field))``
    suitable for symplectization lifts; ``commuting_pairs`` is the subset
    forming a commuting family (the witness for complete integrability).
    ``expected_lifts`` holds closed forms worked out by hand on the cone:
    entries ``(pair, components, induced)`` give, for one of the
    ``hamiltonian_pairs``, the components of its lift as ``(cone coordinate,
    source)`` pairs (such as ``(("r", "-r / 2"),)``, so that a descriptor
    hashes) and the source of the induced
    Hamiltonian ``r^2 h``.  Each commuting pair and each pair of an expected
    lift must also be in ``hamiltonian_pairs``: the battery checks them with
    the lifts it made for those.
    """

    key: str
    system: ContactSystem
    expected: tuple[ExpectedFact, ...]
    hamiltonian_pairs: tuple[tuple[VectorField, ScalarExpr], ...] = ()
    commuting_pairs: tuple[tuple[VectorField, ScalarExpr], ...] = ()
    expected_lifts: tuple[
        tuple[tuple[VectorField, ScalarExpr], tuple[tuple[str, str], ...], str], ...
    ] = ()
    report_lines: Callable[[], tuple[str, ...]] | None = None

    def __post_init__(self):
        for kind, pairs in (
            ("commuting pair", self.commuting_pairs),
            ("expected lift", [pair for pair, _, _ in self.expected_lifts]),
        ):
            for pair in pairs:
                if pair not in self.hamiltonian_pairs:
                    raise ValueError(
                        f"model {self.key!r}: {kind} [{pair[1]}] is not one of its "
                        "hamiltonian_pairs"
                    )

    def verify_all(
        self,
        samples: int = DEFAULT_SAMPLES,
        seed: int = DEFAULT_SEED,
        tolerances: Tolerances = None,
    ) -> list[tuple[str, CheckResult]]:
        """Every check of the model, as ``(label, result)`` sorted by label:
        the battery that ``contactkit verify`` prints.

        The battery is the expected facts plus the symplectization
        contracts: cone closure, nondegeneracy and homogeneity, scale
        covariance at a fixed factor, and for every pair of
        ``hamiltonian_pairs`` the lift invariances and the induced-Hamiltonian
        contraction, labelled ``name[hamiltonian]``, with the commuting family
        checked jointly as ``commuting_lifts``.  Where the model has
        ``expected_lifts``, ``cone_lifts`` and ``cone_hamiltonians`` hold the
        battery's lifts and induced Hamiltonians to them.  The battery builds
        the cone once and lifts each pair once.  The cone checks run first,
        and their cone is gone before the facts keep the system's geometry,
        so the two sets of arrays are never held at once.  ``tolerances``
        overrides the registry tolerances of every check.
        """
        entries = self._cone_entries(samples, seed, tolerances)
        entries += [(fact.name, fact.run(samples, seed, tolerances)) for fact in self.expected]
        entries.sort(key=lambda entry: entry[0])
        return entries

    def _cone_entries(
        self, samples: int, seed: int, tolerances: Tolerances
    ) -> list[tuple[str, CheckResult]]:
        """The symplectization contracts of the battery, on one cone that
        dies, with the cone geometry it keeps, when this returns."""
        at = samples, seed, tolerances
        cone = cone_mod.build_cone(self.system, verify=False)
        results = [
            cone_mod.closure_check(cone, *at),
            cone_mod.nondegeneracy_check(cone, *at),
            cone_mod.homogeneity_check(cone, *at),
            cone_mod.scale_covariance_check(cone, _SCALE_FACTOR, *at),
        ]
        entries, lifts = [], {}
        for pair in self.hamiltonian_pairs:
            field, hamiltonian = pair
            lifted = cone_mod.lift(cone, field, hamiltonian, *at, verify=False)
            checks = cone_mod.lift_checks(cone, lifted, *at)
            induced, contraction = cone_mod.cone_hamiltonian(cone, lifted, hamiltonian, *at)
            entries += [(f"{check.name}[{hamiltonian}]", check) for check in (*checks, contraction)]
            lifts[pair] = lifted, induced, contraction
        if self.commuting_pairs:
            family = [lifts[pair][0] for pair in self.commuting_pairs]
            results.append(cone_mod.commuting_lift_check(cone, family, *at))
        if self.expected_lifts:
            # The battery's lifts and induced Hamiltonians against their closed forms.
            pts = cone.cone_chart.sample(samples, seed)
            lift_residuals = induced_residuals = np.zeros(len(pts))
            for pair, components, induced_source in self.expected_lifts:
                lifted, induced, contraction = lifts[pair]
                target = vector_field(cone.cone_chart, dict(components)).evaluate(pts)
                lift_residuals = np.maximum(
                    lift_residuals, np.max(np.abs(lifted.evaluate(pts) - target), axis=1)
                )
                expected = parse(induced_source, cone.cone_chart.coords).values(pts)
                induced_residuals = np.maximum(
                    induced_residuals, np.abs(induced.values(pts) - expected)
                )
                induced_residuals = np.maximum(induced_residuals, contraction.max_residual)
            lift_tol = resolve_tolerance("lift_invariance", tolerances)
            induced_tol = resolve_tolerance("cone_contraction", tolerances)
            results.append(_make_result("cone_lifts", lift_residuals, lift_tol, pts))
            results.append(_make_result("cone_hamiltonians", induced_residuals, induced_tol, pts))
        return entries + [(result.name, result) for result in results]

    def fact(self, name: str) -> ExpectedFact:
        for entry in self.expected:
            if entry.name == name:
                return entry
        raise KeyError(f"model {self.key!r} has no expected fact {name!r}")


# -- fact builders ---------------------------------------------------------


def _verdict(name: str, ok: bool, samples: int, detail: dict | None = None) -> CheckResult:
    """A boolean fact as a CheckResult (residual 1.0 when violated)."""
    return CheckResult(
        name=name,
        passed=bool(ok),
        max_residual=0.0 if ok else 1.0,
        samples=samples,
        tolerance=0.0,
        witness=None,
        detail=detail or {},
    )


def _contact_fact(system: ContactSystem) -> ExpectedFact:
    return ExpectedFact(
        "contact_condition",
        SOURCE_DEFINITION,
        lambda samples, seed, tolerances=None: is_contact_form(system, samples, seed, tolerances),
    )


def _reeb_defining_fact(system: ContactSystem) -> ExpectedFact:
    return ExpectedFact(
        "reeb_defining",
        SOURCE_DEFINITION,
        lambda samples, seed, tolerances=None: reeb_defining_check(
            system, samples, seed, tolerances
        ),
    )


def _field_match_fact(
    name: str,
    source: str,
    system: ContactSystem,
    solved: Callable[[np.ndarray], np.ndarray],
    expected: VectorField,
    tolerance_name: str = "reeb_defining",
) -> ExpectedFact:
    def run(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        pts = system.chart.sample(samples, seed)
        residuals = np.max(np.abs(solved(pts) - expected.evaluate(pts)), axis=1)
        return _make_result(name, residuals, resolve_tolerance(tolerance_name, tolerances), pts)

    return ExpectedFact(name, source, run)


def _reeb_closed_form_fact(system: ContactSystem) -> ExpectedFact:
    evaluator = reeb_field(system)
    return _field_match_fact(
        "reeb_closed_form", SOURCE_HAND, system, evaluator.evaluate, system.reeb
    )


def _classification_fact(system: ContactSystem, expected: tuple[bool, bool, bool, bool]) -> ExpectedFact:
    def run(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        record = classify_system(system, samples, seed, tolerances)
        got = (
            record.completely_integrable_witnessed,
            record.good,
            record.completely_good,
            record.reeb_type,
        )
        return _verdict(
            "classification_verdicts",
            got == expected,
            samples,
            {"expected": list(expected), "observed": list(got)},
        )

    return ExpectedFact("classification_verdicts", SOURCE_HAND, run)


# -- darboux ---------------------------------------------------------------


def darboux(n: int) -> ModelDescriptor:
    """The flat contact chart ``eta = dz - sum_i p_i dq^i`` on (2n+1) coordinates.

    Comes with the translation/shear fields ``A_i = d/dp_i + q_i d/dz``,
    ``B_i = d/dq_i`` and the Reeb field ``d/dz``, whose pairwise brackets
    realize the standard nilpotent relations ``[A_i, B_i] = -d/dz`` (all other
    pairs commuting); also with the observation that the momentum
    translations ``d/dp_i`` do *not* preserve the contact form.
    """
    if n < 1:
        raise ValueError("darboux(n) needs n >= 1")
    coords = tuple(f"q{i}" for i in range(1, n + 1)) + tuple(
        f"p{i}" for i in range(1, n + 1)
    ) + ("z",)
    chart = Chart(f"darboux({n})", coords)
    eta = one_form(chart, {"z": 1.0, **{f"q{i}": f"-p{i}" for i in range(1, n + 1)}})
    system = ContactSystem(chart, eta, reeb=basis_field(chart, "z"), name=chart.name)

    vertical = basis_field(chart, "z")
    shears = [
        vector_field(chart, {f"p{i}": 1.0, "z": f"q{i}"}) for i in range(1, n + 1)
    ]
    translations = [basis_field(chart, f"q{i}") for i in range(1, n + 1)]

    def bracket_relations(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        pts = chart.sample(samples, seed)
        residuals = np.zeros(len(pts))
        fields = [("A", shears), ("B", translations)]
        for kind_a, group_a in fields:
            for i, Xa in enumerate(group_a):
                for kind_b, group_b in fields:
                    for j, Xb in enumerate(group_b):
                        if (kind_a, i) >= (kind_b, j):
                            continue
                        expected = np.zeros((len(pts), chart.dim))
                        if kind_a == "A" and kind_b == "B" and i == j:
                            expected[:, chart.index("z")] = -1.0
                        got = lie_bracket(Xa, Xb).evaluate(pts)
                        residuals = np.maximum(
                            residuals, np.max(np.abs(got - expected), axis=1)
                        )
                for Xb in (vertical,):
                    got = lie_bracket(Xa, Xb).evaluate(pts)
                    residuals = np.maximum(residuals, np.max(np.abs(got), axis=1))
        return _make_result("nilpotent_bracket_relations", residuals, 1e-12, pts)

    def momentum_translations_not_contact(
        samples: int, seed: int, tolerances: Tolerances = None
    ) -> CheckResult:
        # eta wedge (L_{d/dp_i} eta) must be bounded away from zero: the
        # momentum translations move the contact form in an essential way.
        floor = 1e-6
        pts = chart.sample(samples, seed)
        residuals = np.zeros(len(pts))
        for i in range(1, n + 1):
            moved = lie_derivative(basis_field(chart, f"p{i}"), eta)
            magnitude = wedge(eta, moved).max_abs(pts)
            residuals = np.maximum(residuals, np.maximum(0.0, floor - magnitude))
        return _make_result(
            "momentum_translation_non_invariance", residuals, 0.0, pts, {"floor": floor}
        )

    facts = (
        _contact_fact(system),
        _reeb_defining_fact(system),
        _reeb_closed_form_fact(system),
        ExpectedFact("nilpotent_bracket_relations", SOURCE_HAND, bracket_relations),
        ExpectedFact(
            "momentum_translation_non_invariance", SOURCE_HAND, momentum_translations_not_contact
        ),
    )
    one = const(1.0, coords)
    pairs = [(vertical, one)]
    pairs += [(shears[i - 1], coord(f"q{i}", coords)) for i in range(1, n + 1)]
    pairs += [(translations[i - 1], -coord(f"p{i}", coords)) for i in range(1, n + 1)]
    commuting = [pairs[0], *pairs[n + 1 :]]  # the Reeb field and the translations
    return ModelDescriptor(
        key=f"darboux({n})",
        system=system,
        expected=facts,
        hamiltonian_pairs=tuple(pairs),
        commuting_pairs=tuple(commuting),
    )


# -- heisenberg ------------------------------------------------------------


def heisenberg_integrals(n: int) -> tuple[str, ...]:
    """Sources of the Reeb-type integral family: the constant 1 and the
    plane energies (x_j^2 + y_j^2)/2."""
    return ("1",) + tuple(f"(x{j}^2 + y{j}^2) / 2" for j in range(1, n + 1))


def _heisenberg_rotation(chart: Chart, j: int) -> VectorField:
    return vector_field(
        chart,
        {f"x{j}": f"-y{j}", f"y{j}": f"x{j}", "z": f"(x{j}^2 - y{j}^2) / 2"},
    )


def heisenberg(n: int) -> ModelDescriptor:
    """``eta = dz - sum_j y_j dx^j`` with the rotation-invariant integral
    family (1, (x_j^2+y_j^2)/2): the canonical completely good system of
    Reeb type.
    """
    if n < 1:
        raise ValueError("heisenberg(n) needs n >= 1")
    coords = []
    for j in range(1, n + 1):
        coords += [f"x{j}", f"y{j}"]
    coords.append("z")
    coords = tuple(coords)
    chart = Chart(f"heisenberg({n})", coords)
    eta = one_form(chart, {"z": 1.0, **{f"x{j}": f"-y{j}" for j in range(1, n + 1)}})
    sources = heisenberg_integrals(n)
    family = tuple(chart.parse(src) for src in sources)
    system = ContactSystem(
        chart,
        eta,
        hamiltonian=family[0],
        integrals=family[1:],
        reeb=basis_field(chart, "z"),
        name=chart.name,
    )
    rotations = [_heisenberg_rotation(chart, j) for j in range(1, n + 1)]

    def rotation_fields(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        pts = chart.sample(samples, seed)
        residuals = np.zeros(len(pts))
        for j, expected in enumerate(rotations, start=1):
            got = hamiltonian_field(system, family[j]).evaluate(pts)
            residuals = np.maximum(
                residuals, np.max(np.abs(got - expected.evaluate(pts)), axis=1)
            )
        return _make_result(
            "rotation_fields_closed_form",
            residuals,
            resolve_tolerance("hamiltonian_pairing", tolerances),
            pts,
        )

    def duplicate_constant_rank(
        samples: int, seed: int, tolerances: Tolerances = None
    ) -> CheckResult:
        degenerate = (family[0], chart.parse("1")) + family[2:]
        rank, _ = independence_rank(system, degenerate, samples, seed, tolerances)
        return _verdict(
            "duplicate_constant_rank_drop",
            rank == n,
            samples,
            {"rank": rank, "expected_rank": n},
        )

    facts = (
        _contact_fact(system),
        _reeb_defining_fact(system),
        _reeb_closed_form_fact(system),
        ExpectedFact("rotation_fields_closed_form", SOURCE_HAND, rotation_fields),
        _classification_fact(system, (True, True, True, True)),
        ExpectedFact("duplicate_constant_rank_drop", SOURCE_HAND, duplicate_constant_rank),
    )
    pairs = [(system.reeb, family[0])] + [
        (rotations[j - 1], family[j]) for j in range(1, n + 1)
    ]
    return ModelDescriptor(
        key=f"heisenberg({n})",
        system=system,
        expected=facts,
        hamiltonian_pairs=tuple(pairs),
        commuting_pairs=tuple(pairs),
    )


# -- cosphere torus --------------------------------------------------------


def cosphere_torus(n: int) -> ModelDescriptor:
    """The unit-momentum chart over the (n+1)-torus.

    Coordinates ``(x0..xn, p1..pn)`` with ``p0 = sqrt(1 - sum p_i^2)``
    eliminated; ``eta = p0 dx^0 + sum_i p_i dx^i``; the Reeb field is the
    geodesic generator ``(p0, p1..pn, 0..0)``.  The momentum family
    ``(1, p1..pn)`` is independent exactly where ``p0 != 0`` -- everywhere on
    this chart -- while appending ``p0`` itself never raises the rank above
    ``n + 1``.
    """
    if n < 1:
        raise ValueError("cosphere_torus(n) needs n >= 1")
    coords = tuple(f"x{i}" for i in range(n + 1)) + tuple(f"p{i}" for i in range(1, n + 1))
    momentum_norm = " + ".join(f"p{i}^2" for i in range(1, n + 1))
    p0_source = f"sqrt(1 - ({momentum_norm}))"
    bounds = tuple((-2.0, 2.0) for _ in range(n + 1)) + tuple(
        (-0.9, 0.9) for _ in range(1, n + 1)
    )
    chart = Chart(
        f"cosphere_torus({n})",
        coords,
        bounds=bounds,
        domain=parse(f"1 - ({momentum_norm})", coords),
    )
    p0 = chart.parse(p0_source)
    eta = one_form(
        chart, {"x0": p0, **{f"x{i}": f"p{i}" for i in range(1, n + 1)}}
    )
    reeb = vector_field(
        chart, {"x0": p0, **{f"x{i}": f"p{i}" for i in range(1, n + 1)}}
    )
    family = (chart.parse("1"),) + tuple(chart.parse(f"p{i}") for i in range(1, n + 1))
    system = ContactSystem(
        chart,
        eta,
        hamiltonian=family[0],
        integrals=family[1:],
        reeb=reeb,
        name=chart.name,
    )

    def momentum_rank(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        rank, fraction = independence_rank(system, family, samples, seed, tolerances)
        return _verdict(
            "momentum_family_rank",
            rank == n + 1 and fraction == 1.0,
            samples,
            {"rank": rank, "fraction": fraction, "expected_rank": n + 1},
        )

    def redundant_rank_cap(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        rank, fraction = independence_rank(
            system, (family[0], p0) + family[1:], samples, seed, tolerances
        )
        return _verdict(
            "redundant_family_rank_cap",
            rank <= n + 1,
            samples,
            {"rank": rank, "fraction": fraction, "cap": n + 1},
        )

    facts = (
        _contact_fact(system),
        _reeb_defining_fact(system),
        _reeb_closed_form_fact(system),
        ExpectedFact("momentum_family_rank", SOURCE_HAND, momentum_rank),
        ExpectedFact("redundant_family_rank_cap", SOURCE_HAND, redundant_rank_cap),
        _classification_fact(system, (True, True, True, True)),
    )
    pairs = [(reeb, family[0])] + [
        (basis_field(chart, f"x{i}"), family[i]) for i in range(1, n + 1)
    ]
    return ModelDescriptor(
        key=f"cosphere_torus({n})",
        system=system,
        expected=facts,
        hamiltonian_pairs=tuple(pairs),
        commuting_pairs=tuple(pairs),
    )


# -- the three-dimensional worked example ----------------------------------


def basic_example() -> ModelDescriptor:
    """The translation/dilation pair on ``eta = dz - y dx``.

    ``h = -y`` generates the unit translation ``d/dx`` and ``f = z`` the
    vertical dilation ``y d/dy + z d/dz``; their isotropy defect
    ``dEta(X_h, X_f)`` equals ``y`` (value 2 at (1, 2, 3)), and on the cone
    the two fields lift to ``d/dx`` and ``y d/dy + z d/dz - (r/2) d/dr`` with
    induced Hamiltonians ``-r^2 y`` and ``r^2 z`` (the model's
    ``expected_lifts``).
    """
    chart = Chart("example_3_10", ("x", "y", "z"))
    eta = one_form(chart, {"z": 1.0, "x": "-y"})
    h = chart.parse("-y")
    f = chart.parse("z")
    system = ContactSystem(
        chart,
        eta,
        hamiltonian=h,
        integrals=(f,),
        reeb=basis_field(chart, "z"),
        name=chart.name,
    )
    translation = basis_field(chart, "x")
    dilation = vector_field(chart, {"y": "y", "z": "z"})

    def defect_is_y(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        evaluator = isotropy_defect(system, h, f)
        pts = chart.sample(samples, seed)
        residuals = np.abs(evaluator.evaluate(pts) - pts[:, chart.index("y")])
        spot = evaluator.at((1.0, 2.0, 3.0))
        residuals = np.maximum(residuals, abs(spot - 2.0))
        return _make_result(
            "isotropy_defect_matches",
            residuals,
            resolve_tolerance("isotropy_identity", tolerances),
            pts,
            {"value_at_1_2_3": spot},
        )

    def involution_pair(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        pts = chart.sample(samples, seed)
        values = np.abs(jacobi_bracket(system, h, f).evaluate(pts))
        return _make_result(
            "involution_pair", values, resolve_tolerance("involution", tolerances), pts
        )

    facts = (
        _contact_fact(system),
        _reeb_defining_fact(system),
        _reeb_closed_form_fact(system),
        _field_match_fact(
            "translation_field_closed_form",
            SOURCE_HAND,
            system,
            hamiltonian_field(system, h).evaluate,
            translation,
            "hamiltonian_pairing",
        ),
        _field_match_fact(
            "dilation_field_closed_form",
            SOURCE_HAND,
            system,
            hamiltonian_field(system, f).evaluate,
            dilation,
            "hamiltonian_pairing",
        ),
        ExpectedFact("isotropy_defect_matches", SOURCE_HAND, defect_is_y),
        ExpectedFact("involution_pair", SOURCE_HAND, involution_pair),
        _classification_fact(system, (True, True, False, False)),
    )

    def report_lines() -> tuple[str, ...]:
        value = isotropy_defect(system, h, f).at((1.0, 2.0, 3.0))
        return (f"isotropy_defect(1,2,3) = {value:g}",)

    pairs = ((translation, h), (dilation, f))
    return ModelDescriptor(
        key="example_3_10",
        system=system,
        expected=facts,
        hamiltonian_pairs=pairs,
        commuting_pairs=pairs,
        expected_lifts=(
            (pairs[0], (("x", "1"),), "-(r^2 * y)"),
            (pairs[1], (("y", "y"), ("z", "z"), ("r", "-r / 2")), "r^2 * z"),
        ),
        report_lines=report_lines,
    )


# -- weighted spheres ------------------------------------------------------


def sphere_weighted(n: int, weights: Sequence[int]) -> ModelDescriptor:
    """The unit level set of a weighted Hermitian norm.

    For positive integer weights (w0..wn) the chart covers the part of
    ``sum_j w_j (x_j^2 + y_j^2) = 1`` with ``x0 > 0``: the coordinate ``x0``
    is eliminated through the square root, and the contact form is the
    restriction of ``sum_j (x_j dy_j - y_j dx_j)``.  The Reeb field is the
    weighted rotation ``sum_j w_j (x_j d/dy_j - y_j d/dx_j)``.
    """
    weights = tuple(weights)
    if n < 1:
        raise ValueError("sphere_weighted(n, weights) needs n >= 1")
    if len(weights) != n + 1:
        raise ValueError(
            f"sphere_weighted({n}, ...) needs {n + 1} weights, got {len(weights)}"
        )
    if any(not isinstance(w, (int, np.integer)) or w <= 0 for w in weights):
        raise ValueError("weights must be positive integers")
    coords = ("y0",) + tuple(
        name for j in range(1, n + 1) for name in (f"x{j}", f"y{j}")
    )
    chart_name = f"sphere_weighted({n},{','.join(str(w) for w in weights)})"
    others = " + ".join(
        f"{weights[j]} * (x{j}^2 + y{j}^2)" for j in range(1, n + 1)
    )
    inner_source = f"1 - {weights[0]} * y0^2 - ({others})"
    # Keep x0 = sqrt(inner / w0) bounded away from zero on samples.
    margin = 0.05
    bounds = ((-1.0 / np.sqrt(weights[0]), 1.0 / np.sqrt(weights[0])),) + tuple(
        (-1.0 / np.sqrt(weights[j]), 1.0 / np.sqrt(weights[j]))
        for j in range(1, n + 1)
        for _ in range(2)
    )
    chart = Chart(
        chart_name,
        coords,
        bounds=bounds,
        domain=parse(f"({inner_source}) - {margin}", coords),
    )
    x0 = chart.parse(f"sqrt(({inner_source}) / {weights[0]})")
    y0 = coord("y0", coords)
    coeffs: dict[str, ScalarExpr] = {}
    for name in coords:
        value = -y0 * x0.derivative(name)
        if name == "y0":
            value = value + x0
        elif name.startswith("x"):
            value = value - coord(f"y{name[1:]}", coords)
        else:
            value = value + coord(f"x{name[1:]}", coords)
        coeffs[name] = value
    eta = one_form(chart, coeffs)
    reeb_comps: dict[str, ScalarExpr] = {"y0": float(weights[0]) * x0}
    for j in range(1, n + 1):
        reeb_comps[f"x{j}"] = -float(weights[j]) * coord(f"y{j}", coords)
        reeb_comps[f"y{j}"] = float(weights[j]) * coord(f"x{j}", coords)
    reeb = vector_field(chart, reeb_comps)
    system = ContactSystem(chart, eta, reeb=reeb, name=chart_name)

    def unit_level(samples: int, seed: int, tolerances: Tolerances = None) -> CheckResult:
        pts = chart.sample(samples, seed)
        total = float(weights[0]) * (x0.values(pts) ** 2 + pts[:, 0] ** 2)
        for j in range(1, n + 1):
            xj = pts[:, chart.index(f"x{j}")]
            yj = pts[:, chart.index(f"y{j}")]
            total += float(weights[j]) * (xj**2 + yj**2)
        return _make_result("unit_level_set", np.abs(total - 1.0), 1e-12, pts)

    facts = (
        _contact_fact(system),
        _reeb_defining_fact(system),
        _reeb_closed_form_fact(system),
        ExpectedFact("unit_level_set", SOURCE_CONSTRUCTION, unit_level),
    )
    pairs = ((reeb, const(1.0, coords)),)
    return ModelDescriptor(
        key=f"sphere_weighted({n},{','.join(str(w) for w in weights)})",
        system=system,
        expected=facts,
        hamiltonian_pairs=pairs,
        commuting_pairs=pairs,
    )


# -- key dispatch ----------------------------------------------------------

_KEY_PATTERN = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\))?\s*$"
)


def build_model(key: str) -> ModelDescriptor:
    """Build the model named by a key string such as ``darboux(2)``."""
    match = _KEY_PATTERN.match(key)
    if not match:
        raise ValueError(f"malformed model key {key!r}")
    name = match.group(1)
    args = tuple(int(a) for a in match.group(2).split(",")) if match.group(2) else ()
    if name == "example_3_10":
        if args:
            raise ValueError("example_3_10 takes no parameters")
        return basic_example()
    if name == "sphere_weighted":
        if len(args) < 3:
            raise ValueError(
                "sphere_weighted needs a dimension and n+1 weights, "
                "e.g. sphere_weighted(3,2,4,3,3)"
            )
        return sphere_weighted(args[0], args[1:])
    simple = {"darboux": darboux, "heisenberg": heisenberg, "cosphere_torus": cosphere_torus}
    if name in simple:
        if len(args) != 1:
            raise ValueError(f"{name}(n) needs exactly one parameter")
        return simple[name](args[0])
    known = ", ".join(sorted([*simple, "example_3_10", "sphere_weighted"]))
    raise ValueError(f"unknown model {name!r}; known families: {known}")


def default_model_keys() -> tuple[str, ...]:
    """The canonical battery: every family at small sizes."""
    return (
        "darboux(1)",
        "darboux(2)",
        "heisenberg(1)",
        "heisenberg(2)",
        "cosphere_torus(1)",
        "cosphere_torus(2)",
        "example_3_10",
        "sphere_weighted(1,1,1)",
        "sphere_weighted(3,2,4,3,3)",
    )
