"""Symplectization: the cone over a contact chart.

A contact chart ``(M, eta)`` determines the cone ``M x (0, oo)`` with radial
coordinate ``r``, carrying the exact symplectic form ``Omega = d(r^2 eta)``
and the Liouville field ``Psi = r d/dr``, so that ``L_Psi Omega = 2 Omega``.
An infinitesimal contact transformation on the base -- a field ``X`` with
``L_X eta = a eta`` for the rate ``a = R_eta(eta(X))`` -- lifts to an
``Omega``-preserving field

    lift(X) = X - (a / 2) Psi,

and the lift of the Hamiltonian field of ``h`` is the classical Hamiltonian
field of the homogeneous function ``r^2 h``, in the sense that ``lift(X)``
contracted into ``Omega`` equals ``-d(r^2 h)``.

Everything here is symbolic in the chart coordinates: ``Omega`` comes from
the exact exterior derivative, lifts are expression-level vector fields, and
the checks evaluate residuals on seeded samples against the shared tolerance
registry.  The radial coordinate is sampled log-uniformly so that both small
and large cone radii are exercised.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .charts import (
    Chart,
    DifferentialForm,
    VectorField,
    _exterior_terms,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    vector_field,
    zero_form,
)
from .contact import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    VERIFY_SAMPLES,
    CheckResult,
    ContactConditionError,
    ContactSystem,
    GeometricError,
    _determinant_ratio_check,
    _make_result,
    _pointwise_rank,
    resolve_tolerance,
)
from .expressions import ScalarExpr, _values_of, const, coord

__all__ = [
    "RADIAL",
    "DEFAULT_RADIAL_BOUNDS",
    "ContactTransformationError",
    "ConeSystem",
    "build_cone",
    "closure_check",
    "nondegeneracy_check",
    "homogeneity_check",
    "scale_covariance_check",
    "reeb_rate",
    "lift",
    "lift_checks",
    "cone_hamiltonian",
    "commuting_lift_check",
]

RADIAL = "r"
DEFAULT_RADIAL_BOUNDS = (0.1, 10.0)

#: Multiple of the unit roundoff per unit of ``|t1| + |t2| + |t3|`` that
#: :func:`closure_check` allows a coefficient of ``d(omega)``.  Adding three
#: rounded partials costs at most 2u of their magnitude, and each partial
#: brings the rounding of its own evaluation; 16 covers both with room to
#: spare (the default models need at most 1.33 over 20 seeds at 128 to 4096
#: samples), and keeps the floor below 1e-6 even where the partials of
#: ``cosphere_torus(2)`` reach 1e8, so a defect of that size still fails.
CLOSURE_ROUNDING_FACTOR = 16

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class ContactTransformationError(GeometricError):
    """A field submitted for lifting does not rescale the contact form."""


@dataclass(frozen=True)
class ConeSystem:
    """The symplectization of a contact system.

    ``cone_chart`` extends the base chart by the radial coordinate (always the
    last coordinate, drawn log-uniformly when sampling); ``eta`` is the base
    contact form re-indexed onto the cone chart, ``omega = d(r^2 eta)`` the
    symplectic form, and ``liouville`` the field ``r d/dr``.
    """

    base: ContactSystem
    cone_chart: Chart
    eta: DifferentialForm
    omega: DifferentialForm
    liouville: VectorField

    @property
    def radial(self) -> str:
        return self.cone_chart.coords[-1]

    @property
    def n(self) -> int:
        return self.base.n

    def radial_coordinate(self) -> ScalarExpr:
        return coord(self.radial, self.cone_chart.coords)

    def to_cone(self, expr: ScalarExpr) -> ScalarExpr:
        """Re-index a base-chart scalar onto the cone chart."""
        return expr.rebind(self.cone_chart.coords)

    def extend(self, field: VectorField) -> VectorField:
        """A base vector field viewed on the cone, with zero radial part."""
        comps = tuple(self.to_cone(c) for c in field.components)
        comps += (const(0.0, self.cone_chart.coords),)
        return VectorField(self.cone_chart, comps)


def build_cone(
    system: ContactSystem,
    radial_bounds: tuple[float, float] = DEFAULT_RADIAL_BOUNDS,
    verify: bool = True,
    samples: int = VERIFY_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> ConeSystem:
    """Symplectize ``system``.

    With ``verify`` (the default) the construction checks that ``omega`` is
    closed and nondegenerate on a seeded sample and raises
    :class:`ContactConditionError` otherwise -- a degenerate base form shows
    up here as a degenerate cone form.
    """
    chart = system.chart
    if RADIAL in chart.coords:
        raise ValueError(f"base chart already uses coordinate {RADIAL!r}")
    lo, hi = radial_bounds
    if not 0.0 < lo < hi:
        raise ValueError("radial bounds must satisfy 0 < lo < hi")
    coords = chart.coords + (RADIAL,)
    cone_chart = Chart(
        name=f"cone({chart.name})" if chart.name else "cone",
        coords=coords,
        bounds=chart.bounds + ((lo, hi),),
        domain=None if chart.domain is None else chart.domain.rebind(coords),
        log_coords=frozenset(chart.log_coords) | {RADIAL},
    )
    eta = DifferentialForm(
        cone_chart,
        1,
        {key: e.rebind(coords) for key, e in system.eta.coefficients.items()},
    )
    r_squared = coord(RADIAL, coords) ** 2
    omega = exterior_derivative(eta.scaled(r_squared))
    liouville = vector_field(cone_chart, {RADIAL: RADIAL})
    cone = ConeSystem(
        base=system,
        cone_chart=cone_chart,
        eta=eta,
        omega=omega,
        liouville=liouville,
    )
    if verify:
        for check in (
            closure_check(cone, samples=samples, seed=seed, tolerances=tolerances),
            nondegeneracy_check(cone, samples=samples, seed=seed, tolerances=tolerances),
        ):
            if not check.passed:
                raise ContactConditionError(
                    f"cone over chart {chart.name!r} is not symplectic: "
                    f"{check.name} residual {check.max_residual:.3e} at {check.witness}"
                )
    return cone


def closure_check(
    cone: ConeSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """``d(omega) = 0``, evaluated coefficientwise at seeded cone samples.

    Each coefficient ``t1 - t2 + t3`` of ``d(omega)`` sums partials that
    cancel exactly, so its float value carries rounding error proportional
    to ``|t1| + |t2| + |t3|`` (running error analysis: Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., sec. 3.3).  The
    residual is the excess of ``|d(omega)|`` over that rounding floor,
    ``CLOSURE_ROUNDING_FACTOR * u * (|t1| + |t2| + |t3|)`` with ``u`` the
    unit roundoff, and ``detail`` records the largest floor.
    """
    tol = resolve_tolerance("cone_closure", tolerances)
    pts = cone.cone_chart.sample(samples, seed)
    excess, floor = _closure_excess(cone.omega, pts)
    detail = {"max_rounding_floor": float(np.max(floor))}
    return _make_result("cone_closure", excess, tol, pts, detail)


def _closure_excess(omega: DifferentialForm, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point: the largest excess of ``|d(omega)|`` over its rounding
    floor (0 where every coefficient is within its floor), and the largest
    floor."""
    terms = _exterior_terms(omega)
    values = _values_of([partial for _, _, partial in terms], pts)
    by_slot: dict[tuple[int, ...], list[np.ndarray]] = {}
    for (slot, sign, _), v in zip(terms, values):
        by_slot.setdefault(slot, []).append(sign * v)
    excess = np.zeros(len(pts))
    floor = np.zeros(len(pts))
    for parts in by_slot.values():
        parts = np.stack(parts)
        slot_floor = CLOSURE_ROUNDING_FACTOR * _UNIT_ROUNDOFF * np.sum(np.abs(parts), axis=0)
        excess = np.maximum(excess, np.abs(np.sum(parts, axis=0)) - slot_floor)
        floor = np.maximum(floor, slot_floor)
    return excess, floor


def nondegeneracy_check(
    cone: ConeSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """``omega`` has full rank at every sample.

    The pairing matrix goes through the same scale-free Hadamard-ratio
    verdict as the base contact condition; the ``cone_nondegeneracy``
    tolerance is the minimum acceptable ratio.
    """
    threshold = resolve_tolerance("cone_nondegeneracy", tolerances)
    pts = cone.cone_chart.sample(samples, seed)
    return _determinant_ratio_check("cone_nondegeneracy", cone.omega.matrix(pts), threshold, pts)


def homogeneity_check(
    cone: ConeSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """The Liouville field scales the cone form: ``L_Psi omega = 2 omega``."""
    tol = resolve_tolerance("cone_homogeneity", tolerances)
    pts = cone.cone_chart.sample(samples, seed)
    defect = lie_derivative(cone.liouville, cone.omega) - cone.omega.scaled(2.0)
    return _make_result("cone_homogeneity", defect.max_abs(pts), tol, pts)


def scale_covariance_check(
    system: ContactSystem,
    factor: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
    radial_bounds: tuple[float, float] = DEFAULT_RADIAL_BOUNDS,
) -> CheckResult:
    """Rescaling ``eta`` by ``c > 0`` while substituting ``r -> r / sqrt(c)``
    leaves the cone form unchanged.

    The check builds the cones over ``(M, eta)`` and ``(M, c eta)`` and pulls
    the second cone form back through the correspondence
    ``(x, r) -> (x, r / sqrt(c))``; since the substitution also turns ``dr``
    into ``dr / sqrt(c)``, the pulled-back pairing matrix carries a factor
    ``1 / sqrt(c)`` on the radial row and column.  The result is compared
    with the plain cone form at the original points.
    """
    if factor <= 0.0:
        raise ValueError("scale factor must be positive")
    tol = resolve_tolerance("scale_covariance", tolerances)
    plain = build_cone(system, radial_bounds=radial_bounds, verify=False)
    rescaled = ContactSystem(
        chart=system.chart,
        eta=system.eta.scaled(float(factor)),
        name=f"{system.name or system.chart.name}*{factor:g}",
        verify=False,
    )
    shrunk = build_cone(rescaled, radial_bounds=radial_bounds, verify=False)
    pts = plain.cone_chart.sample(samples, seed)
    moved = pts.copy()
    root = np.sqrt(factor)
    moved[:, -1] /= root
    pulled = shrunk.omega.matrix(moved)
    pulled[:, -1, :] /= root
    pulled[:, :, -1] /= root
    diff = plain.omega.matrix(pts) - pulled
    residuals = np.max(np.abs(diff), axis=(1, 2))
    return _make_result("scale_covariance", residuals, tol, pts, {"factor": float(factor)})


def reeb_rate(system: ContactSystem, hamiltonian: ScalarExpr) -> ScalarExpr:
    """The Reeb derivative of ``hamiltonian`` as a symbolic expression.

    This is the conformal rate ``a`` in ``L_X eta = a eta`` for the
    Hamiltonian field of ``hamiltonian``.  It needs a system carrying a
    closed-form Reeb field; for systems without one the pointwise solver in
    :mod:`contactkit.contact` is the only route.
    """
    if system.reeb is None:
        raise ValueError(
            "symbolic Reeb derivative needs a system with a closed-form reeb field"
        )
    if tuple(hamiltonian.coords) != system.chart.coords:
        raise ValueError("hamiltonian bound to different coordinates than the chart")
    rate = const(0.0, system.chart.coords)
    for name, comp in zip(system.chart.coords, system.reeb.components):
        rate = rate + comp * hamiltonian.derivative(name)
    return rate


def lift(
    cone: ConeSystem,
    field: VectorField,
    hamiltonian: ScalarExpr,
    samples: int = VERIFY_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
    verify: bool = True,
) -> VectorField:
    """Lift a contact vector field to an ``omega``-preserving field.

    ``field`` must be the Hamiltonian field of ``hamiltonian = eta(field)``
    on the base chart.  The defining precondition ``L_X eta = a eta`` (with
    ``a`` the Reeb derivative of ``hamiltonian``) is enforced on seeded base
    samples; violating fields raise :class:`ContactTransformationError`.  The
    lift subtracts ``a/2`` times the Liouville field:

        lift(X) = X - (a / 2) r d/dr.

    With ``verify`` the lifted field is additionally checked to preserve
    ``omega`` and to commute with the Liouville field.
    """
    base = cone.base
    rate = reeb_rate(base, hamiltonian)
    pts = base.chart.sample(samples, seed)
    defect = lie_derivative(field, base.eta) - base.eta.scaled(rate)
    residuals = defect.max_abs(pts)
    tol = resolve_tolerance("lift_precondition", tolerances)
    worst = int(np.argmax(residuals))
    if residuals[worst] > tol:
        raise ContactTransformationError(
            "field is not an infinitesimal contact transformation: "
            f"max |L_X eta - a eta| = {float(residuals[worst]):.3e} > {tol:g} "
            f"at {tuple(float(c) for c in pts[worst])}"
        )
    lifted = cone.extend(field) - cone.liouville.scaled(cone.to_cone(rate) * 0.5)
    if verify:
        for check in lift_checks(cone, lifted, samples=samples, seed=seed, tolerances=tolerances):
            if not check.passed:
                raise GeometricError(
                    f"lifted field fails {check.name}: "
                    f"residual {check.max_residual:.3e} at {check.witness}"
                )
    return lifted


def lift_checks(
    cone: ConeSystem,
    lifted: VectorField,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> tuple[CheckResult, CheckResult]:
    """The two contracts of a lifted field: ``L_X omega = 0`` and ``[X, Psi] = 0``."""
    pts = cone.cone_chart.sample(samples, seed)
    invariance = _make_result(
        "lift_invariance",
        lie_derivative(lifted, cone.omega).max_abs(pts),
        resolve_tolerance("lift_invariance", tolerances),
        pts,
    )
    bracket = lie_bracket(lifted, cone.liouville)
    commutation = _make_result(
        "lift_liouville_commutation",
        np.max(np.abs(bracket.evaluate(pts)), axis=1),
        resolve_tolerance("lift_commuting", tolerances),
        pts,
    )
    return invariance, commutation


def cone_hamiltonian(
    cone: ConeSystem,
    field: VectorField,
    hamiltonian: ScalarExpr,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> tuple[ScalarExpr, CheckResult]:
    """The induced Hamiltonian ``r^2 h`` on the cone, with its defining check.

    Returns the homogeneous function ``H = r^2 h`` together with the check
    that the lifted field contracted into ``omega`` equals ``-dH`` at seeded
    cone samples.
    """
    lifted = lift(
        cone, field, hamiltonian, samples=samples, seed=seed, tolerances=tolerances, verify=False
    )
    induced = cone.radial_coordinate() ** 2 * cone.to_cone(hamiltonian)
    defect = interior_product(lifted, cone.omega) + exterior_derivative(
        zero_form(cone.cone_chart, induced)
    )
    pts = cone.cone_chart.sample(samples, seed)
    tol = resolve_tolerance("cone_contraction", tolerances)
    return induced, _make_result("cone_contraction", defect.max_abs(pts), tol, pts)


def commuting_lift_check(
    cone: ConeSystem,
    pairs: Sequence[tuple[VectorField, ScalarExpr]],
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Pairwise commutation of lifted fields, with the family's pointwise rank.

    ``pairs`` lists ``(field, hamiltonian)`` with ``hamiltonian = eta(field)``
    on the base chart; the fields are expected to commute there.  The check
    passes iff every pairwise bracket of the lifted fields vanishes
    componentwise at the samples.  ``detail`` records the observed pointwise
    rank of the lifted family -- for a completely integrable family of
    ``n + 1`` commuting fields the expected rank is ``n + 1``.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("commuting lift check needs at least one (field, hamiltonian) pair")
    lifted = [
        lift(cone, X, h, samples=samples, seed=seed, tolerances=tolerances, verify=False)
        for X, h in pairs
    ]
    pts = cone.cone_chart.sample(samples, seed)
    residuals = np.zeros(len(pts))
    for i in range(len(lifted)):
        for j in range(i + 1, len(lifted)):
            values = lie_bracket(lifted[i], lifted[j]).evaluate(pts)
            residuals = np.maximum(residuals, np.max(np.abs(values), axis=1))
    max_rank, rank_fraction = _pointwise_rank(
        np.stack([f.evaluate(pts) for f in lifted], axis=2),
        resolve_tolerance("rank_svd", tolerances),
        pts,
    )
    detail = {
        "fields": len(lifted),
        "lifted_rank": max_rank,
        "rank_fraction": rank_fraction,
        "expected_rank": cone.n + 1,
    }
    tol = resolve_tolerance("lift_commuting", tolerances)
    return _make_result("commuting_lifts", residuals, tol, pts, detail)
