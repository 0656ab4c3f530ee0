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

The construction is symbolic in the chart coordinates: ``Omega`` comes from
the exact exterior derivative, and lifts are expression-level vector fields.
The checks are pointwise.  One order-0 tape evaluates ``Omega``'s
coefficients and streams their first partials into ``d(Omega)`` and the
homogeneity defect at a cone's sample once; the cone keeps ``Omega``'s
matrix and these results, not the partials, as its cone geometry.  Each
lifted field is evaluated with its first partials on one tape, ``L_X Omega``
evaluates ``Omega``'s partials again on another, and the contracts are
assembled from these arrays by the coordinate Cartan formulas, with no
symbolic Lie derivative, bracket or contraction built; so is the lift's
precondition ``L_X eta = a eta``, from one order-1 tape on the base chart.
The symbolic calculus of
:mod:`contactkit.charts` is the oracle that the tests hold these formulas
to.  Residuals are measured on seeded samples against the shared tolerance
registry.  The radial coordinate is sampled log-uniformly so that both small
and large cone radii are exercised.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .charts import (
    Chart,
    ChartMismatchError,
    DifferentialForm,
    VectorField,
    _exterior_terms,
    _require_same_chart,
    exterior_derivative,
    vector_field,
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
    _hadamard,
    _kept_points,
    _make_result,
    _read_only,
    _require_on_chart,
    _shared_geometry,
    resolve_tolerance,
)
from .expressions import ScalarExpr, _jets_of, const, coord

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
    symplectic form, and ``liouville`` the field ``r d/dr``.  Lifted fields
    are not kept on the cone: a caller that needs one more than once lifts
    it once with :func:`lift` and passes it on.

    The cone geometry at the points of the latest check (see
    :class:`_ConeGeometry`) is kept on the cone, by the rule that keeps a
    system's geometry; it refers to nothing of the cone, so it goes with the
    cone, and it takes no part in equality or hashing.
    """

    base: ContactSystem
    cone_chart: Chart
    eta: DifferentialForm
    omega: DifferentialForm
    liouville: VectorField
    _geometry: _ConeGeometry | None = field(default=None, init=False, repr=False, compare=False)

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
    """Symplectize ``system`` over the radial interval ``radial_bounds``,
    which must be finite with ``0 < lo < hi``.

    Each call builds a new :class:`ConeSystem`; a caller that needs the cone
    more than once builds it once and passes it on.  With ``verify`` (the
    default) the call checks that ``omega`` is closed and nondegenerate on a
    seeded sample and raises :class:`ContactConditionError` otherwise -- a
    degenerate base form shows up here as a degenerate cone form.
    """
    chart = system.chart
    if RADIAL in chart.coords:
        raise ValueError(f"base chart already uses coordinate {RADIAL!r}")
    lo, hi = radial_bounds
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError("radial bounds must be finite and satisfy 0 < lo < hi")
    cone = _symplectization(system, lo, hi)
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


def _symplectization(system: ContactSystem, lo: float, hi: float) -> ConeSystem:
    chart = system.chart
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
    return ConeSystem(
        base=system,
        cone_chart=cone_chart,
        eta=eta,
        omega=omega,
        liouville=liouville,
    )


# -- pointwise arrays --------------------------------------------------------


def _nonzero_partials(
    exprs: Sequence[ScalarExpr], wanted: Callable[[int, int], bool] | None = None
) -> list[tuple[int, int, ScalarExpr]]:
    """``(m, l, partial)`` for each structurally non-zero first partial, the
    memoized symbolic derivative, of ``exprs[m]`` along coordinate ``l``,
    by ``m`` and then ``l``; with ``wanted``, only where ``wanted(m, l)``."""
    out = []
    for m, expr in enumerate(exprs):
        for name in expr.free_coords:
            l = expr.coords.index(name)
            if wanted is None or wanted(m, l):
                partial = expr.derivative(name)
                if partial.constant_value() != 0.0:
                    out.append((m, l, partial))
    return out


def _first_partials(
    exprs: Sequence[ScalarExpr],
    partials: Sequence[tuple[int, int, ScalarExpr]],
    pts: np.ndarray,
    put: Callable[..., None],
) -> None:
    """The values of ``exprs`` (one chart) and of ``partials`` (as
    :func:`_nonzero_partials` lists them) at ``pts``, from one order-0 tape.
    It calls ``put(m, None, v)`` with the value of ``exprs[m]`` and ``put(m,
    l, v)`` with a partial as soon as the tape has each; ``v`` may be a
    scalar or an array the tape shares, so ``put`` writes nothing into it
    and copies what it keeps past the tape."""
    roots = [*exprs, *(partial for _, _, partial in partials)]
    where = [(m, None) for m in range(len(exprs))] + [(m, l) for m, l, _ in partials]
    _jets_of(roots, pts, lambda r, v, g, h: put(*where[r], v), order=0)


class _ConeGeometry:
    """The cone form at one set of cone points, from one order-0 tape of
    omega's coefficients and the partials that its checks read.

    It keeps ``W[n, i, j] = omega(e_i, e_j)``; ``closure``, per point the
    largest excess of ``|d(omega)|`` over its rounding floor (0 where every
    coefficient is within its floor) and the largest floor; ``homogeneity``,
    the coefficients (K, n) at ``slots`` of ``L_Psi omega - 2 omega`` for
    ``Psi = r d/dr``; and omega's coefficient expressions, whose partials
    :meth:`lie` evaluates again.  It keeps no partial of omega.  The tape
    streams them: each goes into its coefficient of ``d(omega)``, which is
    summed in the order and with the signs of
    :func:`charts.exterior_derivative` (see :func:`charts._exterior_terms`)
    as soon as its last structurally non-zero partial arrives, and then
    dropped; each radial partial goes into the homogeneity defect.

    A cone keeps one geometry for every check on the same points (see
    :func:`contact._shared_geometry`), so its arrays are read-only; it
    refers to nothing of the cone.  No array it keeps or forms has more
    than ``n D^2`` entries.
    """

    def __init__(self, cone: ConeSystem, pts: np.ndarray) -> None:
        n, dim = pts.shape
        radial = dim - 1
        slots = list(cone.omega.coefficients)
        coefficients = tuple(cone.omega.coefficients.values())
        partials = _nonzero_partials(
            coefficients, lambda k, l: l == radial or l not in slots[k]
        )
        arrived = {(k, l) for k, l, _ in partials}
        # per coefficient of d(omega), its non-zero terms in summation order
        terms: dict[tuple[int, ...], list[tuple[int, int, float]]] = {}
        row = {key: k for k, key in enumerate(slots)}
        for slot, sign, key, l in _exterior_terms(cone.omega):
            if (row[key], l) in arrived:
                terms.setdefault(slot, []).append((row[key], l, sign))
        into = {(k, l): slot for slot, parts in terms.items() for k, l, _ in parts}
        due = {slot: len(parts) for slot, parts in terms.items()}
        waiting: dict[tuple[int, int], np.ndarray] = {}
        W = np.zeros((n, dim, dim))
        homogeneity = np.zeros((len(slots), n))
        excess = np.zeros(n)
        floor = np.zeros(n)

        def put(k, l, v):
            nonlocal excess, floor
            if l is None:
                i, j = slots[k]
                W[:, i, j] = v
                W[:, j, i] = -v
                return
            if l == radial:
                homogeneity[k] = pts[:, radial] * v
            slot = into.get((k, l))
            if slot is None:
                return
            waiting[k, l] = v  # read before the tape returns, and never written
            due[slot] -= 1
            if due[slot]:
                return
            total = np.zeros(n)
            size = np.zeros(n)
            for term_k, term_l, sign in terms[slot]:
                part = waiting.pop((term_k, term_l))
                total += sign * part
                size += np.abs(part)
            slot_floor = CLOSURE_ROUNDING_FACTOR * _UNIT_ROUNDOFF * size
            excess = np.maximum(excess, np.abs(total) - slot_floor)
            floor = np.maximum(floor, slot_floor)

        _first_partials(coefficients, partials, pts, put)
        for k, (i, j) in enumerate(slots):
            # L_Psi adds omega_ij once more where j is the radial index
            homogeneity[k] -= (1.0 if j == radial else 2.0) * W[:, i, j]
        self.key, self.points = _kept_points(pts)
        self.slots = slots
        self.W = W
        self.closure = excess, floor
        self.homogeneity = homogeneity
        self._omega = coefficients  # their partials are evaluated again by lie
        _read_only(self.points, W, homogeneity, excess, floor)

    def lie(self, X: np.ndarray, J: np.ndarray) -> np.ndarray:
        """The values of ``L_X omega`` above the diagonal, (n, D(D-1)/2) in
        row-major order, from the field's values ``X`` and Jacobian
        ``J[n, i, k] = d_k X^i``: ``(L_X omega)_ij = (A - A^T)_ij + X^l d_l
        omega_ij`` with ``A = W J``.  One order-0 tape of omega's partials
        streams ``X^l d_l omega_ij`` into its coefficient's sum in the order
        of ``l``; apart from ``A`` no (n, D, D) array is formed."""
        n, dim = X.shape
        partials = _nonzero_partials(self._omega)
        pending = [[] for _ in self.slots]  # per coefficient, its l in order
        for k, l, _ in partials:
            pending[k].append(l)
        waiting: dict[tuple[int, int], np.ndarray] = {}
        along = np.zeros((len(self.slots), n))

        def put(k, l, v):
            waiting[k, l] = v * X[:, l]
            order = pending[k]
            while order and (k, order[0]) in waiting:
                along[k] += waiting.pop((k, order.pop(0)))

        _first_partials((), partials, self.points, put)
        upper_i, upper_j = np.triu_indices(dim, 1)
        A = self.W @ J
        L = A[:, upper_i, upper_j]
        L -= A[:, upper_j, upper_i]
        for k, (i, j) in enumerate(self.slots):
            L[:, i * dim - i * (i + 1) // 2 + j - i - 1] += along[k]
        return L

    def contraction(self, X: np.ndarray) -> np.ndarray:
        """``X -| omega`` as an (n, D) covector."""
        return np.einsum("ni,nij->nj", X, self.W)


def _field_arrays(
    cone: ConeSystem,
    vector: VectorField,
    pts: np.ndarray,
    *scalars: ScalarExpr,
    jacobian: bool = True,
) -> tuple[np.ndarray, ...]:
    """A field on the cone chart at ``pts``: its values ``X`` (n, D) and
    Jacobian ``J[n, i, k] = d_k X^i`` (``None`` unless ``jacobian``), then
    the gradient (n, D) of each of ``scalars``, all from one tape.  Raises
    :class:`ChartMismatchError` for a field on another chart."""
    if not vector.chart.compatible(cone.cone_chart):
        raise ChartMismatchError(
            f"field on chart {vector.chart.name!r} is not on the cone chart "
            f"{cone.cone_chart.name!r}"
        )
    n, dim = pts.shape
    X = np.zeros((n, dim))
    J = np.zeros((n, dim, dim)) if jacobian else None
    grads = [np.zeros((n, dim)) for _ in scalars]

    def put(m, l, v):
        if m < dim:
            if l is None:
                X[:, m] = v
            else:
                J[:, m, l] = v
        elif l is not None:
            grads[m - dim][:, l] = v

    exprs = (*vector.components, *scalars)
    partials = _nonzero_partials(exprs, None if jacobian else lambda m, l: m >= dim)
    _first_partials(exprs, partials, pts, put)
    return (X, J, *grads)


def _bracket(Xa: np.ndarray, Ja: np.ndarray, Xb: np.ndarray, Jb: np.ndarray) -> np.ndarray:
    """``[X_a, X_b]^i = X_a^j d_j X_b^i - X_b^j d_j X_a^i`` (n, D), term by
    term in the order in which :func:`charts.lie_bracket` sums them."""
    out = np.zeros_like(Xa)
    for j in range(Xa.shape[1]):
        out += Xa[:, j, None] * Jb[:, :, j]
        out -= Xb[:, j, None] * Ja[:, :, j]
    return out


def _liouville_bracket(X: np.ndarray, J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``[X, Psi] = X^r e_r - r d_r X`` (n, D) for ``Psi = r d/dr``."""
    out = -r[:, None] * J[:, :, -1]
    out[:, -1] += X[:, -1]
    return out


# -- checks ------------------------------------------------------------------


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
    excess, floor = _shared_geometry(cone, pts, _ConeGeometry).closure
    detail = {"max_rounding_floor": float(np.max(floor))}
    return _make_result("cone_closure", excess, tol, pts, detail)


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
    hadamard = _hadamard(_shared_geometry(cone, pts, _ConeGeometry).W)
    return _determinant_ratio_check("cone_nondegeneracy", hadamard, threshold, pts)


def homogeneity_check(
    cone: ConeSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """The Liouville field scales the cone form: ``L_Psi omega = 2 omega``."""
    tol = resolve_tolerance("cone_homogeneity", tolerances)
    pts = cone.cone_chart.sample(samples, seed)
    defect = _shared_geometry(cone, pts, _ConeGeometry).homogeneity
    # initial: a zero eta has no coefficients, and then no defect
    return _make_result("cone_homogeneity", np.max(np.abs(defect), axis=0, initial=0.0), tol, pts)


def scale_covariance_check(
    cone: ConeSystem,
    factor: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Rescaling ``eta`` by ``c > 0`` while substituting ``r -> r / sqrt(c)``
    leaves the cone form unchanged.

    ``cone`` is the cone over ``(M, eta)``.  The check builds the cone over
    ``(M, c eta)`` on the same radial bounds and pulls its form back through
    the correspondence ``(x, r) -> (x, r / sqrt(c))``; since the substitution
    also turns ``dr`` into ``dr / sqrt(c)``, the pulled-back pairing matrix
    carries a factor ``1 / sqrt(c)`` on the radial row and column.  The
    result is compared with the form of ``cone`` at the original points.
    ``factor`` must be positive and finite.
    """
    if not (factor > 0.0 and math.isfinite(factor)):
        raise ValueError(f"scale factor must be positive and finite, got {factor}")
    tol = resolve_tolerance("scale_covariance", tolerances)
    system = cone.base
    rescaled = ContactSystem(
        chart=system.chart,
        eta=system.eta.scaled(float(factor)),
        name=f"{system.name or system.chart.name}*{factor:g}",
        verify=False,
    )
    shrunk = build_cone(rescaled, radial_bounds=cone.cone_chart.bounds[-1], verify=False)
    pts = cone.cone_chart.sample(samples, seed)
    moved = pts.copy()
    root = np.sqrt(factor)
    moved[:, -1] /= root
    pulled = shrunk.omega.matrix(moved)
    pulled[:, -1, :] /= root
    pulled[:, :, -1] /= root
    np.subtract(_shared_geometry(cone, pts, _ConeGeometry).W, pulled, out=pulled)
    residuals = np.max(np.abs(pulled, out=pulled), axis=(1, 2))
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
    _require_on_chart(system.chart, "hamiltonian", hamiltonian)
    rate = const(0.0, system.chart.coords)
    for name, comp in zip(system.chart.coords, system.reeb.components):
        rate = rate + comp * hamiltonian.derivative(name)
    return rate


def _precondition_residuals(
    system: ContactSystem, field: VectorField, rate: ScalarExpr, pts: np.ndarray
) -> np.ndarray:
    """Per point, ``max_j |(L_X eta)_j - a eta_j|`` for ``X = field`` and
    ``a`` the values of ``rate``, with ``(L_X eta)_j = X^i d_i eta_j + eta_i
    d_j X^i``: the coordinate Cartan formula, from one order-1 tape of eta's
    coefficients, the field's components and ``rate``, with no symbolic
    Lie derivative built.  ``field`` must be on the system's chart
    (:class:`ChartMismatchError` otherwise)."""
    _require_same_chart(field, system.eta)
    n, d = pts.shape
    columns = [k for (k,) in system.eta.coefficients]
    K = len(columns)
    E, X, a = np.zeros((n, d)), np.zeros((n, d)), np.zeros(n)
    dE, J = np.zeros((n, d, d)), np.zeros((n, d, d))

    def take(r, v, g, h):
        if r < K:
            E[:, columns[r]] = v
            if g is not None:
                dE[:, :, columns[r]] = g
        elif r < K + d:
            X[:, r - K] = v
            if g is not None:
                J[:, r - K] = g
        else:
            a[:] = v

    exprs = (*system.eta.coefficients.values(), *field.components, rate)
    _jets_of(exprs, pts, take, order=1)
    lie = np.einsum("ni,nij->nj", X, dE) + np.einsum("ni,nij->nj", E, J)
    return np.max(np.abs(lie - a[:, None] * E), axis=1)


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
    ``a`` the Reeb derivative of ``hamiltonian``) is enforced pointwise on
    seeded base samples (see :func:`_precondition_residuals`); violating
    fields raise :class:`ContactTransformationError`.  The
    lift subtracts ``a/2`` times the Liouville field:

        lift(X) = X - (a / 2) r d/dr.

    With ``verify`` the lifted field is additionally checked to preserve
    ``omega`` and to commute with the Liouville field.  Every call checks
    the precondition and builds the lift anew; :func:`cone_hamiltonian` and
    :func:`commuting_lift_check` take the lifted field, so one lift serves
    them all.
    """
    tol = resolve_tolerance("lift_precondition", tolerances)
    base = cone.base
    rate = reeb_rate(base, hamiltonian)
    pts = base.chart.sample(samples, seed)
    residuals = _precondition_residuals(base, field, rate, pts)
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
    """The two contracts of a lifted field: ``L_X omega = 0`` and ``[X, Psi] = 0``.

    ``lifted`` must be on the cone chart (:class:`ChartMismatchError`
    otherwise).
    """
    pts = cone.cone_chart.sample(samples, seed)
    X, J = _field_arrays(cone, lifted, pts)
    values = _shared_geometry(cone, pts, _ConeGeometry).lie(X, J)
    invariance = _make_result(
        "lift_invariance",
        np.max(np.abs(values, out=values), axis=1),
        resolve_tolerance("lift_invariance", tolerances),
        pts,
    )
    commutation = _make_result(
        "lift_liouville_commutation",
        np.max(np.abs(_liouville_bracket(X, J, pts[:, -1])), axis=1),
        resolve_tolerance("lift_commuting", tolerances),
        pts,
    )
    return invariance, commutation


def cone_hamiltonian(
    cone: ConeSystem,
    lifted: VectorField,
    hamiltonian: ScalarExpr,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> tuple[ScalarExpr, CheckResult]:
    """The induced Hamiltonian ``r^2 h`` on the cone, with its defining check.

    ``lifted`` is the field that :func:`lift` returns for the Hamiltonian
    field of ``hamiltonian``.  Returns the homogeneous function ``H = r^2 h``
    together with the check that ``lifted`` contracted into ``omega`` equals
    ``-dH`` at seeded cone samples.  ``lifted`` must be on the cone chart
    (:class:`ChartMismatchError` otherwise).
    """
    pts = cone.cone_chart.sample(samples, seed)
    induced = cone.radial_coordinate() ** 2 * cone.to_cone(hamiltonian)
    X, _, dH = _field_arrays(cone, lifted, pts, induced, jacobian=False)
    defect = _shared_geometry(cone, pts, _ConeGeometry).contraction(X) + dH
    tol = resolve_tolerance("cone_contraction", tolerances)
    return induced, _make_result("cone_contraction", np.max(np.abs(defect), axis=1), tol, pts)


def commuting_lift_check(
    cone: ConeSystem,
    lifted_fields: Sequence[VectorField],
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Pairwise commutation of lifted fields.

    ``lifted_fields`` are fields that :func:`lift` returns for Hamiltonian
    fields expected to commute on the base chart.  The check passes iff
    every pairwise bracket vanishes componentwise at the samples, and
    ``detail`` records the number of fields.  It computes no rank: the rank
    verdict on a model's family is its ``classification_verdicts`` fact, on
    the base chart.  Every field must be on the cone chart
    (:class:`ChartMismatchError` otherwise).
    """
    lifted = list(lifted_fields)
    if not lifted:
        raise ValueError("commuting lift check needs at least one lifted field")
    pts = cone.cone_chart.sample(samples, seed)
    arrays = [_field_arrays(cone, f, pts) for f in lifted]
    residuals = np.zeros(len(pts))
    for i in range(len(arrays)):
        for j in range(i + 1, len(arrays)):
            values = _bracket(*arrays[i], *arrays[j])
            residuals = np.maximum(residuals, np.max(np.abs(values), axis=1))
    tol = resolve_tolerance("lift_commuting", tolerances)
    return _make_result("commuting_lifts", residuals, tol, pts, {"fields": len(lifted)})
