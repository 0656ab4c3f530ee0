"""Contact systems on a chart: Reeb and Hamiltonian fields, brackets, checks.

The numerical core solves, at each sample point, the linear system that pins
down the Hamiltonian vector field of a function ``h``:

    pairing     :  eta(X) = h
    contraction :  (X -| d eta)_j = a * eta_j - (dh)_j,    a := dh(R)

with ``R`` the Reeb field.  Taking ``a`` as one more unknown makes the
system square: with ``E`` the coefficients of eta and ``D`` the matrix of
``d eta``, the bordered matrix ``M = [[D^T, -E], [E^T, 0]]`` gives

    M [X; a] = [-dh; h].

``M`` is antisymmetric and degree 1 in eta, and ``det M = Pf(M)^2 = (eta ^
(d eta)^n / n!)^2``: its scale-free Hadamard ratio is the contact verdict
and the solve's guard.  One batched inverse of ``M`` with unit rows yields
the field and its Reeb derivative; the Reeb field is ``h = 1`` (``a = 0``).
Spatial Jacobians of solved fields come from differentiating the linear
system itself -- ``M d_k[X; a] = d_k[-dh; h] - (d_k M) [X; a]`` -- never from
finite differences.  ``d_k M`` is never formed: its product with ``[X; a]``
is contracted from eta's first derivatives and, for a curved eta, from its
coefficients' Hessians, jetted again only for a solve that asks for
Jacobians.  Brackets are then computed as ``eta([X_f, X_g])`` from honest
field commutators, which makes the identities checked in this module
genuine cross-checks on the solver rather than restatements of its defining
equations.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .charts import Chart, ChartMismatchError, DifferentialForm, VectorField, one_form
from .expressions import (
    EvalDomainError,
    ScalarExpr,
    _as_batch,
    _curved,
    _gradients_of,
    _jets_of,
    _values_of,
    const,
    parse,
)
from .registry import DEFAULT_SAMPLES, DEFAULT_SEED, TOLERANCES, resolve_tolerance

__all__ = [
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "TOLERANCES",
    "CheckResult",
    "ClassificationRecord",
    "ContactSystem",
    "CoordinateMap",
    "GeometricError",
    "ContactConditionError",
    "SingularSystemError",
    "ConformalFactorError",
    "InverseMismatchError",
    "HamiltonianFieldEvaluator",
    "ScalarEvaluator",
    "resolve_tolerance",
    "is_contact_form",
    "reeb_field",
    "hamiltonian_field",
    "jacobi_bracket",
    "is_good",
    "is_first_integral",
    "verify_flow_identity",
    "isotropy_defect",
    "involution_table",
    "independence_rank",
    "classify_system",
    "conformal_bracket_law",
    "conjugacy_transport",
    "reeb_defining_check",
    "hamiltonian_contract_checks",
]

#: A solve is refused (the contact condition fails there) where the Hadamard
#: ratio of the bordered matrix ``M`` is below this.  It inverts ``M`` with
#: unit rows, whose ``|det|`` is the ratio, and unit rows give ``cond_2 < 2 /
#: |det|`` (Guggenheimer, Edelman, Johnson, College Math. J. 26, 1995).
SINGULAR_RATIO = 1e-12

#: Sample count used for the construction-time contact check.
VERIFY_SAMPLES = 32


class GeometricError(Exception):
    """A geometric precondition failed (as opposed to a usage error)."""


class ContactConditionError(GeometricError):
    """The 1-form fails the contact condition on the sampled chart."""


class SingularSystemError(GeometricError):
    """The pointwise field system is rank-deficient at some point."""

    def __init__(self, point: Sequence[float], detail: str = ""):
        self.point = tuple(float(c) for c in np.atleast_1d(point))
        message = f"singular field system at point {self.point}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class ConformalFactorError(GeometricError):
    """A conformal factor is not strictly positive at a sample."""


class InverseMismatchError(GeometricError):
    """A coordinate map and its declared inverse fail to round-trip."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one sampled check.

    ``passed`` is definitionally ``max_residual <= tolerance``; the
    constructor rejects any combination that breaks that equivalence.
    ``witness`` is the sample point attaining ``max_residual``.
    """

    name: str
    passed: bool
    max_residual: float
    samples: int
    tolerance: float
    witness: tuple[float, ...] | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != bool(self.max_residual <= self.tolerance):
            raise ValueError(
                "CheckResult invariant violated: passed must equal "
                "(max_residual <= tolerance)"
            )

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} "
            f"(max residual {self.max_residual:.3e}, tolerance {self.tolerance:.3e}, "
            f"{self.samples} samples)"
        )

    def to_record(self) -> dict:
        """A plain JSON-friendly dictionary."""
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "witness": None if self.witness is None else list(self.witness),
            "detail": _plain(self.detail),
        }


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _make_result(
    name: str,
    residuals: np.ndarray,
    tolerance: float,
    points: np.ndarray,
    detail: dict | None = None,
) -> CheckResult:
    residuals = np.asarray(residuals, dtype=float)
    idx = int(np.argmax(residuals))
    max_residual = float(residuals[idx])
    return CheckResult(
        name=name,
        passed=bool(max_residual <= tolerance),
        max_residual=max_residual,
        samples=len(points),
        tolerance=float(tolerance),
        witness=tuple(float(c) for c in points[idx]),
        detail=detail or {},
    )


def _require_on_chart(chart: Chart, what: str, *exprs: ScalarExpr) -> None:
    """Refuse expressions bound to other coordinates than ``chart``'s: their
    variables would be read by position, and give a wrong value silently."""
    for expr in exprs:
        if tuple(expr.coords) != chart.coords:
            raise ValueError(f"{what} bound to different coordinates than the chart")


# -- the contact system ---------------------------------------------------


@dataclass(frozen=True)
class ContactSystem:
    """A chart carrying a contact form and optional Hamiltonian data.

    ``integrals`` are candidate first integrals of ``hamiltonian`` (used by
    :func:`classify_system`); ``reeb`` may hold a known closed-form Reeb field
    for models where one is available, and is never required -- all operations
    solve for the Reeb field pointwise.

    ``verify`` (init-only, default True) runs the contact-condition check of
    :func:`is_contact_form` on a small construction-time sample and raises
    :class:`ContactConditionError` on failure.  Pass ``verify=False`` to build
    a deliberately degenerate system, e.g. to demonstrate a failing
    :func:`is_contact_form`.

    The geometry of the system at the points of its latest check (see
    :func:`_shared_geometry`) is kept on it; it refers to nothing of the
    system, so it goes with the system, and it takes no part in equality or
    hashing.
    """

    chart: Chart
    eta: DifferentialForm
    hamiltonian: ScalarExpr | None = None
    integrals: tuple[ScalarExpr, ...] = ()
    reeb: VectorField | None = None
    name: str = ""
    verify: InitVar[bool] = True
    _geometry: _Geometry | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, verify: bool):
        if self.chart.dim % 2 == 0:
            raise ValueError(f"contact chart must be odd-dimensional, got dim {self.chart.dim}")
        if self.eta.degree != 1:
            raise ValueError("eta must be a 1-form")
        if not self.eta.chart.compatible(self.chart):
            raise ChartMismatchError("eta lives on a different chart")
        object.__setattr__(self, "integrals", tuple(self.integrals))
        data = self.integrals if self.hamiltonian is None else (self.hamiltonian, *self.integrals)
        _require_on_chart(self.chart, "scalar data", *data)
        if self.reeb is not None and not self.reeb.chart.compatible(self.chart):
            raise ChartMismatchError("reeb field lives on a different chart")
        if verify:
            # Not kept: ``verify`` builds every model before the first
            # battery, and each would hold these arrays until its own.
            pts = self.chart.sample(VERIFY_SAMPLES, DEFAULT_SEED)
            threshold = TOLERANCES["contact_determinant"]
            hadamard = _Geometry(self, pts).hadamard
            check = _determinant_ratio_check("contact_condition", hadamard, threshold, pts)
            if not check.passed:
                raise ContactConditionError(
                    f"form on chart {self.chart.name!r} is not contact: "
                    f"determinant ratio {check.detail['min_determinant_ratio']:.3e} "
                    f"at point {check.witness}"
                )

    @property
    def n(self) -> int:
        """Half the kernel dimension: the chart has dimension 2n + 1."""
        return (self.chart.dim - 1) // 2

    def family(self) -> tuple[ScalarExpr, ...]:
        """The Hamiltonian together with its declared integrals."""
        if self.hamiltonian is None:
            raise ValueError("system carries no hamiltonian")
        return (self.hamiltonian, *self.integrals)


# -- batched pointwise kernel ---------------------------------------------


@dataclass
class _Solved:
    """One function solved on a geometry: its value and gradient, its Reeb
    derivative ``a``, its field and the field's Jacobian.

    ``X[n, i]`` are field components; ``dX[n, i, k] = d_k X^i``, or ``None``
    where the solve was not asked for Jacobians.
    """

    value: np.ndarray
    grad: np.ndarray
    a: np.ndarray
    X: np.ndarray
    dX: np.ndarray | None


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _require_finite(what: str, points: np.ndarray, *arrays: np.ndarray) -> None:
    """Raise :class:`EvalDomainError` at the first point where an entry of
    ``arrays`` (each indexed by point first) is ``inf`` or ``nan``.

    A non-finite eta would come out of the batched inverse as a plausible
    ``nan`` field, and the batched SVD of the rank count does not return on
    a matrix holding ``inf``, so every array handed to either passes through
    here first.
    """
    bad = np.zeros(len(points), dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a.reshape(len(points), -1)).all(axis=1)
    if np.any(bad):
        point = ", ".join(f"{v:g}" for v in points[int(np.argmax(bad))])
        raise EvalDomainError(f"{what} is not finite at ({point})")


def _hadamard(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per matrix ``A`` (n, d, d): ``|det A| / prod_i |row_i A|`` in [0, 1],
    which is ``|det|`` of ``A`` with unit rows, so no row's scale changes it;
    ``log |det A|``; and the row norms (n, d).  Each matrix is first divided
    by its largest |entry| and the ratio is taken in logs, against overflow."""
    d = matrices.shape[-1]
    scale = np.max(np.abs(matrices), axis=(1, 2))
    scale = np.where(scale > 0.0, scale, 1.0)
    unit = matrices / scale[:, None, None]
    sign, log_det = np.linalg.slogdet(unit)
    norms = np.linalg.norm(unit, axis=2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(sign == 0.0, 0.0, np.exp(log_det - np.sum(np.log(norms), axis=1)))
        return ratio, log_det + d * np.log(scale), norms * scale[:, None]


class _Geometry:
    """One system at one set of points: eta's data, the bordered matrix, its
    inverse, and the fields solved from them.

    Index conventions: ``E[n, k] = eta_k``, ``dE[n, i, k] = d_i eta_k``,
    ``D[n, i, j] = dEta(e_i, e_j)``, and ``M`` the bordered matrix ``[[D^T,
    -E], [E^T, 0]]`` of the field system, built here and nowhere else.  The
    contact verdict and the guard of ``inverse`` (the pointwise ``M^-1``,
    computed on first use) read one Hadamard ratio, the first of ``hadamard
    = _hadamard(M)``.  ``E`` and ``dE`` come from one order-1 tape of eta's
    coefficients, which forms no Hessian.  ``curved`` records whether any
    coefficient has a Hessian that is not structurally zero, read from the
    expressions (:func:`expressions._curved`) without a tape; only a solve
    that asks for Jacobians forms eta's Hessians, on a tape of its own.
    ``solved`` and the pointwise quantities below read these arrays and keep
    nothing of the expressions they are given.

    A system keeps one geometry for every operation on the same points, so
    its arrays are read-only.  The lazy inverse is computed whole and then
    assigned, so threads sharing a geometry at worst repeat that work.
    """

    def __init__(self, system: ContactSystem, pts: np.ndarray) -> None:
        n, d = pts.shape
        E = np.zeros((n, d))
        dE = np.zeros((n, d, d))
        coefficients = tuple(system.eta.coefficients.values())
        columns = tuple(k for (k,) in system.eta.coefficients)

        def take(r, v, g, h):
            k = columns[r]
            E[:, k] = v
            if g is not None:
                dE[:, :, k] = g

        _jets_of(coefficients, pts, take, order=1)
        D = dE - np.swapaxes(dE, 1, 2)
        _require_finite("eta or d(eta)", pts, E, D)
        M = np.zeros((n, d + 1, d + 1))
        M[:, :d, :d] = np.swapaxes(D, 1, 2)
        M[:, :d, d] = -E
        M[:, d, :d] = E
        self.key, self.points = _kept_points(pts)
        self.E = E
        self.dE = dE
        self.D = D
        self.M = M
        self.hadamard = _hadamard(M)
        _read_only(self.points, E, dE, D, M, *self.hadamard)
        self.curved = _curved(coefficients)
        self._eta = coefficients, columns  # jetted again for the Hessians
        self._inverse: np.ndarray | None = None

    # -- linear algebra ---------------------------------------------------

    def inverse(self) -> np.ndarray:
        """The pointwise inverse of ``M``, through ``M`` with unit rows; raises
        :class:`SingularSystemError` at the point of smallest Hadamard ratio
        if that is below :data:`SINGULAR_RATIO`."""
        if self._inverse is None:
            ratio, _, N = self.hadamard
            i = int(np.argmin(ratio))
            if ratio[i] < SINGULAR_RATIO:
                raise SingularSystemError(
                    self.points[i],
                    f"Hadamard ratio {ratio[i]:.3e} of the bordered contact matrix is "
                    f"below {SINGULAR_RATIO:g}; the contact condition fails here",
                )
            try:
                inverse = np.linalg.inv(self.M / N[:, :, None]) / N[:, None, :]
            except np.linalg.LinAlgError:
                raise SingularSystemError(
                    self.points[i],
                    "the bordered contact matrix is singular; the contact condition fails here",
                ) from None
            _read_only(inverse)
            self._inverse = inverse
        return self._inverse

    def solved(self, *exprs: ScalarExpr, jacobians: bool = False) -> tuple[_Solved, ...]:
        """The fields of ``exprs``, jetted together on one tape.  For each
        ``h``, ``M [X; a] = [-dh; h]`` gives ``X`` and its Reeb derivative
        ``a = R h``; with ``jacobians``, ``M d[X; a] = [-d^2 h; dh] - T`` gives
        the Jacobian ``dX``, else ``dX`` is ``None``.  ``T[r, k] = d_k M[r, i]
        Y_i`` with ``Y = [X; a]`` (see :meth:`_jacobian_terms`).  The tape,
        of order 2 with ``jacobians`` and of order 1 (no Hessian) without,
        writes each function's value, gradient and Hessian straight into its
        right-hand sides ``b`` and ``db``; a structurally zero gradient or
        Hessian is written as the negated zeros ``-0.0``.  The functions'
        domain errors come before the inverse's :class:`SingularSystemError`.

        An overflow gives ``inf`` or ``nan`` entries without a numpy
        warning; callers that report a value check it is finite."""
        n, d = self.points.shape
        rhs: list = [None] * len(exprs)

        def take(r, v, g, h):
            b = np.empty((n, d + 1))
            b[:, d] = v
            if g is None:
                grad = np.zeros((n, d))
                b[:, :d] = -0.0
            else:
                grad = g.copy()
                np.negative(g, out=b[:, :d])
            db = None
            if jacobians:
                db = np.empty((n, d + 1, d))
                db[:, d, :] = grad
                if h is None:
                    db[:, :d, :] = -0.0
                else:
                    np.negative(np.swapaxes(h, 1, 2), out=db[:, :d, :])
            rhs[r] = b, grad, db

        _jets_of(exprs, self.points, take, order=2 if jacobians else 1)
        with np.errstate(all="ignore"):
            inverse = self.inverse()
            Ys = [(inverse @ b[:, :, None])[:, :, 0] for b, _, _ in rhs]
            terms = self._jacobian_terms(Ys) if jacobians else [None] * len(Ys)
            solved = []
            for r, (Y, T) in enumerate(zip(Ys, terms)):
                b, grad, db = rhs[r]
                rhs[r] = terms[r] = None  # each db and T is freed once solved
                dX = None if db is None else (inverse @ (db - T))[:, :d, :]
                solved.append(_Solved(b[:, d].copy(), grad, Y[:, d], Y[:, :d], dX))
        return tuple(solved)

    def _jacobian_terms(self, Ys: list[np.ndarray]) -> list[np.ndarray]:
        """Per solved ``Y = [X; a]``, ``T[n, r, k] = sum_i d_k M[r, i] Y_i``.

        With ``H_c`` the Hessian of ``eta_c``, that is ``sum_i (H_r[k, i] -
        H_i[k, r]) X_i - d_k eta_r a`` for ``r < d`` and ``sum_i d_k eta_i
        X_i`` for ``r = d``.  The terms in ``dE`` come from the kept ``dE``;
        for a curved eta, one more tape of eta's coefficients adds each
        ``H_c`` into every ``T`` when it is computed, and keeps none.  The
        Hessian terms are summed point last, in the tape's own layout."""
        n, d = self.points.shape
        terms = []
        for Y in Ys:
            T = np.empty((n, d + 1, d))
            np.multiply(np.swapaxes(self.dE, 1, 2), -Y[:, d, None, None], out=T[:, :d, :])
            T[:, d, :] = np.einsum("nki,ni->nk", self.dE, Y[:, :d])
            terms.append(T)
        if self.curved:
            coefficients, columns = self._eta
            fields = [Y[:, :d].T.copy() for Y in Ys]
            hessian_terms = [np.zeros((d + 1, d, n)) for _ in Ys]

            def take(c, v, g, h):
                if h is None:
                    return
                k = columns[c]
                h = h.transpose(1, 2, 0)
                for X, S in zip(fields, hessian_terms):
                    S[k] += np.einsum("kin,in->kn", h, X)
                    S[:d] -= h.transpose(1, 0, 2) * X[k]

            _jets_of(coefficients, self.points, take)
            for T, S in zip(terms, hessian_terms):
                T += S.transpose(2, 0, 1)
        return terms

    def reeb(self) -> np.ndarray:
        """The Reeb field: the ``h = 1`` solve, whose right-hand side is the
        last unit vector, so it is the last column of ``M^-1`` (read-only)."""
        d = self.points.shape[1]
        return self.inverse()[:, :d, d]

    # -- pointwise quantities ---------------------------------------------

    def eta_values(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("ni,ni->n", self.E, X)

    def contraction(self, X: np.ndarray) -> np.ndarray:
        """Covector of ``X -| dEta``, shape (n, dim)."""
        return np.einsum("ni,nij->nj", X, self.D)

    def bracket(self, s1: _Solved, s2: _Solved) -> np.ndarray:
        """Jacobi bracket values ``eta([X_1, X_2])``, with eta applied to each
        Jacobian first: fields grow like ``1 / eta``, so the commutator's
        ``X^j d_j X^i`` can overflow where the bracket does not."""
        eta_dX1, eta_dX2 = (np.einsum("ni,nij->nj", self.E, s.dX) for s in (s1, s2))
        return np.einsum("nj,nj->n", s1.X, eta_dX2) - np.einsum("nj,nj->n", s2.X, eta_dX1)

    def two_form_pairing(self, s1: _Solved, s2: _Solved) -> np.ndarray:
        """Values of ``dEta(X_1, X_2)``."""
        return np.einsum("ni,nij,nj->n", s1.X, self.D, s2.X)

    def lie_eta(self, s: _Solved) -> np.ndarray:
        """Coefficients of the Lie derivative of eta along ``s.X``, (n, dim)."""
        return np.einsum("ni,nij->nj", s.X, self.dE) + np.einsum(
            "ni,nij->nj", self.E, s.dX
        )

    def defining_residuals(self, s: _Solved) -> dict[str, np.ndarray]:
        """Per-sample residuals of the equations that define ``s.X``.

        ``pairing``:     |eta(X) - h|
        ``contraction``: max_j |(X -| dEta)_j - (a eta - dh)_j|
        ``invariance``:  max_j |(Lie_X eta)_j - a eta_j|
        """
        a_eta = s.a[:, None] * self.E
        return {
            "pairing": np.abs(self.eta_values(s.X) - s.value),
            "contraction": np.max(np.abs(self.contraction(s.X) - (a_eta - s.grad)), axis=1),
            "invariance": np.max(np.abs(self.lie_eta(s) - a_eta), axis=1),
        }


def _directional(s_field: _Solved, s_fn: _Solved) -> np.ndarray:
    """Values of the derivative of ``s_fn`` along ``s_field``."""
    return np.einsum("ni,ni->n", s_field.X, s_fn.grad)


def _kept_points(pts: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The key and the points a geometry keeps: a read-only array that owns
    its data, such as a chart's kept sample, cannot change under the
    geometry, so it is kept as it is; any other is copied."""
    unchanging = not pts.flags.writeable and pts.flags.owndata
    return pts.tobytes(), pts if unchanging else pts.copy()


def _shared_geometry(owner, pts: np.ndarray, build: Callable = _Geometry):
    """The geometry kept on ``owner`` (a system, or a cone with its cone
    geometry as ``build``) if it is at the same points (the same array, or
    equal bytes), else ``build(owner, pts)``, which replaces it.  One per
    owner: a battery runs all its checks on one sample set before moving
    on.  A one-point set is built apart and never kept: sharing it saves
    nothing, and the batch geometry stays for the checks around it."""
    if len(pts) == 1:
        return build(owner, pts)
    geometry = owner._geometry
    if geometry is None or (geometry.points is not pts and geometry.key != pts.tobytes()):
        object.__setattr__(owner, "_geometry", None)  # free the old one first
        geometry = build(owner, pts)
        object.__setattr__(owner, "_geometry", geometry)
    return geometry


# -- evaluators -----------------------------------------------------------


class HamiltonianFieldEvaluator:
    """Solver-backed vector field for one Hamiltonian function.

    Evaluates anywhere on the chart; the Reeb field is the ``hamiltonian = 1``
    case.  Calls at the same batch of points share the geometry kept on the
    system (one inverse).
    """

    def __init__(self, system: ContactSystem, hamiltonian: ScalarExpr):
        _require_on_chart(system.chart, "hamiltonian", hamiltonian)
        self.system = system
        self.hamiltonian = hamiltonian

    def _solved(self, points, jacobians: bool = False) -> tuple[_Geometry, _Solved, bool]:
        pts, single = _as_batch(points, self.system.chart.dim)
        geometry = _shared_geometry(self.system, pts)
        (s,) = geometry.solved(self.hamiltonian, jacobians=jacobians)
        return geometry, s, single

    def evaluate(self, points) -> np.ndarray:
        _, s, single = self._solved(points)
        return s.X[0] if single else s.X

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)

    def jacobian(self, points) -> np.ndarray:
        """``J[n, i, k] = d_k X^i`` (or ``(dim, dim)`` for a single point)."""
        _, s, single = self._solved(points, jacobians=True)
        return s.dX[0] if single else s.dX

    def reeb_derivative(self, points) -> np.ndarray | float:
        """Values of the Reeb derivative of the Hamiltonian."""
        _, s, single = self._solved(points)
        return float(s.a[0]) if single else s.a

    def residual_arrays(self, points) -> dict[str, np.ndarray]:
        """Per-sample defining-equation residuals, as
        :meth:`_Geometry.defining_residuals` names them."""
        geometry, s, _ = self._solved(points, jacobians=True)
        return geometry.defining_residuals(s)

    def residuals(self, points) -> dict[str, float]:
        """Worst-case defining-equation residuals over ``points``."""
        return {k: float(v.max()) for k, v in self.residual_arrays(points).items()}


class ScalarEvaluator:
    """A pointwise scalar derived from solved Hamiltonian fields, computed
    from the geometry of the points it is evaluated at."""

    def __init__(self, system: ContactSystem, compute: Callable[[_Geometry], np.ndarray]):
        self.system = system
        self._compute = compute

    def evaluate(self, points) -> np.ndarray | float:
        pts, single = _as_batch(points, self.system.chart.dim)
        values = self._compute(_shared_geometry(self.system, pts))
        return float(values[0]) if single else values

    def __call__(self, points) -> np.ndarray | float:
        return self.evaluate(points)

    def at(self, point) -> float:
        """The value at one point."""
        return self.evaluate(np.asarray(point, dtype=float).reshape(-1))


# -- operations -----------------------------------------------------------


def _determinant_ratio_check(
    name: str, hadamard: tuple, threshold: float, points: np.ndarray
) -> CheckResult:
    """Pointwise nondegeneracy of square matrices ``M`` from their
    :func:`_hadamard` data: the bordered contact matrix for
    ``contact_condition``, the matrix of the cone's symplectic form for
    ``cone_nondegeneracy``.  The verdict is the scale-free Hadamard ratio, so
    ``threshold`` is the minimum acceptable ratio whatever the entries' size.

    ``detail`` records the smallest ``|det M|`` as ``min_abs_determinant``,
    or, where that number over- or underflows a float (``1e150 * (dz - y
    dx)`` has ``|det M| = 1e600``), its natural log as
    ``min_log_abs_determinant``, so that every recorded value is finite.
    """
    ratio, log_abs_det, _ = hadamard
    log_min_abs_det = float(np.min(log_abs_det))
    with np.errstate(over="ignore"):
        min_abs_det = float(np.exp(log_min_abs_det))
    residuals = np.maximum(0.0, threshold - ratio)
    if math.isinf(min_abs_det) or (min_abs_det == 0.0 and math.isfinite(log_min_abs_det)):
        detail = {"min_log_abs_determinant": log_min_abs_det}
    else:
        detail = {"min_abs_determinant": min_abs_det}
    detail["min_determinant_ratio"] = float(np.min(ratio))
    detail["determinant_ratio_threshold"] = float(threshold)
    return _make_result(name, residuals, 0.0, points, detail)


def is_contact_form(
    system: ContactSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Sampled contact-condition check: the Hadamard ratio of the bordered
    matrix ``M``, whose determinant is ``(eta ^ (d eta)^n / n!)^2``, stays
    above the ``contact_determinant`` threshold at every sample."""
    pts = system.chart.sample(samples, seed)
    threshold = resolve_tolerance("contact_determinant", tolerances)
    hadamard = _shared_geometry(system, pts).hadamard
    return _determinant_ratio_check("contact_condition", hadamard, threshold, pts)


def reeb_field(system: ContactSystem) -> HamiltonianFieldEvaluator:
    """The unique field with ``eta(R) = 1`` and ``R -| dEta = 0``."""
    return HamiltonianFieldEvaluator(system, const(1.0, system.chart.coords))


def hamiltonian_field(system: ContactSystem, h: ScalarExpr) -> HamiltonianFieldEvaluator:
    """The unique field with ``eta(X) = h`` and ``Lie_X eta = (R h) eta``."""
    return HamiltonianFieldEvaluator(system, h)


def jacobi_bracket(system: ContactSystem, f: ScalarExpr, g: ScalarExpr) -> ScalarEvaluator:
    """Pointwise values of ``eta([X_f, X_g])``; antisymmetric in (f, g)."""
    _require_on_chart(system.chart, "function", f, g)
    return ScalarEvaluator(system, lambda geo: geo.bracket(*geo.solved(f, g, jacobians=True)))


def is_good(
    system: ContactSystem,
    h: ScalarExpr,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Whether the Reeb derivative of ``h`` vanishes at all samples."""
    _require_on_chart(system.chart, "function", h)
    pts = system.chart.sample(samples, seed)
    (s,) = _shared_geometry(system, pts).solved(h)
    tol = resolve_tolerance("goodness", tolerances)
    return _make_result("goodness", np.abs(s.a), tol, pts, {"function": str(h)})


def is_first_integral(
    system: ContactSystem,
    h: ScalarExpr,
    f: ScalarExpr,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Whether ``f`` is constant along the field of ``h`` at all samples."""
    _require_on_chart(system.chart, "function", h, f)
    pts = system.chart.sample(samples, seed)
    (sh,) = _shared_geometry(system, pts).solved(h)
    (f_grad,) = _gradients_of((f,), pts)
    residuals = np.abs(np.einsum("ni,ni->n", sh.X, f_grad))
    tol = resolve_tolerance("first_integral", tolerances)
    detail = {"hamiltonian": str(h), "integral": str(f)}
    return _make_result("first_integral", residuals, tol, pts, detail)


def verify_flow_identity(
    system: ContactSystem,
    h: ScalarExpr,
    f: ScalarExpr,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Residual of ``X_h f = (R h) f + {h, f}`` at all samples."""
    _require_on_chart(system.chart, "function", h, f)
    pts = system.chart.sample(samples, seed)
    geometry = _shared_geometry(system, pts)
    sh, sf = geometry.solved(h, f, jacobians=True)
    residuals = np.abs(_directional(sh, sf) - sh.a * sf.value - geometry.bracket(sh, sf))
    tol = resolve_tolerance("flow_identity", tolerances)
    detail = {"hamiltonian": str(h), "function": str(f)}
    return _make_result("flow_identity", residuals, tol, pts, detail)


def isotropy_defect(system: ContactSystem, h: ScalarExpr, f: ScalarExpr) -> ScalarEvaluator:
    """Pointwise values of ``dEta(X_h, X_f)``."""
    _require_on_chart(system.chart, "function", h, f)
    return ScalarEvaluator(system, lambda geo: geo.two_form_pairing(*geo.solved(h, f)))


def involution_table(
    system: ContactSystem,
    fns: Sequence[ScalarExpr],
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> list[list[CheckResult]]:
    """Pairwise bracket-vanishing table; entry (i, j) checks ``{f_i, f_j}``."""
    fns = tuple(fns)
    if len(fns) < 2:
        raise ValueError("involution table needs at least two functions")
    _require_on_chart(system.chart, "function", *fns)
    tol = resolve_tolerance("involution", tolerances)
    pts = system.chart.sample(samples, seed)
    geometry = _shared_geometry(system, pts)
    sols = geometry.solved(*fns, jacobians=True)
    table: list[list[CheckResult]] = []
    for i, si in enumerate(sols):
        row = []
        for j, sj in enumerate(sols):
            residuals = np.abs(geometry.bracket(si, sj))
            detail = {"pair": [str(fns[i]), str(fns[j])]}
            row.append(_make_result(f"involution[{i},{j}]", residuals, tol, pts, detail))
        table.append(row)
    return table


def independence_rank(
    system: ContactSystem,
    fns: Sequence[ScalarExpr],
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> tuple[int, float]:
    """Max pointwise rank of the span of the Hamiltonian fields of ``fns``
    and the fraction of samples attaining it."""
    fns = tuple(fns)
    if not fns:
        raise ValueError("independence rank needs at least one function")
    _require_on_chart(system.chart, "function", *fns)
    rel = resolve_tolerance("rank_svd", tolerances)
    pts = system.chart.sample(samples, seed)
    geometry = _shared_geometry(system, pts)
    return _pointwise_rank(np.stack([s.X for s in geometry.solved(*fns)], axis=2), rel, pts)


def _pointwise_rank(columns: np.ndarray, rel: float, points: np.ndarray) -> tuple[int, float]:
    """Max over points of the numerical rank of ``columns[n]`` (singular
    values above ``rel`` times the largest) and the fraction of points
    attaining it.  One column's only singular value is its norm, which is
    above ``rel`` times itself exactly where the column is not zero, so
    that case needs no SVD."""
    _require_finite("a field", points, columns)
    if columns.shape[2] == 1:
        ranks = np.any(columns[:, :, 0] != 0.0, axis=1).astype(int)
    else:
        svals = np.linalg.svd(columns, compute_uv=False)
        ranks = np.sum(svals > rel * svals[:, :1], axis=1)
    max_rank = int(ranks.max())
    return max_rank, float(np.mean(ranks == max_rank))


@dataclass(frozen=True)
class ClassificationRecord:
    """Verdicts of :func:`classify_system`; ``detail`` carries the evidence."""

    completely_integrable_witnessed: bool
    good: bool
    completely_good: bool
    reeb_type: bool
    detail: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "completely_integrable_witnessed": self.completely_integrable_witnessed,
            "good": self.good,
            "completely_good": self.completely_good,
            "reeb_type": self.reeb_type,
            "detail": _plain(self.detail),
        }


def classify_system(
    system: ContactSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> ClassificationRecord:
    """Integrability/goodness verdicts for a system carrying ``n`` integrals.

    The family checked is the Hamiltonian together with its integrals
    (``n + 1`` functions).  ``completely_good`` is additionally cross-checked
    through the equivalent criterion that each family field preserves eta
    (vanishing Lie derivative); the agreement flag is recorded in ``detail``.
    """
    family = system.family()
    n = system.n
    if len(system.integrals) != n:
        raise ValueError(
            f"dimension-{system.chart.dim} chart needs exactly {n} integrals, "
            f"got {len(system.integrals)}"
        )
    tol_fi = resolve_tolerance("first_integral", tolerances)
    tol_good = resolve_tolerance("goodness", tolerances)
    tol_inv = resolve_tolerance("involution", tolerances)
    tol_lie = resolve_tolerance("hamiltonian_invariance", tolerances)
    rel = resolve_tolerance("rank_svd", tolerances)
    dense = resolve_tolerance("dense_fraction", tolerances)

    pts = system.chart.sample(samples, seed)
    geometry = _shared_geometry(system, pts)
    sols = geometry.solved(*family, jacobians=True)
    sh = sols[0]

    first_integral_residual = max(
        float(np.max(np.abs(_directional(sh, s)))) for s in sols
    )
    involution_residual = 0.0
    for i, si in enumerate(sols):
        for sj in sols[i + 1 :]:
            involution_residual = max(
                involution_residual, float(np.max(np.abs(geometry.bracket(si, sj))))
            )
    max_rank, rank_fraction = _pointwise_rank(np.stack([s.X for s in sols], axis=2), rel, pts)

    goodness_residuals = [float(np.max(np.abs(s.a))) for s in sols]
    lie_residuals = [float(np.max(np.abs(geometry.lie_eta(s)))) for s in sols]

    integrable = (
        first_integral_residual <= tol_fi
        and involution_residual <= tol_inv
        and max_rank == n + 1
        and rank_fraction >= dense
    )
    good = goodness_residuals[0] <= tol_good
    all_good = all(r <= tol_good for r in goodness_residuals)
    completely_good = integrable and all_good
    lie_all_good = all(r <= tol_lie for r in lie_residuals)
    one_index = next(
        (i for i, f in enumerate(family) if f.constant_value() == 1.0), None
    )
    reeb_type = integrable and one_index is not None

    detail = {
        "rank": max_rank,
        "required_rank": n + 1,
        "rank_fraction": rank_fraction,
        "first_integral_max_residual": first_integral_residual,
        "involution_max_residual": involution_residual,
        "goodness_residuals": goodness_residuals,
        "lie_invariance_residuals": lie_residuals,
        "completely_good_cross_check_agrees": lie_all_good == all_good,
        "constant_one_index": one_index,
        "samples": len(pts),
    }
    return ClassificationRecord(integrable, good, completely_good, reeb_type, detail)


def conformal_bracket_law(
    system: ContactSystem,
    conformal_factor: ScalarExpr,
    g: ScalarExpr,
    h: ScalarExpr,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Bracket transformation under a positive rescale of the contact form:
    the bracket in the rescaled system equals ``f * {g/f, h/f}``."""
    _require_on_chart(system.chart, "function", conformal_factor, g, h)
    pts = system.chart.sample(samples, seed)
    factor_values = conformal_factor.values(pts)
    if np.any(factor_values <= 0.0):
        i = int(np.argmin(factor_values))
        raise ConformalFactorError(
            f"conformal factor {conformal_factor} is not positive at "
            f"{tuple(float(c) for c in pts[i])}: value {factor_values[i]:.6g}"
        )
    # A strictly positive rescale cannot destroy the contact condition, so the
    # rescaled system skips the construction-time sampling check.
    rescaled = ContactSystem(
        system.chart, system.eta.scaled(conformal_factor), verify=False
    )
    rescaled_geometry = _shared_geometry(rescaled, pts)
    lhs = rescaled_geometry.bracket(*rescaled_geometry.solved(g, h, jacobians=True))
    geometry = _shared_geometry(system, pts)
    g_over = g / conformal_factor
    h_over = h / conformal_factor
    rhs = factor_values * geometry.bracket(*geometry.solved(g_over, h_over, jacobians=True))
    tol = resolve_tolerance("conformal_law", tolerances)
    detail = {"factor": str(conformal_factor), "g": str(g), "h": str(h)}
    return _make_result("conformal_bracket_law", np.abs(lhs - rhs), tol, pts, detail)


# -- conjugacy ------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateMap:
    """A diffeomorphism of a chart onto itself, with an explicit inverse.

    Both directions are given componentwise as expressions over the chart's
    coordinates; :func:`conjugacy_transport` verifies at samples that they
    actually invert each other.
    """

    chart: Chart
    components: tuple[ScalarExpr, ...]
    inverse_components: tuple[ScalarExpr, ...]

    def __post_init__(self):
        for comps in (self.components, self.inverse_components):
            if len(comps) != self.chart.dim:
                raise ValueError("component count must equal chart dimension")
            _require_on_chart(self.chart, "component", *comps)

    @staticmethod
    def identity(chart: Chart) -> "CoordinateMap":
        comps = tuple(parse(name, chart.coords) for name in chart.coords)
        return CoordinateMap(chart, comps, comps)

    def _evaluate(self, comps, points) -> np.ndarray:
        pts, single = _as_batch(points, self.chart.dim)
        out = np.stack(_values_of(comps, pts), axis=1)
        return out[0] if single else out

    def apply(self, points) -> np.ndarray:
        return self._evaluate(self.components, points)

    def apply_inverse(self, points) -> np.ndarray:
        return self._evaluate(self.inverse_components, points)

    def inverse_mapping(self) -> dict[str, ScalarExpr]:
        """Coordinate-name table of the inverse, for substitution."""
        return {
            name: comp
            for name, comp in zip(self.chart.coords, self.inverse_components)
        }


def conjugacy_transport(
    system: ContactSystem,
    diffeo: CoordinateMap,
    h: ScalarExpr,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> tuple[ContactSystem, CheckResult]:
    """Transport (eta, h) along a diffeomorphism and compare goodness.

    The transported form is the pullback of eta under the inverse map and the
    transported Hamiltonian is ``h`` composed with the inverse map, so the
    returned system represents the same geometry in moved coordinates.  Its
    chart samples by pushing the base chart's samples forward, which keeps
    the goodness comparison on corresponding point sets.
    """
    chart = system.chart
    if not diffeo.chart.compatible(chart):
        raise ChartMismatchError("diffeomorphism lives on a different chart")
    _require_on_chart(chart, "function", h)
    tol_inv = resolve_tolerance("inverse_roundtrip", tolerances)
    pts = chart.sample(samples, seed)
    image = diffeo.apply(pts)
    back = diffeo.apply_inverse(image)
    round_trip = np.max(np.abs(back - pts), axis=1)
    forward_again = diffeo.apply(back)
    round_trip = np.maximum(
        round_trip, np.max(np.abs(forward_again - image), axis=1)
    )
    worst = int(np.argmax(round_trip))
    if round_trip[worst] > tol_inv:
        raise InverseMismatchError(
            f"declared inverse fails to round-trip at "
            f"{tuple(float(c) for c in pts[worst])}: residual {round_trip[worst]:.3e}"
        )

    subs = diffeo.inverse_mapping()
    psi = diffeo.inverse_components
    pulled_coeffs: dict[str, ScalarExpr] = {}
    for (k,), coeff in system.eta.coefficients.items():
        pulled = coeff.substitute(subs, chart.coords)
        for j, name in enumerate(chart.coords):
            term = pulled * psi[k].derivative(name)
            if name in pulled_coeffs:
                pulled_coeffs[name] = pulled_coeffs[name] + term
            else:
                pulled_coeffs[name] = term

    def _pushforward_sampler(count: int, sample_seed: int) -> np.ndarray:
        return diffeo.apply(chart.sample(count, sample_seed))

    moved_chart = replace(
        chart,
        name=f"{chart.name}:transported",
        sampler=_pushforward_sampler,
        domain=None if chart.domain is None else chart.domain.substitute(subs, chart.coords),
    )
    moved_h = h.substitute(subs, chart.coords)
    moved_system = ContactSystem(
        chart=moved_chart,
        eta=one_form(moved_chart, pulled_coeffs),
        hamiltonian=moved_h,
        integrals=tuple(f.substitute(subs, chart.coords) for f in system.integrals),
        name=f"{system.name}:transported" if system.name else "transported",
    )

    base = is_good(system, h, samples, seed, tolerances)
    moved = is_good(moved_system, moved_h, samples, seed, tolerances)
    agree = base.passed == moved.passed
    residual = 0.0 if agree else abs(base.max_residual - moved.max_residual)
    check = CheckResult(
        name="conjugacy_goodness_agreement",
        passed=agree,
        max_residual=residual,
        samples=samples,
        tolerance=0.0,
        witness=moved.witness,
        detail={
            "base_passed": base.passed,
            "base_max_residual": base.max_residual,
            "transported_passed": moved.passed,
            "transported_max_residual": moved.max_residual,
            "inverse_roundtrip_max_residual": float(round_trip[worst]),
        },
    )
    return moved_system, check


# -- contract batteries ----------------------------------------------------


def reeb_defining_check(
    system: ContactSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> CheckResult:
    """Worst residual of the two Reeb defining equations at samples."""
    pts = system.chart.sample(samples, seed)
    geometry = _shared_geometry(system, pts)
    R = geometry.reeb()
    pairing = np.abs(geometry.eta_values(R) - 1.0)
    contraction = np.max(np.abs(geometry.contraction(R)), axis=1)
    residuals = np.maximum(pairing, contraction)
    tol = resolve_tolerance("reeb_defining", tolerances)
    return _make_result("reeb_defining", residuals, tol, pts)


def hamiltonian_contract_checks(
    system: ContactSystem,
    h: ScalarExpr,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances: Mapping[str, float] | None = None,
) -> tuple[CheckResult, CheckResult]:
    """Pairing and eta-invariance residuals of the field of ``h``."""
    _require_on_chart(system.chart, "function", h)
    pts = system.chart.sample(samples, seed)
    geometry = _shared_geometry(system, pts)
    residuals = geometry.defining_residuals(*geometry.solved(h, jacobians=True))
    detail = {"hamiltonian": str(h)}
    return tuple(
        _make_result(name, residuals[key], resolve_tolerance(name, tolerances), pts, detail)
        for name, key in (
            ("hamiltonian_pairing", "pairing"),
            ("hamiltonian_invariance", "invariance"),
        )
    )
