"""Coordinate charts, vector fields and differential forms.

Forms are stored sparsely: a degree-k form maps strictly increasing k-tuples
of coordinate indices to ScalarExpr coefficients.  Degree is capped at 3 —
every identity the toolkit checks stays within that range (top-degree volume
forms such as ``eta ^ (d eta)^n`` are decided by the determinant of the
bordered contact matrix in the contact module, ``Pf(M)^2``).

All operations build new symbolic coefficients via exact expression calculus;
numbers only appear when a form or field is evaluated on a batch of points.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .expressions import ScalarExpr, _as_batch, _gradients_of, _values_of, const

__all__ = [
    "Chart",
    "VectorField",
    "DifferentialForm",
    "FormDegreeError",
    "ChartMismatchError",
    "SamplingError",
    "zero_form",
    "one_form",
    "vector_field",
    "basis_field",
    "exterior_derivative",
    "wedge",
    "interior_product",
    "lie_bracket",
    "lie_derivative",
    "seeded_rng",
]

MAX_DEGREE = 3


class FormDegreeError(ValueError):
    """A form operation left the supported degree range 0..3."""


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


class SamplingError(RuntimeError):
    """The chart sampler could not produce enough valid points."""


def seeded_rng(seed: int, label: str = "") -> np.random.Generator:
    """Deterministic generator; ``label`` splits independent streams."""
    if label:
        return np.random.default_rng([int(seed), zlib.crc32(label.encode())])
    return np.random.default_rng(int(seed))


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart with a deterministic point sampler.

    ``bounds`` gives the sampling box per coordinate; coordinates listed in
    ``log_coords`` are drawn log-uniformly (for radial cone coordinates).
    ``domain`` is an optional expression that must be strictly positive at
    valid points; the sampler rejects offending draws, so sampled points
    always satisfy it.  Each ``(count, seed)`` is drawn once and kept on the
    chart (see :meth:`sample`); the kept points take no part in equality or
    hashing.
    """

    name: str
    coords: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...] = ()
    domain: ScalarExpr | None = None
    log_coords: frozenset[str] = frozenset()
    sampler: Callable[[int, int], np.ndarray] | None = None
    _samples: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.coords:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate coordinate names")
        if not self.bounds:
            object.__setattr__(self, "bounds", tuple((-2.0, 2.0) for _ in self.coords))
        if len(self.bounds) != len(self.coords):
            raise ValueError("bounds length must match coordinate count")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)

    def sample(self, count: int, seed: int) -> np.ndarray:
        """``count`` valid points, deterministically from ``seed``.

        The points are drawn on the first call for a ``(count, seed)`` and
        kept on the chart: every later call returns the same read-only
        array, so copy it before changing it.  A custom ``sampler``'s
        output is copied before it is kept, so its own array stays as it
        was.  Raises :class:`SamplingError` for a count below 1, since every
        sampled check needs at least one point.
        """
        if count < 1:
            raise SamplingError(f"chart {self.name!r}: sample count must be positive, got {count}")
        pts = self._samples.get((count, seed))
        if pts is None:
            pts = self._sampled(count, seed)
            pts.flags.writeable = False
            self._samples[(count, seed)] = pts
        return pts

    def _sampled(self, count: int, seed: int) -> np.ndarray:
        """A fresh array of ``count`` valid points that owns its data."""
        if self.sampler is not None:
            pts = np.array(self.sampler(count, seed), dtype=float)
            if pts.shape != (count, self.dim):
                raise SamplingError(
                    f"custom sampler returned shape {pts.shape}, "
                    f"expected {(count, self.dim)}"
                )
            self._check_domain(pts)
            return pts
        rng = seeded_rng(seed, self.name)
        out: list[np.ndarray] = []
        have = 0
        for _ in range(200):
            draw = self._draw(rng, max(count, 2 * (count - have)))
            if self.domain is not None:
                draw = draw[self.domain.values(draw) > 0.0]
            if len(draw):
                out.append(draw)
                have += len(draw)
            if have >= count:
                break
        else:
            raise SamplingError(
                f"chart {self.name!r}: domain predicate rejected too many draws"
            )
        return np.concatenate(out)[:count].copy()

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        cols = []
        for name, (lo, hi) in zip(self.coords, self.bounds):
            if name in self.log_coords:
                cols.append(np.exp(rng.uniform(np.log(lo), np.log(hi), size=count)))
            else:
                cols.append(rng.uniform(lo, hi, size=count))
        return np.stack(cols, axis=1)

    def _check_domain(self, pts: np.ndarray) -> None:
        if self.domain is not None and np.any(self.domain.values(pts) <= 0.0):
            raise SamplingError(f"chart {self.name!r}: sampler produced invalid points")

    def compatible(self, other: "Chart") -> bool:
        return self.coords == other.coords

    def parse(self, source: str) -> ScalarExpr:
        return ScalarExpr.parse(source, self.coords)


def _require_same_chart(a, b) -> None:
    if not a.chart.compatible(b.chart):
        raise ChartMismatchError(
            f"operands on different charts: {a.chart.name!r} vs {b.chart.name!r}"
        )


@dataclass(frozen=True)
class VectorField:
    """A vector field with one ScalarExpr component per chart coordinate."""

    chart: Chart
    components: tuple[ScalarExpr, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ValueError("component count must equal chart dimension")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts, single = _as_batch(points, self.chart.dim)
        out = np.stack(_values_of(self.components, pts), axis=1)
        return out[0] if single else out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """J[n, i, k] = d_k X^i, from one exact order-1 tape (``(dim, dim)``
        for a single point)."""
        pts, single = _as_batch(points, self.chart.dim)
        J = np.stack(_gradients_of(self.components, pts), axis=1)
        return J[0] if single else J

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(
            self.chart,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def scaled(self, factor: ScalarExpr | float) -> "VectorField":
        return VectorField(self.chart, tuple(c * factor for c in self.components))


@dataclass(frozen=True)
class DifferentialForm:
    """Sparse exterior form of degree 0..3 with expression coefficients.

    Forms compare by chart, degree and coefficient mapping, and hash alike,
    so equal forms hash equal; the mapping is never changed after
    construction."""

    chart: Chart
    degree: int
    coefficients: dict[tuple[int, ...], ScalarExpr] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.degree <= MAX_DEGREE:
            raise FormDegreeError(f"degree {self.degree} outside 0..{MAX_DEGREE}")
        if self.degree > self.chart.dim:
            raise FormDegreeError("degree exceeds chart dimension")
        for key in self.coefficients:
            if len(key) != self.degree or list(key) != sorted(set(key)):
                raise ValueError(f"index tuple {key} not strictly increasing")

    def __hash__(self) -> int:
        return hash((self.chart, self.degree, frozenset(self.coefficients.items())))

    def coefficient(self, key: tuple[int, ...]) -> ScalarExpr:
        expr = self.coefficients.get(tuple(key))
        if expr is None:
            return const(0.0, self.chart.coords)
        return expr

    # -- evaluation -------------------------------------------------------

    def coefficient_arrays(self, points: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
        keys = sorted(self.coefficients)
        arrays = _values_of([self.coefficients[k] for k in keys], points)
        return dict(zip(keys, arrays))

    def max_abs(self, points: np.ndarray) -> np.ndarray:
        """Pointwise max |coefficient|, shape (n,), or (1,) for a single
        point; zeros for the empty form."""
        pts = _as_batch(points, self.chart.dim)[0]
        vals = self.coefficient_arrays(pts)
        if not vals:
            return np.zeros(len(pts))
        return np.max(np.abs(np.stack(list(vals.values()))), axis=0)

    def covector(self, points: np.ndarray) -> np.ndarray:
        """Degree-1 coefficients as an (n, dim) array (or (dim,) for a single
        point)."""
        if self.degree != 1:
            raise FormDegreeError("covector() needs a 1-form")
        pts, single = _as_batch(points, self.chart.dim)
        out = np.zeros((len(pts), self.chart.dim))
        arrays = _values_of(list(self.coefficients.values()), pts)
        for (i,), v in zip(self.coefficients, arrays):
            out[:, i] = v
        return out[0] if single else out

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """Degree-2 pairing as an antisymmetric (n, dim, dim) array (or (dim,
        dim) for a single point)."""
        if self.degree != 2:
            raise FormDegreeError("matrix() needs a 2-form")
        pts, single = _as_batch(points, self.chart.dim)
        d = self.chart.dim
        out = np.zeros((len(pts), d, d))
        arrays = _values_of(list(self.coefficients.values()), pts)
        for (i, j), v in zip(self.coefficients, arrays):
            out[:, i, j] = v
            out[:, j, i] = -v
        return out[0] if single else out

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise FormDegreeError("cannot add forms of different degree")
        coeffs = dict(self.coefficients)
        for k, e in other.coefficients.items():
            coeffs[k] = coeffs[k] + e if k in coeffs else e
        return DifferentialForm(self.chart, self.degree, _prune(coeffs))

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + other.scaled(-1.0)

    def scaled(self, factor: ScalarExpr | float) -> "DifferentialForm":
        return DifferentialForm(
            self.chart,
            self.degree,
            _prune({k: e * factor for k, e in self.coefficients.items()}),
        )

    def slots(self) -> list[tuple[int, ...]]:
        return sorted(self.coefficients)


def _prune(coeffs: dict) -> dict:
    out = {}
    for k, e in sorted(coeffs.items()):
        cv = e.constant_value()
        if cv == 0.0:
            continue
        out[k] = e
    return out


# -- constructors ---------------------------------------------------------


def zero_form(chart: Chart, expr: ScalarExpr | float) -> DifferentialForm:
    if not isinstance(expr, ScalarExpr):
        expr = const(float(expr), chart.coords)
    return DifferentialForm(chart, 0, _prune({(): expr}))


def one_form(chart: Chart, coeffs: Mapping[str, ScalarExpr | str | float]) -> DifferentialForm:
    table = {}
    for name, e in coeffs.items():
        if isinstance(e, str):
            e = chart.parse(e)
        elif not isinstance(e, ScalarExpr):
            e = const(float(e), chart.coords)
        table[(chart.index(name),)] = e
    return DifferentialForm(chart, 1, _prune(table))


def vector_field(chart: Chart, comps: Mapping[str, ScalarExpr | str | float]) -> VectorField:
    table = [const(0.0, chart.coords) for _ in chart.coords]
    for name, e in comps.items():
        if isinstance(e, str):
            e = chart.parse(e)
        elif not isinstance(e, ScalarExpr):
            e = const(float(e), chart.coords)
        table[chart.index(name)] = e
    return VectorField(chart, tuple(table))


def basis_field(chart: Chart, name: str) -> VectorField:
    return vector_field(chart, {name: 1.0})


# -- exterior calculus ----------------------------------------------------


def _exterior_terms(
    omega: DifferentialForm,
) -> list[tuple[tuple[int, ...], float, tuple[int, ...], int]]:
    """The signed first partials that ``d(omega)`` sums, in the order it sums
    them, as ``(slot, sign, key, i)``: coefficient ``slot`` of ``d(omega)``
    is the sum of ``sign`` times the partial along coordinate ``i`` of the
    coefficient at ``key``, over its entries."""
    if omega.degree > MAX_DEGREE - 1:
        raise FormDegreeError("exterior derivative of a degree-3 form is out of range")
    terms = []
    for key in omega.coefficients:
        for i in range(omega.chart.dim):
            if i in key:
                continue
            slot = tuple(sorted(key + (i,)))
            terms.append((slot, (-1.0) ** slot.index(i), key, i))
    return terms


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """d(omega): antisymmetrized first partials, degree raised by one."""
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for slot, sign, key, i in _exterior_terms(omega):
        term = omega.coefficients[key].derivative(omega.chart.coords[i]) * sign
        out[slot] = out[slot] + term if slot in out else term
    return DifferentialForm(omega.chart, omega.degree + 1, _prune(out))


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


def wedge(alpha: DifferentialForm, beta: DifferentialForm) -> DifferentialForm:
    _require_same_chart(alpha, beta)
    degree = alpha.degree + beta.degree
    if degree > MAX_DEGREE or degree > alpha.chart.dim:
        raise FormDegreeError(f"wedge degree {degree} out of range")
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for ka, ea in alpha.coefficients.items():
        for kb, eb in beta.coefficients.items():
            if set(ka) & set(kb):
                continue
            slot = tuple(sorted(ka + kb))
            term = ea * eb * float(_merge_sign(ka, kb))
            out[slot] = out[slot] + term if slot in out else term
    return DifferentialForm(alpha.chart, degree, _prune(out))


def interior_product(X: VectorField, omega: DifferentialForm) -> DifferentialForm:
    """X contracted into the first argument of omega."""
    _require_same_chart(X, omega)
    if omega.degree < 1:
        raise FormDegreeError("cannot contract into a 0-form")
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for key, e in omega.coefficients.items():
        for pos, i in enumerate(key):
            slot = key[:pos] + key[pos + 1 :]
            term = X.components[i] * e * ((-1.0) ** pos)
            out[slot] = out[slot] + term if slot in out else term
    return DifferentialForm(omega.chart, omega.degree - 1, _prune(out))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i), symbolically exact."""
    _require_same_chart(X, Y)
    chart = X.chart
    comps = []
    for i in range(chart.dim):
        acc = const(0.0, chart.coords)
        for j, name in enumerate(chart.coords):
            acc = acc + X.components[j] * Y.components[i].derivative(name)
            acc = acc - Y.components[j] * X.components[i].derivative(name)
        comps.append(acc)
    return VectorField(chart, tuple(comps))


def lie_derivative(X: VectorField, omega: DifferentialForm) -> DifferentialForm:
    """Cartan formula: X into d(omega) plus d of X into omega."""
    _require_same_chart(X, omega)
    if omega.degree > MAX_DEGREE - 1:
        raise FormDegreeError("Lie derivative of a degree-3 form is out of range")
    first = interior_product(X, exterior_derivative(omega))
    if omega.degree == 0:
        return first
    return first + exterior_derivative(interior_product(X, omega))
