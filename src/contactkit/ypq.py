"""The toric contact family Y^{p,q}: exact lattice data and dossiers.

For integers ``1 <= q < p`` the space Y^{p,q} is the reduction of the unit
sphere in C^4 by the circle subgroup of the 4-torus acting with weights
``(p-q, p+q, -p, -p)``; the action is free exactly when ``gcd(p, q) = 1``.
This module computes the associated lattice data -- weight vectors,
change-of-basis matrices, orbifold Hirzebruch quotients, weighted projective
factors, vertex-enumerated Reeb minima -- in exact integer and ``Fraction``
arithmetic.  Floating point appears only in level-set sampling, which draws
points of the reduction locus and evaluates the contact pairing there.

The contact pairing of a torus generator with weight vector ``a`` at a point
with squared moduli ``m`` is the linear functional ``sum_j a_j m_j``; on the
level set the reduction circle pairs to zero and the Reeb generator stays
strictly positive, with an exactly enumerable minimum over the vertices of
the moment polytope slice.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charts import seeded_rng
from .contact import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    CheckResult,
    _make_result,
    resolve_tolerance,
)

__all__ = [
    "InvalidToricParameterError",
    "YpqParams",
    "LevelSetSample",
    "WeightMatrix",
    "YpqReport",
    "circle_weights",
    "reeb_weights",
    "quotient_reeb_weights",
    "moment_t4",
    "moment_circle",
    "is_free",
    "sample_level_set",
    "level_set_residuals",
    "contact_pairing",
    "vertex_minimum",
    "reeb_positivity",
    "circle_pairing_check",
    "sasaki_cone_membership",
    "reparametrize_torus",
    "torus_weights",
    "homogeneous_coordinate_check",
    "hirzebruch_data",
    "quotient_kahler_data",
    "classify",
    "totient",
    "coprime_pairs",
    "class_table",
    "ypq_report",
    "enumerate_structures",
    "format_dossier",
    "format_class_table",
    "format_table",
]


class InvalidToricParameterError(ValueError):
    """Parameters outside ``1 <= q < p`` or failing an arithmetic precondition."""


@dataclass(frozen=True)
class YpqParams:
    """The integer pair selecting a member of the family."""

    p: int
    q: int

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidToricParameterError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.q < self.p:
            raise InvalidToricParameterError(
                f"parameters must satisfy 1 <= q < p, got p = {self.p}, q = {self.q}"
            )

    @property
    def gcd(self) -> int:
        return math.gcd(self.p, self.q)

    def require_free(self) -> None:
        free, explanation = is_free(self)
        if not free:
            raise InvalidToricParameterError(explanation)


# -- weight vectors --------------------------------------------------------


def circle_weights(params: YpqParams) -> tuple[int, int, int, int]:
    """Weights of the reduction circle inside the 4-torus; they sum to zero."""
    p, q = params.p, params.q
    return (p - q, p + q, -p, -p)


def reeb_weights(params: YpqParams) -> tuple[int, int, int, int]:
    """Weights of the Reeb generator of the induced contact form."""
    p, q = params.p, params.q
    return (p + q, p - q, p, p)


def quotient_reeb_weights(params: YpqParams) -> tuple[int, int, int, int]:
    """Weights of the quasi-regular generator whose quotient is the orbifold
    Hirzebruch surface."""
    p, q = params.p, params.q
    return (p - q, p + q, p, p)


def moment_t4(z: Sequence[complex]) -> tuple[float, float, float, float]:
    """The 4-torus moment data of a point of C^4: the squared moduli.

    The origin carries no torus information and is rejected.
    """
    values = tuple(complex(v) for v in z)
    if len(values) != 4:
        raise ValueError(f"expected 4 complex coordinates, got {len(values)}")
    if all(v == 0 for v in values):
        raise ValueError("the moment data excludes the origin of C^4")
    return tuple(abs(v) ** 2 for v in values)


def moment_circle(params: YpqParams, z: Sequence[complex]) -> float:
    """The reduction-circle moment value: circle weights paired with moduli."""
    moduli = moment_t4(z)
    return float(sum(w * m for w, m in zip(circle_weights(params), moduli)))


def is_free(params: YpqParams) -> tuple[bool, str]:
    """Whether the reduction circle acts freely, with an explanation."""
    g = params.gcd
    if g == 1:
        return True, f"the circle acts freely: gcd({params.p},{params.q}) = 1"
    return False, f"action not free: stabilizer order {g}"


# -- the reduction level set -----------------------------------------------


@dataclass(frozen=True)
class LevelSetSample:
    """A point of the zero set of the circle moment map on the unit level.

    ``moduli`` are the squared moduli ``|z_j|^2`` satisfying, for parameters
    (p, q),

        (p - q) m1 + (p + q) m2 = 1/2      and      m3 + m4 = 1/(2p),

    and ``phases`` are the four angular coordinates.
    """

    moduli: tuple[float, float, float, float]
    phases: tuple[float, float, float, float]

    def complex_coordinates(self) -> tuple[complex, complex, complex, complex]:
        return tuple(
            math.sqrt(m) * complex(math.cos(t), math.sin(t))
            for m, t in zip(self.moduli, self.phases)
        )


def _sample_moduli(params: YpqParams, count: int, seed: int) -> np.ndarray:
    """Squared-moduli samples, shape (count, 4), drawn via the exact segment
    parametrization of the two linear constraints."""
    p, q = params.p, params.q
    rng = seeded_rng(seed, f"ypq({p},{q})")
    t = rng.uniform(0.0, 1.0, count)
    s = rng.uniform(0.0, 1.0, count)
    moduli = np.empty((count, 4))
    moduli[:, 0] = (1.0 - t) / (2.0 * (p - q))
    moduli[:, 1] = t / (2.0 * (p + q))
    moduli[:, 2] = (1.0 - s) / (2.0 * p)
    moduli[:, 3] = s / (2.0 * p)
    return moduli


def _sample_phases(params: YpqParams, count: int, seed: int) -> np.ndarray:
    rng = seeded_rng(seed, f"ypq({params.p},{params.q}):phases")
    return rng.uniform(0.0, 2.0 * math.pi, (count, 4))


def sample_level_set(params: YpqParams, count: int, seed: int = DEFAULT_SEED) -> list[LevelSetSample]:
    """Deterministic samples of the reduction level set.

    Both defining constraints hold to within the ``level_set`` tolerance by
    construction; a failed residual indicates broken arithmetic and raises.
    """
    moduli = _sample_moduli(params, count, seed)
    phases = _sample_phases(params, count, seed)
    tol = resolve_tolerance("level_set")
    first, second = _constraint_residual_arrays(params, moduli)
    worst = float(max(first.max(initial=0.0), second.max(initial=0.0)))
    if worst > tol:
        raise ArithmeticError(f"level-set parametrization off by {worst:.3e}")
    return [
        LevelSetSample(tuple(map(float, m)), tuple(map(float, t)))
        for m, t in zip(moduli, phases)
    ]


def _constraint_residual_arrays(params: YpqParams, moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p, q = params.p, params.q
    first = np.abs((p - q) * moduli[:, 0] + (p + q) * moduli[:, 1] - 0.5)
    second = np.abs(moduli[:, 2] + moduli[:, 3] - 1.0 / (2.0 * p))
    return first, second


def level_set_residuals(params: YpqParams, sample: LevelSetSample) -> tuple[float, float]:
    """The two constraint residuals of one sample."""
    moduli = np.asarray(sample.moduli, dtype=float)[None, :]
    first, second = _constraint_residual_arrays(params, moduli)
    return float(first[0]), float(second[0])


def contact_pairing(weights: Sequence, moduli: Sequence[float]) -> float:
    """The contact form paired with the torus generator of weight vector
    ``weights`` at a point with squared moduli ``moduli``."""
    return float(sum(float(w) * float(m) for w, m in zip(weights, moduli)))


def vertex_minimum(params: YpqParams, weights: Sequence) -> Fraction:
    """Exact minimum of the contact pairing of ``weights`` over the level set.

    The level set projects onto a product of two segments in moduli space, so
    a linear functional attains its minimum at one of the four vertices:

        min(a1 / (2(p-q)), a2 / (2(p+q))) + min(a3, a4) / (2p).
    """
    a = [Fraction(w) for w in weights]
    if len(a) != 4:
        raise ValueError(f"expected a 4-vector of weights, got {len(a)}")
    p, q = params.p, params.q
    first = min(a[0] / (2 * (p - q)), a[1] / (2 * (p + q)))
    second = min(a[2], a[3]) / (2 * p)
    return first + second


def reeb_positivity(
    params: YpqParams,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    """The Reeb generator pairs strictly positively on the level set.

    Sampled values are combined with the exact vertex-enumerated minimum; the
    check passes only if both are strictly positive.
    """
    weights = reeb_weights(params)
    moduli = _sample_moduli(params, count, seed)
    values = moduli @ np.asarray(weights, dtype=float)
    exact = vertex_minimum(params, weights)
    ok = bool(values.min() > 0.0) and exact > 0
    shortfall = float(np.max(np.maximum(0.0, -values)))
    residual = shortfall if shortfall > 0.0 else (0.0 if ok else 1.0)
    worst = int(np.argmin(values))
    return CheckResult(
        name="reeb_positivity",
        passed=ok,
        max_residual=residual,
        samples=count,
        tolerance=0.0,
        witness=tuple(float(m) for m in moduli[worst]),
        detail={
            "weights": list(weights),
            "sampled_minimum": float(values.min()),
            "exact_minimum": str(exact),
            "exact_minimum_float": float(exact),
        },
    )


def circle_pairing_check(
    params: YpqParams,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tolerances=None,
) -> CheckResult:
    """The reduction circle pairs to zero everywhere on its level set."""
    tol = resolve_tolerance("level_set", tolerances)
    weights = circle_weights(params)
    moduli = _sample_moduli(params, count, seed)
    values = np.abs(moduli @ np.asarray(weights, dtype=float))
    return _make_result("circle_pairing_vanishes", values, tol, moduli, {"weights": list(weights)})


def sasaki_cone_membership(
    params: YpqParams, weights: Sequence
) -> tuple[bool, Fraction]:
    """Whether the torus generator ``weights`` pairs strictly positively on
    the level set, together with the exact minimum.

    Only generators weighting the last two coordinates equally descend to
    the quotient torus, so ``a3 = a4`` is required.
    """
    a = [Fraction(w) for w in weights]
    if len(a) != 4:
        raise ValueError(f"expected a 4-vector of weights, got {len(a)}")
    if a[2] != a[3]:
        raise ValueError(
            "the generator must weight the last two coordinates equally "
            f"(a3 = a4) to descend to the quotient torus; got {a[2]} and {a[3]}"
        )
    exact = vertex_minimum(params, a)
    return exact > 0, exact


# -- torus reparametrization -----------------------------------------------


@dataclass(frozen=True)
class WeightMatrix:
    """Integer weights of a torus action: one row per torus parameter, one
    column per complex coordinate."""

    rows: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if not 1 <= len(self.rows) <= 2:
            raise ValueError("weight matrix needs one or two rows")
        for row in self.rows:
            if len(row) != 4 or any(not isinstance(v, int) for v in row):
                raise ValueError(f"rows must be integer 4-vectors, got {row!r}")

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)


def torus_weights(params: YpqParams) -> WeightMatrix:
    """The 2-torus of interest: Reeb generator and reduction circle."""
    return WeightMatrix((reeb_weights(params), circle_weights(params)))


def reparametrize_torus(
    params: YpqParams,
) -> tuple[tuple[tuple[int, int], tuple[int, int]], WeightMatrix]:
    """An integer change of torus parameters exposing the product form.

    Returns ``(B, W')`` with ``B = ((1, -1), (p-q, p+q))`` of determinant
    ``2p`` and the reparametrized weight rows ``W' = ((2q, 0, p, p),
    (1, 1, 0, 0))`` satisfying, column by column, ``transpose(B) W' = W``
    for the original weights ``W`` of :func:`torus_weights` -- all in exact
    integers (the identity is re-verified on every call).
    """
    p, q = params.p, params.q
    change = ((1, -1), (p - q, p + q))
    reduced = WeightMatrix(((2 * q, 0, p, p), (1, 1, 0, 0)))
    original = torus_weights(params)
    for j in range(4):
        column = reduced.column(j)
        mapped = (
            change[0][0] * column[0] + change[1][0] * column[1],
            change[0][1] * column[0] + change[1][1] * column[1],
        )
        if mapped != original.column(j):
            raise ArithmeticError(
                f"reparametrization identity failed in column {j}: "
                f"{mapped} != {original.column(j)}"
            )
    return change, reduced


# -- homogeneous coordinates of the quotient -------------------------------


def homogeneous_coordinate_check(params: YpqParams) -> CheckResult:
    """Bidegrees of the invariant monomials presenting the quotient surface.

    For odd ``p`` the complexified 2-torus acts with per-coordinate weights
    ``(2q,1), (0,1), (p,0), (p,0)``; the invariant monomials

        y1 = z2^p z3^(2q),  y2 = z2^p z4^(2q),  y3 = z1^p,
        w1 = z3,            w2 = z4

    must have bidegrees ``(2pq, p)`` (the y's) and ``(p, 0)`` (the w's), and
    the relation ``w1^(2q) y2 = w2^(2q) y1`` must balance exactly, with
    exponent vector ``(0, p, 2q, 2q)`` on both sides.  Even ``p`` fails the
    parity bookkeeping and is rejected.
    """
    p, q = params.p, params.q
    if p % 2 == 0:
        raise InvalidToricParameterError(
            f"homogeneous-coordinate bidegrees need odd p, got p = {p}; "
            "use the halved quotient data for even p"
        )
    weights = ((2 * q, 1), (0, 1), (p, 0), (p, 0))

    def bidegree(exponents: tuple[int, int, int, int]) -> tuple[int, int]:
        return (
            sum(e * w[0] for e, w in zip(exponents, weights)),
            sum(e * w[1] for e, w in zip(exponents, weights)),
        )

    y_exponents = ((0, p, 2 * q, 0), (0, p, 0, 2 * q), (p, 0, 0, 0))
    w_exponents = ((0, 0, 1, 0), (0, 0, 0, 1))
    y_expected = (2 * p * q, p)
    w_expected = (p, 0)
    checks = [bidegree(e) == y_expected for e in y_exponents]
    checks += [bidegree(e) == w_expected for e in w_exponents]
    left = tuple(2 * q * a + b for a, b in zip(w_exponents[0], y_exponents[1]))
    right = tuple(2 * q * a + b for a, b in zip(w_exponents[1], y_exponents[0]))
    relation = (0, p, 2 * q, 2 * q)
    checks.append(left == relation and right == relation)
    failures = sum(1 for ok in checks if not ok)
    return CheckResult(
        name="homogeneous_coordinates",
        passed=failures == 0,
        max_residual=float(failures),
        samples=len(checks),
        tolerance=0.0,
        witness=None,
        detail={
            "y_bidegree": list(y_expected),
            "w_bidegree": list(w_expected),
            "relation_exponents": list(relation),
        },
    )


# -- quotient invariants ---------------------------------------------------


def hirzebruch_data(params: YpqParams) -> tuple[int, int]:
    """(surface index, ramification) of the quasi-regular quotient.

    Odd ``p`` gives the Hirzebruch surface of index ``2q`` with ramification
    ``p`` along the branch divisors; even ``p`` (which forces odd ``q`` by
    coprimality) gives index ``q`` with ramification ``p/2``.
    """
    params.require_free()
    p, q = params.p, params.q
    if p % 2 == 1:
        return 2 * q, p
    if q % 2 == 0:
        raise ArithmeticError("even p with even q contradicts coprimality")
    return q, p // 2


def quotient_kahler_data(params: YpqParams) -> tuple[tuple[int, int], tuple[int, int]]:
    """The weighted projective factor and its Kaehler coefficients.

    Returns ``((pbar_minus, pbar_plus), (c1, c2))`` where the first pair is
    ``(p-q, p+q)`` halved exactly when both entries are even (that is, when
    p and q are both odd), and the coefficients are ``(p, gcd(p-q, p+q))``
    with the gcd in {1, 2}, equal to 2 precisely in the both-odd case.
    """
    params.require_free()
    p, q = params.p, params.q
    g = math.gcd(p - q, p + q)
    if g not in (1, 2):
        raise ArithmeticError(f"gcd(p-q, p+q) = {g} contradicts coprimality")
    if (p - q) % 2 == 0:
        pair = ((p - q) // 2, (p + q) // 2)
    else:
        pair = (p - q, p + q)
    return pair, (p, g)


def classify(first: YpqParams, second: YpqParams) -> bool:
    """Whether two members have equivalent underlying contact structures:
    true exactly when the ``p`` parameters agree."""
    first.require_free()
    second.require_free()
    return first.p == second.p


# -- enumeration -----------------------------------------------------------


#: The largest argument :func:`totient` factors.  Trial division of a prime
#: m runs up to sqrt(m): 0.16 s at m = 1e12 + 39 and 0.51 s at the prime
#: 9999999999971 on a 2-vCPU x86-64 VM (Python 3.11), so m near 1e18 would
#: take minutes.
TOTIENT_MAX = 10**13


def totient(m: int) -> int:
    """Euler's phi by trial-division factorization, for ``1 <= m <=``
    :data:`TOTIENT_MAX`."""
    if m < 1:
        raise ValueError("totient needs a positive integer")
    if m > TOTIENT_MAX:
        raise InvalidToricParameterError(
            f"totient({m}) is refused: trial division is limited to "
            f"arguments up to {TOTIENT_MAX}"
        )
    remaining, result, k = m, m, 2
    while k * k <= remaining:
        if remaining % k == 0:
            while remaining % k == 0:
                remaining //= k
            result -= result // k
        k += 1
    if remaining > 1:
        result -= result // remaining
    return result


def _coprime_qs(p: int) -> list[int]:
    """Every ``1 <= q < p`` with ``gcd(p, q) = 1``, in increasing order."""
    return [q for q in range(1, p) if math.gcd(p, q) == 1]


def coprime_pairs(p_max: int) -> list[YpqParams]:
    """All valid free-action parameter pairs with ``p <= p_max``."""
    return [YpqParams(p, q) for p in range(2, p_max + 1) for q in _coprime_qs(p)]


def class_table(p_max: int) -> dict[int, list[int]]:
    """The equivalence classes of every free member with ``p <= p_max`` as
    integers: class ``p`` maps to its ``q`` values in increasing order.

    Each class must have exactly ``totient(p)`` members; the count is
    re-verified for every class, with one ``totient`` call per class.
    """
    if p_max < 2:
        raise InvalidToricParameterError("enumeration needs p_max >= 2")
    table: dict[int, list[int]] = {}
    for p in range(2, p_max + 1):
        qs = table[p] = _coprime_qs(p)
        phi = totient(p)
        if len(qs) != phi:
            raise ArithmeticError(f"class p = {p} has {len(qs)} members, totient(p) = {phi}")
    return table


# -- dossier ---------------------------------------------------------------


@dataclass(frozen=True)
class YpqReport:
    """Everything computed about one member of the family.

    Field names are stable; :meth:`to_record` is the machine-readable
    serialization (fractions rendered as ``num/den`` strings) and
    :func:`format_dossier` the aligned text rendering.
    """

    params: YpqParams
    circle: tuple[int, int, int, int]
    weight_sum: int
    free: bool
    freeness: str
    reeb: tuple[int, int, int, int]
    change_of_basis: tuple[tuple[int, int], tuple[int, int]]
    reduced_weights: WeightMatrix
    hirzebruch_index: int
    ramification: int
    branch_locus: str
    quotient_pair: tuple[int, int]
    kahler_coefficients: tuple[int, int]
    reeb_minimum: Fraction
    quotient_reeb_minimum: Fraction
    equivalence_class: int
    class_size: int
    maximal_torus_lower_bound: int

    def to_record(self) -> dict:
        return {
            "p": self.params.p,
            "q": self.params.q,
            "circle_weights": list(self.circle),
            "weight_sum": self.weight_sum,
            "free": self.free,
            "freeness": self.freeness,
            "reeb_weights": list(self.reeb),
            "change_of_basis": [list(row) for row in self.change_of_basis],
            "reduced_weights": [list(row) for row in self.reduced_weights.rows],
            "hirzebruch_index": self.hirzebruch_index,
            "ramification": self.ramification,
            "branch_locus": self.branch_locus,
            "quotient_pair": list(self.quotient_pair),
            "kahler_coefficients": list(self.kahler_coefficients),
            "reeb_minimum": str(self.reeb_minimum),
            "quotient_reeb_minimum": str(self.quotient_reeb_minimum),
            "equivalence_class": self.equivalence_class,
            "class_size": self.class_size,
            "maximal_torus_lower_bound": self.maximal_torus_lower_bound,
        }


def ypq_report(params: YpqParams) -> YpqReport:
    """The full dossier of one free-action member."""
    params.require_free()
    circle = circle_weights(params)
    change, reduced = reparametrize_torus(params)
    index, ramification = hirzebruch_data(params)
    pair, coefficients = quotient_kahler_data(params)
    phi = totient(params.p)
    free, freeness = is_free(params)
    return YpqReport(
        params=params,
        circle=circle,
        weight_sum=sum(circle),
        free=free,
        freeness=freeness,
        reeb=reeb_weights(params),
        change_of_basis=change,
        reduced_weights=reduced,
        hirzebruch_index=index,
        ramification=ramification,
        branch_locus=(
            f"branch divisors E and F with ramification index {ramification}"
        ),
        quotient_pair=pair,
        kahler_coefficients=coefficients,
        reeb_minimum=vertex_minimum(params, reeb_weights(params)),
        quotient_reeb_minimum=vertex_minimum(params, quotient_reeb_weights(params)),
        equivalence_class=params.p,
        class_size=phi,
        maximal_torus_lower_bound=phi,
    )


def enumerate_structures(p_max: int) -> dict[int, list[YpqParams]]:
    """Every free member with ``p <= p_max``, grouped by the equivalence
    class ``p``: :func:`class_table` with each ``q`` as ``YpqParams(p, q)``.
    The dossier of one member is ``ypq_report(member)``.
    """
    return {p: [YpqParams(p, q) for q in qs] for p, qs in class_table(p_max).items()}


# -- text rendering --------------------------------------------------------

_DOSSIER_FIELDS = (
    ("circle weights", lambda r: _tuple_text(r.circle)),
    ("weight sum", lambda r: str(r.weight_sum)),
    ("free action", lambda r: r.freeness),
    ("reeb weights", lambda r: _tuple_text(r.reeb)),
    ("change of basis", lambda r: _rows_text(r.change_of_basis)),
    ("reduced weights", lambda r: _rows_text(r.reduced_weights.rows)),
    ("hirzebruch surface", lambda r: f"index {r.hirzebruch_index}, ramification {r.ramification}"),
    ("branch locus", lambda r: r.branch_locus),
    ("quotient pair", lambda r: _tuple_text(r.quotient_pair)),
    ("kahler coefficients", lambda r: _tuple_text(r.kahler_coefficients)),
    ("reeb minimum", lambda r: str(r.reeb_minimum)),
    ("quotient reeb minimum", lambda r: str(r.quotient_reeb_minimum)),
    ("equivalence class", lambda r: f"p = {r.equivalence_class}, class size {r.class_size}"),
    ("maximal tori", lambda r: f"at least {r.maximal_torus_lower_bound}"),
)


def _tuple_text(values: Sequence[int]) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _rows_text(rows: Sequence[Sequence[int]]) -> str:
    return "; ".join(_tuple_text(row) for row in rows)


def format_dossier(report: YpqReport) -> str:
    """One aligned text block per member."""
    width = max(len(label) for label, _ in _DOSSIER_FIELDS)
    lines = [f"Y^({report.params.p},{report.params.q})"]
    for label, render in _DOSSIER_FIELDS:
        lines.append(f"  {label.ljust(width)}  {render(report)}")
    return "\n".join(lines)


def format_class_table(classes: dict[int, list[YpqParams]]) -> str:
    """Aligned class table: one line per equivalence class."""
    return format_table({p: [m.q for m in members] for p, members in classes.items()})


def format_table(table: dict[int, list[int]]) -> str:
    """The aligned text of a :func:`class_table`, one line per class in
    increasing ``p``: ``p`` and the class size right-aligned to their widest
    entries, then the members as ``(p,q)``.  Empty for an empty table."""
    width = len(str(max(table, default=0)))
    size_width = max((len(str(len(qs))) for qs in table.values()), default=0)
    return "\n".join(
        f"p = {str(p).rjust(width)}  class size {str(len(table[p])).rjust(size_width)}  "
        + " ".join([f"({p},{q})" for q in table[p]])
        for p in sorted(table)
    )
