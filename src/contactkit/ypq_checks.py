"""The checks of a Y^{p,q} dossier, as ``CheckResult`` records: samples of
the reduction level set with the sampled checks on them, and the exact
homogeneous-coordinate bookkeeping of the quotient.

Sampling enters the toric family only here, and with it the numeric core:
:mod:`contactkit.ypq` holds the exact lattice data, imports nothing of the
core, and resolves the names of this module on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import seeded_rng
from .contact import CheckResult, _make_result
from .registry import DEFAULT_SAMPLES, DEFAULT_SEED, resolve_tolerance
from .ypq import (
    InvalidToricParameterError,
    YpqParams,
    circle_weights,
    reeb_weights,
    vertex_minimum,
)

__all__ = [
    "LevelSetSample",
    "sample_level_set",
    "level_set_residuals",
    "reeb_positivity",
    "circle_pairing_check",
    "homogeneous_coordinate_check",
]


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
