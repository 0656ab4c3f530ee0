"""The run defaults and the tolerance registry of every check.

This module imports nothing of the numeric core, so the command line can
resolve its configuration (defaults, ``--tol`` overrides and their names)
without loading numpy.  :mod:`contactkit.contact` re-exports every name
here; ``contact.TOLERANCES`` is the same dict.
"""

from __future__ import annotations

from collections.abc import Mapping

__all__ = ["DEFAULT_SAMPLES", "DEFAULT_SEED", "TOLERANCES", "resolve_tolerance"]

DEFAULT_SEED = 20110615
DEFAULT_SAMPLES = 128

#: Default tolerance per named check, for every module of the package, so
#: the registry does not depend on which modules were imported.  Callers may
#: override any entry through the ``tolerances`` mapping accepted by every
#: operation.
TOLERANCES: dict[str, float] = {
    "contact_determinant": 1e-10,
    "reeb_defining": 1e-9,
    "hamiltonian_pairing": 1e-9,
    "hamiltonian_invariance": 1e-8,
    "goodness": 1e-9,
    "first_integral": 1e-9,
    "flow_identity": 1e-8,
    "isotropy_identity": 1e-8,
    "bracket_antisymmetry": 1e-9,
    "involution": 1e-8,
    "conformal_law": 1e-7,
    "rank_svd": 1e-8,
    "dense_fraction": 0.5,
    "inverse_roundtrip": 1e-9,
    # cone.py
    "cone_closure": 1e-10,
    "cone_nondegeneracy": 1e-10,
    "cone_homogeneity": 1e-8,
    "lift_precondition": 1e-8,
    "lift_invariance": 1e-8,
    "lift_commuting": 1e-8,
    "cone_contraction": 1e-8,
    "scale_covariance": 1e-9,
    # ypq_checks.py
    "level_set": 1e-12,
}


def resolve_tolerance(name: str, overrides: Mapping[str, float] | None = None) -> float:
    """The effective tolerance for ``name``, honouring per-call overrides."""
    if overrides is not None and name in overrides:
        return float(overrides[name])
    try:
        return TOLERANCES[name]
    except KeyError:
        raise KeyError(f"unknown tolerance name {name!r}") from None
