"""Numerically verified contact geometry on coordinate charts.

The package computes the structure fields of an exact contact form --
the Reeb field, Hamiltonian fields, the induced bracket -- directly from
the defining linear systems at sampled points, verifies the classical
identities relating them, builds the symplectic cone with its lifted
dynamics, bundles a library of closed-form model systems with independently
derived expected facts, and carries an exact-arithmetic toolkit for a family
of toric contact structures indexed by two coprime integers.

Layers, bottom up:

- :mod:`contactkit.registry` -- the run defaults and the tolerance registry
  of every check, without numpy.
- :mod:`contactkit.expressions` -- immutable symbolic scalars with exact
  derivatives and vectorized evaluation.
- :mod:`contactkit.charts` -- coordinate charts with seeded sampling, vector
  fields, and differential forms up to degree 3 (exterior and Lie calculus).
- :mod:`contactkit.contact` -- contact systems and every pointwise solver
  and identity check built on them.
- :mod:`contactkit.cone` -- the symplectic cone, Liouville scaling, and
  lifts of infinitesimal contact transformations.
- :mod:`contactkit.models` -- closed-form model families bundled with their
  expected facts.
- :mod:`contactkit.ypq` -- exact lattice data of the two-parameter toric
  family, from weight vectors to quotient invariants, without numpy.
- :mod:`contactkit.ypq_checks` -- the toric dossier's checks: level-set
  samples and the sampled checks on them.
- :mod:`contactkit.commands` -- the commands that use the numeric core:
  ``verify`` with its forked workers, ``bracket`` and the ``ypq P Q``
  dossier.
- :mod:`contactkit.cli` -- the ``contactkit`` command: its parser,
  configuration, output writers and ``ypq --enumerate``, without numpy; it
  imports :mod:`contactkit.commands` when one of those commands runs.

The package imports none of these modules itself.  Each name of
:data:`__all__` is imported from the module that defines it on first
access, so ``import contactkit`` and ``import contactkit.cli`` load no
numpy.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions
    "ScalarExpr",
    "parse",
    "const",
    "coord",
    "sin",
    "cos",
    "exp",
    "sqrt",
    "random_polynomial",
    "ExprError",
    "ExprSyntaxError",
    "UnknownCoordinateError",
    "EvalDomainError",
    # charts
    "Chart",
    "VectorField",
    "DifferentialForm",
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
    "FormDegreeError",
    "ChartMismatchError",
    "SamplingError",
    # contact
    "ContactSystem",
    "CheckResult",
    "ClassificationRecord",
    "CoordinateMap",
    "TOLERANCES",
    "DEFAULT_SEED",
    "DEFAULT_SAMPLES",
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
    "GeometricError",
    "ContactConditionError",
    "SingularSystemError",
    "ConformalFactorError",
    "InverseMismatchError",
    # cone
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
    "ContactTransformationError",
    # models
    "ExpectedFact",
    "ModelDescriptor",
    "build_model",
    "default_model_keys",
    "darboux",
    "heisenberg",
    "cosphere_torus",
    "basic_example",
    "sphere_weighted",
    # ypq
    "YpqParams",
    "YpqReport",
    "LevelSetSample",
    "InvalidToricParameterError",
    "circle_weights",
    "reeb_weights",
    "quotient_reeb_weights",
    "moment_t4",
    "moment_circle",
    "is_free",
    "sample_level_set",
    "vertex_minimum",
    "reeb_positivity",
    "circle_pairing_check",
    "sasaki_cone_membership",
    "reparametrize_torus",
    "homogeneous_coordinate_check",
    "hirzebruch_data",
    "quotient_kahler_data",
    "classify",
    "totient",
    "coprime_pairs",
    "class_table",
    "ypq_report",
    "enumerate_structures",
]

#: The modules that define the names of :data:`__all__`, in the order they
#: are searched: the numpy-free ones first, then the numeric core bottom up,
#: so a lookup imports only a name's module and the modules it imports.
_MODULES = ("registry", "ypq", "expressions", "charts", "contact", "cone", "models")


def __getattr__(name: str):
    """A name of :data:`__all__`, imported from the module that defines it
    on first access and then kept here."""
    if name in __all__:
        for module_name in _MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
