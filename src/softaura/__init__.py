"""Soft-set topology with per-point scope functions.

A space pairs a soft topology over (universe, parameters) with a scope
function assigning each point an open soft set containing it everywhere.
The scope drives closure/interior operators, generalized openness classes,
continuity of point/parameter mappings, separation axioms, and rough
lower/upper approximation of soft targets.

Public names are resolved on first access (PEP 562), so ``import softaura``
loads no submodule and a command pays only for the modules it uses.
"""

from importlib import import_module as _import_module

#: Each public name under the submodule that defines it.
_EXPORTS = {
    "errors": (
        "CapExceeded",
        "ContextMismatch",
        "DocumentError",
        "ExtraParameter",
        "InternalNonMonotone",
        "InvalidPartition",
        "MembershipViolation",
        "MissingParameter",
        "NotOpen",
        "NotSingletonE",
        "PreconditionUnmet",
        "ScopeViolations",
        "SizeGuard",
        "SoftAuraError",
        "SpaceMismatch",
        "TopologyViolation",
        "UnknownParameter",
        "UnknownPoint",
    ),
    "softset": (
        "DEFAULT_UNIVERSE_LIMIT",
        "Context",
        "SoftSet",
        "big_intersect",
        "big_union",
        "iter_all_soft_sets",
        "make_soft_set",
    ),
    "space": (
        "DEFAULT_CAP",
        "DISCRETE",
        "EXPLICIT",
        "GENERATED",
        "INDISCRETE",
        "ScopeFunction",
        "SoftAuraSpace",
        "SoftTopology",
        "discrete_topology",
        "generate_topology",
        "indiscrete_topology",
        "make_space",
        "trivial_scope",
        "validate_scope",
        "validate_topology",
    ),
    "operators": (
        "CECH",
        "KURATOWSKI",
        "KuratowskiResult",
        "TARGET_AMBIENT",
        "TARGET_AURA",
        "TARGET_KURATOWSKI",
        "aura_closure",
        "aura_interior",
        "enumerate_aura_topology",
        "is_aura_closed",
        "is_aura_open",
        "kuratowski_closure",
        "per_parameter_alexandrov",
        "singleton_e_inclusion_check",
    ),
    "genopen": (
        "AlphaMeetWitness",
        "OpennessProfile",
        "UNION_CLOSED_CLASSES",
        "check_union_closure",
        "classify",
        "search_alpha_intersection_failure",
    ),
    "mapping": (
        "ContinuityProfile",
        "SoftMapping",
        "compose",
        "continuity_profile",
        "identity_mapping",
        "inverse_image",
        "verify_closure_characterization",
        "verify_decomposition",
    ),
    "separation": (
        "PairWitness",
        "RegularityWitness",
        "SeparationReport",
        "SingletonClosureCheck",
        "separation_report",
        "t1_singleton_closure",
        "t1_via_singleton_scopes",
    ),
    "rough": (
        "Accuracy",
        "ApproximationReport",
        "PawlakPartition",
        "accuracy",
        "approximation_report",
        "boundary",
        "lower_approx",
        "pawlak_equivalence_check",
        "pawlak_scope",
        "upper_approx",
    ),
    "harness": (
        "LAWS",
        "MappingScanResult",
        "REPORT_ROWS",
        "SpaceFamilySpec",
        "STRICTNESS_EDGES",
        "SuiteResult",
        "Witness",
        "decomposition_mapping_scan",
        "enumerate_scope_functions",
        "find_strictness_witnesses",
        "iter_family_spaces",
        "oracle_closure",
        "oracle_interior",
        "replay_space",
        "replay_witness",
        "run_law_suite",
        "witness_from_json",
    ),
    "documents": (
        "DecodedSpace",
        "canonicalize_space_doc",
        "decode_mapping",
        "decode_space",
        "encode_space",
        "load_mapping",
        "load_space",
        "resolve_target_set",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        # a submodule not yet imported, as in `softaura.harness.LAWS`
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
