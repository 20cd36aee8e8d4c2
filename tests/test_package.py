"""The package namespace: exported names, resolved on first access."""

import importlib
import json
import subprocess
import sys

import pytest

import softaura

from test_cli import source_env

SUBMODULES = (
    "errors", "softset", "space", "operators", "genopen",
    "mapping", "separation", "rough", "harness", "documents",
)

EXPORTED = [
    "Accuracy", "AlphaMeetWitness", "ApproximationReport", "CECH", "CapExceeded",
    "Context", "ContextMismatch", "ContinuityProfile", "DEFAULT_CAP",
    "DEFAULT_UNIVERSE_LIMIT", "DISCRETE", "DecodedSpace", "DocumentError", "EXPLICIT",
    "ExtraParameter", "GENERATED", "INDISCRETE", "InternalNonMonotone", "InvalidPartition",
    "KURATOWSKI", "KuratowskiResult", "LAWS", "MappingScanResult", "MembershipViolation",
    "MissingParameter", "NotOpen", "NotSingletonE", "OpennessProfile", "PairWitness",
    "PawlakPartition", "PreconditionUnmet", "REPORT_ROWS", "RegularityWitness",
    "STRICTNESS_EDGES", "ScopeFunction", "ScopeViolations", "SeparationReport",
    "SingletonClosureCheck", "SizeGuard", "SoftAuraError", "SoftAuraSpace", "SoftMapping",
    "SoftSet", "SoftTopology", "SpaceFamilySpec", "SpaceMismatch", "SuiteResult",
    "TARGET_AMBIENT", "TARGET_AURA", "TARGET_KURATOWSKI", "TopologyViolation",
    "UNION_CLOSED_CLASSES", "UnknownParameter", "UnknownPoint", "Witness", "accuracy",
    "approximation_report", "aura_closure", "aura_interior", "big_intersect", "big_union",
    "boundary", "canonicalize_space_doc", "check_union_closure", "classify", "compose",
    "continuity_profile", "decode_mapping", "decode_space", "decomposition_mapping_scan",
    "discrete_topology", "encode_space", "enumerate_aura_topology",
    "enumerate_scope_functions", "find_strictness_witnesses", "generate_topology",
    "identity_mapping", "indiscrete_topology", "inverse_image", "is_aura_closed",
    "is_aura_open", "iter_all_soft_sets", "iter_family_spaces", "kuratowski_closure",
    "load_mapping", "load_space", "lower_approx", "make_soft_set", "make_space",
    "oracle_closure", "oracle_interior", "pawlak_equivalence_check", "pawlak_scope",
    "per_parameter_alexandrov", "replay_space", "replay_witness", "resolve_target_set",
    "run_law_suite", "search_alpha_intersection_failure", "separation_report",
    "singleton_e_inclusion_check", "t1_singleton_closure", "t1_via_singleton_scopes",
    "trivial_scope", "upper_approx", "validate_scope", "validate_topology",
    "verify_closure_characterization", "verify_decomposition", "witness_from_json",
]


def test_all_is_pinned():
    assert len(EXPORTED) == 110
    assert sorted(softaura.__all__) == EXPORTED


def test_each_name_is_the_submodule_object():
    modules = [importlib.import_module(f"softaura.{m}") for m in SUBMODULES]
    for name in EXPORTED:
        value = getattr(softaura, name)
        holders = [module for module in modules if hasattr(module, name)]
        assert holders, f"no submodule defines {name}"
        for module in holders:
            assert getattr(module, name) is value, f"{module.__name__}.{name}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        softaura.no_such_name
    with pytest.raises(ImportError):
        from softaura import no_such_name  # noqa: F401


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from softaura import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTED
    assert all(namespace[name] is getattr(softaura, name) for name in EXPORTED)


def test_first_access_loads_only_the_defining_modules():
    script = (
        "import json, sys, softaura\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('softaura.'))\n"
        "steps = [loaded()]\n"
        "softaura.SoftSet\n"
        "steps.append(loaded())\n"
        "softaura.rough.lower_approx\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=source_env()
    )
    assert proc.returncode == 0, proc.stderr
    bare, softset, rough = json.loads(proc.stdout)
    assert bare == []
    assert softset == ["softaura.errors", "softaura.softset"]
    assert "softaura.rough" in rough and "softaura.harness" not in rough


def test_dir_lists_the_exported_names():
    assert set(EXPORTED) <= set(dir(softaura))
