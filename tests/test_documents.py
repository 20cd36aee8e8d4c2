"""JSON document decode/encode for spaces, mappings, and set references."""

import json
import re
from pathlib import Path

import pytest

from softaura import (
    DocumentError,
    MissingParameter,
    ScopeViolations,
    SoftSet,
    TopologyViolation,
    UnknownPoint,
    continuity_profile,
    decode_mapping,
    decode_space,
    encode_space,
    load_mapping,
    load_space,
    resolve_target_set,
)

from softaura.cli import main

from conftest import fixture_path, load_fixture_doc


class TestDecodeSpace:
    def test_monitoring_fixture(self):
        decoded = load_space(fixture_path("monitoring.json"))
        sp = decoded.space
        assert sp.context.universe == ("s1", "s2", "s3", "s4", "s5")
        assert sp.topology.kind == "discrete"
        g = decoded.resolve("G")
        assert g.points("e2") == ("s2",)

    def test_three_point_fixture_scope_refs(self):
        decoded = load_space(fixture_path("three_point_space.json"))
        assert len(decoded.space.topology) == 5
        assert decoded.scope_refs == {"x1": "F1", "x2": "F3", "x3": "absolute"}
        assert decoded.space.scope.of("x3").is_absolute()
        assert decoded.resolve("F1") == decoded.space.scope.of("x1")

    def test_reserved_names_resolvable(self):
        decoded = load_space(fixture_path("two_point_space.json"))
        assert decoded.resolve("null").is_null()
        assert decoded.resolve("absolute").is_absolute()
        with pytest.raises(ValueError):
            decoded.resolve("missing")

    def test_indiscrete_kind(self):
        doc = {
            "universe": ["x1"],
            "parameters": ["e1"],
            "topology": {"kind": "indiscrete"},
            "scope": {"x1": "absolute"},
        }
        decoded = decode_space(doc)
        assert len(decoded.space.topology) == 2

    def test_generated_kind(self):
        doc = {
            "universe": ["x1", "x2"],
            "parameters": ["e1"],
            "topology": {
                "kind": "generated",
                "subbasis": {"A": {"e1": ["x1"]}, "B": {"e1": ["x2"]}},
            },
            "scope": {"x1": "A", "x2": "B"},
        }
        decoded = decode_space(doc)
        assert decoded.space.topology.kind == "generated"
        assert len(decoded.space.topology) == 4


def generated(subbasis: dict, scope: dict) -> dict:
    return {
        "universe": ["a", "b"],
        "parameters": ["e"],
        "topology": {"kind": "generated", "subbasis": subbasis},
        "scope": scope,
    }


#: Generated spaces with a subbasis name that names no member: generation
#: names a member by the first name its set has, after null and absolute.
UNNAMED_SUBBASIS = {
    # T's set is S's, so the member is named S
    "repeated": (generated({"S": {"e": ["a"]}, "T": {"e": ["a"]}}, {"a": "T", "b": "absolute"}), "T"),
    # S is the absolute set, so the member is named absolute
    "absolute": (generated({"S": {"e": ["a", "b"]}}, {"a": "absolute", "b": "absolute"}), "S"),
}


@pytest.mark.parametrize("case", list(UNNAMED_SUBBASIS))
class TestSubbasisNames:
    def test_every_subbasis_name_resolves_to_its_set(self, case):
        doc, name = UNNAMED_SUBBASIS[case]
        decoded = decode_space(doc)
        assert decoded.space.topology.member_named(name) is None
        ctx = decoded.space.context
        for declared, slices in doc["topology"]["subbasis"].items():
            assert decoded.resolve(declared) == SoftSet.from_slices(ctx, slices)
        assert decoded.scope_refs == doc["scope"]

    def test_round_trip_keeps_the_reference(self, case):
        doc, _ = UNNAMED_SUBBASIS[case]
        once = encode_space(decode_space(doc))
        assert once == doc
        assert decode_space(once) == decode_space(doc)

    def test_named_sets_cannot_reuse_it(self, case):
        doc, name = UNNAMED_SUBBASIS[case]
        doc = dict(doc, namedSets={name: {"e": []}})
        with pytest.raises(DocumentError, match=rf"\['{name}'\]"):
            decode_space(doc)

    def test_cli_resolves_it(self, case, tmp_path, capsys):
        doc, name = UNNAMED_SUBBASIS[case]
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert main(["classify", str(path), "--set", name]) == 0
        assert capsys.readouterr().err == ""


class TestReadmeExamples:
    def test_every_quoted_space_document_decodes(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        kinds = set()
        for block in blocks:
            decoded = decode_space(json.loads(block))
            kinds.add(decoded.space.topology.kind)
        assert {"discrete", "explicit"} <= kinds


class TestDecodeSpaceErrors:
    def base(self):
        return load_fixture_doc("two_point_space.json")

    def test_missing_key(self):
        doc = self.base()
        del doc["scope"]
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_unknown_key(self):
        doc = self.base()
        doc["extras"] = 1
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_non_list_universe(self):
        doc = self.base()
        doc["universe"] = "x1"
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_duplicate_universe(self):
        doc = self.base()
        doc["universe"] = ["x1", "x1"]
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_reserved_named_set(self):
        doc = self.base()
        doc["namedSets"] = {"null": {"e1": [], "e2": []}}
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_named_set_clashes_with_member(self):
        doc = load_fixture_doc("three_point_space.json")
        doc["namedSets"] = {"F1": {"e1": [], "e2": []}}
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_scope_missing_point(self):
        doc = self.base()
        del doc["scope"]["x2"]
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_scope_extra_point(self):
        doc = self.base()
        doc["scope"]["x9"] = "absolute"
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_scope_unknown_ref(self):
        doc = self.base()
        doc["scope"]["x1"] = "mystery"
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_unknown_topology_kind(self):
        doc = self.base()
        doc["topology"] = {"kind": "metric"}
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_discrete_rejects_extra_keys(self):
        doc = self.base()
        doc["topology"] = {"kind": "discrete", "sets": {}}
        with pytest.raises(DocumentError):
            decode_space(doc)

    def test_generated_requires_subbasis(self):
        doc = self.base()
        doc["topology"] = {"kind": "generated"}
        with pytest.raises(DocumentError):
            decode_space(doc)


class TestDomainErrors:
    def test_invalid_explicit_family(self):
        # F1 union G equals F3, which the family leaves out
        doc = load_fixture_doc("three_point_space.json")
        doc["topology"]["sets"] = {
            "F1": {"e1": ["x1"], "e2": ["x1", "x2"]},
            "G": {"e1": ["x2"], "e2": ["x2"]},
        }
        with pytest.raises(TopologyViolation) as exc:
            decode_space(doc)
        assert exc.value.kind == "missing-union"
        assert exc.value.witness == ("F1", "G")

    def test_scope_membership_violation(self):
        doc = load_fixture_doc("two_point_space.json")
        doc["scope"]["x1"] = {"e1": ["x2"], "e2": ["x1", "x2"]}
        with pytest.raises(ScopeViolations):
            decode_space(doc)

    def test_unknown_point_in_slices(self):
        doc = load_fixture_doc("two_point_space.json")
        doc["scope"]["x1"] = {"e1": ["zz"], "e2": ["x1"]}
        with pytest.raises(UnknownPoint):
            decode_space(doc)

    def test_missing_parameter_in_slices(self):
        doc = load_fixture_doc("two_point_space.json")
        doc["scope"]["x1"] = {"e1": ["x1"]}
        with pytest.raises(MissingParameter):
            decode_space(doc)


class TestEncodeRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "monitoring.json",
            "three_point_space.json",
            "two_point_space.json",
            "chain_space.json",
            "cyclic_space.json",
        ],
    )
    def test_fixture_round_trip(self, name):
        doc = load_fixture_doc(name)
        once = encode_space(decode_space(doc))
        assert encode_space(decode_space(once)) == once
        decoded = decode_space(once)
        original = decode_space(doc)
        assert decoded.space.scope_masks == original.space.scope_masks
        assert decoded.space.topology.kind == original.space.topology.kind

    def test_generated_round_trip(self):
        doc = {
            "universe": ["x1", "x2"],
            "parameters": ["e1"],
            "topology": {
                "kind": "generated",
                "subbasis": {"A": {"e1": ["x1"]}, "B": {"e1": ["x2"]}},
            },
            "scope": {"x1": "A", "x2": "B"},
        }
        out = encode_space(decode_space(doc))
        assert out["topology"]["kind"] == "generated"
        assert out["topology"]["subbasis"] == doc["topology"]["subbasis"]
        assert out["scope"] == {"x1": "A", "x2": "B"}

    def test_explicit_encoding_omits_reserved(self):
        decoded = load_space(fixture_path("three_point_space.json"))
        out = encode_space(decoded)
        assert sorted(out["topology"]["sets"]) == ["F1", "F2", "F3"]
        assert out["scope"]["x3"] == "absolute"

    def test_inline_scope_stays_inline(self):
        decoded = load_space(fixture_path("two_point_space.json"))
        out = encode_space(decoded)
        assert out["scope"]["x1"] == {"e1": ["x1"], "e2": ["x1", "x2"]}


class TestMappingDocuments:
    def test_load_with_refs(self):
        mapping, source, target = load_mapping(fixture_path("chain_endo_mapping.json"))
        assert mapping.point_map == {"1": "3", "2": "3", "3": "3"}
        assert source.space.context == target.space.context
        assert continuity_profile(mapping).continuous

    def test_inline_endpoints(self):
        space_doc = load_fixture_doc("two_point_space.json")
        doc = {
            "source": space_doc,
            "target": space_doc,
            "pointMap": {"x1": "x1", "x2": "x2"},
            "paramMap": {"e1": "e1", "e2": "e2"},
        }
        mapping, _, _ = decode_mapping(doc)
        assert mapping.source.context == mapping.target.context

    def test_missing_keys(self):
        with pytest.raises(DocumentError):
            decode_mapping({"source": {}, "target": {}})

    def test_unknown_keys(self):
        space_doc = load_fixture_doc("two_point_space.json")
        doc = {
            "source": space_doc,
            "target": space_doc,
            "pointMap": {"x1": "x1", "x2": "x2"},
            "paramMap": {"e1": "e1", "e2": "e2"},
            "remark": "",
        }
        with pytest.raises(DocumentError):
            decode_mapping(doc)

    def test_non_string_tables(self):
        space_doc = load_fixture_doc("two_point_space.json")
        doc = {
            "source": space_doc,
            "target": space_doc,
            "pointMap": {"x1": 1, "x2": "x2"},
            "paramMap": {"e1": "e1", "e2": "e2"},
        }
        with pytest.raises(DocumentError):
            decode_mapping(doc)

    def test_ref_requires_base_dir_resolution(self, tmp_path):
        inner = load_fixture_doc("chain_space.json")
        (tmp_path / "base.json").write_text(json.dumps(inner), encoding="utf-8")
        doc = {
            "source": {"ref": "base.json"},
            "target": {"ref": "base.json"},
            "pointMap": {"1": "1", "2": "2", "3": "3"},
            "paramMap": {"e": "e"},
        }
        mapping, _, _ = decode_mapping(doc, base_dir=tmp_path)
        assert mapping.point_map["2"] == "2"

    def test_ref_must_be_string(self):
        doc = {
            "source": {"ref": 3},
            "target": {"ref": "x.json"},
            "pointMap": {},
            "paramMap": {},
        }
        with pytest.raises(DocumentError):
            decode_mapping(doc)


class TestResolveTargetSet:
    def test_named(self):
        decoded = load_space(fixture_path("monitoring.json"))
        assert resolve_target_set(decoded, "G") == decoded.resolve("G")

    def test_reserved(self):
        decoded = load_space(fixture_path("monitoring.json"))
        assert resolve_target_set(decoded, "null").is_null()

    def test_topology_member(self):
        decoded = load_space(fixture_path("three_point_space.json"))
        assert resolve_target_set(decoded, "F2") == decoded.resolve("F2")

    def test_inline_json(self):
        decoded = load_space(fixture_path("chain_space.json"))
        s = resolve_target_set(decoded, '{"e": ["1", "3"]}')
        assert s.points("e") == ("1", "3")

    def test_bad_inline_json(self):
        decoded = load_space(fixture_path("chain_space.json"))
        with pytest.raises(DocumentError):
            resolve_target_set(decoded, "{not json")

    def test_unknown_name(self):
        decoded = load_space(fixture_path("chain_space.json"))
        with pytest.raises(ValueError):
            resolve_target_set(decoded, "mystery")


class TestLoadErrors:
    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(DocumentError):
            load_space(p)

    def test_invalid_mapping_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("[1,", encoding="utf-8")
        with pytest.raises(DocumentError):
            load_mapping(p)

    def test_missing_space_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_space(tmp_path / "absent.json")

    def test_missing_mapping_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_mapping(tmp_path / "absent.json")

    def test_missing_ref_target(self, tmp_path):
        doc = {
            "source": {"ref": "absent.json"},
            "target": {"ref": "absent.json"},
            "pointMap": {},
            "paramMap": {},
        }
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DocumentError, match="cannot read"):
            load_mapping(p)
