"""CLI subcommands: output goldens, JSON shapes, and exit codes."""

import ast
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import softaura
from softaura import SpaceFamilySpec, run_law_suite
from softaura import cli
from softaura.cli import DOCUMENT_COMMANDS, main

from conftest import FIXTURES, fixture_path, load_fixture_doc

APPROX_TABLE = """\
          e1      e2  e3      e4
target    s3, s5  s2  s1, s4  s4, s5
lower     s3      -   -       s4
upper     s3, s5  s2  s1, s4  s3, s4, s5
boundary  s5      s2  s1, s4  s3, s5
accuracy: 2/8 = 0.25
per-parameter (lower/upper): e1 1/2, e2 0/1, e3 0/2, e4 1/3
"""

AXIOMS_TABLE = """\
T0: yes
T1: no (x2 lies in the scope of x1 at e2)
T2: no (scopes of x1 and x2 overlap at e1)
regular: no (x1 at e1 cannot be separated from a closed set)
T3: no
"""

CLASSIFY_TABLE = """\
closure kind: cech
open:  no
alpha: no
semi:  no
pre:   yes
b:     yes
beta:  yes
"""

CONTINUITY_TABLE = """\
closure kind: cech
target family: aura
continuous:  yes
alpha:       yes
semi:        yes
pre:         yes
beta:        yes
"""


#: Stdout of every document subcommand in both formats, captured byte for byte
#: before the subcommands shared one decode/compute/render pipeline.
GOLDENS = json.loads((Path(__file__).parent / "goldens" / "cli_stdout.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", list(GOLDENS))
def test_stdout_golden(case, capsys):
    argv = [fixture_path(a) if a.endswith(".json") else a for a in GOLDENS[case]["argv"]]
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDENS[case]["stdout"]


class TestValidate:
    def test_table(self, capsys):
        assert main(["validate", fixture_path("three_point_space.json")]) == 0
        out = capsys.readouterr().out
        assert out == (
            "valid\n"
            "universe: x1 x2 x3\n"
            "parameters: e1 e2\n"
            "topology: explicit (5 members)\n"
        )

    def test_json(self, capsys):
        rc = main(
            ["validate", fixture_path("monitoring.json"), "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True
        assert doc["topology"] == {"kind": "discrete", "members": None}
        assert doc["namedSets"] == ["G"]


class TestApprox:
    def test_table_golden(self, capsys):
        rc = main(["approx", fixture_path("monitoring.json"), "--target", "G"])
        assert rc == 0
        assert capsys.readouterr().out == APPROX_TABLE

    def test_json_golden(self, capsys):
        rc = main(
            [
                "approx",
                fixture_path("monitoring.json"),
                "--target",
                "G",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lower"] == {"e1": ["s3"], "e2": [], "e3": [], "e4": ["s4"]}
        assert doc["upper"]["e4"] == ["s3", "s4", "s5"]
        assert doc["boundary"]["e1"] == ["s5"]
        assert doc["accuracy"] == {
            "display": "2/8 = 0.25",
            "numerator": 2,
            "denominator": 8,
            "value": 0.25,
            "conventionApplied": False,
        }
        assert doc["perParameter"][1] == {"parameter": "e2", "lower": 0, "upper": 1}

    def test_inline_target(self, capsys):
        rc = main(
            [
                "approx",
                fixture_path("chain_space.json"),
                "--target",
                '{"e": ["3"]}',
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "upper" in out and "2, 3" in out

    def test_unknown_target_is_domain_error(self, capsys):
        rc = main(["approx", fixture_path("monitoring.json"), "--target", "Nope"])
        assert rc == 2
        assert "unknown set name" in capsys.readouterr().err


class TestClassify:
    def test_table_golden(self, capsys):
        rc = main(["classify", fixture_path("chain_space.json"), "--set", "mixed"])
        assert rc == 0
        assert capsys.readouterr().out == CLASSIFY_TABLE

    def test_closure_kind_switch(self, capsys):
        rc = main(
            [
                "classify",
                fixture_path("cyclic_space.json"),
                "--set",
                "A",
                "--closure",
                "kuratowski",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "closureKind": "kuratowski",
            "open": False,
            "alpha": True,
            "semi": True,
            "pre": True,
            "b": True,
            "beta": True,
        }

    def test_cech_alpha_differs(self, capsys):
        rc = main(
            [
                "classify",
                fixture_path("cyclic_space.json"),
                "--set",
                "A",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] is False


class TestAxioms:
    def test_table_golden(self, capsys):
        rc = main(["axioms", fixture_path("two_point_space.json")])
        assert rc == 0
        assert capsys.readouterr().out == AXIOMS_TABLE

    def test_json_witnesses(self, capsys):
        rc = main(
            ["axioms", fixture_path("two_point_space.json"), "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t0"] == {"holds": True, "witness": None}
        assert doc["t1"]["holds"] is False
        assert doc["t1"]["witness"] == {"x": "x1", "y": "x2", "parameter": "e2"}
        assert doc["t2"]["witness"]["parameter"] == "e1"
        assert set(doc["regular"]["witness"]) == {"point", "parameter", "closedSet"}
        assert doc["t3"] == {"holds": False}

    def test_takes_no_cap(self, capsys, monkeypatch):
        # Regularity is decided without enumerating anything, so axioms has no
        # --cap flag, and the environment cap bounds only the decoding of a
        # generated topology, which this discrete document does not have.
        monkeypatch.setenv("SOFTAURA_CAP", "1")
        assert main(["axioms", fixture_path("two_point_space.json")]) == 0
        assert capsys.readouterr().out == AXIOMS_TABLE
        with pytest.raises(SystemExit) as exc:
            main(["axioms", fixture_path("two_point_space.json"), "--cap", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 2" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [10, 64])
    def test_many_singleton_points_decide(self, tmp_path, n):
        points = [f"x{i}" for i in range(1, n + 1)]
        doc = {
            "universe": points,
            "parameters": ["e1"],
            "topology": {"kind": "discrete"},
            "scope": {x: {"e1": [x]} for x in points},
        }
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "softaura", "axioms", str(path)],
            capture_output=True,
            text=True,
            env=source_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "regular: yes" in proc.stdout
        assert "T3: yes" in proc.stdout


class TestContinuity:
    def test_table_golden(self, capsys):
        rc = main(["continuity", fixture_path("chain_endo_mapping.json")])
        assert rc == 0
        assert capsys.readouterr().out == CONTINUITY_TABLE

    def test_json(self, capsys):
        rc = main(
            [
                "continuity",
                fixture_path("chain_endo_mapping.json"),
                "--closure",
                "kuratowski",
                "--target-family",
                "kuratowski",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closureKind"] == "kuratowski"
        assert doc["targetFamily"] == "kuratowski"
        assert doc["continuous"] is True


def singleton_subbasis_doc(k: int) -> dict:
    """k points, one parameter, absolute scopes, and the topology generated by the k singletons (2^k members)."""
    points = [f"x{i}" for i in range(1, k + 1)]
    return {
        "universe": points,
        "parameters": ["e1"],
        "topology": {"kind": "generated", "subbasis": {f"S{x}": {"e1": [x]} for x in points}},
        "scope": {x: {"e1": points} for x in points},
    }


def explicit_powerset_doc(k: int) -> dict:
    """k points, one parameter, and every subset of the points declared as an explicit topology (2^k members)."""
    points = [f"x{i}" for i in range(1, k + 1)]
    subsets = [[x for i, x in enumerate(points) if g >> i & 1] for g in range(1, (1 << k) - 1)]
    return {
        "universe": points,
        "parameters": ["e1"],
        "topology": {"kind": "explicit", "sets": {f"G{g}": {"e1": pts} for g, pts in enumerate(subsets, 1)}},
        "scope": {x: f"G{1 << i}" for i, x in enumerate(points)},
    }


def chain_doc(k: int, m: int) -> dict:
    """k points, m parameters, the discrete topology, and scope(x_i) = {x_i, x_i+1} at every parameter."""
    points = [f"x{i}" for i in range(1, k + 1)]
    params = [f"e{j}" for j in range(1, m + 1)]
    return {
        "universe": points,
        "parameters": params,
        "topology": {"kind": "discrete"},
        "namedSets": {"G": {e: points[j::m] for j, e in enumerate(params)}},
        "scope": {x: {e: points[i : i + 2] for e in params} for i, x in enumerate(points)},
    }


K14_COMMANDS = {
    "validate": ["validate", "space.json"],
    "approx": ["approx", "space.json", "--target", "Sx3"],
    "classify-cech": ["classify", "space.json", "--set", "Sx3", "--closure", "cech"],
    "classify-kuratowski": ["classify", "space.json", "--set", "Sx3", "--closure", "kuratowski"],
    "axioms": ["axioms", "space.json"],
    "continuity-aura": ["continuity", "mapping.json", "--target-family", "aura"],
    "continuity-kuratowski": ["continuity", "mapping.json", "--target-family", "kuratowski"],
    "continuity-ambient": ["continuity", "mapping.json", "--target-family", "ambient"],
}


EXPLICIT_COMMANDS = {
    "validate": ["validate", "space.json"],
    "approx": ["approx", "space.json", "--target", "G5"],
    "classify": ["classify", "space.json", "--set", "G5"],
    "axioms": ["axioms", "space.json"],
    "continuity-ambient": ["continuity", "mapping.json", "--target-family", "ambient"],
}


class TestAdversarialBudget:
    """Documents at the limits (generated topologies at the cap's edge, a 4,096-member explicit
    topology, a 64-point chain) finish, or exit 4, in bounded time."""

    BUDGET_S = 10.0

    @staticmethod
    def budget_docs(root, doc: dict) -> Path:
        """Write doc as space.json and, as mapping.json, the cyclic shift of its points (one parameter)."""
        k = len(doc["universe"])
        (root / "space.json").write_text(json.dumps(doc), encoding="utf-8")
        mapping = {
            "source": {"ref": "space.json"},
            "target": {"ref": "space.json"},
            "pointMap": {f"x{i}": f"x{i % k + 1}" for i in range(1, k + 1)},
            "paramMap": {"e1": "e1"},
        }
        (root / "mapping.json").write_text(json.dumps(mapping), encoding="utf-8")
        return root

    @pytest.fixture(scope="class")
    def k14(self, tmp_path_factory):
        return self.budget_docs(tmp_path_factory.mktemp("budget"), singleton_subbasis_doc(14))

    @pytest.fixture(scope="class")
    def explicit4096(self, tmp_path_factory):
        return self.budget_docs(tmp_path_factory.mktemp("explicit"), explicit_powerset_doc(12))

    def run_within_budget(self, argv, code, capsys):
        start = time.perf_counter()
        rc = main(argv)
        took = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == code, captured.err
        assert took < self.BUDGET_S, f"{argv[0]} took {took:.1f} s"
        return captured

    @pytest.mark.parametrize("command", list(K14_COMMANDS))
    def test_k14_subcommands_finish(self, k14, command, capsys):
        argv = [str(k14 / a) if a.endswith(".json") else a for a in K14_COMMANDS[command]]
        out = self.run_within_budget(argv, 0, capsys).out
        if command == "validate":
            assert "topology: generated (16384 members)" in out

    @pytest.mark.parametrize("command", list(EXPLICIT_COMMANDS))
    def test_explicit_4096_members_finish(self, explicit4096, command, capsys):
        argv = [str(explicit4096 / a) if a.endswith(".json") else a for a in EXPLICIT_COMMANDS[command]]
        out = self.run_within_budget(argv, 0, capsys).out
        if command == "validate":
            assert "topology: explicit (4096 members)" in out

    @pytest.mark.parametrize(
        "argv",
        [["classify", "--set", "G", "--closure", "kuratowski"], ["axioms"], ["approx", "--target", "G"]],
        ids=lambda argv: argv[0],
    )
    def test_64_point_chain_finishes(self, argv, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(64, 4)), encoding="utf-8")
        self.run_within_budget([argv[0], str(path), *argv[1:]], 0, capsys)

    def test_k20_validate_exits_4(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(singleton_subbasis_doc(20)), encoding="utf-8")
        err = self.run_within_budget(["validate", str(path)], 4, capsys).err
        assert "topology generation: enumeration needs 1000001 members, cap is 1000000" in err


class TestSuite:
    def test_stdout_report(self, capsys):
        rc = main(["suite", "--max-universe", "2", "--max-params", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"]["spaces"] == 5
        assert doc["config"]["maxUniverse"] == 2

    def test_out_file_matches_library_bytes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "suite",
                "--max-universe",
                "2",
                "--max-params",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "checked 22 spaces, 0 law failures" in capsys.readouterr().out
        want = run_law_suite(SpaceFamilySpec(2, 2)).to_json_bytes()
        assert out.read_bytes() == want

    def test_unwritable_out_is_3(self, tmp_path, capsys):
        out = tmp_path / "absent" / "r.json"
        rc = main(["suite", "--max-universe", "1", "--max-params", "1", "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_unwritable_out_fails_before_the_suite(self, tmp_path, capsys, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran before the --out path was checked")

        monkeypatch.setattr("softaura.harness.run_law_suite", no_suite)
        monkeypatch.setattr("softaura.harness.iter_family_spaces", no_suite)
        out = tmp_path / "absent" / "r.json"
        rc = main(["suite", "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert not out.exists()

    def test_unknown_law_is_reported_before_the_out_path(self, tmp_path, capsys):
        rc = main(["suite", "--laws", "bogus", "--out", str(tmp_path / "absent" / "r.json")])
        assert rc == 2
        assert "unknown laws" in capsys.readouterr().err

    @pytest.mark.parametrize("old", [b"an older report\n", None])
    def test_failed_suite_leaves_out_as_it_was(self, tmp_path, capsys, old):
        out = tmp_path / "r.json"
        if old is not None:
            out.write_bytes(old)
        rc = main(["suite", "--max-universe", "4", "--max-params", "2", "--out", str(out)])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scope functions: enumeration needs 16777216 members, cap is 1000000\n"
        if old is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == old

    def test_law_subset(self, capsys):
        rc = main(
            [
                "suite",
                "--max-universe",
                "2",
                "--max-params",
                "1",
                "--laws",
                "duality,closure-grounding",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["laws"]) == {"duality", "closure-grounding"}

    def test_unknown_law(self, capsys):
        rc = main(["suite", "--laws", "bogus"])
        assert rc == 2
        assert "unknown laws" in capsys.readouterr().err

    @pytest.mark.parametrize("value, named", [("", "['']"), (",", "['', '']")])
    def test_empty_law_is_unknown(self, value, named, capsys):
        # an empty --laws names the empty law; it does not select every law
        rc = main(["suite", "--max-universe", "1", "--max-params", "1", "--laws", value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown laws: {named}\n"

    def test_sampled_requires_both_flags(self, capsys):
        rc = main(["suite", "--seed", "3"])
        assert rc == 3

    def test_sampled_count_must_be_positive(self, capsys):
        rc = main(
            ["suite", "--max-universe", "2", "--max-params", "1", "--seed", "1", "--count", "-5"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sample_count must be at least 1" in captured.err

    @pytest.mark.parametrize("bounds", [["65"], ["200", "--max-params", "1"]])
    def test_universe_bound_is_checked_before_any_space(self, bounds, tmp_path, capsys, monkeypatch):
        def no_spaces(*args, **kwargs):
            raise AssertionError("a space was built before the universe bound was checked")

        monkeypatch.setattr("softaura.harness.iter_family_spaces", no_spaces)
        out = tmp_path / "r.json"
        rc = main(["suite", "--max-universe", *bounds, "--seed", "1", "--count", "40", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit is 64" in captured.err
        assert not out.exists()

    def test_sampled_generated(self, capsys):
        rc = main(
            [
                "suite",
                "--topology",
                "generated",
                "--seed",
                "9",
                "--count",
                "6",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"]["spaces"] == 6
        assert doc["config"]["topologyKind"] == "generated"

    def test_generated_requires_sampled_mode(self, capsys):
        rc = main(["suite", "--topology", "generated"])
        assert rc == 2


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{broken", encoding="utf-8")
        assert main(["validate", str(p)]) == 3

    def test_schema_error_is_3(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"universe": ["x1"]}), encoding="utf-8")
        assert main(["validate", str(p)]) == 3

    def test_missing_file_is_3(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", fixture_path("monitoring.json")],
            ["approx", fixture_path("monitoring.json"), "--target", "G"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout_is_3(self, argv):
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "softaura", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=source_env(),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("case", ["deep-file", "undecodable-file", "deep-target"])
    def test_unreadable_json_is_3(self, case, tmp_path, capsys):
        p = tmp_path / "doc.json"
        if case == "deep-file":
            p.write_text("[" * 100_000, encoding="utf-8")
            argv = ["validate", str(p)]
        elif case == "undecodable-file":
            p.write_bytes(b"\xff\xfe{}")
            argv = ["validate", str(p)]
        else:
            argv = ["approx", fixture_path("chain_space.json"), "--target", '{"e": ' + "[" * 5000 + "]" * 5000 + "}"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_domain_error_is_2(self, tmp_path, capsys):
        doc = {
            "universe": ["x1", "x2"],
            "parameters": ["e1"],
            "topology": {"kind": "discrete"},
            "scope": {"x1": {"e1": ["x2"]}, "x2": {"e1": ["x2"]}},
        }
        p = tmp_path / "badscope.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(p)]) == 2
        assert "does not contain" in capsys.readouterr().err

    def test_env_cap(self, capsys, monkeypatch):
        # the explicit ambient topology of nested_space.json has 8 members
        monkeypatch.setenv("SOFTAURA_CAP", "7")
        rc = main(["continuity", fixture_path("nested_endo_mapping.json"), "--target-family", "ambient"])
        assert rc == 4
        assert "ambient members: enumeration needs 8 members, cap is 7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["approx", "--target", "Sx3"], ["classify", "--set", "Sx3"], ["axioms"]],
        ids=lambda argv: argv[0],
    )
    def test_env_cap_bounds_topology_generation(self, argv, tmp_path, capsys, monkeypatch):
        # eight singletons generate 256 members: under the default cap, not under 5
        path = tmp_path / "space.json"
        path.write_text(json.dumps(singleton_subbasis_doc(8)), encoding="utf-8")
        args = [argv[0], str(path), *argv[1:]]
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setenv("SOFTAURA_CAP", "5")
        assert main(args) == 4
        assert "topology generation: enumeration needs 11 members, cap is 5" in capsys.readouterr().err

    def test_continuity_cap_bounds_topology_generation(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "space.json").write_text(json.dumps(singleton_subbasis_doc(8)), encoding="utf-8")
        mapping = {
            "source": {"ref": "space.json"},
            "target": {"ref": "space.json"},
            "pointMap": {f"x{i}": f"x{i}" for i in range(1, 9)},
            "paramMap": {"e1": "e1"},
        }
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        assert main(["continuity", str(path), "--cap", "5"]) == 4
        assert "topology generation: enumeration needs 11 members, cap is 5" in capsys.readouterr().err
        monkeypatch.setenv("SOFTAURA_CAP", "5")
        assert main(["continuity", str(path)]) == 4
        assert main(["continuity", str(path), "--cap", "256"]) == 0

    def test_env_cap_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SOFTAURA_CAP", "lots")
        rc = main(["continuity", fixture_path("chain_endo_mapping.json")])
        assert rc == 3

    def test_env_cap_must_be_positive(self, capsys, monkeypatch):
        monkeypatch.setenv("SOFTAURA_CAP", "0")
        rc = main(["continuity", fixture_path("chain_endo_mapping.json")])
        assert rc == 3
        assert "SOFTAURA_CAP must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_explicit_cap_must_be_positive(self, cap, capsys):
        rc = main(["continuity", fixture_path("chain_endo_mapping.json"), "--cap", cap])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cap must be positive" in captured.err

    def test_explicit_cap_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SOFTAURA_CAP", "7")
        rc = main(
            ["continuity", fixture_path("nested_endo_mapping.json"), "--target-family", "ambient", "--cap", "8"]
        )
        assert rc == 0


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installer-generated console-script wrapper does with its target.
WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
sys.argv = ["softaura"] + sys.argv[2:]
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def source_env() -> dict:
    """The environment with the imported ``softaura`` package first on PYTHONPATH."""
    src = str(Path(softaura.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def softaura_command():
    """The argv prefix and environment that run the ``softaura`` script.

    An installed script on ``PATH`` is run as is.  In an uninstalled
    checkout the ``[project.scripts]`` target is read from ``pyproject.toml``
    and called the way the installer's wrapper would call it, in a fresh
    interpreter that imports the same ``softaura`` package as this process.
    """
    script = shutil.which("softaura")
    if script is not None:
        return [script], None
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["softaura"]
    return [sys.executable, "-c", WRAPPER, target], source_env()


# Runs `main` on argv in a fresh interpreter, then prints its exit code and
# every module loaded by then.
FOOTPRINT = """\
import contextlib, io, json, sys
from softaura.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(sys.modules)]))
"""

COMPUTE_MODULES = {"harness", "mapping", "separation", "rough", "genopen"}

#: Standard-library modules that cost start-up time and that no subcommand needs.
HEAVY_STDLIB = {"dataclasses", "inspect", "fractions"}


class TestEntryPoint:
    def test_console_script(self):
        command, env = softaura_command()
        proc = subprocess.run(
            command + ["validate", fixture_path("two_point_space.json")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("valid"), proc.stderr

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "softaura", "--help"],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert proc.returncode == 0
        assert "approx" in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", fixture_path("monitoring.json")],
            ["approx", fixture_path("monitoring.json"), "--target", "G"],
            ["classify", fixture_path("chain_space.json"), "--set", "mixed"],
            ["axioms", fixture_path("two_point_space.json")],
            ["continuity", fixture_path("chain_endo_mapping.json")],
            ["suite", "--max-universe", "2", "--max-params", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_start_up_footprint(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT, *argv],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        rc, modules = json.loads(proc.stdout)
        assert rc == 0
        assert not HEAVY_STDLIB & set(modules)
        loaded = {name.removeprefix("softaura.") for name in modules if name.startswith("softaura.")}
        assert ("harness" in loaded) == (argv[0] == "suite")
        if argv[0] == "validate":
            assert not loaded & COMPUTE_MODULES


class TestPipeline:
    """Only `main` resolves the cap, decodes a document and renders output."""

    FUNCTIONS = {
        node.name: node
        for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }

    def names_in(self, name: str) -> set[str]:
        """Every name `name` uses, and those of the cli functions it calls, directly or not."""
        seen, todo, names = set(), [name], set()
        while todo:
            current = todo.pop()
            if current not in seen:
                seen.add(current)
                used = {n.id for n in ast.walk(self.FUNCTIONS[current]) if isinstance(n, ast.Name)}
                names |= used
                todo += [n for n in used if n in self.FUNCTIONS]
        return names

    def users_of(self, name: str) -> set[str]:
        """The cli functions whose body uses `name`."""
        return {
            f for f, node in self.FUNCTIONS.items()
            if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))
        }

    def test_document_commands(self):
        assert list(DOCUMENT_COMMANDS) == ["validate", "approx", "classify", "axioms", "continuity"]

    @pytest.mark.parametrize("command", list(DOCUMENT_COMMANDS))
    def test_handler_neither_renders_nor_resolves(self, command):
        handler = DOCUMENT_COMMANDS[command][-1].__name__
        # os and sys would reach the environment or stdout, json would render
        forbidden = {"print", "os", "sys", "json", "_resolve_cap", "load_space", "load_mapping"}
        assert not self.names_in(handler) & forbidden

    def test_only_main_resolves_the_cap_and_prints(self):
        environ = {
            f for f, node in self.FUNCTIONS.items()
            if any(isinstance(n, ast.Attribute) and n.attr == "environ" for n in ast.walk(node))
        }
        assert environ == {"_resolve_cap"}
        assert self.users_of("_resolve_cap") == {"main"}
        assert self.users_of("print") == {"main", "_cmd_suite"}
        assert self.users_of("load_space") == self.users_of("load_mapping") == set()


#: Values a mutated node may become, one of each JSON type.
MUTANT_VALUES = [None, True, 0, 2.5, "x", [], {}]


def mutate(doc, rng: random.Random):
    """`doc` after 1-3 mutations: a node replaced by a value of another type, a key dropped or a key added."""
    box = {"doc": json.loads(json.dumps(doc))}
    for _ in range(rng.randint(1, 3)):
        nodes, todo = [], [box]
        while todo:
            parent = todo.pop()
            for key in list(parent) if isinstance(parent, dict) else range(len(parent)):
                nodes.append((parent, key))
                if isinstance(parent[key], (dict, list)):
                    todo.append(parent[key])
        dicts = [parent[key] for parent, key in nodes if isinstance(parent[key], dict)]
        kind = rng.choice(["replace", "drop", "add"])
        if kind == "replace":
            parent, key = rng.choice(nodes)
            value = rng.choice([v for v in MUTANT_VALUES if type(v) is not type(parent[key])])
            parent[key] = json.loads(json.dumps(value))
        elif kind == "drop" and any(dicts):
            target = rng.choice([d for d in dicts if d])
            del target[rng.choice(list(target))]
        elif dicts:
            rng.choice(dicts)[f"extra{rng.randrange(3)}"] = json.loads(json.dumps(rng.choice(MUTANT_VALUES)))
    return box["doc"]


class TestMutatedDocuments:
    """Mutated fixture documents exit 0, 2, 3 or 4 through `main`, with an `error:` line, never a traceback."""

    SEED = 2024
    COUNT = 300

    def argvs(self, name: str, path: str, rng: random.Random) -> list[str]:
        doc = load_fixture_doc(name)
        fmt = ["--format", rng.choice(["table", "json"])]
        if "pointMap" in doc:
            return ["continuity", path, "--closure", rng.choice(["cech", "kuratowski"]),
                    "--target-family", rng.choice(["aura", "kuratowski", "ambient"]), *fmt]
        target = rng.choice(sorted(doc.get("namedSets", {})) or ["{}"])
        return rng.choice([
            ["validate", path],
            ["approx", path, "--target", target],
            ["classify", path, "--set", target, "--closure", rng.choice(["cech", "kuratowski"])],
            ["axioms", path],
        ]) + fmt

    def test_exit_codes(self, tmp_path, capsys):
        names = sorted(p.name for p in FIXTURES.glob("*.json"))
        for name in names:
            shutil.copy(FIXTURES / name, tmp_path / name)
        rng = random.Random(self.SEED)
        codes = {}
        for i in range(self.COUNT):
            name = names[i % len(names)]
            # a new file per mutant: truncating a file written moments ago
            # waits for its writeback, which can take seconds on a slow disk
            path = tmp_path / f"mutant-{i:03d}-{name}"
            mutant = mutate(load_fixture_doc(name), rng)
            path.write_text(json.dumps(mutant), encoding="utf-8")
            argv = self.argvs(name, str(path), rng)
            try:
                rc = main(argv)
            except Exception as exc:
                pytest.fail(f"{argv} on {json.dumps(mutant)} raised {exc!r}")
            err = capsys.readouterr().err
            assert rc in (0, 2, 3, 4), (argv, mutant, err)
            if rc:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, mutant, err)
            codes[rc] = codes.get(rc, 0) + 1
        # the mutations reach past the decoder as well as into it
        assert codes.get(0) and codes.get(3)
