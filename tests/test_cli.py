"""CLI subcommands: output goldens, JSON shapes, and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import softaura
from softaura import SpaceFamilySpec, run_law_suite
from softaura.cli import main

from conftest import fixture_path

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
        # Regularity is decided without enumerating anything, so neither the
        # environment cap nor a --cap flag applies to axioms.
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
        assert captured.err == "error: enumeration needs 16777216 members, cap is 1000000\n"
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
        monkeypatch.setenv("SOFTAURA_CAP", "7")
        rc = main(["continuity", fixture_path("chain_endo_mapping.json")])
        assert rc == 4

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
            ["continuity", fixture_path("chain_endo_mapping.json"), "--cap", "8"]
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
# the softaura submodules that the run loaded.
FOOTPRINT = """\
import contextlib, io, json, sys
from softaura.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("softaura."))]))
"""

COMPUTE_MODULES = {"harness", "mapping", "separation", "rough", "genopen"}


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
        loaded = {name.removeprefix("softaura.") for name in modules}
        assert "harness" not in loaded
        if argv[0] == "validate":
            assert not loaded & COMPUTE_MODULES
