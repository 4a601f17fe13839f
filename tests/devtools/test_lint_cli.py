"""End-to-end tests of repro-analyze on the lint fixtures: exit codes,
baseline, formats."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tools.analyze import main
from tools.baseline import Baseline
from tools.flow.project import load_project
from tools.lint import lint_findings
from tools.rules import RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
VIOLATIONS = FIXTURES / "violations"


def _package(tmp_path: Path, *fixtures: Path) -> str:
    """A package directory holding copies of the given fixture files."""
    package = tmp_path / "pkg"
    package.mkdir()
    for fixture in fixtures:
        shutil.copy(fixture, package / fixture.name)
    return str(package)


class TestExitCodes:
    def test_violation_tree_fails_with_every_rule(self, capsys):
        status = main([str(VIOLATIONS), "--no-baseline"])
        out = capsys.readouterr().out
        assert status == 1
        for rule in RULES:
            assert rule.rule_id in out

    def test_clean_file_passes(self, tmp_path, capsys):
        package = _package(tmp_path, FIXTURES / "clean.py")
        assert main([package, "--no-baseline"]) == 0
        assert "repro-lint: clean" in capsys.readouterr().out

    def test_syntax_error_reported_as_finding(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path), "--no-baseline"]) == 1
        assert "E000" in capsys.readouterr().out

    def test_nonexistent_path_is_usage_error(self, capsys):
        assert main(["does/not/exist", "--no-baseline"]) == 2
        assert "not a package directory" in capsys.readouterr().err

    def test_repo_tree_is_clean_under_committed_baseline(self, repo_tree_report):
        status, out = repo_tree_report("text")
        assert status == 0
        assert "repro-lint: clean" in out
        assert "stale" not in out


class TestJsonFormat:
    def test_json_payload_shape(self, tmp_path, capsys):
        package = _package(tmp_path, VIOLATIONS / "r001_exceptions.py")
        status = main([package, "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["baselined"] == 0
        assert payload["stale_baseline_entries"] == []
        (finding,) = payload["new"]
        assert finding["tool"] == "repro-lint"
        assert finding["rule"] == "R001"
        assert finding["fingerprint"].startswith("R001|")


class TestBaselineWorkflow:
    def test_round_trip(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        write_status = main(
            [
                str(VIOLATIONS),
                "--baseline",
                str(baseline_path),
                "--write-baseline",
                "--justification",
                "fixture debt",
            ]
        )
        assert write_status == 0
        assert baseline_path.exists()

        capsys.readouterr()
        rerun_status = main([str(VIOLATIONS), "--baseline", str(baseline_path)])
        out = capsys.readouterr().out
        assert rerun_status == 0
        assert "baselined" in out

    def test_new_violation_still_fails(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        shutil.copy(VIOLATIONS / "r001_exceptions.py", tree / "old.py")
        baseline_path = tmp_path / "baseline.json"
        main([str(tree), "--baseline", str(baseline_path), "--write-baseline"])

        shutil.copy(VIOLATIONS / "r002_randomness.py", tree / "new.py")
        capsys.readouterr()
        assert main([str(tree), "--baseline", str(baseline_path)]) == 1
        assert "R002" in capsys.readouterr().out

    def test_rewrite_keeps_recorded_justifications(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        shutil.copy(VIOLATIONS / "r001_exceptions.py", tree / "old.py")
        baseline_path = tmp_path / "baseline.json"
        args = [str(tree), "--baseline", str(baseline_path), "--write-baseline"]
        assert main([*args, "--justification", "seed debt"]) == 0

        # Refreshing after a new finding keeps the old entry's note and
        # gives the new entry the note passed now (none here).
        shutil.copy(VIOLATIONS / "r002_randomness.py", tree / "new.py")
        assert main(args) == 0
        entries = json.loads(baseline_path.read_text())["findings"]
        notes = {entry["rule"]: entry.get("justification") for entry in entries}
        assert notes == {"R001": "seed debt", "R002": None}

    def test_stale_entries_warn(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        shutil.copy(VIOLATIONS / "r001_exceptions.py", tree / "old.py")
        baseline_path = tmp_path / "baseline.json"
        main([str(tree), "--baseline", str(baseline_path), "--write-baseline"])

        (tree / "old.py").write_text('"""Now clean."""\n')
        capsys.readouterr()
        assert main([str(tree), "--baseline", str(baseline_path)]) == 0
        assert "stale" in capsys.readouterr().out

    def test_corrupt_baseline_is_usage_error(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text("{not json")
        package = _package(tmp_path, FIXTURES / "clean.py")
        status = main([package, "--baseline", str(baseline_path)])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_fingerprint_survives_line_shift(self, tmp_path):
        original = (VIOLATIONS / "r001_exceptions.py").read_text()
        target = tmp_path / "mod.py"
        target.write_text(original)
        baseline = Baseline.from_findings(lint_findings(load_project([str(tmp_path)])))

        shifted = original.replace(
            '"""Seeded R001 violation: raises a builtin exception."""',
            '"""Seeded R001 violation: raises a builtin exception."""\n\nPADDING = 1',
        )
        target.write_text(shifted)
        new, grandfathered = baseline.filter(lint_findings(load_project([str(tmp_path)])))
        assert new == []
        assert len(grandfathered) == 1


class TestMachineFormats:
    def test_sarif_output(self, tmp_path, capsys):
        package = _package(tmp_path, VIOLATIONS / "r002_randomness.py")
        status = main([package, "--no-baseline", "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
        assert any(
            r["ruleId"] == "R002" for r in doc["runs"][0]["results"]
        )


class TestDiscovery:
    def test_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        found = [Path(m.path) for m in load_project([str(tmp_path)]).modules.values()]
        assert [p.name for p in found] == ["real.py"]

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "R007" in out


def test_old_lint_command_fails_loudly():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", str(VIOLATIONS)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "python -m tools.analyze" in proc.stderr
