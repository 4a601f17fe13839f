"""repro-analyze on the hot fixture package: baseline round-trip, SARIF
shape, exit codes, the --fix round trip, and the repo-tree regression
gate (src/repro must stay hot-clean)."""

from __future__ import annotations

import json
import shutil

from repro.devtools.analyze import main
from repro.devtools.hot.analyzer import hot_findings
from repro.devtools.hot.registry import HOT_RULES

from tests.devtools.hot.conftest import HOTPKG


class TestExitCodes:
    def test_fixture_package_fails(self, capsys):
        assert main([str(HOTPKG), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "repro-hot: 10 new finding(s)" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["does/not/exist"]) == 2

    def test_file_path_is_usage_error(self, tmp_path):
        target = tmp_path / "single.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in HOT_RULES:
            assert rule_id in out


class TestBaselineRoundTrip:
    def test_write_then_gate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "hot-baseline.json"
        assert (
            main(
                [
                    str(HOTPKG),
                    "--write-baseline",
                    "--baseline",
                    str(baseline),
                    "--justification",
                    "seeded fixture anti-patterns",
                ]
            )
            == 0
        )
        payload = json.loads(baseline.read_text())
        hot = [e for e in payload["findings"] if e["rule"] in HOT_RULES]
        assert len(hot) == 10
        assert all(
            e["justification"] == "seeded fixture anti-patterns"
            for e in payload["findings"]
        )
        # Same tree against the fresh baseline: everything grandfathered.
        capsys.readouterr()
        assert main([str(HOTPKG), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "repro-hot: clean (10 baselined)" in out


class TestSarif:
    def test_sarif_document_shape(self, capsys):
        assert main([str(HOTPKG), "--no-baseline", "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][3]
        assert run["tool"]["driver"]["name"] == "repro-hot"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(HOT_RULES) <= rule_ids
        assert {r["ruleId"] for r in run["results"]} == set(HOT_RULES)
        for result in run["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert "reproFingerprint/v1" in result["partialFingerprints"]

    def test_github_format(self, capsys):
        main([str(HOTPKG), "--no-baseline", "--format", "github"])
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "P007" in out


class TestEntryOverride:
    def test_extra_entry_widens_the_hot_set(self, hot_analysis):
        # Registering utils.cold_densify as an entry turns its todense()
        # into an eleventh finding.
        findings = hot_findings(hot_analysis, extra_entries=["utils.cold_densify"])
        assert len(findings) == 11
        assert any(
            f.rule == "P007" and f.path.endswith("utils.py") and f.line == 70
            for f in findings
        )


class TestFix:
    def test_fix_round_trip(self, tmp_path, capsys):
        work = tmp_path / "hotpkg"
        shutil.copytree(HOTPKG, work)
        assert main([str(work), "--no-baseline", "--fix"]) == 1
        assert "--fix rewrote 1 file(s)" in capsys.readouterr().err
        rewritten = (work / "utils.py").read_text()
        assert '{"viagra", "cialis", "xanax"}' in rewritten
        assert '["viagra", "cialis", "xanax"]' not in rewritten
        # Re-analysis: the P003 is gone, everything else is untouched.
        assert main([str(work), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "repro-hot: 9 new finding(s)" in out
        assert "P003" not in out

    def test_fix_is_idempotent(self, tmp_path, capsys):
        work = tmp_path / "hotpkg"
        shutil.copytree(HOTPKG, work)
        main([str(work), "--no-baseline", "--fix"])
        first = (work / "utils.py").read_text()
        capsys.readouterr()
        main([str(work), "--no-baseline", "--fix"])
        assert "rewrote" not in capsys.readouterr().err
        assert (work / "utils.py").read_text() == first


class TestRepoTreeIsClean:
    def test_src_repro_has_no_unbaselined_findings(self, repo_tree_report):
        # The committed baseline holds no P-rule entry, so a bare
        # "clean" (no "baselined" suffix) means no hot finding at all.
        status, out = repo_tree_report("text")
        assert status == 0
        assert "repro-hot: clean" in out.splitlines()
