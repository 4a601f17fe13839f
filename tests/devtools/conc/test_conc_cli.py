"""repro-analyze on the conc fixture package: baseline round-trip, SARIF
shape, exit codes, and the repo-tree regression gate (src/repro must
stay conc-clean)."""

from __future__ import annotations

import json

from repro.devtools.analyze import main
from repro.devtools.conc.registry import CONC_RULES

from tests.devtools.conc.conftest import CONCPKG


class TestExitCodes:
    def test_fixture_package_fails(self, capsys):
        assert main([str(CONCPKG), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "repro-conc: 10 new finding(s)" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["does/not/exist"]) == 2

    def test_file_path_is_usage_error(self, tmp_path):
        target = tmp_path / "single.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in CONC_RULES:
            assert rule_id in out


class TestBaselineRoundTrip:
    def test_write_then_gate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "conc-baseline.json"
        assert (
            main(
                [
                    str(CONCPKG),
                    "--write-baseline",
                    "--baseline",
                    str(baseline),
                    "--justification",
                    "seeded fixture hazards",
                ]
            )
            == 0
        )
        payload = json.loads(baseline.read_text())
        conc = [e for e in payload["findings"] if e["rule"] in CONC_RULES]
        assert len(conc) == 10
        assert all(
            e["justification"] == "seeded fixture hazards"
            for e in payload["findings"]
        )
        # Same tree against the fresh baseline: everything grandfathered.
        capsys.readouterr()
        assert main([str(CONCPKG), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "repro-conc: clean (10 baselined)" in out


class TestSarif:
    def test_sarif_document_shape(self, capsys):
        assert main([str(CONCPKG), "--no-baseline", "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][2]
        assert run["tool"]["driver"]["name"] == "repro-conc"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(CONC_RULES) <= rule_ids
        assert {r["ruleId"] for r in run["results"]} == set(CONC_RULES)
        for result in run["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert "reproFingerprint/v1" in result["partialFingerprints"]


class TestRepoTreeIsClean:
    def test_src_repro_has_no_unbaselined_findings(self, repo_tree_report):
        # The committed baseline holds no C-rule entry, so a bare
        # "clean" (no "baselined" suffix) means no conc finding at all.
        status, out = repo_tree_report("text")
        assert status == 0
        assert "repro-conc: clean" in out.splitlines()


class TestUmbrella:
    def test_repo_tree_clean_and_merged_sarif(self, repo_tree_report):
        status, out = repo_tree_report("text")
        assert status == 0
        for tool in ("repro-lint", "repro-flow", "repro-conc", "repro-hot"):
            assert f"{tool}: clean" in out
        status, sarif = repo_tree_report("sarif")
        assert status == 0
        doc = json.loads(sarif)
        assert [run["tool"]["driver"]["name"] for run in doc["runs"]] == [
            "repro-lint",
            "repro-flow",
            "repro-conc",
            "repro-hot",
        ]
        assert all(run["results"] == [] for run in doc["runs"])

    def test_fixture_tree_fails_without_baselines(self, tmp_path, capsys, monkeypatch):
        # No baseline file in the working directory: a missing file is
        # an empty baseline, so every finding is new.
        monkeypatch.chdir(tmp_path)
        status = main([str(CONCPKG)])
        assert status == 1
        out = capsys.readouterr().out
        assert "repro-conc: 10 new finding(s)" in out
