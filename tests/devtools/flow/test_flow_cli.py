"""End-to-end tests of repro-analyze on the flow fixture package: exit
codes, baseline, formats."""

from __future__ import annotations

import json

from tools.analyze import main
from tools.flow.registry import FLOW_RULES

from tests.devtools.flow.conftest import FLOWPKG


class TestExitCodes:
    def test_seeded_package_fails_with_every_rule(self, capsys):
        status = main([str(FLOWPKG), "--no-baseline"])
        out = capsys.readouterr().out
        assert status == 1
        for rule_id in FLOW_RULES:
            assert rule_id in out

    def test_nonexistent_path_is_usage_error(self, capsys):
        assert main(["does/not/exist"]) == 2
        assert "not a package directory" in capsys.readouterr().err

    def test_repo_tree_is_clean(self, repo_tree_report):
        # The acceptance bar: the real package carries no unbaselined
        # flow findings.
        status, out = repo_tree_report("text")
        assert status == 0
        assert "repro-flow: clean" in out.splitlines()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "T001" in out and "D003" in out


class TestInterproceduralEvidence:
    def test_taint_report_names_the_call_chain(self, capsys):
        main([str(FLOWPKG), "--no-baseline"])
        out = capsys.readouterr().out
        assert "flowpkg.cli.main -> flowpkg.storage.store" in out

    def test_rng_reported_in_helper_that_lint_passes(self, capsys):
        # repro-lint's single-file R002 does not fire on helpers.py
        # (default_rng is allowlisted); the flow analysis must.
        from tools import lint
        from tools.flow.project import load_project

        lint_findings = [
            f
            for f in lint.lint_findings(load_project([str(FLOWPKG)]))
            if f.path == str(FLOWPKG / "helpers.py")
        ]
        assert not any(f.rule == "R002" for f in lint_findings)

        main([str(FLOWPKG), "--no-baseline"])
        out = capsys.readouterr().out
        assert "helpers.py" in out and "D001" in out


class TestBaselineWorkflow:
    def test_round_trip(self, tmp_path, capsys):
        baseline_path = tmp_path / "flow-baseline.json"
        assert (
            main(
                [
                    str(FLOWPKG),
                    "--baseline",
                    str(baseline_path),
                    "--write-baseline",
                    "--justification",
                    "seeded fixtures",
                ]
            )
            == 0
        )
        payload = json.loads(baseline_path.read_text())
        assert payload["tool"] == "repro-analyze"
        recorded = {entry["rule"] for entry in payload["findings"]}
        assert {"T001", "D001"} <= recorded

        capsys.readouterr()
        assert main([str(FLOWPKG), "--baseline", str(baseline_path)]) == 0
        assert "repro-flow: clean (4 baselined)" in capsys.readouterr().out


class TestFormats:
    def test_sarif_output_parses_and_carries_results(self, capsys):
        status = main([str(FLOWPKG), "--no-baseline", "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        run = doc["runs"][1]
        assert run["tool"]["driver"]["name"] == "repro-flow"
        rules_fired = {r["ruleId"] for r in run["results"]}
        assert "T001" in rules_fired and "D001" in rules_fired

    def test_json_format(self, capsys):
        main([str(FLOWPKG), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["baselined"] == 0
        flow = [f for f in payload["new"] if f["tool"] == "repro-flow"]
        assert sorted(f["rule"] for f in flow) == sorted(FLOW_RULES)
