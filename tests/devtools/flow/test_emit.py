"""SARIF emitter."""

from __future__ import annotations

import json

from repro.devtools.emit import SARIF_VERSION, render_sarif_document, sarif_run
from repro.devtools.findings import Finding

FINDING = Finding(
    rule="T001",
    path="src/repro/io.py",
    line=10,
    column=4,
    message="untrusted data reaches open()",
    symbol="load_model",
    source_line="with open(path) as fh:",
)


def render_sarif(tool_name, findings, rule_catalog):
    """One tool's findings as a complete SARIF document."""
    return render_sarif_document([sarif_run(tool_name, findings, rule_catalog)])


class TestSarif:
    def test_document_shape(self):
        doc = json.loads(render_sarif("repro-flow", [FINDING], {"T001": "path sink"}))
        assert doc["version"] == SARIF_VERSION
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-flow"
        (result,) = run["results"]
        assert result["ruleId"] == "T001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/io.py"
        assert location["region"]["startLine"] == 10
        assert location["region"]["startColumn"] == 5  # 1-based

    def test_fingerprint_round_trips(self):
        doc = json.loads(render_sarif("repro-lint", [FINDING], {}))
        fp = doc["runs"][0]["results"][0]["partialFingerprints"]["reproFingerprint/v1"]
        assert fp == FINDING.fingerprint()

    def test_rules_cover_catalog_and_findings(self):
        doc = json.loads(render_sarif("repro-flow", [FINDING], {"D001": "rng"}))
        ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
        assert "D001" in ids and "T001" in ids

    def test_empty_findings_still_valid(self):
        doc = json.loads(render_sarif("repro-flow", [], {"T001": "path sink"}))
        assert doc["runs"][0]["results"] == []

