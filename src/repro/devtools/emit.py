"""SARIF report emitter for ``repro-analyze``.

All four analyzers (lint, flow, conc, hot) produce
:class:`~repro.devtools.findings.Finding` objects; :func:`sarif_run`
renders one tool's findings as a SARIF run and
:func:`render_sarif_document` wraps the runs in one 2.1.0 document, so
``repro-analyze`` merges the four analyzers into a single CI upload.

Findings passed in should already be baseline-filtered: emitters report
what *fails* the build, not the grandfathered backlog.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from repro.devtools.findings import Finding

__all__ = [
    "sarif_run",
    "render_sarif_document",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

_INFO_URI = "https://github.com/repro/repro/blob/main/docs/devtools.md"


def sarif_run(
    tool_name: str,
    findings: Sequence[Finding],
    rule_catalog: Mapping[str, str],
) -> dict:
    """Build one SARIF ``run`` object for a single tool.

    Args:
        tool_name: SARIF driver name (``"repro-lint"`` / ``"repro-flow"``
            / ``"repro-conc"`` / ``"repro-hot"``).
        findings: baseline-filtered findings to report.
        rule_catalog: rule id -> one-line description, for the driver's
            rule metadata (ids missing from the catalog still emit).

    Returns:
        A dict suitable for the ``runs`` array of a SARIF document.
    """
    rule_ids = sorted(set(rule_catalog) | {f.rule for f in findings})
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": rule_catalog.get(rule_id, rule_id)},
            "helpUri": _INFO_URI,
        }
        for rule_id in rule_ids
    ]
    index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": index[finding.rule],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column + 1,
                        },
                    },
                    "logicalLocations": [
                        {"fullyQualifiedName": finding.symbol, "kind": "function"}
                    ],
                }
            ],
            "partialFingerprints": {
                "reproFingerprint/v1": finding.fingerprint(),
            },
        }
        for finding in findings
    ]
    return {
        "tool": {
            "driver": {
                "name": tool_name,
                "informationUri": _INFO_URI,
                "rules": rules,
            }
        },
        "results": results,
    }


def render_sarif_document(runs: Sequence[Mapping]) -> str:
    """Render SARIF ``run`` objects as one SARIF 2.1.0 document.

    Returns:
        The SARIF JSON text (stable key order, 2-space indent).
    """
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": list(runs),
    }
    return json.dumps(document, indent=2)

