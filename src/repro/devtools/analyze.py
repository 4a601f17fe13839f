"""repro-analyze: the project's one static-analysis command.

Usage::

    python -m repro.devtools.analyze [package-dirs ...]
        [--baseline PATH] [--no-baseline] [--write-baseline]
        [--justification TEXT] [--format text|json|sarif] [--list-rules]

Runs four analyzers over the same package directories (default
``src/repro``):

* ``repro-lint`` — per-module rules R001-R004, R007 and R008
  (:mod:`repro.devtools.lint`);
* ``repro-flow`` — interprocedural taint and determinism, T001, T004,
  D001 and D003 (:mod:`repro.devtools.flow`);
* ``repro-conc`` — parallel safety and cache coherence, C001 and
  C003-C006 (:mod:`repro.devtools.conc`);
* ``repro-hot`` — hot-path densification ranked by a static cost
  model, P007 (:mod:`repro.devtools.hot`).

The three interprocedural analyzers share one parsed project and call
graph, so a run costs one front-end pass, not three.  Rule IDs are
disjoint across tools, so one baseline file (``.repro-baseline.json``
in the current directory) gates all four.  A file that cannot be read
or parsed is reported once, as lint's ``E000`` finding.

Exit status: 0 when no new findings (baselined findings do not fail the
run), 1 when new findings exist, 2 on usage errors.

``--format sarif`` prints one SARIF 2.1.0 document with one run per
tool.  ``--write-baseline`` keeps the justification of every entry the
baseline already holds; ``--justification`` annotates the new ones.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Mapping, Sequence

from repro.devtools.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.devtools.conc.analyzer import conc_findings
from repro.devtools.conc.registry import CONC_RULES
from repro.devtools.emit import render_sarif_document, sarif_run
from repro.devtools.findings import Finding
from repro.devtools.flow.analysis import analyze_project, flow_findings
from repro.devtools.flow.registry import FLOW_RULES
from repro.devtools.hot.analyzer import hot_findings
from repro.devtools.hot.registry import HOT_RULES
from repro.devtools.lint import lint_paths
from repro.devtools.rules import RULES
from repro.exceptions import ValidationError

__all__ = ["main", "run_all"]

# Tool name -> (rule id -> one-line summary), in report order.
_RULE_CATALOGS: dict[str, Mapping[str, str]] = {
    "repro-lint": {rule.rule_id: rule.summary for rule in RULES},
    "repro-flow": FLOW_RULES,
    "repro-conc": CONC_RULES,
    "repro-hot": HOT_RULES,
}


def run_all(paths: Sequence[str]) -> dict[str, list[Finding]]:
    """Run lint, flow, conc and hot over the package directories ``paths``.

    Returns:
        Each tool's findings in its report order, keyed by tool name in
        lint/flow/conc/hot order.
    """
    analysis = analyze_project(paths)
    return {
        "repro-lint": lint_paths(paths),
        "repro-flow": flow_findings(analysis),
        "repro-conc": conc_findings(analysis),
        "repro-hot": hot_findings(analysis),
    }


def _render_text(
    new: dict[str, list[Finding]],
    grandfathered: dict[str, list[Finding]],
    stale: list[str],
) -> str:
    out = []
    for tool, tool_new in new.items():
        out.extend(f"[{tool}] {finding.render()}" for finding in tool_new)
        baselined = len(grandfathered[tool])
        suffix = f" ({baselined} baselined)" if baselined else ""
        status = f"{len(tool_new)} new finding(s)" if tool_new else "clean"
        out.append(f"{tool}: {status}{suffix}")
    if stale:
        out.append(
            f"warning: {len(stale)} stale baseline entr(y/ies) no longer "
            "observed; refresh with --write-baseline"
        )
    total = sum(len(tool_new) for tool_new in new.values())
    if total:
        out.append(f"found {total} new finding(s) in total")
    return "\n".join(out)


def _render_json(
    new: dict[str, list[Finding]],
    grandfathered: dict[str, list[Finding]],
    stale: list[str],
) -> str:
    return json.dumps(
        {
            "new": [
                {
                    "tool": tool,
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "column": f.column,
                    "message": f.message,
                    "symbol": f.symbol,
                    "fingerprint": f.fingerprint(),
                }
                for tool, tool_new in new.items()
                for f in tool_new
            ],
            "baselined": sum(len(old) for old in grandfathered.values()),
            "stale_baseline_entries": stale,
        },
        indent=2,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.analyze",
        description=(
            "Static analysis for the repro codebase: repro-lint, repro-flow, "
            "repro-conc and repro-hot in one pass."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="package directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE_NAME,
        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME}; missing means empty)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather all current findings into the baseline file",
    )
    parser.add_argument(
        "--justification",
        default="",
        help=(
            "note recorded on each entry --write-baseline adds; existing "
            "entries keep theirs"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue of all four tools and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for catalog in _RULE_CATALOGS.values():
            for rule_id, summary in catalog.items():
                sys.stdout.write(f"{rule_id}  {summary}\n")
        return 0

    missing = [raw for raw in args.paths if not Path(raw).is_dir()]
    if missing:
        sys.stderr.write(f"error: not a package directory: {', '.join(missing)}\n")
        return 2

    try:
        findings = run_all(args.paths)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {exc}\n")
        return 2

    everything = [f for tool_findings in findings.values() for f in tool_findings]
    baseline_path = Path(args.baseline)
    if args.write_baseline:
        try:
            previous = Baseline.load(baseline_path)
        except (OSError, ValidationError):
            previous = Baseline()  # unreadable: rewrite it from scratch
        Baseline.from_findings(
            everything, justification=args.justification, previous=previous
        ).save(baseline_path)
        sys.stdout.write(f"wrote {len(everything)} finding(s) to {baseline_path}\n")
        return 0

    try:
        baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)
    except (OSError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    new: dict[str, list[Finding]] = {}
    grandfathered: dict[str, list[Finding]] = {}
    for tool, tool_findings in findings.items():
        new[tool], grandfathered[tool] = baseline.filter(tool_findings)
    stale = baseline.stale_fingerprints(everything)

    if args.format == "sarif":
        runs = [
            sarif_run(tool, new[tool], catalog)
            for tool, catalog in _RULE_CATALOGS.items()
        ]
        sys.stdout.write(render_sarif_document(runs) + "\n")
    elif args.format == "json":
        sys.stdout.write(_render_json(new, grandfathered, stale) + "\n")
    else:
        sys.stdout.write(_render_text(new, grandfathered, stale) + "\n")

    return 1 if any(new.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
