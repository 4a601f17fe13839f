"""repro-analyze merges four analyzers: it must drop no finding, report
files no analyzer could load, and list every rule."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.devtools.analyze import main
from repro.devtools.conc.analyzer import conc_findings
from repro.devtools.conc.registry import CONC_RULES
from repro.devtools.flow.analysis import analyze_project, flow_findings
from repro.devtools.flow.registry import FLOW_RULES
from repro.devtools.hot.analyzer import hot_findings
from repro.devtools.hot.registry import HOT_RULES
from repro.devtools.lint import lint_paths
from repro.devtools.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("package", ["violations", "flowpkg", "concpkg", "hotpkg"])
def test_cli_reports_every_library_finding(package, capsys):
    path = str(FIXTURES / package)
    assert main([path, "--format", "json", "--no-baseline"]) == 1
    reported = Counter(
        (f["tool"], f["fingerprint"])
        for f in json.loads(capsys.readouterr().out)["new"]
    )

    analysis = analyze_project([path])
    library = Counter()
    for tool, findings in (
        ("repro-lint", lint_paths([path])),
        ("repro-flow", flow_findings(analysis)),
        ("repro-conc", conc_findings(analysis)),
        ("repro-hot", hot_findings(analysis)),
    ):
        library.update((tool, f.fingerprint()) for f in findings)
    assert reported == library


@pytest.mark.parametrize(
    "make_bad",
    [
        pytest.param(lambda pkg: (pkg / "broken.py").write_text("def f(:\n"), id="syntax"),
        pytest.param(lambda pkg: (pkg / "unreadable.py").mkdir(), id="unreadable"),
    ],
)
def test_unloadable_file_fails_with_e000(make_bad, tmp_path, capsys):
    # flow, conc and hot skip a file they cannot load; lint's E000 is the
    # one report of it, so the run must still fail.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text('"""Package."""\n')
    make_bad(package)
    assert main([str(package), "--format", "json", "--no-baseline"]) == 1
    (finding,) = json.loads(capsys.readouterr().out)["new"]
    assert (finding["tool"], finding["rule"]) == ("repro-lint", "E000")


def test_list_rules_covers_all_four_tools(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    expected = [rule.rule_id for rule in RULES]
    expected += [*FLOW_RULES, *CONC_RULES, *HOT_RULES]
    assert listed == expected
    assert len(set(listed)) == 31
