"""repro-analyze merges four analyzers: it must drop no finding, report
files no analyzer could load, and list every rule."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tools.analyze import main
from tools.conc.analyzer import conc_findings
from tools.conc.registry import CONC_RULES
from tools.flow.analysis import analyze_project, flow_findings
from tools.flow.registry import FLOW_RULES
from tools.hot.analyzer import hot_findings
from tools.hot.registry import HOT_RULES
from tools.lint import lint_paths
from tools.rules import RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
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
    assert len(set(listed)) == 16


def test_docs_catalogue_matches_the_registry(capsys):
    # Every rule-catalogue table row in docs/devtools.md starts with a
    # rule id; together they must list exactly the rules the CLI runs.
    docs = REPO_ROOT / "docs" / "devtools.md"
    documented = re.findall(r"^\| ([A-Z]\d{3}) \|", docs.read_text(), flags=re.M)
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert documented == listed


def test_analyzer_loads_no_library_module():
    # The analyzer reads the library's source; it never imports it.
    code = (
        "import sys\n"
        "import tools.analyze\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
