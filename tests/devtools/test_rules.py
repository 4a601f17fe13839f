"""Per-rule unit tests against positive and negative fixtures."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from tools.flow.project import load_project
from tools.lint import lint_findings
from tools.rules import RULES, infer_layer

FIXTURES = Path(__file__).parent / "fixtures"
VIOLATIONS = FIXTURES / "violations"

RULE_FIXTURES = {
    "R001": VIOLATIONS / "r001_exceptions.py",
    "R002": VIOLATIONS / "r002_randomness.py",
    "R003": VIOLATIONS / "text" / "r003_layering.py",
    "R004": VIOLATIONS / "r004_mutable_default.py",
    "R007": VIOLATIONS / "r007_api.py",
    "R008": VIOLATIONS / "web" / "r008_except.py",
}


def _run_rule(rule_id: str, path: str, source: str):
    """Run one rule on ``source`` saved at ``path`` under a scratch root
    (the path's directories still decide the layer)."""
    (rule,) = [r for r in RULES if r.rule_id == rule_id]
    with tempfile.TemporaryDirectory() as root:
        target = Path(root, path.lstrip("/"))
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        (module,) = load_project([root]).modules.values()
        return rule.run(module)


def _lint_file(path: Path):
    """Lint findings for one file, loaded with the rest of its directory."""
    findings = lint_findings(load_project([str(path.parent)]))
    return [f for f in findings if f.path == str(path)]


class TestPositiveFixtures:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_triggers_its_rule(self, rule_id):
        path = RULE_FIXTURES[rule_id]
        findings = _run_rule(rule_id, str(path), path.read_text())
        assert findings, f"{path} should trigger {rule_id}"
        assert all(f.rule == rule_id for f in findings)

    def test_every_rule_has_a_fixture(self):
        assert set(RULE_FIXTURES) == {rule.rule_id for rule in RULES}

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_triggers_no_other_rule(self, rule_id):
        findings = _lint_file(RULE_FIXTURES[rule_id])
        assert {f.rule for f in findings} == {rule_id}


class TestNegativeFixture:
    def test_clean_module_has_no_findings(self):
        findings = _lint_file(FIXTURES / "clean.py")
        assert findings == []


class TestR001:
    def test_flags_bare_name_reraise_style(self):
        source = "def f() -> None:\n    raise RuntimeError\n"
        assert len(_run_rule("R001", "x.py", source)) == 1

    def test_allows_library_exceptions(self):
        source = (
            "from repro.exceptions import GraphError\n"
            "def f() -> None:\n    raise GraphError('boom')\n"
        )
        assert _run_rule("R001", "x.py", source) == []

    def test_bare_reraise_is_fine(self):
        source = (
            "def f() -> None:\n"
            "    try:\n        pass\n"
            "    except Exception:\n        raise\n"
        )
        assert _run_rule("R001", "x.py", source) == []


class TestR002:
    def test_flags_stdlib_random_import(self):
        assert _run_rule("R002", "x.py", "import random\n")

    def test_flags_np_random_seed(self):
        source = "import numpy as np\nnp.random.seed(0)\n"
        assert _run_rule("R002", "x.py", source)

    def test_allows_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert _run_rule("R002", "x.py", source) == []

    def test_synthesis_module_is_exempt(self):
        path = "src/repro/data/synthesis.py"
        assert _run_rule("R002", path, "import random\n") == []


class TestR003:
    def test_layer_inference(self):
        assert infer_layer("src/repro/text/term_vector.py") == "text"
        assert infer_layer("src/repro/cli.py") == "cli"
        assert infer_layer("src/repro/io.py") is None
        assert infer_layer("tools/lint.py") is None

    def test_cli_layer_is_unrestricted(self):
        source = "from repro.experiments import tables\n"
        assert _run_rule("R003", "src/repro/cli.py", source) == []

    def test_core_cannot_import_experiments(self):
        source = "from repro.experiments import tables\n"
        assert _run_rule("R003", "src/repro/core/verifier.py", source)

    def test_from_repro_import_submodule(self):
        source = "from repro import experiments\n"
        assert _run_rule("R003", "src/repro/ml/base.py", source)

    def test_lower_layer_may_import_sibling(self):
        source = "from repro.network.graph import DirectedGraph\n"
        assert _run_rule("R003", "src/repro/network/pagerank.py", source) == []

    def test_library_layer_cannot_import_the_analyzer(self):
        for path in ("src/repro/text/term_vector.py", "src/repro/io.py"):
            for source in (
                "from tools.rules import RULES\n",
                "import tools.analyze\n",
                "from tools import rules\n",
            ):
                (finding,) = _run_rule("R003", path, source)
                assert "`tools`" in finding.message

    def test_analyzer_may_import_itself(self):
        source = "from tools.findings import Finding\n"
        assert _run_rule("R003", "tools/rules.py", source) == []
        assert _run_rule("R003", "tools/flow/project.py", source) == []


class TestR004:
    def test_kwonly_mutable_default(self):
        source = "def f(*, cache: dict = {}) -> None:\n    '''doc'''\n"
        assert _run_rule("R004", "x.py", source)

    def test_none_default_is_fine(self):
        source = "def f(cache: dict | None = None) -> None:\n    '''doc'''\n"
        assert _run_rule("R004", "x.py", source) == []


class TestR007:
    def test_private_functions_skipped(self):
        assert _run_rule("R007", "x.py", "def _helper(a):\n    return a\n") == []

    def test_nested_defs_skipped(self):
        source = (
            "def outer() -> int:\n"
            "    '''doc'''\n"
            "    def inner(a):\n        return a\n"
            "    return inner(1)\n"
        )
        assert _run_rule("R007", "x.py", source) == []

    def test_method_of_public_class_checked(self):
        source = (
            "class Thing:\n"
            "    '''doc'''\n"
            "    def go(self, x):\n        return x\n"
        )
        (finding,) = _run_rule("R007", "x.py", source)
        assert "Thing.go" in finding.message


class TestR008:
    def test_flags_except_exception(self):
        source = (
            "def f() -> int:\n"
            "    '''doc'''\n"
            "    try:\n        return 1\n"
            "    except Exception:\n        return 0\n"
        )
        (finding,) = _run_rule("R008", "x.py", source)
        assert "except Exception" in finding.message

    def test_flags_bare_except(self):
        source = (
            "def f() -> int:\n"
            "    '''doc'''\n"
            "    try:\n        return 1\n"
            "    except:\n        return 0\n"
        )
        assert _run_rule("R008", "x.py", source)

    def test_reraising_handler_is_exempt(self):
        source = (
            "def f() -> None:\n"
            "    '''doc'''\n"
            "    try:\n        pass\n"
            "    except BaseException:\n"
            "        cleanup()\n        raise\n"
        )
        assert _run_rule("R008", "x.py", source) == []

    def test_specific_handler_is_fine(self):
        source = (
            "def f(value: str) -> int:\n"
            "    '''doc'''\n"
            "    try:\n        return int(value)\n"
            "    except ValueError:\n        return 0\n"
        )
        assert _run_rule("R008", "x.py", source) == []

    def test_broad_tuple_member_flagged(self):
        source = (
            "def f() -> int:\n"
            "    '''doc'''\n"
            "    try:\n        return 1\n"
            "    except (KeyError, Exception):\n        return 0\n"
        )
        assert _run_rule("R008", "x.py", source)

    def test_analyzer_modules_are_not_exempt(self):
        source = (
            "def f() -> int:\n"
            "    '''doc'''\n"
            "    try:\n        return 1\n"
            "    except Exception:\n        return 0\n"
        )
        assert _run_rule("R008", "tools/lint.py", source)


class TestSuppressions:
    def test_line_suppression(self):
        source = (
            "def f() -> None:\n"
            "    '''doc'''\n"
            "    raise ValueError('x')  # repro-lint: disable=R001\n"
        )
        assert _run_rule("R001", "x.py", source) == []

    def test_file_suppression(self):
        source = (
            "# repro-lint: disable-file=R001\n"
            "def f() -> None:\n"
            "    '''doc'''\n"
            "    raise ValueError('a')\n"
            "    raise KeyError('b')\n"
        )
        assert _run_rule("R001", "x.py", source) == []

    def test_unrelated_suppression_does_not_hide(self):
        source = "raise ValueError('x')  # repro-lint: disable=R002\n"
        assert _run_rule("R001", "x.py", source)
