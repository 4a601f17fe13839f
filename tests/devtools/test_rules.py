"""Per-rule unit tests against positive and negative fixtures."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import lint_paths
from repro.devtools.rules import RULES, infer_layer, parse_module

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
    (rule,) = [r for r in RULES if r.rule_id == rule_id]
    return rule.run(parse_module(path, source))


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
        findings = lint_paths([str(RULE_FIXTURES[rule_id])])
        assert {f.rule for f in findings} == {rule_id}


class TestNegativeFixture:
    def test_clean_module_has_no_findings(self):
        findings = lint_paths([str(FIXTURES / "clean.py")])
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
        assert infer_layer("src/repro/devtools/lint.py") == "devtools"

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
        for source in (
            "from repro.devtools.rules import RULES\n",
            "import repro.devtools.analyze\n",
            "from repro import devtools\n",
        ):
            (finding,) = _run_rule("R003", "src/repro/text/term_vector.py", source)
            assert "`devtools`" in finding.message


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

    def test_devtools_layer_is_exempt(self):
        source = (
            "def f() -> int:\n"
            "    '''doc'''\n"
            "    try:\n        return 1\n"
            "    except Exception:\n        return 0\n"
        )
        assert _run_rule("R008", "src/repro/devtools/lint.py", source) == []


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
