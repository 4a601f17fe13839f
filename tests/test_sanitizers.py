"""The ``@sanitizes`` declaration: validated categories, identity decorator."""

from __future__ import annotations

import pytest

from tools.flow.registry import TAINT_RULE_BY_CATEGORY
from repro.exceptions import ValidationError
from repro.sanitizers import SANITIZER_CATEGORIES, sanitizes


def test_returns_the_function_unchanged():
    def clean(text: str) -> str:
        return text

    assert sanitizes("path", "ssrf")(clean) is clean


@pytest.mark.parametrize("categories", [(), ("regex",), ("path", "report")])
def test_rejects_missing_or_unknown_categories(categories):
    with pytest.raises(ValidationError):
        sanitizes(*categories)


def test_categories_are_the_taint_rules_sinks():
    assert SANITIZER_CATEGORIES - {"*"} == set(TAINT_RULE_BY_CATEGORY)
