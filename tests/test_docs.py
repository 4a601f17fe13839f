"""The docs name only code that exists.

Every dotted ``repro.…`` name written as code in the top-level docs (an
inline span or a fenced block) must import and resolve, so a deleted or
moved definition cannot linger in the text that describes the package.
"""

import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/api.md", "docs/devtools.md", "DESIGN.md")

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _code_names() -> list[tuple[str, str]]:
    found: dict[str, str] = {}
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        code = _FENCE.findall(text) + _SPAN.findall(_FENCE.sub("", text))
        for chunk in code:
            for name in _DOTTED.findall(chunk):
                found.setdefault(name, doc)
    return sorted(found.items())


def _resolve(name: str) -> object:
    """Import the longest importable module prefix of ``name``, then
    walk the rest as attributes."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(name)


def test_documented_names_resolve():
    names = _code_names()
    assert len(names) > 40  # the scan still finds the docs' code
    missing = []
    for name, doc in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{doc}: `{name}` ({exc})")
    assert not missing, "docs name code that does not exist:\n" + "\n".join(missing)
