"""Lint rules R001–R004, R007 and R008, tailored to the repro codebase.

Each rule inspects one parsed module (:class:`ModuleInfo`) and yields
:class:`~repro.devtools.findings.Finding` objects.  The catalogue:

========  ==============================================================
R001      exceptions raised inside the library must come from
          :mod:`repro.exceptions` (no bare ``ValueError`` etc.)
R002      no unseeded randomness (``random.*``; ``np.random.*`` other
          than explicit ``Generator`` construction) outside
          ``data/synthesis.py``
R003      import layering: ``text``/``network``/``ml``/``web``/``data``
          must not import ``core``/``experiments``; ``core`` must not
          import ``experiments``; no library layer imports
          ``devtools``, and ``devtools`` imports no library layer;
          ``cli`` may import every other layer
R004      no mutable default arguments
R007      public functions must carry full type hints and a docstring
R008      no bare or over-broad exception handlers (``except:``,
          ``except Exception:``, ``except BaseException:``) in library
          code — handlers that re-raise (cleanup blocks ending in a
          bare ``raise``) and the ``devtools`` layer are exempt
========  ==============================================================

Violations are suppressed line-by-line with ``# repro-lint:
disable=R00X`` (comma-separated ids, or ``all``) and file-wide with
``# repro-lint: disable-file=R00X`` near the top of the file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Callable, Iterator, Sequence

from repro.devtools.findings import Finding

__all__ = [
    "ModuleInfo",
    "Rule",
    "RULES",
    "parse_module",
    "parse_suppressions",
]

# --------------------------------------------------------------------------
# Shared configuration
# --------------------------------------------------------------------------

#: Builtin exceptions that library code must not raise directly (R001).
BANNED_EXCEPTIONS = frozenset(
    {
        "ValueError",
        "TypeError",
        "RuntimeError",
        "KeyError",
        "IndexError",
        "LookupError",
        "ArithmeticError",
        "ZeroDivisionError",
        "OSError",
        "IOError",
        "AssertionError",
        "Exception",
        "BaseException",
    }
)

#: The repro.exceptions type R001's message suggests for a builtin.
R001_REPLACEMENTS = {
    "ValueError": "ValidationError",
    "TypeError": "ValidationError",
    "KeyError": "MissingKeyError",
    "LookupError": "MissingKeyError",
}

#: ``np.random`` attributes that construct explicit seeded generators
#: and are therefore allowed by R002.
SEEDED_RANDOM_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: Path suffixes exempt from R002 (the synthetic-web generator owns its
#: seeding policy and documents it).
R002_EXEMPT_SUFFIXES = ("data/synthesis.py",)

#: Known architectural layers (directory names under the package root,
#: plus the top-level ``cli`` module).
LAYERS = frozenset(
    {
        "text",
        "network",
        "ml",
        "web",
        "data",
        "core",
        "experiments",
        "cli",
        "devtools",
        "perf",
        "serve",
        "stream",
    }
)

#: layer -> layers it must NOT import.  Absent layers are unrestricted.
#: ``serve`` sits above ``core`` (it wraps the verifier) but below
#: ``experiments``/``cli``; nothing below it may reach up into it.
#: ``data`` sits above ``perf``/``web`` (``data.sharding`` fans out
#: through ``perf.parallel`` and builds ``web.site`` objects), so the
#: kernel layers — and ``serve``, which reaches sharded corpora only
#: through the structural ``SiteIndex`` protocol — must not import it.
#: ``stream`` (the incremental pipeline) sits beside ``core``: it builds
#: on the kernel layers and ``data`` deltas but must not reach into the
#: batch verifier, and nothing below it may import it.  No library
#: layer imports the analyzer (``devtools``): the verifier loads none
#: of it.
_ABOVE_KERNELS = frozenset(
    {"core", "data", "experiments", "cli", "serve", "stream", "devtools"}
)
FORBIDDEN_IMPORTS: dict[str, frozenset[str]] = {
    "perf": _ABOVE_KERNELS,
    "text": _ABOVE_KERNELS,
    "network": _ABOVE_KERNELS,
    "ml": _ABOVE_KERNELS,
    "web": _ABOVE_KERNELS,
    "data": frozenset({"core", "experiments", "cli", "serve", "stream", "devtools"}),
    "core": frozenset({"experiments", "cli", "serve", "stream", "devtools"}),
    "stream": frozenset({"core", "experiments", "cli", "serve", "devtools"}),
    "serve": frozenset({"data", "experiments", "cli", "stream", "devtools"}),
    "experiments": frozenset({"cli", "serve", "devtools"}),
    "cli": frozenset({"devtools"}),
    "devtools": frozenset(
        {
            "text",
            "network",
            "ml",
            "web",
            "data",
            "core",
            "experiments",
            "cli",
            "serve",
            "stream",
        }
    ),
}

#: File-wide suppressions must appear within the first N lines.
_FILE_SUPPRESS_WINDOW = 12


def _suppress_patterns(marker: str) -> tuple[re.Pattern[str], re.Pattern[str]]:
    escaped = re.escape(marker)
    return (
        re.compile(rf"#\s*{escaped}:\s*disable=(?P<ids>[A-Za-z0-9, ]+)"),
        re.compile(rf"#\s*{escaped}:\s*disable-file=(?P<ids>[A-Za-z0-9, ]+)"),
    )


# --------------------------------------------------------------------------
# Module model
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ModuleInfo:
    """A parsed module plus the context rules need.

    Attributes:
        path: posix-style path as given to the linter.
        tree: the parsed AST.
        lines: raw source lines (without trailing newlines).
        layer: architectural layer, or ``None`` when undetermined.
        line_suppressions: line number -> rule ids disabled on it.
        file_suppressions: rule ids disabled for the whole file.
    """

    path: str
    tree: ast.Module
    lines: list[str]
    layer: str | None = None
    line_suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    file_suppressions: frozenset[str] = frozenset()

    def source_line(self, lineno: int) -> str:
        """The stripped source text at 1-based ``lineno``."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        """Whether ``rule_id`` is disabled at ``lineno``."""
        if rule_id in self.file_suppressions or "all" in self.file_suppressions:
            return True
        ids = self.line_suppressions.get(lineno, frozenset())
        return rule_id in ids or "all" in ids


def parse_suppressions(
    lines: Sequence[str], marker: str = "repro-lint"
) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Parse ``# <marker>: disable=...`` comments out of ``lines``.

    Shared by the linter (``repro-lint``) and the flow analyzer
    (``repro-flow``); the two tools deliberately use distinct markers so
    suppressing one never silences the other.

    Returns:
        ``(per_line, file_wide)``: 1-based line number -> disabled rule
        ids, and the rule ids disabled for the whole file (only honored
        within the first :data:`_FILE_SUPPRESS_WINDOW` lines).
    """
    line_re, file_re = _suppress_patterns(marker)
    per_line: dict[int, frozenset[str]] = {}
    file_wide: set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        if marker not in text:
            continue
        match = line_re.search(text)
        if match:
            ids = frozenset(
                part.strip() for part in match.group("ids").split(",") if part.strip()
            )
            per_line[lineno] = ids
        match = file_re.search(text)
        if match and lineno <= _FILE_SUPPRESS_WINDOW:
            file_wide.update(
                part.strip() for part in match.group("ids").split(",") if part.strip()
            )
    return per_line, frozenset(file_wide)


def infer_layer(path: str) -> str | None:
    """Infer the architectural layer of ``path``.

    The last directory component that names a known layer wins;
    otherwise a top-level module whose stem is a layer (``cli.py``)
    claims that layer.  Paths outside the layered tree return ``None``.
    """
    pure = PurePosixPath(path.replace("\\", "/"))
    directories = pure.parts[:-1]
    for part in reversed(directories):
        if part in LAYERS:
            return part
    if pure.stem in LAYERS:
        return pure.stem
    return None


def parse_module(path: str, source: str) -> ModuleInfo:
    """Parse ``source`` into the :class:`ModuleInfo` the rules consume.

    Raises:
        SyntaxError: when the module does not parse.
    """
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    per_line, file_wide = parse_suppressions(lines)
    return ModuleInfo(
        path=path.replace("\\", "/"),
        tree=tree,
        lines=lines,
        layer=infer_layer(path),
        line_suppressions=per_line,
        file_suppressions=file_wide,
    )


# --------------------------------------------------------------------------
# Rule plumbing
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rule:
    """One lint rule: identifier, summary, and a check function."""

    rule_id: str
    summary: str
    check: Callable[[ModuleInfo], list[Finding]]

    def run(self, module: ModuleInfo) -> list[Finding]:
        """Run the rule, dropping suppressed findings."""
        return [
            finding
            for finding in self.check(module)
            if not module.is_suppressed(self.rule_id, finding.line)
        ]


def _walk_scoped(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, enclosing_symbol)`` pairs over the whole module."""

    def visit(node: ast.AST, symbol: str) -> Iterator[tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_symbol = (
                    child.name if symbol == "<module>" else f"{symbol}.{child.name}"
                )
                yield child, symbol
                yield from visit(child, child_symbol)
            else:
                yield child, symbol
                yield from visit(child, symbol)

    yield tree, "<module>"
    yield from visit(tree, "<module>")


def _finding(
    module: ModuleInfo,
    rule_id: str,
    node: ast.AST,
    message: str,
    symbol: str,
) -> Finding:
    lineno = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    return Finding(
        rule=rule_id,
        path=module.path,
        line=lineno,
        column=col,
        message=message,
        symbol=symbol,
        source_line=module.source_line(lineno),
    )


# --------------------------------------------------------------------------
# R001 — library exceptions only
# --------------------------------------------------------------------------


def _check_r001(module: ModuleInfo) -> list[Finding]:
    findings = []
    for node, symbol in _walk_scoped(module.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name: str | None = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in BANNED_EXCEPTIONS:
            replacement = R001_REPLACEMENTS.get(name)
            hint = (
                f" (use repro.exceptions.{replacement})"
                if replacement
                else " (use a repro.exceptions subclass)"
            )
            findings.append(
                _finding(
                    module,
                    "R001",
                    node,
                    f"raises builtin {name}{hint}",
                    symbol,
                )
            )
    return findings


# --------------------------------------------------------------------------
# R002 — no unseeded randomness
# --------------------------------------------------------------------------


def _check_r002(module: ModuleInfo) -> list[Finding]:
    if module.path.endswith(R002_EXEMPT_SUFFIXES):
        return []
    findings = []
    for node, symbol in _walk_scoped(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    findings.append(
                        _finding(
                            module,
                            "R002",
                            node,
                            "stdlib `random` is unseeded global state; "
                            "use numpy.random.default_rng(seed)",
                            symbol,
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "random":
                findings.append(
                    _finding(
                        module,
                        "R002",
                        node,
                        "stdlib `random` is unseeded global state; "
                        "use numpy.random.default_rng(seed)",
                        symbol,
                    )
                )
            elif mod in ("numpy.random", "np.random"):
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name not in SEEDED_RANDOM_ALLOWED
                ]
                if bad:
                    findings.append(
                        _finding(
                            module,
                            "R002",
                            node,
                            f"imports unseeded numpy.random members {bad}; "
                            "construct an explicit Generator instead",
                            symbol,
                        )
                    )
        elif isinstance(node, ast.Attribute):
            # <anything>.random.<member> — module-level RandomState API.
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and node.attr not in SEEDED_RANDOM_ALLOWED
            ):
                findings.append(
                    _finding(
                        module,
                        "R002",
                        node,
                        f"`{value.value.id}.random.{node.attr}` uses the "
                        "unseeded global RandomState; construct an explicit "
                        "Generator via default_rng(seed)",
                        symbol,
                    )
                )
    return findings


# --------------------------------------------------------------------------
# R003 — import layering
# --------------------------------------------------------------------------


def _imported_layer(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1] if parts[1] in LAYERS else None


def _check_r003(module: ModuleInfo) -> list[Finding]:
    layer = module.layer
    forbidden = FORBIDDEN_IMPORTS.get(layer or "", frozenset())
    if not forbidden:
        return []
    findings = []
    for node, symbol in _walk_scoped(module.tree):
        targets: list[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro":
                # `from repro import core` names submodules directly.
                targets = [f"repro.{alias.name}" for alias in node.names]
            else:
                targets = [node.module]
        for target in targets:
            target_layer = _imported_layer(target)
            if target_layer in forbidden:
                findings.append(
                    _finding(
                        module,
                        "R003",
                        node,
                        f"layer `{layer}` must not import layer "
                        f"`{target_layer}` ({target})",
                        symbol,
                    )
                )
    return findings


# --------------------------------------------------------------------------
# R004 — no mutable default arguments
# --------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def _check_r004(module: ModuleInfo) -> list[Finding]:
    findings = []
    for node, symbol in _walk_scoped(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        qualname = node.name if symbol == "<module>" else f"{symbol}.{node.name}"
        args = node.args
        annotated = list(
            zip(
                args.posonlyargs + args.args,
                [None] * (len(args.posonlyargs) + len(args.args) - len(args.defaults))
                + list(args.defaults),
            )
        ) + list(zip(args.kwonlyargs, args.kw_defaults))
        for arg, default in annotated:
            if default is not None and _is_mutable_default(default):
                findings.append(
                    _finding(
                        module,
                        "R004",
                        default,
                        f"mutable default for parameter `{arg.arg}` of "
                        f"{qualname}(); use None and create inside",
                        symbol,
                    )
                )
    return findings


# --------------------------------------------------------------------------
# R007 — public functions carry type hints and a docstring
# --------------------------------------------------------------------------


def _missing_annotations(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    missing = []
    positional = node.args.posonlyargs + node.args.args
    for i, arg in enumerate(positional):
        if i == 0 and arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    for arg in node.args.kwonlyargs:
        if arg.annotation is None:
            missing.append(arg.arg)
    if node.args.vararg is not None and node.args.vararg.annotation is None:
        missing.append(f"*{node.args.vararg.arg}")
    if node.args.kwarg is not None and node.args.kwarg.annotation is None:
        missing.append(f"**{node.args.kwarg.arg}")
    return missing


def _public_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
    """Yield ``(function_node, enclosing_symbol)`` for the public API.

    Public means: reachable through class bodies whose names (and the
    function's own name) carry no leading underscore, and not nested
    inside another function (closures are implementation detail).
    """

    def visit(node: ast.AST, symbol: str) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    yield child, symbol
                # Do not descend: nested defs are closures.
            elif isinstance(child, ast.ClassDef):
                if not child.name.startswith("_"):
                    child_symbol = (
                        child.name
                        if symbol == "<module>"
                        else f"{symbol}.{child.name}"
                    )
                    yield from visit(child, child_symbol)
            else:
                yield from visit(child, symbol)

    yield from visit(tree, "<module>")


def _check_r007(module: ModuleInfo) -> list[Finding]:
    findings = []
    for node, symbol in _public_functions(module.tree):
        qualname = node.name if symbol == "<module>" else f"{symbol}.{node.name}"
        problems = []
        if ast.get_docstring(node) is None:
            problems.append("missing docstring")
        missing = _missing_annotations(node)
        if missing:
            problems.append(f"unannotated parameters: {', '.join(missing)}")
        if node.returns is None:
            problems.append("missing return annotation")
        if problems:
            findings.append(
                _finding(
                    module,
                    "R007",
                    node,
                    f"public function {qualname}() {'; '.join(problems)}",
                    symbol,
                )
            )
    return findings


# --------------------------------------------------------------------------
# R008 — no bare or over-broad exception handlers
# --------------------------------------------------------------------------

#: Exception names too broad to catch in library code (R008).
BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _broad_handler_name(handler: ast.ExceptHandler) -> str | None:
    """The over-broad name a handler catches, or ``None`` when scoped.

    A bare ``except:`` reports as ``"<bare>"``; tuple handlers are
    broad when any member is.
    """
    if handler.type is None:
        return "<bare>"

    def name_of(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name) and node.id in BROAD_EXCEPTION_NAMES:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in BROAD_EXCEPTION_NAMES:
            return node.attr
        if isinstance(node, ast.Tuple):
            for elt in node.elts:
                found = name_of(elt)
                if found is not None:
                    return found
        return None

    return name_of(handler.type)


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains a bare ``raise``.

    Cleanup handlers (undo side effects, then propagate) legitimately
    catch everything; the bare ``raise`` is what distinguishes them
    from handlers that *swallow* the error.
    """
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


def _check_r008(module: ModuleInfo) -> list[Finding]:
    if module.layer == "devtools":
        # Analysis tooling legitimately firewalls arbitrary target-code
        # failures (a crashing rule must not take the linter down).
        return []
    findings = []
    for node, symbol in _walk_scoped(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = _broad_handler_name(node)
        if broad is None or _handler_reraises(node):
            continue
        what = "bare `except:`" if broad == "<bare>" else f"`except {broad}:`"
        findings.append(
            _finding(
                module,
                "R008",
                node,
                f"{what} swallows unrelated failures; catch the specific "
                "exception types the block can actually raise (handlers "
                "that re-raise are exempt)",
                symbol,
            )
        )
    return findings


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

RULES: tuple[Rule, ...] = (
    Rule("R001", "raise repro.exceptions types, not bare builtins", _check_r001),
    Rule("R002", "no unseeded randomness outside data/synthesis.py", _check_r002),
    Rule("R003", "import-layering DAG enforcement", _check_r003),
    Rule("R004", "no mutable default arguments", _check_r004),
    Rule("R007", "public functions need type hints and a docstring", _check_r007),
    Rule("R008", "no bare or over-broad exception handlers", _check_r008),
)
