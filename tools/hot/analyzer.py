"""Rule engine for ``repro-hot`` (P007).

**P007** (densification) is hot-gated: it fires only in functions
reachable from a registered hot entry point through the flow call
graph — a ``todense()`` in a cold CLI helper is noise, the same one
inside the sweep is a scaling bug.

Every finding's message carries its static cost
(:mod:`tools.hot.cost`) and, for hot sites, the shortest call
chain from the entry point; the report is ordered by descending cost so
the most expensive regression is always the first line.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from tools.findings import Finding, assign_occurrences
from tools.flow.analysis import ProjectAnalysis
from tools.flow.project import ModuleUnit
from tools.hot.cost import format_cost, site_cost
from tools.hot.registry import HOT_ENTRY_SUFFIXES, SUPPRESSION_MARKER

__all__ = ["hot_findings", "hot_entry_qualnames"]

_MAX_CHAIN_SHOWN = 4


def _matches_suffix(qualname: str, suffix: str) -> bool:
    return qualname == suffix or qualname.endswith("." + suffix)


def hot_entry_qualnames(
    analysis: ProjectAnalysis, extra_suffixes: Iterable[str] = ()
) -> list[str]:
    """Project functions matching the registered hot-entry suffixes."""
    suffixes = tuple(HOT_ENTRY_SUFFIXES) + tuple(extra_suffixes)
    return sorted(
        qualname
        for qualname in analysis.project.functions
        if any(_matches_suffix(qualname, suffix) for suffix in suffixes)
    )


def _densify_sites(
    stmts: Sequence[ast.stmt], depth: int = 0
) -> Iterator[tuple[ast.Call, int, str]]:
    """``(call, loop depth, kind)`` for each ``.todense()`` call and each
    loop-nested ``.toarray()`` call in ``stmts``.

    Nested function and class bodies are skipped — they are separate
    call-graph units scanned on their own.  A comprehension's implicit
    loop does not add depth (the model under-counts rather than
    guesses).
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            head = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            yield from _densify_calls([head], depth)
            yield from _densify_sites(stmt.body, depth + 1)
            yield from _densify_sites(stmt.orelse, depth)
        elif isinstance(stmt, ast.If):
            yield from _densify_calls([stmt.test], depth)
            yield from _densify_sites(stmt.body, depth)
            yield from _densify_sites(stmt.orelse, depth)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _densify_calls([item.context_expr for item in stmt.items], depth)
            yield from _densify_sites(stmt.body, depth)
        elif isinstance(stmt, ast.Try):
            handlers = [handler.body for handler in stmt.handlers]
            for block in (stmt.body, *handlers, stmt.orelse, stmt.finalbody):
                yield from _densify_sites(block, depth)
        else:
            children = [c for c in ast.iter_child_nodes(stmt) if isinstance(c, ast.expr)]
            yield from _densify_calls(children, depth)


def _densify_calls(
    exprs: Sequence[ast.expr], depth: int
) -> Iterator[tuple[ast.Call, int, str]]:
    for expr in exprs:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            kind = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if kind == "todense" or (kind == "toarray" and depth >= 1):
                yield node, depth, kind


def _chain_note(chain: tuple[str, ...]) -> str:
    shown = chain[-_MAX_CHAIN_SHOWN:]
    prefix = "... -> " if len(chain) > _MAX_CHAIN_SHOWN else ""
    short = " -> ".join(part.rsplit(".", 2)[-1] for part in shown)
    return f"hot: {prefix}{short}"


class _HotAnalyzer:
    def __init__(
        self, analysis: ProjectAnalysis, extra_entries: Iterable[str] = ()
    ) -> None:
        self.project = analysis.project
        self.graph = analysis.graph
        self.entries = hot_entry_qualnames(analysis, extra_entries)
        self.reach = self.graph.reachable_from_any(self.entries)
        self.pairs: list[tuple[float, Finding]] = []
        self._seen: set[tuple[str, str, int, int, str]] = set()

    # -- emission ----------------------------------------------------------

    def _emit(
        self,
        rule: str,
        module: ModuleUnit,
        line: int,
        column: int,
        message: str,
        symbol: str,
        depth: int,
        node: str,
        identity_extra: str = "",
    ) -> None:
        if module.is_suppressed_marker(SUPPRESSION_MARKER, rule, line):
            return
        identity = (rule, module.path, line, column, identity_extra)
        if identity in self._seen:
            return
        self._seen.add(identity)
        chain = self.reach[node][1]
        cost = site_cost(depth, len(chain) - 1)
        note = _chain_note(chain)
        self.pairs.append(
            (
                cost,
                Finding(
                    rule=rule,
                    path=module.path,
                    line=line,
                    column=column,
                    message=f"{message} [cost {format_cost(cost)}; {note}]",
                    symbol=symbol,
                    source_line=module.source_line(line),
                ),
            )
        )

    # -- P007: hot-reachable densification ----------------------------------

    def _densifications(self) -> None:
        scopes = [
            (unit.module, unit.node.body, unit.symbol, qualname)
            for qualname, unit in sorted(self.project.functions.items())
        ]
        scopes += [
            (module, module.tree.body, "<module>", f"{name}.<module>")
            for name, module in sorted(self.project.modules.items())
        ]
        for module, body, symbol, node in scopes:
            if node not in self.reach:
                continue
            for call, depth, kind in _densify_sites(body):
                self._emit(
                    "P007",
                    module,
                    call.lineno,
                    call.col_offset,
                    f".{kind}() densifies a sparse operand",
                    symbol,
                    depth,
                    node,
                    identity_extra=f"P007:{kind}",
                )

    # -- driver ------------------------------------------------------------

    def run(self) -> list[Finding]:
        self._densifications()
        # Occurrence indexes must be stamped in source order; the report
        # itself is then re-ranked by descending static cost.
        self.pairs.sort(key=lambda p: (p[1].path, p[1].line, p[1].column, p[1].rule))
        stamped = assign_occurrences([finding for _, finding in self.pairs])
        ranked = sorted(
            zip((cost for cost, _ in self.pairs), stamped),
            key=lambda p: (-p[0], p[1].path, p[1].line, p[1].column, p[1].rule),
        )
        return [finding for _, finding in ranked]


def hot_findings(
    analysis: ProjectAnalysis, extra_entries: Iterable[str] = ()
) -> list[Finding]:
    """All P007 findings for an analyzed project, ranked by descending
    static cost."""
    return _HotAnalyzer(analysis, extra_entries).run()
