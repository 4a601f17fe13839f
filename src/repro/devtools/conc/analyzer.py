"""Rule engine for ``repro-conc`` (C001 and C003–C006).

Findings come in two shapes:

* **site-local** — C005 (cache-key incompleteness) and C006 (fork-
  unsafe callables) fire at the discovered site itself;
* **reachability-gated** — C001 (shared-state mutation), C003
  (nondeterminism), and C004 (non-atomic writes) fire on any function
  reachable from a worker root (or, for C004, a memoized-compute root)
  through the flow call graph, annotated with the shortest call chain —
  the same interprocedural gating ``repro-flow`` uses for D001 and D003.

C003 re-uses the flow interpreter's determinism events verbatim: an
unseeded-RNG event that is benign on a serial entrypoint becomes a
fork hazard the moment the function is shipped to a worker, because
each worker process re-derives module RNG state independently.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterable

from repro.devtools.conc.effects import (
    FunctionEffects,
    collect_data_globals,
    collect_mutable_globals,
    extract_effects,
    iter_scope_nodes,
    scope_assignments,
)
from repro.devtools.conc.entrypoints import (
    CacheSite,
    WorkerSubmission,
    discover_sites,
    enclosing_function_chain,
)
from repro.devtools.conc.registry import (
    ATOMIC_IO_EXEMPT_SUFFIXES,
    EXECUTION_KNOBS,
    FORK_UNSAFE_FACTORIES,
    SUPPRESSION_MARKER,
    TEMPORAL_KEY_ATTRS,
)
from repro.devtools.findings import Finding, assign_occurrences
from repro.devtools.flow.analysis import ProjectAnalysis
from repro.devtools.flow.project import FunctionUnit, ModuleUnit

__all__ = ["conc_findings"]

_BUILTIN_NAMES = frozenset(dir(builtins))
_MAX_CHAIN_SHOWN = 5


def _chain_note(kind: str, chain: tuple[str, ...]) -> str:
    if len(chain) <= 1:
        return f"(in {kind} '{chain[0] if chain else '?'}')"
    shown = chain[-_MAX_CHAIN_SHOWN:]
    prefix = "... -> " if len(chain) > _MAX_CHAIN_SHOWN else ""
    return f"({kind}-reachable via {prefix}{' -> '.join(shown)})"


class _ConcAnalyzer:
    def __init__(self, analysis: ProjectAnalysis) -> None:
        self.project = analysis.project
        self.result = analysis.result
        self.graph = analysis.graph
        self.mutable_globals = collect_mutable_globals(self.project)
        self.data_globals = collect_data_globals(self.project)
        self.effects = extract_effects(self.project, self.mutable_globals)
        self.submissions, self.cache_sites = discover_sites(self.project)
        self.findings: list[Finding] = []
        self._seen: set[tuple[str, str, int, int]] = set()

    # -- emission ---------------------------------------------------------

    def _emit(
        self,
        rule: str,
        module: ModuleUnit,
        line: int,
        column: int,
        message: str,
        symbol: str,
        identity_extra: str = "",
    ) -> None:
        if module.is_suppressed_marker(SUPPRESSION_MARKER, rule, line):
            return
        identity = (rule, module.path, line, column, identity_extra)
        if identity in self._seen:
            return
        self._seen.add(identity)
        self.findings.append(
            Finding(
                rule=rule,
                path=module.path,
                line=line,
                column=column,
                message=message,
                symbol=symbol,
                source_line=module.source_line(line),
            )
        )

    def _node_context(self, qualname: str) -> tuple[ModuleUnit, str] | None:
        """(module, symbol) for a call-graph node."""
        unit = self.project.functions.get(qualname)
        if unit is not None:
            return unit.module, unit.symbol
        if qualname.endswith(".<module>"):
            module = self.project.modules.get(qualname[: -len(".<module>")])
            if module is not None:
                return module, "<module>"
        return None

    # -- reachability gating ----------------------------------------------

    def _worker_roots(self) -> dict[str, WorkerSubmission]:
        roots: dict[str, WorkerSubmission] = {}
        for submission in self.submissions:
            resolved = submission.resolved
            if resolved.kind == "unit" and resolved.unit is not None:
                roots.setdefault(resolved.unit.qualname, submission)
        return roots

    def _cache_roots(self) -> dict[str, CacheSite]:
        roots: dict[str, CacheSite] = {}
        for site in self.cache_sites:
            if site.compute.kind == "unit" and site.compute.unit is not None:
                roots.setdefault(site.compute.unit.qualname, site)
        return roots

    def _gated(self) -> None:
        worker_reach = self.graph.reachable_from_any(sorted(self._worker_roots()))
        cache_reach = self.graph.reachable_from_any(sorted(self._cache_roots()))

        for qualname in sorted(worker_reach):
            context = self._node_context(qualname)
            if context is None:
                continue
            module, symbol = context
            _entry, chain = worker_reach[qualname]
            note = _chain_note("worker", chain)
            effects = self.effects.get(qualname, FunctionEffects())
            for effect in effects.mutations:
                self._emit(
                    effect.rule,
                    module,
                    effect.line,
                    effect.column,
                    f"{effect.message} {note}",
                    symbol,
                )
            for event in self.result.det_events.get(qualname, ()):
                self._emit(
                    "C003",
                    module,
                    event.line,
                    event.column,
                    f"{event.message} [{event.rule}] {note}",
                    symbol,
                )

        for kind, reach in (("worker", worker_reach), ("cache", cache_reach)):
            for qualname in sorted(reach):
                context = self._node_context(qualname)
                if context is None:
                    continue
                module, symbol = context
                if module.path.endswith(ATOMIC_IO_EXEMPT_SUFFIXES):
                    continue
                _entry, chain = reach[qualname]
                note = _chain_note(kind, chain)
                for effect in self.effects.get(qualname, FunctionEffects()).raw_writes:
                    self._emit(
                        "C004",
                        module,
                        effect.line,
                        effect.column,
                        f"{effect.message} {note}",
                        symbol,
                    )

    # -- C006: fork-unsafe submissions -------------------------------------

    def _submission_findings(self) -> None:
        for submission in self.submissions:
            module = submission.module
            symbol = submission.site_unit.symbol if submission.site_unit else "<module>"
            resolved = submission.resolved
            if resolved.kind == "lambda":
                self._emit(
                    "C006",
                    module,
                    submission.line,
                    submission.column,
                    f"lambda submitted via {submission.api}() — lambdas do "
                    "not pickle across process boundaries",
                    symbol,
                )
                continue
            if resolved.kind != "unit" or resolved.unit is None:
                continue
            unit = resolved.unit
            if resolved.is_nested:
                self._emit(
                    "C006",
                    module,
                    submission.line,
                    submission.column,
                    f"nested function '{unit.symbol}' submitted via "
                    f"{submission.api}() — closures do not pickle across "
                    "process boundaries",
                    symbol,
                )
            for arg_name, factory in _fork_unsafe_defaults(unit):
                self._emit(
                    "C006",
                    module,
                    submission.line,
                    submission.column,
                    f"submitted callable '{unit.symbol}' captures "
                    f"fork-unsafe default '{arg_name}={factory}(...)'",
                    symbol,
                    identity_extra=arg_name,
                )

    # -- C005: cache-key completeness --------------------------------------

    def _cache_key_findings(self) -> None:
        for site in self.cache_sites:
            if site.key_call is None:
                continue
            if site.compute.kind != "unit" or site.compute.unit is None:
                continue
            self._check_key(site, site.compute.unit)

    def _check_key(self, site: CacheSite, compute: FunctionUnit) -> None:
        module = compute.module
        covered: set[str] = set(site.receiver_names) | set(EXECUTION_KNOBS)
        assert site.key_call is not None
        for child in ast.walk(site.key_call):
            if isinstance(child, ast.Name):
                covered.add(child.id)

        chain = enclosing_function_chain(compute)
        enclosing_params: set[str] = set()
        closure_assigns: list[tuple[str, ast.expr]] = []
        for enclosing in chain:
            enclosing_params.update(enclosing.params)
            closure_assigns.extend(scope_assignments(enclosing.node.body).items())
        closure_names = {name for name, _ in closure_assigns}

        def excluded(name: str) -> bool:
            return (
                name in module.imports
                or name in module.functions
                or f"{compute.symbol}.{name}" in module.functions
                or f"{module.name}.{name}" in self.project.classes
                or name in _BUILTIN_NAMES
            )

        def expr_covered(expr: ast.expr) -> bool:
            for child in ast.walk(expr):
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    if child.id in covered or excluded(child.id):
                        continue
                    return False
            return True

        # An uncovered closure variable derived entirely from covered
        # inputs is itself covered (``docs = build(config, corpus)``).
        for _ in range(3):
            changed = False
            for name, expr in closure_assigns:
                if name not in covered and expr_covered(expr):
                    covered.add(name)
                    changed = True
            if not changed:
                break

        for name, line in sorted(_free_loads(compute).items()):
            if name in covered or excluded(name):
                continue
            if name in enclosing_params:
                what = "parameter"
            elif name in closure_names:
                what = "closure variable"
            elif name in self.data_globals.get(module.name, ()):
                what = "module global"
            else:
                continue
            site_module = site.module
            self._emit(
                "C005",
                site_module,
                site.key_call.lineno,
                site.key_call.col_offset,
                f"cache key omits {what} '{name}' read by the memoized "
                f"computation '{compute.qualname}' (line {line}) — stale "
                "hits when it changes",
                site.site_unit.symbol if site.site_unit else "<module>",
                identity_extra=name,
            )

        self._check_temporal_key(site, compute)

    def _check_temporal_key(self, site: CacheSite, compute: FunctionUnit) -> None:
        """C005's temporal extension: epoch-like attribute reads.

        Free-variable tracking misses instance state: a compute that
        reads ``self._epoch`` sees only the covered name ``self``.
        Attribute loads whose normalized name is in
        :data:`TEMPORAL_KEY_ATTRS` get their own coverage pass — the
        key call must mention the field (as an attribute load, a bare
        name, or a string params key), else a replayed or resumed tick
        can be served another snapshot's cached artifact.
        """
        assert site.key_call is not None
        key_tokens: set[str] = set()
        for child in ast.walk(site.key_call):
            if isinstance(child, ast.Attribute):
                key_tokens.add(child.attr.lstrip("_"))
            elif isinstance(child, ast.Name):
                key_tokens.add(child.id.lstrip("_"))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                key_tokens.add(child.value.lstrip("_"))
        temporal_reads: dict[str, int] = {}
        for child in ast.walk(compute.node):
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Load)
                and child.attr.lstrip("_") in TEMPORAL_KEY_ATTRS
            ):
                temporal_reads.setdefault(child.attr.lstrip("_"), child.lineno)
        for name, line in sorted(temporal_reads.items()):
            if name in key_tokens:
                continue
            self._emit(
                "C005",
                site.module,
                site.key_call.lineno,
                site.key_call.col_offset,
                f"cache key omits temporal field '{name}' read by the "
                f"memoized computation '{compute.qualname}' (line {line}) "
                "— a replayed epoch can be served another snapshot's "
                "cached value",
                site.site_unit.symbol if site.site_unit else "<module>",
                identity_extra=f"temporal:{name}",
            )

    # -- driver ------------------------------------------------------------

    def run(self) -> list[Finding]:
        self._submission_findings()
        self._cache_key_findings()
        self._gated()
        self.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
        return assign_occurrences(self.findings)


def _fork_unsafe_defaults(unit: FunctionUnit) -> Iterable[tuple[str, str]]:
    """(param, factory) pairs for defaults constructing unpicklables."""
    args = unit.node.args
    positional = args.posonlyargs + args.args
    paired = list(
        zip(positional[len(positional) - len(args.defaults) :], args.defaults)
    )
    paired.extend(
        (arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    for arg, default in paired:
        if not isinstance(default, ast.Call):
            continue
        func = default.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in FORK_UNSAFE_FACTORIES:
            yield arg.arg, name


def _free_loads(unit: FunctionUnit) -> dict[str, int]:
    """Free variable reads of ``unit``'s body: name -> first line."""
    local_names: set[str] = set(unit.params)
    nodes = list(iter_scope_nodes(unit.node.body))
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            local_names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local_names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            local_names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local_names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    local_names.add(alias.asname or alias.name)
    free: dict[str, int] = {}
    for node in nodes:
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in local_names
        ):
            free.setdefault(node.id, node.lineno)
    return free


def conc_findings(analysis: ProjectAnalysis) -> list[Finding]:
    """All C001 and C003–C006 findings for an analyzed project,
    report-ordered."""
    return _ConcAnalyzer(analysis).run()
