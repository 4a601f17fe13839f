"""Project-specific static analysis for the repro codebase.

:mod:`repro.devtools.analyze` is the one command,
``python -m repro.devtools.analyze src/repro``.  It runs the per-module
lint rules (exception hygiene, seeded randomness, import layering,
mutable defaults, API documentation, broad handlers) and the flow, conc
and hot interprocedural analyzers, gated by one baseline file,
``.repro-baseline.json``.

The library imports nothing from this package: the runtime numeric
contracts live in :mod:`repro.contracts` and the ``@sanitizes``
declaration the flow analyzer reads lives in :mod:`repro.sanitizers`.
Rule R003 forbids every library layer from importing
``repro.devtools``.

See ``docs/devtools.md`` for the rule catalogue and workflows.
"""

from repro.devtools.findings import Finding
from repro.devtools.rules import RULES, Rule

__all__ = ["Finding", "Rule", "RULES"]
