"""Project-specific static analysis for the repro codebase.

:mod:`tools.analyze` is the one command,
``python -m tools.analyze src/repro``.  It runs the per-module
lint rules (exception hygiene, seeded randomness, import layering,
mutable defaults, API documentation, broad handlers) and the flow, conc
and hot interprocedural analyzers, gated by one baseline file,
``.repro-baseline.json``.

The library imports nothing from this package: the runtime numeric
contracts live in :mod:`repro.contracts` and the ``@sanitizes``
declaration the flow analyzer reads lives in :mod:`repro.sanitizers`.
Rule R003 forbids every module outside this package from importing
it.  It lives outside ``src/``, so ``pip install repro`` ships none of it.

See ``docs/devtools.md`` for the rule catalogue and workflows.
"""

from tools.findings import Finding
from tools.rules import RULES, Rule

__all__ = ["Finding", "Rule", "RULES"]
