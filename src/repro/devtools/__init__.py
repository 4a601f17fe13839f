"""Project-specific developer tooling.

Two companion halves guard the numeric kernels of the reproduction:

* :mod:`repro.devtools.analyze` — the one static-analysis command,
  ``python -m repro.devtools.analyze src/repro``.  It runs the
  per-module lint rules (exception hygiene, seeded randomness, import
  layering, float-comparison safety, API documentation) and the flow,
  conc and hot interprocedural analyzers, gated by one baseline file,
  ``.repro-baseline.json``.
* :mod:`repro.devtools.contracts` — runtime numeric-contract
  decorators (probability vectors, row-stochastic matrices, bounded
  scores) that are active under pytest or ``REPRO_CONTRACTS=1`` and
  compile to no-ops otherwise.

See ``docs/devtools.md`` for the rule catalogue and workflows.
"""

from repro.devtools.findings import Finding
from repro.devtools.rules import RULES, Rule

__all__ = ["Finding", "Rule", "RULES"]
