"""repro-conc: parallel-safety & cache-coherence static analysis.

Run through ``python -m tools.analyze``.  See
:mod:`tools.conc.registry` for the rule catalogue (C001, C003–C006)
and :func:`tools.conc.analyzer.conc_findings` for the report.
"""
