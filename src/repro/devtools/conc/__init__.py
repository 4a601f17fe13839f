"""repro-conc: parallel-safety & cache-coherence static analysis.

Run through ``python -m repro.devtools.analyze``.  See
:mod:`repro.devtools.conc.registry` for the rule catalogue (C001–C006)
and :func:`repro.devtools.conc.analyzer.conc_findings` for the report.
"""
