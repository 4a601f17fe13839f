"""repro-flow: interprocedural taint + determinism dataflow analysis.

Run through ``python -m repro.devtools.analyze``.  See
:mod:`repro.devtools.flow.registry` for the rule catalogue and
:func:`repro.devtools.flow.analysis.flow_findings` for the report.
"""
