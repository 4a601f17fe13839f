"""repro-flow: interprocedural taint + determinism dataflow analysis.

Run through ``python -m tools.analyze``.  See
:mod:`tools.flow.registry` for the rule catalogue and
:func:`tools.flow.analysis.flow_findings` for the report.
"""
