"""Scale benchmark of the sharded, out-of-core pipeline
(``python -m benchmarks.perf.scale_harness``, with ``src`` on
``PYTHONPATH``)."""
