"""repro-hot: hot-path performance analyzer (P007).

Detects sparse-matrix densification on hot paths and ranks every
finding by a static cost model: syntactic loop-nesting depth at the
site multiplied by reachability from the registered hot entry points
(the sweep driver, the serving verifier, the crawl loop, and the
kernels the perf benchmark harness drives).  Run it through
``python -m tools.analyze``.
"""

from tools.hot.analyzer import hot_findings
from tools.hot.registry import HOT_RULES

__all__ = ["hot_findings", "HOT_RULES"]
