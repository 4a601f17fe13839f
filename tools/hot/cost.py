"""Static cost model ranking repro-hot findings.

A finding's cost is the product of two static multipliers:

* **depth weight** — ``DEPTH_BASE ** min(depth, MAX_DEPTH_WEIGHTED)``
  where ``depth`` is the syntactic loop-nesting depth at the finding
  site.  Each enclosing loop multiplies how often the site executes, so
  a densification three loops deep inside the sweep outranks the same
  call at top level.
* **reach weight** — ``1 / (1 + distance)``, where ``distance`` is the
  number of calls from the nearest registered hot entry point to the
  enclosing function through the flow call graph.  The rule is
  hot-gated, so every reported site has a distance.

Both inputs are integers derived deterministically from the AST and the
call graph, so ranking is reproducible across runs and machines.
"""

from __future__ import annotations

from tools.hot.registry import DEPTH_BASE, MAX_DEPTH_WEIGHTED

__all__ = ["depth_weight", "reach_weight", "site_cost", "format_cost"]


def depth_weight(depth: int) -> float:
    """Multiplier for a site nested under ``depth`` loops (capped so
    pathological nesting cannot overflow the ranking)."""
    return float(DEPTH_BASE ** min(max(depth, 0), MAX_DEPTH_WEIGHTED))


def reach_weight(entry_distance: int) -> float:
    """Multiplier for a site ``entry_distance`` calls from a hot entry."""
    return 1.0 / (1.0 + max(entry_distance, 0))


def site_cost(depth: int, entry_distance: int) -> float:
    """Combined static cost of one finding site."""
    return depth_weight(depth) * reach_weight(entry_distance)


def format_cost(cost: float) -> str:
    """Render a cost for finding messages (stable, short)."""
    return f"{cost:g}"
