"""Cost-model unit tests and ranking pins.

The static cost of a site is ``depth_weight(depth) * reach_weight(d)``
where ``d`` is the call-chain distance from the nearest hot entry.
These tests pin the weights, the full fixture ranking, and that two
independent analysis passes produce byte-identical output.
"""

from __future__ import annotations

import re

from repro.devtools.flow.analysis import analyze_project
from repro.devtools.hot.analyzer import hot_findings
from repro.devtools.hot.cost import (
    depth_weight,
    format_cost,
    reach_weight,
    site_cost,
)
from repro.devtools.hot.registry import DEPTH_BASE, HOT_ENTRY_SUFFIXES

from tests.devtools.hot.conftest import HOTPKG, REPO_ROOT


def _key(finding):
    return (finding.rule, finding.path.rsplit("/", 1)[-1], finding.line)


class TestWeights:
    def test_depth_weight_is_geometric(self):
        assert depth_weight(0) == 1.0
        assert depth_weight(1) == DEPTH_BASE
        assert depth_weight(2) == DEPTH_BASE**2

    def test_depth_weight_saturates(self):
        assert depth_weight(7) == depth_weight(4)

    def test_reach_weight_decays_with_distance(self):
        assert reach_weight(0) == 1.0
        assert reach_weight(1) == 0.5
        assert reach_weight(2) > reach_weight(3)

    def test_site_cost_monotonic_in_depth(self):
        assert site_cost(2, 1) > site_cost(1, 1) > site_cost(0, 1)

    def test_format_cost_is_compact(self):
        assert format_cost(8.0) == "8"
        assert format_cost(0.25) == "0.25"
        assert format_cost(1.0 / 3.0) == "0.333333"


class TestRanking:
    def test_full_ranking_pinned(self, hotpkg_findings):
        assert [_key(f) for f in hotpkg_findings] == [
            ("P007", "pipeline.py", 9),  # depth 2, distance 1 -> 8
            ("P007", "pipeline.py", 12),  # depth 0, distance 1 -> 0.5
            ("P007", "pipeline.py", 17),  # depth 0, distance 2 -> 1/3
        ]

    def test_deeper_nesting_outranks_shallower(self, hotpkg_findings):
        order = [_key(f) for f in hotpkg_findings]
        # Same rule, same function: the two-loops-deep toarray() must
        # rank above the top-level todense().
        assert order.index(("P007", "pipeline.py", 9)) < order.index(
            ("P007", "pipeline.py", 12)
        )

    def test_entry_proximity_outranks_distance(self, hotpkg_findings):
        order = [_key(f) for f in hotpkg_findings]
        # Same rule, same depth: one call from the entry beats two.
        assert order.index(("P007", "pipeline.py", 12)) < order.index(
            ("P007", "pipeline.py", 17)
        )

    def test_every_reported_site_is_hot(self, hotpkg_findings):
        # utils.py:5 is the fixture's cold P007 site: a top-level
        # todense() that no hot entry reaches.  The hot gate leaves it
        # unreported, so every finding is costed by its distance from
        # an entry and names the chain that reaches it.
        assert hotpkg_findings
        assert not any(f.path.endswith("utils.py") for f in hotpkg_findings)
        for finding in hotpkg_findings:
            assert re.search(r"\[cost [0-9.]+; hot: \w.*\]$", finding.message), finding.message

    def test_hot_chain_rendered_in_message(self, hotpkg_findings):
        top = hotpkg_findings[0]
        assert top.message.endswith("[cost 8; hot: run_tfidf_sweep -> densify_grid]")


class TestDeterminism:
    def test_two_independent_passes_agree(self):
        analysis_a = analyze_project([str(HOTPKG)])
        analysis_b = analyze_project([str(HOTPKG)])
        assert analysis_a.project.errors == analysis_b.project.errors == []
        assert hot_findings(analysis_a) == hot_findings(analysis_b)


class TestEntryRegistry:
    def test_every_entry_suffix_roots_exactly_one_function(self):
        # A suffix that matches nothing silently un-roots the cost model
        # (its callees rank as cold); one that matches several roots
        # code nobody registered.
        functions = analyze_project([str(REPO_ROOT / "src" / "repro")]).project.functions
        for suffix in HOT_ENTRY_SUFFIXES:
            matches = [
                qualname
                for qualname in functions
                if qualname == suffix or qualname.endswith("." + suffix)
            ]
            assert len(matches) == 1, (suffix, matches)
