"""Entrypoint-gated determinism findings (the interprocedural R002)."""

from __future__ import annotations

from tools.flow.determinism import determinism_findings


def _findings(flow_project, flow_result, flow_graph, extra=()):
    return determinism_findings(flow_project, flow_result, flow_graph, extra)


class TestTransitiveRng:
    def test_unseeded_default_rng_two_calls_deep(
        self, flow_project, flow_result, flow_graph
    ):
        findings = _findings(flow_project, flow_result, flow_graph)
        d001 = [f for f in findings if f.rule == "D001"]
        assert len(d001) == 1
        assert d001[0].path.endswith("flowpkg/helpers.py")
        assert d001[0].symbol == "sample_scores"
        assert "flowpkg.cli.main -> flowpkg.helpers.sample_scores" in d001[0].message

    def test_unreachable_rng_not_reported(
        self, flow_project, flow_result, flow_graph
    ):
        findings = _findings(flow_project, flow_result, flow_graph)
        assert not any(f.symbol == "unreached_jitter" for f in findings)

    def test_extra_entrypoint_exposes_it(
        self, flow_project, flow_result, flow_graph
    ):
        findings = _findings(
            flow_project,
            flow_result,
            flow_graph,
            extra=["flowpkg.helpers.unreached_jitter"],
        )
        assert any(f.symbol == "unreached_jitter" for f in findings)


class TestUnorderedSets:
    def test_set_iteration_reached_transitively(
        self, flow_project, flow_result, flow_graph
    ):
        findings = _findings(flow_project, flow_result, flow_graph)
        d003 = [f for f in findings if f.rule == "D003"]
        assert any(f.symbol == "pick_order" for f in d003)
