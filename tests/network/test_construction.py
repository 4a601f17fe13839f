"""Tests for Algorithm 1 (graph creation from pharmacy sites)."""

from repro.network.construction import build_pharmacy_graph
from repro.web.page import WebPage
from repro.web.site import Website


def site(domain, external_urls):
    page = WebPage(
        url=f"https://www.{domain}/",
        text="x",
        links=tuple(external_urls),
    )
    return Website(domain=domain, pages=(page,))


class TestBuildPharmacyGraph:
    def test_pharmacy_nodes_always_present(self):
        graph = build_pharmacy_graph([site("p1.com", []), site("p2.com", [])])
        assert "p1.com" in graph
        assert "p2.com" in graph

    def test_endpoint_pruning(self):
        graph = build_pharmacy_graph(
            [site("p1.com", ["https://www.fda.gov/deep/path/page.htm"])]
        )
        assert graph.has_edge("p1.com", "fda.gov")
        assert "www.fda.gov" not in graph

    def test_duplicate_endpoints_single_edge(self):
        graph = build_pharmacy_graph(
            [
                site(
                    "p1.com",
                    ["https://a.fda.gov/x", "https://b.fda.gov/y"],
                )
            ]
        )
        assert graph.successors("p1.com")["fda.gov"] == 1.0

    def test_pharmacy_to_pharmacy_edges(self):
        """Affiliate links create pharmacy->pharmacy edges."""
        graph = build_pharmacy_graph(
            [site("spoke.com", ["https://www.hub.com/"]), site("hub.com", [])]
        )
        assert graph.has_edge("spoke.com", "hub.com")
        assert graph.predecessors("hub.com") == {"spoke.com": 1.0}

    def test_empty_working_set(self):
        assert build_pharmacy_graph([]).n_nodes == 0
