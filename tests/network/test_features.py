"""Tests for the network stage, its kernel and the Table 11 analysis."""

import math

import numpy as np
import pytest

from repro.network.features import NetworkStage, neighbour_mean, top_linked_domains
from repro.web.page import WebPage
from repro.web.site import Website


def site(domain, external_urls):
    page = WebPage(
        url=f"https://www.{domain}/", text="x", links=tuple(external_urls)
    )
    return Website(domain=domain, pages=(page,))


def stage_features(sites, trusted, **fit_params):
    """Feature columns of a stage fitted on ``sites``."""
    stage = NetworkStage().fit(sites, trusted, **fit_params)
    return stage.features(
        [s.domain for s in sites], [s.outbound_endpoints() for s in sites]
    )


def small_working_set():
    """Two trusted-linking legit sites, two cold illegit sites."""
    return [
        site("legit1.com", ["https://www.fda.gov/a", "https://twitter.com/x"]),
        site("legit2.com", ["https://www.fda.gov/b"]),
        site("bad1.net", ["https://www.wordpress.org/t"]),
        site("bad2.net", ["https://www.wordpress.org/t"]),
    ]


class TestNeighbourMean:
    SCORES = {f"d{i}.com": 1.0 / (i + 3) for i in range(12)}

    @staticmethod
    def oracle(domains, scores):
        if not domains:
            return 0.0
        return math.fsum(scores.get(d, 0.0) for d in domains) / len(domains)

    @pytest.mark.parametrize(
        "lists",
        [
            [(), ("d0.com", "d1.com"), ("d2.com",)],
            [("d0.com",), (), ("d1.com", "d2.com")],
            [("d0.com", "d1.com"), ("d2.com",), ()],
            [(), (), ()],
            [tuple(f"d{i}.com" for i in range(12)), (), ("d3.com",)],
            [("d0.com", "missing.org"), ("missing.org",)],
            [],
        ],
        ids=["first-empty", "middle-empty", "last-empty", "all-empty",
             "long-list", "missing-domain", "no-lists"],
    )
    def test_matches_fsum_oracle(self, lists):
        means = neighbour_mean(lists, self.SCORES)
        assert means.dtype == np.float64
        assert means.shape == (len(lists),)
        for value, domains in zip(means, lists):
            expected = self.oracle(domains, self.SCORES)
            if not domains:
                assert value == 0.0
            else:
                assert value == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestNetworkFeatureExtractor:
    """Feature columns of a fitted :class:`NetworkStage`."""

    def test_feature_order_and_shape(self):
        matrix = stage_features(small_working_set(), ["legit1.com"])
        # In-link and distrust columns need auxiliary sites and a
        # distrusted seed respectively.
        assert matrix.feature_names == ("outlink_trust", "trustrank")
        assert matrix.features.shape == (4, 2)

    def test_outlink_trust_separates_classes(self):
        matrix = stage_features(small_working_set(), ["legit1.com", "legit2.com"])
        outlink = matrix.column("outlink_trust")
        # legit sites link to fda.gov (trusted); bad sites to wordpress.
        assert outlink[0] > outlink[2]
        assert outlink[1] > outlink[3]

    def test_seed_nodes_have_own_trustrank(self):
        matrix = stage_features(small_working_set(), ["legit1.com"])
        own = matrix.column("trustrank")
        assert own[0] > own[2]

    def test_anti_trustrank_columns(self):
        matrix = stage_features(
            small_working_set(), ["legit1.com"], distrusted=["bad1.net"]
        )
        assert "outlink_distrust" in matrix.feature_names
        assert "anti_trustrank" in matrix.feature_names
        assert matrix.features.shape == (4, 4)


class TestTopLinkedDomains:
    def test_per_class_ordering(self):
        sites = small_working_set()
        labels = [1, 1, 0, 0]
        ranked = top_linked_domains(sites, labels, top_k=3)
        assert ranked[1][0][0] == "fda.gov"
        assert ranked[0][0][0] == "wordpress.org"

    def test_sites_mode_counts_each_site_once(self):
        sites = [
            site("a.com", ["https://www.x.com/1", "https://www.x.com/2"]),
        ]
        ranked = top_linked_domains(sites, [1], count_mode="sites")
        assert ranked[1][0] == ("x.com", 1)

    def test_links_mode_counts_multiplicity(self):
        sites = [
            site("a.com", ["https://www.x.com/1", "https://www.x.com/2"]),
        ]
        ranked = top_linked_domains(sites, [1], count_mode="links")
        assert ranked[1][0] == ("x.com", 2)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            top_linked_domains(small_working_set(), [1, 0])

    def test_bad_count_mode_raises(self):
        with pytest.raises(ValueError):
            top_linked_domains(small_working_set(), [1, 1, 0, 0], count_mode="x")

    def test_top_k_truncates(self):
        sites = [
            site("a.com", [f"https://www.t{i}.com/" for i in range(8)]),
        ]
        ranked = top_linked_domains(sites, [1], top_k=3)
        assert len(ranked[1]) == 3


class TestInlinkTrust:
    def test_zero_without_in_edges(self):
        portal = site("portal.org", ["https://www.fda.gov/"])
        matrix = stage_features(
            small_working_set(), ["legit1.com"], auxiliary_sites=[portal]
        )
        # Nothing points at pharmacies here.
        assert np.allclose(matrix.column("inlink_trust"), 0.0)

    def test_auxiliary_in_links_raise_inlink_trust(self):
        sites = small_working_set()
        portal = site(
            "portal.org",
            [
                "https://www.legit1.com/",
                "https://www.legit2.com/",
                "https://www.fda.gov/",
            ],
        )
        matrix = stage_features(
            sites, ["legit1.com", "legit2.com"], auxiliary_sites=[portal]
        )
        inlink = matrix.column("inlink_trust")
        assert inlink.shape == (4,)
        assert np.all(inlink >= 0.0)
        # The linked pharmacies now have an in-neighbour; the bad sites
        # still have none, so their in-link trust stays exactly zero.
        assert inlink[2] == 0.0
        assert inlink[3] == 0.0

    def test_bidirectional_portal_raises_test_legit_own_score(self):
        """Trust at distance 2: seed -> portal -> unseen legit."""
        seed = site("seed-legit.com", ["https://www.portal.org/"])
        unseen = site("unseen-legit.com", ["https://www.fda.gov/"])
        bad = site("bad.net", ["https://www.wordpress.org/"])
        portal = site(
            "portal.org",
            ["https://www.seed-legit.com/", "https://www.unseen-legit.com/"],
        )
        matrix = stage_features(
            [seed, unseen, bad], ["seed-legit.com"], auxiliary_sites=[portal]
        )
        own = matrix.column("trustrank")
        assert own[1] > own[2]  # unseen legit beats the bad site
        assert own[1] > 0.0
