"""Tests for the Website model."""

from collections import Counter

import pytest

from repro.exceptions import DataGenerationError
from repro.web.page import WebPage
from repro.web.site import Website
from repro.web.url import endpoint


def make_site():
    pages = (
        WebPage(
            url="https://www.pharm.com/",
            text="front page content",
            links=(
                "https://www.pharm.com/p1",
                "https://www.fda.gov/a",
                "https://www.fda.gov/b",
            ),
        ),
        WebPage(
            url="https://www.pharm.com/p1",
            text="product page content",
            links=("https://twitter.com/x", "https://www.fda.gov/c"),
        ),
    )
    return Website(domain="pharm.com", pages=pages)


class TestWebsite:
    def test_n_pages(self):
        assert make_site().n_pages == 2

    def test_merged_text_joins_all_pages(self):
        merged = make_site().merged_text()
        assert "front page content" in merged
        assert "product page content" in merged

    def test_outbound_endpoints_deduplicated_in_order(self):
        assert make_site().outbound_endpoints() == ("fda.gov", "twitter.com")

    def test_outbound_endpoint_counts(self):
        counts = make_site().outbound_endpoint_counts()
        assert counts["fda.gov"] == 3
        assert counts["twitter.com"] == 1

    def test_internal_links_not_in_endpoints(self):
        assert "pharm.com" not in make_site().outbound_endpoints()

    def test_front_page(self):
        assert make_site().front_page().url == "https://www.pharm.com/"

    def test_front_page_empty_site(self):
        assert Website(domain="pharm.com").front_page() is None

    def test_wrong_domain_page_rejected(self):
        page = WebPage(url="https://www.other.com/", text="x")
        with pytest.raises(DataGenerationError):
            Website(domain="pharm.com", pages=(page,))

    def test_empty_site_merged_text(self):
        assert Website(domain="pharm.com").merged_text() == ""

    def test_empty_site_endpoints(self):
        assert Website(domain="pharm.com").outbound_endpoints() == ()


def _endpoints_by_link(site):
    """The link-by-link definition the ``Website`` methods must equal."""
    return [endpoint(u) for page in site.pages for u in page.external_links()]


def _assert_endpoints_match_links(site):
    by_link = _endpoints_by_link(site)
    for page in site.pages:
        assert page.external_endpoints() == tuple(
            endpoint(u) for u in page.external_links()
        )
    assert site.outbound_endpoints() == tuple(dict.fromkeys(by_link))
    counts = site.outbound_endpoint_counts()
    assert counts == Counter(by_link)
    assert list(counts) == list(dict.fromkeys(by_link))


class TestExternalEndpoints:
    """``outbound_endpoints`` / ``outbound_endpoint_counts`` read each
    link's endpoint from ``WebPage.external_endpoints`` and must equal
    ``endpoint(u) for u in page.external_links()``."""

    def test_hand_built_page_with_awkward_links(self):
        page = WebPage(
            url="https://www.pharm.co.uk/shop/index.html",
            text="x",
            links=(
                "/cart",  # root-relative, same domain
                "../about",  # path-relative, same domain
                "//cdn.example.net/lib.js",  # protocol-relative, external
                "mailto:help@pharm.co.uk",  # unresolvable
                "javascript:void(0)",  # unresolvable
                "http://",  # malformed
                "https://localhost/x",  # no dot: malformed host
                "https://shop.pharm.co.uk/deals",  # same registrable domain
                "HTTPS://WWW.FDA.GOV/a?q=1#top",  # external, mixed case
                "https://fda.gov/b",  # same endpoint again
                "https://other.co.uk:8080/p",  # external, port
                "https://www.fda.gov/c",
            ),
        )
        site = Website(domain="pharm.co.uk", pages=(page,))
        assert page.external_endpoints() == (
            "example.net",
            "fda.gov",
            "fda.gov",
            "other.co.uk",
            "fda.gov",
        )
        assert site.outbound_endpoints() == ("example.net", "fda.gov", "other.co.uk")
        _assert_endpoints_match_links(site)

    def test_page_without_links(self):
        page = WebPage(url="https://www.pharm.com/", text="x")
        assert page.external_endpoints() == ()

    def test_generated_corpus(self, tiny_corpus):
        n_links = 0
        for site in tiny_corpus.sites:
            _assert_endpoints_match_links(site)
            n_links += len(_endpoints_by_link(site))
        assert n_links > 0
