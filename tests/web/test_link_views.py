"""The link views of WebPage and Website against a per-link loop oracle.

The oracle is the plain composition the views replace: resolve each
href to a URL string with ``resolve_url``, then map that string to its
endpoint with ``endpoint``, dropping whatever raises ``InvalidURLError``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.exceptions import InvalidURLError
from repro.web.page import WebPage
from repro.web.site import Website
from repro.web.url import endpoint, parse_url, resolve_url

BASES = (
    "https://www.pharm.com/",
    "http://shop.boots.co.uk/store/index.html",
    "https://www.pharm.com/a/b/c/d/page.html?x=1#top",
)

HREFS = (
    "https://www.pharm.com/about",
    "https://www.fda.gov/info",
    "/cart",
    "reviews",
    "./specials/",
    "../about",
    "../../../../../../etc",
    "//cdn.net/script.js",
    "//WWW.PHARM.COM/x",
    "mailto:help@pharm.com",
    "javascript:void(0)",
    "tel:911",
    "#frag",
    "?q=1",
    "?",
    "  https://twitter.com/pharm  ",
    "   ",
    "",
    "HTTPS://WWW.NIH.GOV/Health",
    "http://www.cdc.gov./flu",
    "http://example.com:8080/x",
    "http://co.uk/",
    "https://shop.co.uk",
    "https://nhs.example.co.uk/",
    "/r?u=http://x.com/",
    "ftp://files.example.com/",
    "http://a..b.com/",
    "http://.com/",
    "http:///path",
    "http://localhost/",
    "http://10.0.0.1/admin",
    "http://good.com@evil.com/x",
    "http://user:pw@evil.com:8080/",
    "http://pharm.com/",
)


def oracle_urls(page: WebPage) -> list[tuple[str, str | None]]:
    """``(resolved URL, endpoint or None)`` for each resolvable href."""
    out = []
    for href in page.links:
        try:
            url = resolve_url(page.url, href)
        except InvalidURLError:
            continue
        try:
            out.append((url, endpoint(url)))
        except InvalidURLError:
            out.append((url, None))
    return out


def oracle_views(page: WebPage) -> dict[str, tuple[str, ...]]:
    own = endpoint(page.url)
    pairs = oracle_urls(page)
    return {
        "resolved_links": tuple(u for u, _ in pairs),
        "internal_links": tuple(u for u, e in pairs if e == own),
        "external_links": tuple(u for u, e in pairs if e is not None and e != own),
        "external_endpoints": tuple(e for _, e in pairs if e is not None and e != own),
    }


def oracle_site(site: Website) -> tuple[tuple[str, ...], Counter[str]]:
    endpoints = [e for page in site.pages for e in oracle_views(page)["external_endpoints"]]
    return tuple(dict.fromkeys(endpoints)), Counter(endpoints)


def assert_page_matches(page: WebPage) -> None:
    expected = oracle_views(page)
    for view, want in expected.items():
        assert getattr(page, view)() == want, view


@pytest.mark.parametrize("base", BASES)
def test_page_views_equal_oracle_on_adversarial_hrefs(base):
    assert_page_matches(WebPage(url=base, text="x", links=HREFS))


def test_site_endpoints_equal_oracle():
    site = Website(
        domain="pharm.com",
        pages=tuple(
            WebPage(url=u, text="x", links=HREFS) for u in (BASES[0], BASES[2])
        ),
    )
    distinct, counts = oracle_site(site)
    assert distinct  # the fixture links somewhere external
    assert site.outbound_endpoints() == distinct
    assert site.outbound_endpoint_counts() == counts


def test_views_equal_oracle_on_tiny_corpus(tiny_corpus):
    sites = tiny_corpus.sites + tiny_corpus.auxiliary_sites
    for site in sites:
        for page in site.pages:
            assert_page_matches(page)
        distinct, counts = oracle_site(site)
        assert site.outbound_endpoints() == distinct
        assert site.outbound_endpoint_counts() == counts


def test_outbound_endpoints_lookup_count(tiny_corpus):
    """One ``parse_url`` lookup per page and at most one per link."""
    for site in tiny_corpus.sites[:20]:
        n_links = sum(len(page.links) for page in site.pages)
        parse_url.cache_clear()
        site.outbound_endpoints()
        info = parse_url.cache_info()
        assert info.hits + info.misses <= site.n_pages + n_links
