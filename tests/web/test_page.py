"""Tests for the WebPage model."""

import pytest

from repro.exceptions import InvalidURLError
from repro.web.page import WebPage
from repro.web.url import endpoint, resolve_url


def make_page(**kwargs):
    defaults = dict(
        url="https://www.pharm.com/",
        text="hello",
        links=(
            "https://www.pharm.com/about",
            "https://www.pharm.com/products",
            "https://www.fda.gov/info",
            "https://twitter.com/pharm",
        ),
    )
    defaults.update(kwargs)
    return WebPage(**defaults)


class TestWebPage:
    def test_domain(self):
        assert make_page().domain == "pharm.com"

    def test_invalid_url_rejected_eagerly(self):
        with pytest.raises(InvalidURLError):
            WebPage(url="not a url", text="x")

    def test_internal_links(self):
        internal = make_page().internal_links()
        assert internal == (
            "https://www.pharm.com/about",
            "https://www.pharm.com/products",
        )

    def test_external_links(self):
        external = make_page().external_links()
        assert external == (
            "https://www.fda.gov/info",
            "https://twitter.com/pharm",
        )

    def test_subdomain_counts_as_internal(self):
        page = make_page(links=("https://shop.pharm.com/cart",))
        assert page.internal_links() == ("https://shop.pharm.com/cart",)
        assert page.external_links() == ()

    def test_unresolvable_links_ignored(self):
        page = make_page(links=("mailto:x@y.com", "javascript:void(0)", "tel:911"))
        assert page.internal_links() == ()
        assert page.external_links() == ()

    def test_bare_token_treated_as_relative_path(self):
        page = make_page(links=("not-a-url",))
        assert page.internal_links() == ("https://www.pharm.com/not-a-url",)

    def test_no_links(self):
        page = make_page(links=())
        assert page.internal_links() == ()
        assert page.external_links() == ()

    def test_frozen(self):
        page = make_page()
        with pytest.raises(AttributeError):
            page.text = "other"  # type: ignore[misc]

    def test_default_links_empty(self):
        page = WebPage(url="https://www.pharm.com/", text="x")
        assert page.links == ()


class TestRelativeLinks:
    def test_relative_links_resolved_as_internal(self):
        page = WebPage(
            url="https://www.pharm.com/shop/item",
            text="x",
            links=("/cart", "reviews", "../about"),
        )
        assert page.internal_links() == (
            "https://www.pharm.com/cart",
            "https://www.pharm.com/shop/reviews",
            "https://www.pharm.com/about",
        )

    def test_protocol_relative_external(self):
        page = WebPage(
            url="https://www.pharm.com/",
            text="x",
            links=("//cdn.net/script.js",),
        )
        assert page.external_links() == ("https://cdn.net/script.js",)

    def test_resolved_links_drops_garbage(self):
        page = WebPage(
            url="https://www.pharm.com/",
            text="x",
            links=("mailto:a@b.com", "javascript:void(0)", "/ok"),
        )
        assert page.resolved_links() == ("https://www.pharm.com/ok",)


def oracle_endpoints(page):
    """``resolve_url`` then ``endpoint`` per href, dropping what raises."""
    own = endpoint(page.url)
    out = []
    for href in page.links:
        try:
            target = endpoint(resolve_url(page.url, href))
        except InvalidURLError:
            continue
        if target != own:
            out.append(target)
    return tuple(out)


class TestEndpointShortcuts:
    """Same-origin and relative hrefs skip the parse; the answer is unchanged."""

    @pytest.mark.parametrize(
        "href, external",
        [
            # Same origin, with URL delimiters after the host's slash.
            ("https://www.x.com/a?next=https://evil.com/", False),
            ("https://www.x.com/a#https://evil.com/", False),
            ("https://www.x.com/@evil.com", False),
            ("https://www.x.com/user@evil.com:8080/", False),
            ("https://www.x.com/a:b", False),
            # Same host that misses the prefix: the full resolve.
            ("HTTPS://WWW.X.COM/a", False),
            ("  https://www.x.com/a", False),
            ("\thttps://www.x.com/", False),
            ("https://www.x.com", False),
            ("https://www.x.com:443/a", False),
            ("http://www.x.com/a", False),
            ("https://x.com/a", False),
            # Look-alikes of the origin.
            ("https://www.x.com.evil.com/", True),
            ("https://www.x.com@evil.com/", True),
            ("https://www.x.co/", True),
            # Relative, or with "//" but not protocol-relative.
            ("/a//b", False),
            ("a//b", False),
            ("?u=https://evil.com/", False),
            ("  //evil.com/x", True),
            ("//www.x.com/x", False),
        ],
    )
    def test_href_against_oracle(self, href, external):
        page = WebPage(url="https://www.x.com/shop/item", text="x", links=(href,))
        assert page.external_endpoints() == oracle_endpoints(page)
        assert bool(page.external_endpoints()) is external

    @pytest.mark.parametrize(
        "url",
        [
            "https://www.x.com/shop/",
            "https://x.com/",
            "https://user:pw@www.x.com:8443/a",
            "HTTPS://WWW.X.COM./a",
        ],
    )
    def test_page_url_forms(self, url):
        links = (
            "https://www.x.com/a",
            "https://x.com/b",
            "https://www.x.com.evil.com/",
            "//cdn.net/s.js",
            "../up",
            "https://fda.gov/",
        )
        page = WebPage(url=url, text="x", links=links)
        assert page.external_endpoints() == oracle_endpoints(page)
        assert page.external_endpoints() == ("evil.com", "cdn.net", "fda.gov")
