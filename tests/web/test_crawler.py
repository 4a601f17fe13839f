"""Tests for the BFS crawler (paper protocol: no depth limit, max pages)."""

import pytest

from repro.exceptions import CrawlError
from repro.web.crawler import Crawler, DEFAULT_MAX_PAGES
from repro.web.host import InMemoryWebHost
from repro.web.page import WebPage


def chain_host(n_pages: int, domain: str = "a.com") -> InMemoryWebHost:
    """A site whose pages form a linked chain p0 -> p1 -> ... ."""
    pages = []
    for i in range(n_pages):
        url = f"https://www.{domain}/" if i == 0 else f"https://www.{domain}/p{i}"
        links = []
        if i + 1 < n_pages:
            links.append(f"https://www.{domain}/p{i + 1}")
        pages.append(WebPage(url=url, text=f"page {i}", links=tuple(links)))
    return InMemoryWebHost(pages)


class TestCrawler:
    def test_crawls_whole_chain(self):
        crawler = Crawler(chain_host(5))
        site = crawler.crawl_site("https://www.a.com/")
        assert site.n_pages == 5
        assert site.domain == "a.com"

    def test_bfs_order_front_page_first(self):
        site = Crawler(chain_host(3)).crawl_site("https://www.a.com/")
        assert site.pages[0].text == "page 0"
        assert [p.text for p in site.pages] == ["page 0", "page 1", "page 2"]

    def test_max_pages_cap(self):
        crawler = Crawler(chain_host(10), max_pages=4)
        site = crawler.crawl_site("https://www.a.com/")
        assert site.n_pages == 4
        assert crawler.last_stats.pages_skipped >= 1

    def test_default_cap_is_paper_200(self):
        assert DEFAULT_MAX_PAGES == 200
        assert Crawler(chain_host(1)).max_pages == 200

    def test_unknown_seed_raises(self):
        with pytest.raises(CrawlError):
            Crawler(chain_host(2)).crawl_site("https://www.missing.com/")

    def test_invalid_max_pages(self):
        with pytest.raises(CrawlError):
            Crawler(chain_host(1), max_pages=0)

    def test_cycle_does_not_loop(self):
        pages = [
            WebPage(
                url="https://www.a.com/",
                text="0",
                links=("https://www.a.com/p1",),
            ),
            WebPage(
                url="https://www.a.com/p1",
                text="1",
                links=("https://www.a.com/",),
            ),
        ]
        site = Crawler(InMemoryWebHost(pages)).crawl_site("https://www.a.com/")
        assert site.n_pages == 2

    def test_external_links_not_followed(self):
        pages = [
            WebPage(
                url="https://www.a.com/",
                text="0",
                links=("https://www.b.com/",),
            ),
            WebPage(url="https://www.b.com/", text="other site"),
        ]
        site = Crawler(InMemoryWebHost(pages)).crawl_site("https://www.a.com/")
        assert site.n_pages == 1
        assert site.outbound_endpoints() == ("b.com",)

    def test_broken_internal_links_counted(self):
        pages = [
            WebPage(
                url="https://www.a.com/",
                text="0",
                links=("https://www.a.com/missing",),
            )
        ]
        crawler = Crawler(InMemoryWebHost(pages))
        site = crawler.crawl_site("https://www.a.com/")
        assert site.n_pages == 1
        assert crawler.last_stats.fetch_failures == 1

    def test_stats_fields(self):
        crawler = Crawler(chain_host(3))
        crawler.crawl_site("https://www.a.com/")
        stats = crawler.last_stats
        assert stats.domain == "a.com"
        assert stats.pages_fetched == 3
        assert stats.pages_skipped == 0
        assert stats.fetch_failures == 0

    def test_seed_can_be_inner_page(self):
        site = Crawler(chain_host(4)).crawl_site("https://www.a.com/p2")
        # From p2 only p2 -> p3 are reachable.
        assert site.n_pages == 2


class TestSameSiteGuard:
    def test_userinfo_cannot_smuggle_another_domain(self):
        assert Crawler._same_site("https://www.a.com@evil.com/", "a.com") is None

    def test_credentials_never_reach_the_frontier(self):
        safe = Crawler._same_site("https://user:pw@www.a.com:8443/p1?x=1", "a.com")
        assert safe == "https://www.a.com/p1"

    def test_crawl_follows_userinfo_link_without_credentials(self):
        host = InMemoryWebHost(
            [
                WebPage(
                    url="https://www.a.com/",
                    text="home",
                    links=("https://user:pw@www.a.com/p1", "https://www.a.com@evil.com/"),
                ),
                WebPage(url="https://www.a.com/p1", text="one"),
            ]
        )
        site = Crawler(host).crawl_site("https://www.a.com/")
        assert [page.url for page in site.pages] == [
            "https://www.a.com/",
            "https://www.a.com/p1",
        ]
