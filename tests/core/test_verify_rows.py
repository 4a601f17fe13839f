"""Verifying shard rows equals verifying the same sites as objects.

``verify_sites`` over ``ShardedCorpus.sites_view()`` scores the shards'
validated rows (:class:`repro.io.SiteRow`) and never builds a
``Website``; these tests pin that every report equals the report for
the same site built as a :class:`Website`, across the href shapes the
endpoint rule has branches for and the sites the verdict degrades on.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.verifier import PharmacyVerifier
from repro.data.sharding import (
    MANIFEST_FILENAME,
    ShardedCorpus,
    ShardManifest,
    shard_filename,
    shard_of,
)
from repro.data.synthesis import GeneratorConfig, PharmacyRecord
from repro.exceptions import DataGenerationError, InvalidURLError
from repro.io import parse_site_row, site_record_to_row
from repro.web.crawler import CrawlStats
from repro.web.page import WebPage
from repro.web.resilience.clock import VirtualClock
from repro.web.site import Website

N_SHARDS = 3


def write_corpus(root, sites, legit):
    """Write ``sites`` as an ``N_SHARDS``-way sharded corpus directory.

    ``legit`` holds the domains labelled legitimate.  Returns the sites
    in the view's (shard-major) order.
    """
    buckets = [[] for _ in range(N_SHARDS)]
    for site in sites:
        buckets[shard_of(site.domain, N_SHARDS)].append(site)
    stats = []
    for k, bucket in enumerate(buckets):
        header = {
            "format": "repro-shard",
            "version": 1,
            "name": "rows",
            "shard": k,
            "n_shards": N_SHARDS,
            "domains": [site.domain for site in bucket],
        }
        lines = [json.dumps(header)]
        for site in bucket:
            label = int(site.domain in legit)
            record = PharmacyRecord(domain=site.domain, label=label)
            lines.append(json.dumps(site_record_to_row(site, record)))
        (root / shard_filename(k)).write_text("\n".join(lines) + "\n")
        stats.append(
            {"shard": k, "file": shard_filename(k), "n_sites": len(bucket)}
        )
    manifest = ShardManifest(
        name="rows",
        n_shards=N_SHARDS,
        n_sites=len(sites),
        n_legitimate=len(legit),
        n_illegitimate=len(sites) - len(legit),
        generation=1,
        config=asdict(GeneratorConfig()),
        shards=tuple(stats),
    )
    (root / MANIFEST_FILENAME).write_text(json.dumps(manifest.as_dict()))
    return [site for bucket in buckets for site in bucket]


def page(url, text="discount pharmacy pills online", links=()):
    return WebPage(url=url, text=text, links=tuple(links))


def edge_sites(trusted):
    """Sites covering every branch of the endpoint rule and the verdict."""
    a, b = trusted[0], trusted[1]
    hrefs = Website(
        domain="hrefs-rx.com",
        pages=(
            page(
                "https://www.hrefs-rx.com/shop/index.html",
                links=[
                    "/cart",
                    "../about",
                    "sub/page.html",
                    "?q=1",
                    "#top",
                    f"//www.{a}/x.js",
                    "mailto:orders@hrefs-rx.com",
                    "javascript:void(0)",
                    "http://",
                    "ht!tp://broken",
                    "",
                    "   ",
                    "http://nodot/",
                    "ftp://files.example.com/x",
                    "https://shop.hrefs-rx.com/deals",
                    "http://fda.gov:8080/recalls",
                    "http://user:pw@evil-rx.net/",
                    f"http://{a}@ipv4-rx.com/",
                    "http://10.0.0.1/a",
                    "http://192.168.0.1/b",
                    "http://co.uk/",
                    "https://www.co.uk/",
                    "http://shop.example.co.uk/p",
                    f"https://{b}/",
                ],
            ),
            page(
                "https://hrefs-rx.com/second",
                links=[f"https://www.{b}/again", "http://fda.gov/", "http://10.0.0.1/c"],
            ),
        ),
    )
    blank = Website(
        domain="blank-rx.com",
        pages=(page("https://www.blank-rx.com/", text=" \n\t "),),
    )
    empty_text = Website(
        domain="emptytext-rx.com",
        pages=(
            page("https://www.emptytext-rx.com/", text="", links=[f"https://{a}/"]),
            page("https://www.emptytext-rx.com/b", text="   "),
        ),
    )
    ghost = Website(domain="ghost-rx.com", pages=())
    untrusted = Website(
        domain="untrusted-rx.com",
        pages=(
            page(
                "https://www.untrusted-rx.com/",
                links=["https://nobody-knows-1.biz/", "https://nobody-knows-2.biz/"],
            ),
        ),
    )
    return [hrefs, blank, empty_text, ghost, untrusted]


@pytest.fixture(scope="module")
def fitted(tiny_corpus):
    train = tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))
    trusted = [
        site.domain
        for site, label in zip(train.sites, train.labels)
        if label == 1
    ]
    return PharmacyVerifier(seed=0).fit(train), trusted


@pytest.fixture(scope="module")
def corpus(fitted, tiny_corpus, tmp_path_factory):
    """``(root, sites in view order)`` of a corpus with the edge sites."""
    _, trusted = fitted
    root = tmp_path_factory.mktemp("row-shards")
    sample = tiny_corpus.subset(np.arange(30))
    legit = {
        site.domain
        for site, label in zip(sample.sites, sample.labels)
        if label == 1
    }
    assert legit
    return root, write_corpus(root, edge_sites(trusted) + list(sample.sites), legit)


def partial(domain):
    return CrawlStats(
        domain=domain,
        pages_fetched=1,
        pages_skipped=0,
        fetch_failures=0,
        permanent_failures=2,
    )


class TickingClock(VirtualClock):
    """A clock that moves one second on every reading."""

    def monotonic(self) -> float:
        now = super().monotonic()
        self.advance(1.0)
        return now


class TestRowEvidence:
    def test_row_evidence_equals_website(self, corpus):
        root, sites = corpus
        view = ShardedCorpus(root).sites_view()
        rows = view.rows(0, len(view))
        assert [row.domain for row in rows] == [site.domain for site in sites]
        for row, site in zip(rows, sites):
            assert row.outbound_endpoints() == site.outbound_endpoints()
            assert row.merged_text() == site.merged_text()
            assert row.has_text() == site.has_text()
            assert row.to_site() == site

    def test_edge_endpoints(self, fitted):
        _, trusted = fitted
        site = edge_sites(trusted)[0]
        row = site_record_to_row(site, PharmacyRecord(domain=site.domain, label=0))
        endpoints = parse_site_row(row).outbound_endpoints()
        assert endpoints == site.outbound_endpoints()
        a, b = trusted[0], trusted[1]
        # Duplicates across pages appear once, in first-seen order.
        assert endpoints == (
            a,
            "fda.gov",
            "evil-rx.net",
            "ipv4-rx.com",
            "10.0.0.1",
            "192.168.0.1",
            "www.co.uk",
            "example.co.uk",
            b,
        )

    def test_rows_slices_across_shards(self, corpus):
        root, sites = corpus
        view = ShardedCorpus(root).sites_view()
        for start, stop in ((0, 0), (3, 17), (0, len(sites)), (20, 10**6)):
            got = [row.domain for row in view.rows(start, stop)]
            assert got == [site.domain for site in sites[start:stop]]


class TestVerifyRowsEqualsObjects:
    def test_plain(self, fitted, corpus):
        verifier, _ = fitted
        root, sites = corpus
        reader = ShardedCorpus(root)
        reports = verifier.verify_sites(reader.sites_view())
        assert reports == verifier.verify_sites(sites)
        # One pass over the view opens each shard once.
        assert reader.shard_opens == N_SHARDS
        reasons = {r.domain: r.degradation_reasons for r in reports}
        assert "no_text" in reasons["blank-rx.com"]
        assert "no_text" in reasons["emptytext-rx.com"]
        assert "no_text" in reasons["ghost-rx.com"]
        assert "no_network_signal" in reasons["ghost-rx.com"]
        by_domain = {r.domain: r for r in reports}
        assert by_domain["untrusted-rx.com"].network_rank == 0.0
        assert by_domain["hrefs-rx.com"].network_rank > 0.0

    def test_with_crawl_stats(self, fitted, corpus):
        verifier, _ = fitted
        root, sites = corpus
        stats = [
            partial(site.domain) if i % 3 == 0 else None
            for i, site in enumerate(sites)
        ]
        reports = verifier.verify_sites(
            ShardedCorpus(root).sites_view(), crawl_stats=stats
        )
        assert reports == verifier.verify_sites(sites, crawl_stats=stats)
        assert "partial_crawl" in reports[0].degradation_reasons

    def test_with_deadline_expiring_mid_batch(self, fitted, corpus):
        verifier, _ = fitted
        root, sites = corpus
        reader = ShardedCorpus(root)
        kwargs = {"deadline": 3.0, "deadline_chunk": 4}
        reports = verifier.verify_sites(
            reader.sites_view(), clock=TickingClock(), **kwargs
        )
        expected = verifier.verify_sites(sites, clock=TickingClock(), **kwargs)
        assert reports == expected
        expired = ["deadline_exceeded" in r.degradation_reasons for r in reports]
        assert not expired[0] and expired[-1]
        assert reader.shard_opens == N_SHARDS

    def test_rank_sites(self, fitted, corpus):
        verifier, _ = fitted
        root, sites = corpus
        labels = ShardedCorpus(root).labels()
        assert 0 < sum(labels) < len(labels)
        ranking = verifier.rank_sites(ShardedCorpus(root).sites_view(), labels)
        assert ranking.entries == verifier.rank_sites(sites, labels).entries


def row_of(site):
    return parse_site_row(
        site_record_to_row(site, PharmacyRecord(domain=site.domain, label=0))
    )


class TestRowOrigins:
    """A row parses one URL per page origin; evidence and errors are unchanged."""

    def test_www_and_bare_hosts_on_one_site(self):
        site = Website(
            domain="x-rx.com",
            pages=(
                page(
                    "https://www.x-rx.com/",
                    links=["https://x-rx.com/a", "https://www.x-rx.com/b", "//cdn.net/s"],
                ),
                page(
                    "https://x-rx.com/shop/",
                    links=["https://www.x-rx.com/c", "../d", "https://fda.gov/"],
                ),
                page("https://www.x-rx.com/more", links=["https://www.x-rx.com.evil.com/"]),
                page("HTTPS://X-RX.COM/upper", links=["http://x-rx.com/", "//fda.gov/"]),
            ),
        )
        assert row_of(site).outbound_endpoints() == site.outbound_endpoints()
        assert site.outbound_endpoints() == ("cdn.net", "fda.gov", "evil.com")

    def test_page_url_with_userinfo_and_port(self):
        site = Website(
            domain="x-rx.com",
            pages=(
                page(
                    "https://user:pw@www.x-rx.com:8443/a",
                    links=["https://www.x-rx.com/b", "//evil.com/", "https://x-rx.com/"],
                ),
                page(
                    "https://www.x-rx.com/next",
                    links=["//fda.gov/x", "https://user@www.x-rx.com/"],
                ),
            ),
        )
        assert row_of(site).outbound_endpoints() == site.outbound_endpoints()
        assert site.outbound_endpoints() == ("evil.com", "fda.gov")

    def test_same_origin_hrefs_with_delimiters(self):
        site = Website(
            domain="x-rx.com",
            pages=(
                page(
                    "https://www.x-rx.com/",
                    links=[
                        "https://www.x-rx.com/r?u=https://evil.com/",
                        "https://www.x-rx.com/r#https://evil.com/",
                        "https://www.x-rx.com/@evil.com",
                        "https://www.x-rx.com/a:b@evil.com:1/",
                        "  https://www.x-rx.com/ws",
                        "HTTPS://WWW.X-RX.COM/upper",
                    ],
                ),
            ),
        )
        assert row_of(site).outbound_endpoints() == site.outbound_endpoints() == ()

    def test_foreign_page_then_bad_url_raises_invalid_url(self):
        """Every page URL parses before any ownership check, on both paths."""
        row = parse_site_row(
            {
                "domain": "x-rx.com",
                "label": 0,
                "pages": [
                    {"url": "https://www.other-rx.com/", "text": "t", "links": []},
                    {"url": "ftp://www.x-rx.com/", "text": "t", "links": []},
                ],
            }
        )
        with pytest.raises(InvalidURLError):
            row.outbound_endpoints()
        with pytest.raises(InvalidURLError):
            row.to_site()

    @pytest.mark.parametrize(
        "urls",
        [
            ["https://www.x-rx.com/", "https://www.other-rx.com/"],
            ["https://www.other-rx.com/", "https://www.other-rx.com/b"],
            ["https://www.other-rx.com/", "HTTPS://WWW.OTHER-RX.COM/b"],
            ["https://www.x-rx.com/", "https://www.x-rx.com.other-rx.com/"],
        ],
    )
    def test_foreign_page_raises_data_generation_error(self, urls):
        row = parse_site_row(
            {
                "domain": "x-rx.com",
                "label": 0,
                "pages": [{"url": u, "text": "t", "links": []} for u in urls],
            }
        )
        with pytest.raises(DataGenerationError, match="other-rx") as from_row:
            row.outbound_endpoints()
        with pytest.raises(DataGenerationError) as from_site:
            row.to_site()
        assert str(from_row.value) == str(from_site.value)
