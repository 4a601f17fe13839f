"""Scale equivalence: each site's link endpoints equal the per-link loop.

Run in CI's ``scale-smoke`` job.  A 5000-site corpus with the
``batch_rank`` benchmark's profile is written as 3 shards and read
back both as ``Website`` objects and as the shard rows a
``batch_rank`` pass scores (``sites_view().rows``).  For every site,
``Website.outbound_endpoints()``, ``outbound_endpoint_counts()`` and
``SiteRow.outbound_endpoints()`` must equal the composition they
replace: ``resolve_url`` per href, then ``endpoint`` per resolved URL,
with ``InvalidURLError`` dropping the link.
"""

from __future__ import annotations

from collections import Counter

import pytest

from perfbench.batch_rank import N_SHARDS, N_SITES, corpus_config
from repro.data.sharding import ShardedCorpus, write_shards
from repro.exceptions import InvalidURLError
from repro.web.site import Website
from repro.web.url import endpoint, resolve_url

SEED = 17


def oracle_endpoints(site: Website) -> list[str]:
    """External endpoints of every page, in link order, one per link."""
    out: list[str] = []
    for page in site.pages:
        own = endpoint(page.url)
        for href in page.links:
            try:
                target = endpoint(resolve_url(page.url, href))
            except InvalidURLError:
                continue
            if target != own:
                out.append(target)
    return out


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    root = tmp_path_factory.mktemp("endpoint-shards")
    write_shards(corpus_config(SEED), root, N_SHARDS, jobs=1)
    return root


@pytest.fixture(scope="module")
def sites(shards):
    return list(ShardedCorpus(shards).iter_sites())


def test_endpoints_equal_loop_oracle_at_benchmark_scale(sites):
    assert len(sites) == N_SITES
    n_external = 0
    for site in sites:
        expected = oracle_endpoints(site)
        n_external += len(expected)
        assert site.outbound_endpoints() == tuple(dict.fromkeys(expected)), site.domain
        assert site.outbound_endpoint_counts() == Counter(expected), site.domain
    assert n_external > N_SITES  # the corpus really links out


def test_row_endpoints_equal_loop_oracle_at_benchmark_scale(shards, sites):
    rows = ShardedCorpus(shards).sites_view().rows(0, N_SITES)
    assert [row.domain for row in rows] == [site.domain for site in sites]
    for row, site in zip(rows, sites):
        expected = tuple(dict.fromkeys(oracle_endpoints(site)))
        assert row.outbound_endpoints() == expected, row.domain
