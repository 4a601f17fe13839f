"""Shared fixtures: session-scoped tiny corpora so expensive generation
and crawling happen once per test run.

Also arms the per-test timeout guard from
:mod:`tools.testing` (``REPRO_TEST_TIMEOUT``, default 120s)
so a hung crawl or an accidental real ``time.sleep`` in a retry loop
fails fast instead of hanging CI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import GeneratorConfig, SyntheticWebGenerator, crawl_snapshot
from tools.testing import pytest_runtest_call  # noqa: F401


TINY_CONFIG = GeneratorConfig(
    n_legitimate=12,
    n_illegitimate=88,
    n_affiliate_hubs=3,
    min_pages=3,
    max_pages=6,
    min_terms_per_page=60,
    max_terms_per_page=120,
    seed=7,
)


@pytest.fixture(scope="session")
def tiny_snapshot_pair():
    """Both generated snapshots (before crawling)."""
    return SyntheticWebGenerator(TINY_CONFIG).generate_pair()


@pytest.fixture(scope="session")
def tiny_corpus(tiny_snapshot_pair):
    """Crawled Dataset 1 at tiny scale."""
    return crawl_snapshot(tiny_snapshot_pair[0])


@pytest.fixture(scope="session")
def tiny_corpus2(tiny_snapshot_pair):
    """Crawled Dataset 2 at tiny scale."""
    return crawl_snapshot(tiny_snapshot_pair[1])


@pytest.fixture(scope="session")
def tiny_documents(tiny_corpus):
    """1000-term summary documents for Dataset 1."""
    from repro.text import Summarizer

    summarizer = Summarizer(max_terms=1000, seed=0)
    return [summarizer.summarize_site(site) for site in tiny_corpus.sites]


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
