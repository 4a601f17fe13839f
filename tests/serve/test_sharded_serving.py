"""Serving against a sharded corpus: lazy, one shard open per lookup."""

from __future__ import annotations

import pytest

from repro.core.verifier import PharmacyVerifier
from repro.data.loaders import make_dataset
from repro.data.sharding import ShardedCorpus, shard_of, write_shards
from repro.data.synthesis import GeneratorConfig
from repro.exceptions import MissingKeyError
from repro.serve import SiteIndex, VerificationService, build_server

CONFIG = GeneratorConfig(
    n_legitimate=8,
    n_illegitimate=56,
    n_affiliate_hubs=3,
    min_pages=2,
    max_pages=4,
    min_terms_per_page=20,
    max_terms_per_page=40,
    seed=7,
)


@pytest.fixture(scope="module")
def verifier():
    return PharmacyVerifier(max_terms=300).fit(make_dataset(CONFIG))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-shards")
    write_shards(CONFIG, root, 8)
    return root


class TestSiteIndexProtocol:
    def test_sharded_corpus_satisfies_protocol(self, corpus_dir):
        assert isinstance(ShardedCorpus(corpus_dir), SiteIndex)

    def test_dict_satisfies_protocol(self):
        assert isinstance({}, SiteIndex)

    def test_sequences_do_not(self):
        assert not isinstance([], SiteIndex)
        assert not isinstance((), SiteIndex)


class TestLazyServing:
    def test_lookup_opens_one_shard(self, verifier, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        service = VerificationService(verifier, sites=corpus)
        assert corpus.shard_opens == 0  # init never parses site data
        domain = corpus.domains()[0]
        report = service.verify_domain(domain)
        assert report["domain"] == domain
        assert corpus.shard_opens == 1

    def test_known_domains_cover_corpus(self, verifier, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        service = VerificationService(verifier, sites=corpus)
        assert len(service.known_domains) == len(corpus)
        assert service.known_domains == tuple(sorted(corpus.domains()))

    def test_unknown_domain_still_raises(self, verifier, corpus_dir):
        service = VerificationService(
            verifier, sites=ShardedCorpus(corpus_dir)
        )
        with pytest.raises(MissingKeyError):
            service.verify_domain("unknown-pharmacy.example")

    def test_health_counts_sharded_sites(self, verifier, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        service = VerificationService(verifier, sites=corpus)
        assert service.health()["known_domains"] == len(corpus)

    def test_verdicts_match_inmemory_index(self, verifier, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        lazy = VerificationService(verifier, sites=corpus)
        eager = VerificationService(
            verifier, sites=list(corpus.iter_sites())
        )
        for domain in corpus.domains()[:5]:
            assert lazy.verify_domain(domain) == eager.verify_domain(domain)

    def test_build_server_accepts_index(self, verifier, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        server = build_server(verifier, sites=corpus, port=0)
        try:
            health = server.service.health()
            assert health["known_domains"] == len(corpus)
        finally:
            server.server_close()


class TestVerifySitesView:
    def test_verify_sites_accepts_lazy_view(self, verifier, corpus_dir):
        corpus = ShardedCorpus(corpus_dir, max_open_shards=1)
        view = corpus.sites_view()
        reports = verifier.verify_sites(view[:6])
        assert len(reports) == 6
        assert [r.domain for r in reports] == [
            s.domain for s in view[:6]
        ]

    def test_ranking_pass_parses_each_shard_once(self, verifier, corpus_dir):
        corpus = ShardedCorpus(corpus_dir, max_open_shards=2)
        ranking = verifier.rank_sites(corpus.sites_view())
        assert len(ranking.entries) == len(corpus)
        assert corpus.shard_opens == corpus.n_shards

    def test_view_slice_opens_only_touched_shards(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir, max_open_shards=1)
        view = corpus.sites_view()
        first = view[0]
        assert corpus.shard_opens == 1
        assert shard_of(first.domain, corpus.n_shards) == 0
