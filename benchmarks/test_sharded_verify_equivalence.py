"""Scale equivalence: verifying a sharded corpus equals in-memory verification.

Run in CI's ``scale-smoke`` job: a 10^4-site corpus is written as 3
shards, and ``verify_sites`` over the lazy ``ShardedCorpus.sites_view()``
must return exactly the reports it returns for the same sites held in a
list.  The same pass, with the reader's default LRU, must parse each
shard file exactly once.  The sharded pass scores the shards' rows and
the in-memory one ``Website`` objects, so this pins the row path to the
object path; ``rank_sites`` over the view with the rows' labels must
likewise equal the in-memory ranking.
"""

from __future__ import annotations

import pytest

from repro.core.verifier import PharmacyVerifier
from repro.data.loaders import make_dataset
from repro.data.sharding import ShardedCorpus, write_shards
from repro.data.synthesis import GeneratorConfig

N_SITES = 10_000
N_SHARDS = 3

CORPUS = GeneratorConfig(
    n_legitimate=N_SITES // 10,
    n_illegitimate=N_SITES - N_SITES // 10,
    n_affiliate_hubs=40,
    min_pages=2,
    max_pages=4,
    min_terms_per_page=20,
    max_terms_per_page=40,
    seed=31,
)
TRAIN = GeneratorConfig(
    n_legitimate=40,
    n_illegitimate=160,
    n_affiliate_hubs=4,
    min_pages=2,
    max_pages=4,
    min_terms_per_page=20,
    max_terms_per_page=40,
    seed=37,
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("equivalence-shards")
    write_shards(CORPUS, root, N_SHARDS)
    return root


@pytest.fixture(scope="module")
def verifier():
    return PharmacyVerifier(max_terms=300).fit(make_dataset(TRAIN))


def test_sharded_view_equals_in_memory(verifier, corpus_dir):
    corpus = ShardedCorpus(corpus_dir)
    assert len(corpus) == N_SITES and corpus.n_shards == N_SHARDS
    lazy = verifier.verify_sites(corpus.sites_view())
    assert corpus.shard_opens == N_SHARDS
    in_memory = verifier.verify_sites(list(ShardedCorpus(corpus_dir).iter_sites()))
    assert len(lazy) == N_SITES
    assert lazy == in_memory


def test_sharded_ranking_equals_in_memory(verifier, corpus_dir):
    corpus = ShardedCorpus(corpus_dir)
    labels = corpus.labels()
    assert len(labels) == N_SITES
    lazy = verifier.rank_sites(corpus.sites_view(), labels)
    reader = ShardedCorpus(corpus_dir)
    sites = list(reader.iter_sites())
    in_memory = verifier.rank_sites(sites, [reader.oracle(s.domain) for s in sites])
    assert lazy.entries == in_memory.entries
