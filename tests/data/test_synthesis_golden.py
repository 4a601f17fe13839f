"""Golden digests: three small generated worlds keep their exact bytes.

Each digest was recorded from the generator that drew every site word,
link target and hub link with its own ``Generator.choice`` call, before
the draws were batched.  The batched generator consumes the same random
stream, so every byte must stay as it was:

* ``write_shards`` of a 200-site world in the ``batch_rank`` benchmark's
  shape (the ``large`` preset's page profile), 3 shards plus manifest;
* ``export_corpus(make_dataset(...))`` of a world with health portals,
  spam directories and gray-zone pharmacies, plus the pages of those
  auxiliary and gray sites (the export holds only the working set);
* a :class:`~repro.data.deltas.StreamCorpus` after 20 ``plan_deltas``
  ticks of births, deaths, drifts and rewires.

A digest that moves means the synthetic world changed: every paper
output, benchmark corpus and pinned figure downstream moves with it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.core.config import preset
from repro.data.deltas import StreamConfig, StreamCorpus, plan_deltas
from repro.data.loaders import make_dataset
from repro.data.sharding import MANIFEST_FILENAME, shard_filename, write_shards
from repro.data.synthesis import GeneratorConfig, PharmacyRecord
from repro.io import export_corpus, site_record_to_row

#: The ``batch_rank`` shape (``perfbench.batch_rank.corpus_config``) at 200 sites.
SHARDED = replace(
    preset("large").generator,
    n_legitimate=23,
    n_illegitimate=177,
    n_affiliate_hubs=2,
    seed=71,
)
N_SHARDS = 3

WITH_AUXILIARY = GeneratorConfig(
    n_legitimate=10,
    n_illegitimate=70,
    n_affiliate_hubs=3,
    min_pages=2,
    max_pages=5,
    min_terms_per_page=30,
    max_terms_per_page=70,
    n_health_portals=4,
    n_spam_directories=3,
    n_potentially_legitimate=5,
    seed=13,
)

STREAM = GeneratorConfig(
    n_legitimate=25,
    n_illegitimate=75,
    n_affiliate_hubs=5,
    min_pages=3,
    max_pages=6,
    min_terms_per_page=60,
    max_terms_per_page=120,
    seed=29,
)
STREAM_TICKS = StreamConfig(
    n_ticks=20,
    birth_fraction=0.05,
    death_fraction=0.03,
    drift_fraction=0.05,
    rewire_fraction=0.05,
)

GOLDEN = {
    "sharded": "e0849b8858485d20ac2849e32eb704b07264dc217b655bb33f2c76c6ceeda58f",
    "exported": "59a978c2e307a6c5e78a1ae201064144318ca31646b1d906f8ab06922076dff8",
    "stream": "c67a54e050e4b85d7e5cf64316fc088938e645c196e3e049b9ad8404e27f5df1",
}


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def sharded_digest(root) -> str:
    write_shards(SHARDED, root, N_SHARDS, jobs=1)
    names = [shard_filename(k) for k in range(N_SHARDS)] + [MANIFEST_FILENAME]
    return _sha256((root / name).read_bytes() for name in names)


def exported_digest(root) -> str:
    corpus = make_dataset(WITH_AUXILIARY)
    path = root / "corpus.jsonl"
    export_corpus(corpus, path)
    extra = [
        site_record_to_row(site, PharmacyRecord(site.domain, -1))
        for site in corpus.auxiliary_sites + corpus.gray_sites
    ]
    assert len(extra) == 4 + 3 + 5
    return _sha256([path.read_bytes(), json.dumps(extra).encode("utf-8")])


def stream_digest() -> str:
    corpus = StreamCorpus.generate(STREAM)
    for delta in plan_deltas(STREAM, STREAM_TICKS):
        corpus.apply(delta)
    rows = [
        [corpus.revision_of(domain),
         site_record_to_row(corpus.site_for(domain), corpus.record_for(domain))]
        for domain in corpus.domains()
    ]
    return _sha256([json.dumps(rows).encode("utf-8")])


def test_sharded_world_bytes(tmp_path):
    assert sharded_digest(tmp_path) == GOLDEN["sharded"]


def test_exported_world_bytes(tmp_path):
    assert exported_digest(tmp_path) == GOLDEN["exported"]


def test_stream_world_bytes():
    assert stream_digest() == GOLDEN["stream"]
