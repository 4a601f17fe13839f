"""Scale equivalence: batched synthesis writes the per-draw generator's bytes.

Run in CI's ``scale-smoke`` job, from the repo root.  The library's
:class:`~repro.data.synthesis.SyntheticWebGenerator` draws each page's
words, and its link targets with its hub links, in one batch each.
``tests.reference.ReferenceWebGenerator`` makes one ``Generator.choice``
or ``random`` call per draw.  Swapping the reference in wherever the
sharded writer and the stream corpus build their generator must change
no byte:

* ``write_shards`` of 5000 sites in the ``batch_rank`` benchmark's
  shape (the ``large`` preset's 2-3 pages of 30-60 terms) and of 500
  sites with the ``paper`` preset's 5-14 pages of 80-180 terms: every
  shard file and the manifest are byte-equal;
* the ``stream_weekly`` benchmark's 400-site corpus over all 104 ticks
  of its delta plan: every site, record and revision is equal after
  every tick.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.data.deltas
import repro.data.sharding
from perfbench.batch_rank import N_SHARDS, N_SITES, corpus_config
from perfbench.stream_weekly import STREAM_CONFIG, generator_config
from repro.core.config import preset
from repro.data.deltas import StreamCorpus, plan_deltas
from repro.data.sharding import write_shards
from tests.reference import ReferenceWebGenerator

SEED = 37


def paper_profile_config(n_sites: int, seed: int):
    """The ``paper`` preset's page profile and class split at ``n_sites``."""
    base = preset("paper").generator
    total = base.n_legitimate + base.n_illegitimate
    n_legit = max(1, round(n_sites * base.n_legitimate / total))
    return replace(
        base,
        n_legitimate=n_legit,
        n_illegitimate=n_sites - n_legit,
        n_illegitimate_snapshot2=None,
        n_affiliate_hubs=max(2, n_sites * base.n_affiliate_hubs // total),
        seed=seed,
    )


@pytest.fixture
def reference_generator(monkeypatch):
    """Build every sharded and stream site with the per-draw reference."""

    def use_reference():
        monkeypatch.setattr(
            repro.data.sharding, "SyntheticWebGenerator", ReferenceWebGenerator
        )
        monkeypatch.setattr(
            repro.data.deltas, "SyntheticWebGenerator", ReferenceWebGenerator
        )

    return use_reference


def _files(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


@pytest.mark.parametrize(
    "config, n_shards",
    [
        (corpus_config(SEED, N_SITES), N_SHARDS),
        (paper_profile_config(500, SEED), 2),
    ],
    ids=["batch_rank-5000", "paper-500"],
)
def test_shards_byte_equal(tmp_path, reference_generator, config, n_shards):
    manifest = write_shards(config, tmp_path / "fast", n_shards, jobs=1)
    assert manifest.n_sites == config.n_legitimate + config.n_illegitimate
    reference_generator()
    write_shards(config, tmp_path / "reference", n_shards, jobs=1)
    fast, expected = _files(tmp_path / "fast"), _files(tmp_path / "reference")
    assert len(fast) == n_shards + 1
    assert fast == expected


def _state(corpus: StreamCorpus):
    return [
        (domain, corpus.revision_of(domain), corpus.site_for(domain),
         corpus.record_for(domain))
        for domain in corpus.domains()
    ]


def test_stream_weekly_states_equal_every_tick(reference_generator):
    config = generator_config(SEED)
    deltas = plan_deltas(config, STREAM_CONFIG)
    assert len(deltas) == 104
    fast = StreamCorpus.generate(config)
    reference_generator()
    expected = StreamCorpus.generate(config)
    assert _state(fast) == _state(expected)
    for delta in deltas:
        assert fast.apply(delta) == expected.apply(delta)
        assert _state(fast) == _state(expected)
