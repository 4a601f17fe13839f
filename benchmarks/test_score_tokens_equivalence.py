"""Scale equivalence: text verdicts from tokens equal those from summaries.

Run in CI's ``scale-smoke`` job.  A 5000-site corpus with the
``batch_rank`` benchmark's profile is written as 3 shards, and a
verifier is trained as the benchmark trains one.  ``verify_sites`` over
the lazy ``sites_view()`` scores each site straight from its tokens;
every site's probability, label and text rank must equal
``tests.reference.reference_score_text``, which scores the stop-filtered
(and, above ``max_terms``, subsampled) summary documents.  Every
``batch_rank`` site is below the default ``max_terms=1000``, so a
second verifier with ``max_terms=100`` sends a share of them down the
subsample branch.
"""

from __future__ import annotations

import pytest

import tests.reference as ref
from perfbench.batch_rank import N_SHARDS, N_SITES, N_TRAIN, corpus_config
from repro.core.verifier import PharmacyVerifier
from repro.data.loaders import make_dataset
from repro.data.sharding import ShardedCorpus, write_shards
from repro.text.tokenization import tokenize

SEED = 19


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    root = tmp_path_factory.mktemp("score-token-shards")
    write_shards(corpus_config(SEED), root, N_SHARDS, jobs=1)
    return root


@pytest.fixture(scope="module")
def train():
    return make_dataset(corpus_config(SEED + 100_003, N_TRAIN))


@pytest.mark.parametrize("max_terms", [1000, 100])
def test_verdicts_equal_summary_scores_at_benchmark_scale(shards, train, max_terms):
    verifier = PharmacyVerifier(max_terms=max_terms).fit(train)
    reports = verifier.verify_sites(ShardedCorpus(shards).sites_view())
    rows = ShardedCorpus(shards).sites_view().rows(0, N_SITES)
    assert [r.domain for r in reports] == [row.domain for row in rows]
    texted = [i for i, row in enumerate(rows) if row.has_text()]
    assert len(texted) > 0.9 * N_SITES
    n_cut = sum(len(tokenize(rows[i].merged_text())) > max_terms for i in texted)
    if max_terms == 100:
        assert 0 < n_cut < len(texted)
    else:
        assert n_cut == 0
    expected = ref.reference_score_text(verifier, [rows[i] for i in texted])
    texted_reports = [reports[i] for i in texted]
    assert [r.legitimacy_probability for r in texted_reports] == expected.proba.tolist()
    assert [r.predicted_label for r in texted_reports] == expected.labels.tolist()
    assert [r.text_rank for r in texted_reports] == expected.rank.tolist()
