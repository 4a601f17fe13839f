"""Tests for the synthetic web generator."""

import dataclasses

import numpy as np
import pytest

from repro.data.synthesis import (
    _ILLEGIT_LINK_WEIGHTS,
    _ILLEGIT_MIX,
    _LEGIT_LINK_WEIGHTS,
    _LEGIT_MIX,
    GeneratorConfig,
    SyntheticWebGenerator,
    _choice_cdf,
    scaled_config,
)
from repro.exceptions import DataGenerationError
from tests.reference import ReferenceWebGenerator


SMALL = GeneratorConfig(
    n_legitimate=6,
    n_illegitimate=44,
    n_affiliate_hubs=2,
    min_pages=2,
    max_pages=4,
    min_terms_per_page=40,
    max_terms_per_page=80,
    seed=5,
)


@pytest.fixture(scope="module")
def pair():
    return SyntheticWebGenerator(SMALL).generate_pair()


class TestGeneratorConfig:
    def test_defaults_keep_paper_ratio(self):
        cfg = GeneratorConfig()
        ratio = cfg.n_legitimate / (cfg.n_legitimate + cfg.n_illegitimate)
        assert ratio == pytest.approx(0.12, abs=0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_legitimate=0),
            dict(n_affiliate_hubs=1000),
            dict(min_pages=5, max_pages=2),
            dict(min_terms_per_page=0),
            dict(affiliate_member_fraction=1.5),
            dict(external_links_per_page=-1.0),
            dict(legit_asocial_fraction=-0.1),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(DataGenerationError):
            GeneratorConfig(**kwargs)


class TestSnapshotStructure:
    def test_class_counts(self, pair):
        snap1, _ = pair
        labels = snap1.labels
        assert sum(labels) == 6
        assert len(labels) - sum(labels) == 44

    def test_every_domain_hosted(self, pair):
        snap1, _ = pair
        for record in snap1.records:
            assert snap1.host.fetch(f"https://www.{record.domain}/") is not None

    def test_hub_count(self, pair):
        snap1, _ = pair
        hubs = [r for r in snap1.records if r.is_affiliate_hub]
        assert len(hubs) == 2
        assert all(r.label == 0 for r in hubs)

    def test_members_are_illegitimate_non_hubs(self, pair):
        snap1, _ = pair
        members = [r for r in snap1.records if r.is_affiliate_member]
        assert members
        assert all(r.label == 0 and not r.is_affiliate_hub for r in members)

    def test_asocial_flag_only_on_legit(self, pair):
        snap1, _ = pair
        for record in snap1.records:
            if record.is_asocial:
                assert record.label == 1

    def test_imitator_flag_only_on_illegit(self, pair):
        snap1, _ = pair
        for record in snap1.records:
            if record.is_trust_imitator:
                assert record.label == 0

    def test_record_lookup(self, pair):
        snap1, _ = pair
        domain = snap1.records[0].domain
        assert snap1.record_for(domain).domain == domain
        with pytest.raises(KeyError):
            snap1.record_for("missing.example")


class TestTemporalSemantics:
    def test_legitimate_domains_identical(self, pair):
        snap1, snap2 = pair
        legit1 = {r.domain for r in snap1.records if r.label == 1}
        legit2 = {r.domain for r in snap2.records if r.label == 1}
        assert legit1 == legit2

    def test_illegitimate_domains_disjoint(self, pair):
        snap1, snap2 = pair
        bad1 = {r.domain for r in snap1.records if r.label == 0}
        bad2 = {r.domain for r in snap2.records if r.label == 0}
        assert bad1.isdisjoint(bad2)

    def test_legit_text_recrawled_not_identical(self, pair):
        snap1, snap2 = pair
        domain = next(r.domain for r in snap1.records if r.label == 1)
        page1 = snap1.host.fetch(f"https://www.{domain}/")
        page2 = snap2.host.fetch(f"https://www.{domain}/")
        assert page1.text != page2.text  # fresh crawl, same character


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = SyntheticWebGenerator(SMALL).generate_snapshot()
        b = SyntheticWebGenerator(SMALL).generate_snapshot()
        assert a.domains == b.domains
        url = f"https://www.{a.domains[0]}/"
        assert a.host.fetch(url).text == b.host.fetch(url).text

    def test_different_seed_different_text(self):
        import dataclasses

        other = dataclasses.replace(SMALL, seed=99)
        a = SyntheticWebGenerator(SMALL).generate_snapshot()
        b = SyntheticWebGenerator(other).generate_snapshot()
        url = f"https://www.{a.domains[0]}/"
        assert a.host.fetch(url).text != b.host.fetch(url).text


class TestTextSignals:
    def test_illegit_overuses_lifestyle_terms(self, pair):
        """The paper's observation: viagra/cialis/'no prescription'
        appear far more frequently on illegitimate sites."""
        snap1, _ = pair
        def class_text(label):
            chunks = []
            for record in snap1.records:
                if record.label == label and not record.is_outlier:
                    page = snap1.host.fetch(f"https://www.{record.domain}/")
                    chunks.append(page.text)
            return " ".join(chunks).split()

        legit_tokens = class_text(1)
        illegit_tokens = class_text(0)
        legit_rate = legit_tokens.count("viagra") / len(legit_tokens)
        illegit_rate = illegit_tokens.count("viagra") / len(illegit_tokens)
        assert illegit_rate > 3 * legit_rate

    def test_legit_has_more_store_presence(self, pair):
        from repro.data.lexicon import STORE_PRESENCE

        snap1, _ = pair
        store_words = set(STORE_PRESENCE)

        def store_rate(label):
            tokens = []
            for record in snap1.records:
                if record.label == label and not record.is_outlier:
                    for i in range(4):
                        suffix = "" if i == 0 else f"page{i}"
                        page = snap1.host.fetch(
                            f"https://www.{record.domain}/{suffix}"
                        )
                        if page is not None:
                            tokens.extend(page.text.split())
            hits = sum(1 for t in tokens if t in store_words)
            return hits / len(tokens)

        assert store_rate(1) > 2 * store_rate(0)


class TestScaledConfig:
    def test_scaling_preserves_ratio(self):
        scaled = scaled_config(SMALL, 0.5)
        assert scaled.n_legitimate == 3
        assert scaled.n_illegitimate == 22

    def test_invalid_factor(self):
        with pytest.raises(DataGenerationError):
            scaled_config(SMALL, 0.0)


class TestAuxiliarySites:
    CFG_AUX = GeneratorConfig(
        n_legitimate=6,
        n_illegitimate=44,
        n_affiliate_hubs=2,
        min_pages=2,
        max_pages=4,
        min_terms_per_page=40,
        max_terms_per_page=80,
        n_health_portals=4,
        n_spam_directories=2,
        seed=5,
    )

    @pytest.fixture(scope="class")
    def aux_snapshot(self):
        return SyntheticWebGenerator(self.CFG_AUX).generate_snapshot()

    def test_auxiliary_domains_listed_and_hosted(self, aux_snapshot):
        assert len(aux_snapshot.auxiliary_domains) == 6
        for domain in aux_snapshot.auxiliary_domains:
            assert aux_snapshot.host.fetch(f"https://www.{domain}/") is not None

    def test_auxiliaries_not_in_working_set(self, aux_snapshot):
        assert not set(aux_snapshot.auxiliary_domains) & set(aux_snapshot.domains)

    def test_portals_link_to_legitimate_pharmacies(self, aux_snapshot):
        from repro.web.url import endpoint

        legit = {r.domain for r in aux_snapshot.records if r.label == 1}
        portal = next(
            d for d in aux_snapshot.auxiliary_domains if d.endswith(".org")
        )
        linked = set()
        for i in range(4):
            suffix = "" if i == 0 else f"page{i}"
            page = aux_snapshot.host.fetch(f"https://www.{portal}/{suffix}")
            if page is not None:
                linked.update(
                    endpoint(u) for u in page.external_links()
                )
        assert linked & legit

    def test_directories_link_to_illegitimate_pharmacies(self, aux_snapshot):
        from repro.web.url import endpoint

        illegit = {r.domain for r in aux_snapshot.records if r.label == 0}
        # Directories use .net domains; portals use .org.
        directory = next(
            d for d in aux_snapshot.auxiliary_domains if d.endswith(".net")
        )
        linked = set()
        for i in range(4):
            suffix = "" if i == 0 else f"page{i}"
            page = aux_snapshot.host.fetch(f"https://www.{directory}/{suffix}")
            if page is not None:
                linked.update(endpoint(u) for u in page.external_links())
        assert linked & illegit

    def test_default_config_has_no_auxiliaries(self):
        snapshot = SyntheticWebGenerator(SMALL).generate_snapshot()
        assert snapshot.auxiliary_domains == ()

    def test_negative_counts_rejected(self):
        with pytest.raises(DataGenerationError):
            GeneratorConfig(n_health_portals=-1)


class TestPotentiallyLegitimate:
    CFG_GRAY = GeneratorConfig(
        n_legitimate=6,
        n_illegitimate=44,
        n_affiliate_hubs=2,
        min_pages=2,
        max_pages=4,
        min_terms_per_page=40,
        max_terms_per_page=80,
        n_potentially_legitimate=4,
        seed=5,
    )

    @pytest.fixture(scope="class")
    def gray_snapshot(self):
        return SyntheticWebGenerator(self.CFG_GRAY).generate_snapshot()

    def test_gray_domains_hosted_but_outside_p(self, gray_snapshot):
        assert len(gray_snapshot.gray_domains) == 4
        assert not set(gray_snapshot.gray_domains) & set(gray_snapshot.domains)
        for domain in gray_snapshot.gray_domains:
            assert gray_snapshot.host.fetch(f"https://www.{domain}/") is not None

    def test_default_has_no_gray_sites(self):
        snapshot = SyntheticWebGenerator(SMALL).generate_snapshot()
        assert snapshot.gray_domains == ()

    def test_negative_count_rejected(self):
        with pytest.raises(DataGenerationError):
            GeneratorConfig(n_potentially_legitimate=-1)

    def test_corpus_carries_gray_sites(self):
        from repro.data.loaders import crawl_snapshot

        snapshot = SyntheticWebGenerator(self.CFG_GRAY).generate_snapshot()
        corpus = crawl_snapshot(snapshot)
        assert len(corpus.gray_sites) == 4
        assert len(corpus) == 50  # gray sites are not part of P


def _rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


class TestBatchedDrawsKeepTheRandomStream:
    """Each batched draw picks what the ``Generator.choice`` it replaces picks.

    The draw and the bit generator state after it must both be equal:
    every later draw of the site, and so every generated byte, depends
    on the state.  These tests fail on a numpy whose ``choice``
    algorithm differs from the one the generator reproduces.
    """

    GEN = SyntheticWebGenerator(SMALL)
    WORDS = GEN._words

    @pytest.mark.parametrize("seed", range(24))
    def test_site_mixture_equals_per_pool_fill(self, seed):
        ref = ReferenceWebGenerator(SMALL)
        for base, blend, weight in [
            (_LEGIT_MIX, None, 0.0), (_ILLEGIT_MIX, _LEGIT_MIX, 0.55),
        ]:
            fast_rng, ref_rng = _rng_pair(seed)
            fast = self.GEN._site_mixture(fast_rng, base, blend, weight)
            expected = ref._site_mixture(ref_rng, base, blend, weight)
            assert fast.tobytes() == expected.tobytes()
            _same_state(fast_rng, ref_rng)

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("size", [1, 2, 30, 61, 180, 1000])
    def test_weighted_words(self, seed, size):
        mix = self.GEN._site_mixture(
            np.random.default_rng(seed + 1000), _LEGIT_MIX, None, 0.0
        )
        cdf = _choice_cdf(mix)
        fast_rng, ref_rng = _rng_pair(seed)
        for _ in range(3):  # one cdf serves every page of a site
            picks = cdf.searchsorted(fast_rng.random(size), side="right")
            expected = ref_rng.choice(self.WORDS, size=size, p=mix)
            assert self.WORDS[picks].tolist() == expected.tolist()
            _same_state(fast_rng, ref_rng)

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("n_ext", [0, 1, 2, 5])
    @pytest.mark.parametrize("n_hubs", [0, 1, 2])
    def test_link_targets_then_hub_links(self, seed, n_ext, n_hubs):
        weights = _ILLEGIT_LINK_WEIGHTS if seed % 2 else _LEGIT_LINK_WEIGHTS
        targets = list(weights)
        w = np.array(list(weights.values()))
        w = w / w.sum()
        fast_rng, ref_rng = _rng_pair(seed)
        draws = fast_rng.random(n_ext + n_hubs)
        picks = _choice_cdf(w).searchsorted(draws[:n_ext], side="right")
        fast = [targets[j] for j in picks.tolist()]
        fast += [u < 0.8 for u in draws[n_ext:].tolist()]
        expected = [str(ref_rng.choice(targets, p=w)) for _ in range(n_ext)]
        expected += [ref_rng.random() < 0.8 for _ in range(n_hubs)]
        assert fast == expected
        _same_state(fast_rng, ref_rng)

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("size", [1, 2, 33, 180])
    @pytest.mark.parametrize("prefix", [0, 1])
    def test_uniform_aux_words(self, seed, size, prefix):
        # ``prefix`` odd 32-bit draws leave half a 64-bit word buffered.
        words = np.concatenate([self.GEN._pools["HEALTH_CONTENT"],
                                self.GEN._pools["COMMON_FILLER"]])
        fast_rng, ref_rng = _rng_pair(seed)
        for rng in (fast_rng, ref_rng):
            for _ in range(prefix):
                rng.integers(2, 5)
        fast = words[fast_rng.integers(0, len(words), size=size)]
        expected = ref_rng.choice(words, size=size)
        assert fast.tolist() == expected.tolist()
        _same_state(fast_rng, ref_rng)


class TestGeneratorEqualsReference:
    """Whole sites and snapshots equal the per-draw reference generator."""

    CONFIGS = {
        "small": SMALL,
        "thin": dataclasses.replace(
            SMALL, min_pages=1, max_pages=2, min_terms_per_page=1,
            max_terms_per_page=3, external_links_per_page=0.2, seed=3,
        ),
        "auxiliary": dataclasses.replace(
            SMALL, n_health_portals=3, n_spam_directories=2,
            n_potentially_legitimate=3, external_links_per_page=3.0, seed=11,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_snapshot_pair_pages_equal(self, name):
        config = self.CONFIGS[name]
        fast = SyntheticWebGenerator(config).generate_pair()
        expected = ReferenceWebGenerator(config).generate_pair()
        for a, b in zip(fast, expected, strict=True):
            assert a.records == b.records
            assert a.host.urls() == b.host.urls()
            assert [a.host.fetch(u) for u in a.host.urls()] == [
                b.host.fetch(u) for u in b.host.urls()
            ]

    @pytest.mark.parametrize("seed", range(12))
    def test_every_site_role_equal_with_state(self, seed):
        config = self.CONFIGS["small"]
        fast_gen = SyntheticWebGenerator(config)
        ref_gen = ReferenceWebGenerator(config)
        hubs = ("hub-a.com", "hub-b.com")
        roles = [
            dict(label=1), dict(label=1, is_outlier=True),
            dict(label=1, is_asocial=True), dict(label=0, is_hub=True),
            dict(label=0, is_member=True, hub_targets=hubs),
            dict(label=0, is_outlier=True, hub_targets=hubs),
            dict(label=0, is_imitator=True, generation=2),
        ]
        for k, role in enumerate(roles):
            domain = f"site{seed}-{k}.com"
            fast_rng, ref_rng = _rng_pair([seed, k])
            fast = fast_gen.build_pharmacy_site(domain, rng=fast_rng, **role)
            expected = ref_gen.build_pharmacy_site(domain, rng=ref_rng, **role)
            assert fast == expected
            _same_state(fast_rng, ref_rng)
