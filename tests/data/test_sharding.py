"""Tests for sharded corpus generation and lazy reading.

The load-bearing properties:

* the union of all shards is identical at any shard count K,
* shard files are byte-identical at any worker count,
* a single-domain lookup opens exactly one shard.
"""

from __future__ import annotations

import json

import pytest

from repro.data.sharding import (
    MANIFEST_FILENAME,
    ShardedCorpus,
    ShardManifest,
    plan_domains,
    plan_site,
    shard_filename,
    shard_of,
    site_seed,
    stable_hash,
    write_shards,
)
from repro.data.synthesis import GeneratorConfig
from repro.core.verifier import PharmacyVerifier
from repro.exceptions import (
    DataGenerationError,
    InvalidURLError,
    MissingKeyError,
    ValidationError,
)
from repro.io import PersistenceError

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


def _corpus_snapshot(root):
    """Every (domain, pages, record) of a sharded corpus, sorted."""
    corpus = ShardedCorpus(root)
    out = {}
    for _, sites, records in corpus.iter_shards():
        for site, record in zip(sites, records):
            out[site.domain] = (site.pages, record)
    return out


class TestStableHashing:
    def test_stable_hash_is_process_independent(self):
        # Pinned value: sha256 never changes, unlike builtin hash().
        assert stable_hash("example.com") == stable_hash("example.com")
        assert stable_hash("a") != stable_hash("b")

    def test_shard_of_partitions_within_bounds(self):
        for k in (1, 3, 8):
            assert all(
                0 <= shard_of(f"d{i}.example", k) < k for i in range(50)
            )

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ValidationError):
            shard_of("x.example", 0)

    def test_site_seed_varies_by_purpose_and_domain(self):
        a = site_seed(7, "x.example", "site")
        assert a == site_seed(7, "x.example", "site")
        assert a != site_seed(7, "x.example", "role")
        assert a != site_seed(7, "y.example", "site")
        assert a != site_seed(8, "x.example", "site")


class TestSitePlanning:
    def test_plan_domains_is_pure(self):
        assert plan_domains(CONFIG) == plan_domains(CONFIG)

    def test_hub_domains_are_sorted_and_illegit(self):
        legit, illegit, hubs = plan_domains(CONFIG)
        assert list(hubs) == sorted(hubs)
        assert set(hubs) <= set(illegit)
        assert len(legit) == CONFIG.n_legitimate

    def test_plan_site_deterministic(self):
        _, illegit, hubs = plan_domains(CONFIG)
        domain = illegit[0]
        assert plan_site(CONFIG, domain, 0, hubs=hubs) == plan_site(
            CONFIG, domain, 0, hubs=hubs
        )

    def test_member_targets_come_from_hubs(self):
        _, illegit, hubs = plan_domains(CONFIG)
        members = [
            plan_site(CONFIG, d, 0, is_hub=d in hubs, hubs=hubs)
            for d in illegit
        ]
        assert any(p.is_member for p in members)
        for p in members:
            assert set(p.hub_targets) <= set(hubs)
            if p.is_member:
                assert 1 <= len(p.hub_targets) <= 2


class TestShardCountInvariance:
    def test_union_identical_at_k1_and_k8(self, tmp_path):
        write_shards(CONFIG, tmp_path / "k1", 1)
        write_shards(CONFIG, tmp_path / "k8", 8)
        assert _corpus_snapshot(tmp_path / "k1") == _corpus_snapshot(
            tmp_path / "k8"
        )

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        serial = write_shards(CONFIG, tmp_path / "serial", 4, jobs=None)
        parallel = write_shards(CONFIG, tmp_path / "parallel", 4, jobs=2)
        assert serial.shards == parallel.shards
        for k in range(4):
            name = shard_filename(k)
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    def test_manifest_round_trips_config(self, tmp_path):
        manifest = write_shards(CONFIG, tmp_path, 3)
        assert manifest.generator_config == CONFIG
        reloaded = ShardManifest.from_dict(
            json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        )
        assert reloaded.generator_config == CONFIG
        assert reloaded.n_sites == CONFIG.n_legitimate + CONFIG.n_illegitimate

    def test_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(ValidationError):
            write_shards(CONFIG, tmp_path, 0)


class TestShardedCorpusReader:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shards")
        write_shards(CONFIG, root, 4)
        return root

    def test_lookup_opens_exactly_one_shard(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        _, illegit, _ = plan_domains(CONFIG)
        domain = illegit[0]
        assert corpus.get(domain) is not None
        assert corpus.shard_opens == 1
        # Same-shard lookup hits the LRU.
        corpus.get(domain)
        assert corpus.shard_opens == 1

    def test_lru_evicts_beyond_capacity(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir, max_open_shards=1)
        first, *_, last = range(corpus.n_shards)
        corpus._shard(first)
        corpus._shard(last)
        corpus._shard(first)  # evicted, reopened
        assert corpus.shard_opens == 3

    def test_oracle_and_record(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        legit, illegit, _ = plan_domains(CONFIG)
        assert corpus.oracle(legit[0]) == 1
        assert corpus.oracle(illegit[0]) == 0
        assert corpus.record_for(legit[0]).domain == legit[0]

    def test_missing_domain(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        assert corpus.get("nope.example") is None
        assert "nope.example" not in corpus
        with pytest.raises(MissingKeyError):
            corpus.site_for("nope.example")
        with pytest.raises(MissingKeyError):
            corpus.record_for("nope.example")

    def test_sites_view_matches_streaming_order(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        view = corpus.sites_view()
        streamed = list(corpus.iter_sites())
        assert len(view) == len(streamed) == len(corpus)
        assert view[0] == streamed[0]
        assert view[-1] == streamed[-1]
        assert view[3:6] == streamed[3:6]
        with pytest.raises(IndexError):
            view[len(corpus)]

    def test_domains_match_headers_and_placement(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        domains = corpus.domains()
        assert len(domains) == len(corpus)
        # Header-only listing opens no shard files.
        assert corpus.shard_opens == 0
        legit, illegit, _ = plan_domains(CONFIG)
        assert set(domains) == set(legit) | set(illegit)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            ShardedCorpus(tmp_path)

    def test_corrupt_shard_raises(self, corpus_dir, tmp_path):
        import shutil

        root = tmp_path / "corrupt"
        shutil.copytree(corpus_dir, root)
        victim = root / shard_filename(0)
        victim.write_text("not json\n")
        corpus = ShardedCorpus(root)
        with pytest.raises(PersistenceError):
            corpus._shard(0)

    def test_get_builds_each_site_once_per_load(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        _, illegit, _ = plan_domains(CONFIG)
        assert corpus.get(illegit[0]) is corpus.get(illegit[0])
        assert corpus.get(illegit[0]) == corpus.sites_view()[
            corpus.domains().index(illegit[0])
        ]

    def test_labels_read_off_rows(self, corpus_dir):
        corpus = ShardedCorpus(corpus_dir)
        assert corpus.labels() == [
            record.label
            for _, _, records in corpus.iter_shards()
            for record in records
        ]

    def test_rejects_bad_lru_capacity(self, corpus_dir):
        with pytest.raises(ValidationError):
            ShardedCorpus(corpus_dir, max_open_shards=0)


def _edit_rows(path, edit):
    """Rewrite shard ``path`` with its header kept and ``edit(rows)`` after it."""
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")


#: Shard-0 edits that leave every row well formed but disagree with the
#: header's ``domains`` list or the manifest's ``n_sites``.
INCONSISTENT_SHARDS = {
    "truncated": lambda rows: rows[:-1],
    "extra-row": lambda rows: rows + rows[:1],
    "reordered": lambda rows: [rows[1], rows[0], *rows[2:]],
}


class TestInconsistentShards:
    """A shard that disagrees with its header or manifest is not read."""

    @pytest.fixture(scope="class")
    def good_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("consistent")
        write_shards(
            GeneratorConfig(n_legitimate=8, n_illegitimate=52, n_affiliate_hubs=2,
                            min_pages=2, max_pages=3, min_terms_per_page=10,
                            max_terms_per_page=20, seed=3),
            root, 2,
        )
        return root

    @pytest.mark.parametrize("case", sorted(INCONSISTENT_SHARDS))
    def test_every_reader_raises_naming_the_file(self, good_dir, tmp_path, case):
        import shutil

        root = tmp_path / "bad"
        shutil.copytree(good_dir, root)
        _edit_rows(root / shard_filename(0), INCONSISTENT_SHARDS[case])
        corpus = ShardedCorpus(root)
        view = corpus.sites_view()
        assert len(view) == len(corpus) == 60
        name = shard_filename(0)
        first_domain = corpus.domains()[0]
        for read in (
            lambda: view.rows(0, 60),
            lambda: view[0],
            corpus.labels,
            lambda: list(corpus.iter_shards()),
            lambda: corpus.get(first_domain),
        ):
            with pytest.raises(PersistenceError, match=name):
                read()

    @pytest.mark.parametrize(
        "key, value",
        [("n_sites", 59), ("n_shards", 3), ("n_shards", 1)],
        ids=["n-sites-short", "n-shards-over", "n-shards-under"],
    )
    def test_manifest_totals_must_match_the_shard_entries(
        self, good_dir, tmp_path, key, value
    ):
        import shutil

        root = tmp_path / "bad"
        shutil.copytree(good_dir, root)
        manifest_path = root / MANIFEST_FILENAME
        payload = json.loads(manifest_path.read_text())
        assert [e["n_sites"] for e in payload["shards"]] == [27, 33]
        payload[key] = value
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match=MANIFEST_FILENAME):
            ShardedCorpus(root)
        with pytest.raises(PersistenceError, match=key):
            ShardManifest.from_dict(payload)

    def test_consistent_shards_read(self, good_dir):
        corpus = ShardedCorpus(good_dir)
        rows = corpus.sites_view().rows(0, 60)
        assert [row.domain for row in rows] == list(corpus.domains())
        assert len(corpus.labels()) == 60


GOOD_PAGE = {"url": "https://www.a-rx.com/", "text": "pills", "links": ["/x"]}
GOOD_ROW = {"domain": "a-rx.com", "label": 0, "pages": [GOOD_PAGE]}
SHARD_HEADER = {"format": "repro-shard", "version": 1, "domains": ["a-rx.com"]}

#: Structurally malformed shard files: (header value, row value).
MALFORMED_SHARDS = {
    "header-not-object": ([1, 2], GOOD_ROW),
    "row-missing-pages": (SHARD_HEADER, {"domain": "a-rx.com", "label": 0}),
    "row-missing-domain": (SHARD_HEADER, {"label": 0, "pages": []}),
    "row-is-string": (SHARD_HEADER, "a-rx.com"),
    "label-not-integer": (SHARD_HEADER, dict(GOOD_ROW, label="legit")),
    "flags-not-object": (SHARD_HEADER, dict(GOOD_ROW, flags=[])),
    "page-missing-text": (
        SHARD_HEADER,
        dict(GOOD_ROW, pages=[{"url": GOOD_PAGE["url"], "links": []}]),
    ),
}


def one_shard_corpus(root, header, row):
    """A one-shard corpus directory whose shard holds ``row``."""
    root.mkdir(parents=True, exist_ok=True)
    (root / shard_filename(0)).write_text(
        json.dumps(header) + "\n" + json.dumps(row) + "\n"
    )
    manifest = ShardManifest(
        name="bad",
        n_shards=1,
        n_sites=1,
        n_legitimate=0,
        n_illegitimate=1,
        generation=1,
        config={},
        shards=({"shard": 0, "file": shard_filename(0), "n_sites": 1},),
    )
    (root / MANIFEST_FILENAME).write_text(json.dumps(manifest.as_dict()))
    return ShardedCorpus(root)


class TestMalformedShards:
    """Structural faults raise PersistenceError naming file and line."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_SHARDS))
    def test_structural_fault(self, tmp_path, case):
        header, row = MALFORMED_SHARDS[case]
        corpus = one_shard_corpus(tmp_path / "c", header, row)
        line = 1 if case.startswith("header") else 2
        name = shard_filename(0)
        with pytest.raises(PersistenceError, match=f"{name}:{line}"):
            corpus.sites_view().rows(0, 1)
        with pytest.raises(PersistenceError, match=f"{name}:{line}"):
            corpus.get("a-rx.com")

    @pytest.mark.parametrize(
        "header",
        [
            "[1, 2]",
            json.dumps({"format": "repro-shard", "version": 1}),
            "not json",
            json.dumps(dict(SHARD_HEADER, domains="a-rx.com")),
            json.dumps(dict(SHARD_HEADER, domains=["a-rx.com", 7])),
        ],
        ids=[
            "not-object",
            "missing-domains",
            "not-json",
            "domains-not-list",
            "domains-not-strings",
        ],
    )
    def test_bad_header_names_file_and_line(self, tmp_path, header):
        corpus = one_shard_corpus(tmp_path / "c", SHARD_HEADER, GOOD_ROW)
        shard = tmp_path / "c" / shard_filename(0)
        shard.write_text(header + "\n" + json.dumps(GOOD_ROW) + "\n")
        where = f"{shard_filename(0)}:1"
        with pytest.raises(PersistenceError, match=where):
            corpus.domains()
        with pytest.raises(PersistenceError, match=where):
            corpus.sites_view().rows(0, 1)

    def test_domains_missing_shard_file(self, tmp_path):
        corpus = one_shard_corpus(tmp_path / "c", SHARD_HEADER, GOOD_ROW)
        (tmp_path / "c" / shard_filename(0)).unlink()
        with pytest.raises(PersistenceError, match=shard_filename(0)):
            corpus.domains()

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"format": "repro-shard-manifest", "version": 1},
            {
                "format": "repro-shard-manifest",
                "version": 1,
                "name": "x",
                "n_shards": 1,
                "n_sites": 1,
                "n_legitimate": 0,
                "n_illegitimate": 1,
                "generation": 1,
                "config": {},
                "shards": [{"file": "shard-00000.jsonl"}],
            },
        ],
        ids=["not-object", "missing-keys", "shard-entry-missing-n-sites"],
    )
    def test_malformed_manifest(self, tmp_path, payload):
        (tmp_path / MANIFEST_FILENAME).write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match=MANIFEST_FILENAME):
            ShardedCorpus(tmp_path)
        if isinstance(payload, dict):
            with pytest.raises(PersistenceError):
                ShardManifest.from_dict(payload)

    @pytest.mark.parametrize(
        "page, error",
        [
            (dict(GOOD_PAGE, url="ftp://www.a-rx.com/"), InvalidURLError),
            (dict(GOOD_PAGE, url="https://www.other-rx.com/"), DataGenerationError),
        ],
        ids=["non-http-url", "foreign-page"],
    )
    def test_url_faults_keep_their_types(self, tmp_path, tiny_corpus, page, error):
        corpus = one_shard_corpus(
            tmp_path / "c", SHARD_HEADER, dict(GOOD_ROW, pages=[page])
        )
        with pytest.raises(error):
            corpus.get("a-rx.com")
        with pytest.raises(error):
            list(corpus.iter_sites())
        verifier = PharmacyVerifier(max_terms=50).fit(tiny_corpus)
        with pytest.raises(error):
            verifier.verify_sites(corpus.sites_view())
