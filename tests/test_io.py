"""Tests for model and corpus persistence."""

import io
import json

import numpy as np
import pytest

from repro.exceptions import DataGenerationError, InvalidURLError
from repro.io import (
    PersistenceError,
    export_corpus,
    import_corpus,
    load_model,
    save_model,
    site_record_from_row,
)

HEADER = '{"format": "repro-corpus", "version": 1, "name": "x"}'
GOOD_PAGE = {"url": "https://www.a-rx.com/", "text": "pills", "links": ["/x"]}
GOOD_ROW = {"domain": "a-rx.com", "label": 0, "pages": [GOOD_PAGE]}

#: Structurally malformed corpus files: (header line, row value).
MALFORMED = {
    "header-not-object": ("[1, 2]", GOOD_ROW),
    "row-missing-pages": (HEADER, {"domain": "a-rx.com", "label": 0}),
    "row-missing-domain": (HEADER, {"label": 0, "pages": []}),
    "row-is-string": (HEADER, "a-rx.com"),
    "label-not-integer": (HEADER, dict(GOOD_ROW, label="legit")),
    "label-null": (HEADER, dict(GOOD_ROW, label=None)),
    "page-not-object": (HEADER, dict(GOOD_ROW, pages=["https://www.a-rx.com/"])),
    "links-not-strings": (
        HEADER,
        dict(GOOD_ROW, pages=[dict(GOOD_PAGE, links=[1])]),
    ),
}


class TestModelPersistence:
    def test_roundtrip_classifier(self, tmp_path):
        from repro.ml.naive_bayes import GaussianNB

        X = np.array([[0.0], [1.0], [0.1], [0.9]])
        y = np.array([0, 1, 0, 1])
        model = GaussianNB().fit(X, y)
        path = tmp_path / "model.pkl"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_roundtrip_verifier(self, tmp_path, tiny_corpus):
        from repro.core.verifier import PharmacyVerifier

        verifier = PharmacyVerifier(seed=0).fit(tiny_corpus)
        path = tmp_path / "verifier.pkl"
        save_model(verifier, path)
        loaded = load_model(path)
        original = verifier.verify_site(tiny_corpus.sites[0])
        restored = loaded.verify_site(tiny_corpus.sites[0])
        assert restored.predicted_label == original.predicted_label
        assert restored.rank_score == pytest.approx(original.rank_score)

    def test_saved_verifier_holds_no_training_corpus(self, tmp_path, tiny_corpus):
        import pickle

        from repro.core.verifier import PharmacyVerifier

        path = tmp_path / "verifier.pkl"
        save_model(PharmacyVerifier(seed=0).fit(tiny_corpus), path)
        classes = set()

        class Recorder(pickle.Unpickler):
            def find_class(self, module, name):
                classes.add(name)
                return super().find_class(module, name)

        Recorder(io.BytesIO(pickle.dumps(load_model(path)))).load()
        assert "PharmacyVerifier" in classes
        assert not classes & {"PharmacyCorpus", "Website"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_model(tmp_path / "nope.pkl")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(PersistenceError):
            load_model(path)

    def test_version_skew_raises(self, tmp_path):
        import pickle

        from repro.io import _FORMAT_VERSION, _MAGIC

        path = tmp_path / "old.pkl"
        path.write_bytes(
            pickle.dumps({"magic": _MAGIC, "format_version": 1, "model": None})
        )
        with pytest.raises(
            PersistenceError, match=f"version 1 != supported {_FORMAT_VERSION}"
        ):
            load_model(path)

    def test_wrong_payload(self, tmp_path):
        import pickle

        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(PersistenceError):
            load_model(path)


class TestCorpusPersistence:
    def test_roundtrip(self, tmp_path, tiny_corpus):
        path = tmp_path / "corpus.jsonl"
        export_corpus(tiny_corpus, path)
        loaded = import_corpus(path)
        assert loaded.name == tiny_corpus.name
        assert loaded.domains == tiny_corpus.domains
        assert np.array_equal(loaded.labels, tiny_corpus.labels)
        # Page content survives byte-for-byte.
        assert (
            loaded.sites[0].merged_text() == tiny_corpus.sites[0].merged_text()
        )
        # Ground-truth flags survive.
        assert [r.is_outlier for r in loaded.records] == [
            r.is_outlier for r in tiny_corpus.records
        ]

    def test_links_preserved(self, tmp_path, tiny_corpus):
        path = tmp_path / "corpus.jsonl"
        export_corpus(tiny_corpus, path)
        loaded = import_corpus(path)
        assert (
            loaded.sites[3].outbound_endpoints()
            == tiny_corpus.sites[3].outbound_endpoints()
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            import_corpus(tmp_path / "nope.jsonl")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 9}\n')
        with pytest.raises(PersistenceError):
            import_corpus(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-corpus", "version": 1, "name": "x"}\n'
            "this is not json\n"
        )
        with pytest.raises(PersistenceError):
            import_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(PersistenceError):
            import_corpus(path)


class TestMalformedCorpus:
    """Structural faults raise PersistenceError naming file and line."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_structural_fault(self, tmp_path, case):
        header, row = MALFORMED[case]
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n" + json.dumps(row) + "\n")
        line = 1 if case.startswith("header") else 2
        with pytest.raises(PersistenceError, match=f"bad.jsonl:{line}"):
            import_corpus(path)

    def test_row_parser_names_location(self):
        with pytest.raises(PersistenceError, match="here:7"):
            site_record_from_row({"domain": "a-rx.com"}, "here:7")

    def test_url_faults_keep_their_types(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for page, error in (
            (dict(GOOD_PAGE, url="ftp://www.a-rx.com/"), InvalidURLError),
            (dict(GOOD_PAGE, url="https://www.other-rx.com/"), DataGenerationError),
        ):
            path.write_text(
                HEADER + "\n" + json.dumps(dict(GOOD_ROW, pages=[page])) + "\n"
            )
            with pytest.raises(error):
                import_corpus(path)
