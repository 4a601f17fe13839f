"""Tests for the Term Vector (TF-IDF) model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import NotFittedError, ValidationError
from repro.text.term_vector import TfidfVectorizer, Vocabulary


class TestVocabulary:
    def test_add_assigns_sequential_indices(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 0
        assert vocab.add("b") == 1
        assert vocab.add("a") == 0  # idempotent

    def test_index_of_unknown_is_none(self):
        assert Vocabulary().index_of("x") is None

    def test_terms_in_column_order(self):
        vocab = Vocabulary(["b", "a", "c"])
        assert vocab.terms() == ("b", "a", "c")

    def test_terms_position_matches_index_of(self):
        # Regression: terms() used to re-sort on every call; the fast
        # path relies on insertion order *being* column order, so pin
        # that invariant on a deliberately non-alphabetical vocabulary.
        words = ["zebra", "mango", "apple", "quince", "fig"]
        vocab = Vocabulary(words)
        terms = vocab.terms()
        assert list(terms) == words
        for term in words:
            idx = vocab.index_of(term)
            assert idx is not None
            assert terms[idx] == term
        vocab.add("banana")  # late adds append, never reshuffle
        assert vocab.terms() == (*words, "banana")

    def test_contains_and_len(self):
        vocab = Vocabulary(["a"])
        assert "a" in vocab
        assert "b" not in vocab
        assert len(vocab) == 1


class TestTfidfVectorizer:
    DOCS = [
        ["apple", "banana", "apple"],
        ["banana", "cherry"],
        ["apple", "cherry", "cherry"],
    ]

    def test_shapes(self):
        X = TfidfVectorizer().fit_transform(self.DOCS)
        assert X.shape == (3, 3)

    def test_idf_formula(self):
        vec = TfidfVectorizer().fit(self.DOCS)
        vocab = vec.vocabulary
        # apple appears in 2 of 3 docs.
        idx = vocab.index_of("apple")
        expected = np.log((1 + 3) / (1 + 2)) + 1.0
        assert vec.idf[idx] == pytest.approx(expected)

    def test_rows_l2_normalized(self):
        X = TfidfVectorizer().fit_transform(self.DOCS)
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1))).ravel()
        assert np.allclose(norms, 1.0)

    def test_normalize_off(self):
        X = TfidfVectorizer(normalize=False).fit_transform([["a", "a"], ["b"]])
        # tf counts preserved (scaled by idf).
        assert X[0].toarray().max() > X[1].toarray().max()

    def test_oov_terms_dropped(self):
        vec = TfidfVectorizer().fit(self.DOCS)
        X = vec.transform([["durian", "elderberry"]])
        assert X.nnz == 0

    def test_min_df_filters_rare_terms(self):
        vec = TfidfVectorizer(min_df=2).fit(self.DOCS + [["zzz"]])
        assert "zzz" not in vec.vocabulary

    def test_max_features_keeps_most_frequent(self):
        vec = TfidfVectorizer(max_features=2).fit(self.DOCS)
        kept = set(vec.vocabulary.terms())
        assert len(kept) == 2
        # apple and cherry each appear in 2 docs; banana also in 2 —
        # ties broken alphabetically, so the kept set is deterministic.
        vec2 = TfidfVectorizer(max_features=2).fit(self.DOCS)
        assert kept == set(vec2.vocabulary.terms())

    def test_sublinear_tf(self):
        plain = TfidfVectorizer(normalize=False).fit_transform([["a", "a", "a", "b"]])
        sub = TfidfVectorizer(normalize=False, sublinear_tf=True).fit_transform(
            [["a", "a", "a", "b"]]
        )
        assert sub.toarray()[0, 0] < plain.toarray()[0, 0]

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TfidfVectorizer().transform([["a"]])

    def test_fit_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            TfidfVectorizer().fit([])

    def test_empty_document_gives_zero_row(self):
        vec = TfidfVectorizer().fit(self.DOCS)
        X = vec.transform([[]])
        assert X.nnz == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TfidfVectorizer(min_df=0)
        with pytest.raises(ValueError):
            TfidfVectorizer(max_features=0)

    def test_deterministic_column_order(self):
        a = TfidfVectorizer().fit(self.DOCS).vocabulary.terms()
        b = TfidfVectorizer().fit(self.DOCS).vocabulary.terms()
        assert a == b == tuple(sorted(a))

    def test_batched_transform_matches_reference_loop(self):
        # The batched CSR assembly must be bit-identical (same data,
        # indices, indptr) to the per-document dict loop it replaced.
        from tests.reference import reference_tfidf_transform

        vectorizer = TfidfVectorizer().fit(self.DOCS)
        docs = self.DOCS + [["cherry", "unseen", "apple", "apple"], []]
        fast = vectorizer.transform(docs)
        slow = reference_tfidf_transform(vectorizer, docs)
        assert fast.shape == slow.shape
        np.testing.assert_array_equal(fast.indptr, slow.indptr)
        np.testing.assert_array_equal(fast.indices, slow.indices)
        np.testing.assert_array_equal(fast.data, slow.data)


@given(
    docs=st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=0, max_size=12),
        min_size=1,
        max_size=8,
    )
)
def test_tfidf_rows_have_unit_or_zero_norm(docs):
    """Property: every row norm is 1 (non-empty doc) or 0 (empty doc)."""
    X = TfidfVectorizer().fit_transform(docs)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1))).ravel()
    for doc, norm in zip(docs, norms):
        if doc:
            assert norm == pytest.approx(1.0)
        else:
            assert norm == pytest.approx(0.0)


@given(
    docs=st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12),
        min_size=1,
        max_size=8,
    )
)
def test_tfidf_values_nonnegative(docs):
    X = TfidfVectorizer().fit_transform(docs)
    assert (X.toarray() >= 0).all()


class TestStreamingFit:
    """fit_document_frequencies == fit — the out-of-core fitting path."""

    DOCS = [
        ["alpha", "beta", "beta", "gamma"],
        ["alpha", "delta"],
        ["beta", "gamma", "gamma", "epsilon"],
        ["zeta", "alpha", "beta"],
    ]

    @staticmethod
    def _streamed(vectorizer, chunks):
        from collections import Counter

        doc_freq: Counter[str] = Counter()
        n_docs = 0
        for chunk in chunks:
            for doc in chunk:
                doc_freq.update(set(doc))
                n_docs += 1
        return vectorizer.fit_document_frequencies(doc_freq, n_docs)

    def test_matches_fit_exactly(self):
        whole = TfidfVectorizer().fit(self.DOCS)
        chunked = self._streamed(
            TfidfVectorizer(), [self.DOCS[:2], self.DOCS[2:]]
        )
        assert whole.vocabulary.terms() == chunked.vocabulary.terms()
        np.testing.assert_array_equal(whole.idf, chunked.idf)

    def test_matches_with_min_df_and_max_features(self):
        kwargs = dict(min_df=2, max_features=3)
        whole = TfidfVectorizer(**kwargs).fit(self.DOCS)
        chunked = self._streamed(
            TfidfVectorizer(**kwargs), [[d] for d in self.DOCS]
        )
        assert whole.vocabulary.terms() == chunked.vocabulary.terms()
        np.testing.assert_array_equal(whole.idf, chunked.idf)

    def test_transforms_identically(self):
        whole = TfidfVectorizer().fit(self.DOCS)
        chunked = self._streamed(TfidfVectorizer(), [self.DOCS])
        a = whole.transform(self.DOCS)
        b = chunked.transform(self.DOCS)
        np.testing.assert_array_equal(a.toarray(), b.toarray())

    def test_rejects_bad_doc_count(self):
        from collections import Counter

        with pytest.raises(ValidationError):
            TfidfVectorizer().fit_document_frequencies(Counter(), 0)
