"""The verify path's TF-IDF rows equal those of the sites' summaries.

``PharmacyVerifier`` scores each site from ``tokenize(merged_text)``
(``Summarizer.scoring_tokens``) instead of building its stop-filtered
summary document.  Every case below captures the matrix the verify
path sends to the classifier and compares it, array by array, with
``vectorizer.transform`` of the ``summarize_site`` tokens.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.verifier import PharmacyVerifier
from repro.text.preprocessing import TextPreprocessor
from repro.text.term_vector import TfidfVectorizer
from repro.text.tokenization import tokenize
from repro.web.page import WebPage
from repro.web.site import Website

MAX_TERMS = 20
STOP_TEXT = "the and of to is in it a with for this that"


@pytest.fixture(scope="module")
def train(tiny_corpus):
    return tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))


@pytest.fixture(scope="module")
def verifier(train):
    return PharmacyVerifier(max_terms=MAX_TERMS, seed=5).fit(train)


@pytest.fixture(scope="module")
def terms(verifier):
    """Twelve vocabulary terms, none of them a stop word."""
    return verifier._pipeline._vectorizer.vocabulary.terms()[:12]


def site(domain: str, *texts: str) -> Website:
    return Website(
        domain=domain,
        pages=tuple(
            WebPage(url=f"https://www.{domain}/p{i}", text=text)
            for i, text in enumerate(texts)
        ),
    )


def verify_path_matrix(verifier, sites, monkeypatch):
    """The one TF-IDF matrix a ``verify_sites`` call builds."""
    captured = []
    transform = TfidfVectorizer.transform

    def spy(self, documents):
        matrix = transform(self, documents)
        captured.append(matrix)
        return matrix

    monkeypatch.setattr(TfidfVectorizer, "transform", spy)
    verifier.verify_sites(sites)
    monkeypatch.undo()
    (matrix,) = captured
    return matrix


def assert_rows_equal_summaries(verifier, sites, monkeypatch):
    fast = verify_path_matrix(verifier, sites, monkeypatch)
    summarizer = verifier._summarizer
    expected = verifier._pipeline._vectorizer.transform(
        [summarizer.summarize_site(s).tokens for s in sites if s.has_text()]
    )
    np.testing.assert_array_equal(fast.indptr, expected.indptr)
    np.testing.assert_array_equal(fast.indices, expected.indices)
    np.testing.assert_array_equal(fast.data, expected.data)
    assert fast.shape == expected.shape


def n_filtered(text: str) -> int:
    return len(TextPreprocessor().preprocess(text))


def test_vocabulary_holds_no_stop_word(verifier):
    vocabulary = set(verifier._pipeline._vectorizer.vocabulary.terms())
    assert vocabulary
    assert not vocabulary & verifier._summarizer._preprocessor.stop_words


def test_only_stop_words(verifier, terms, monkeypatch):
    sites = [site("stops-rx.com", STOP_TEXT), site("mixed-rx.com", " ".join(terms[:3]))]
    assert n_filtered(STOP_TEXT) == 0
    assert_rows_equal_summaries(verifier, sites, monkeypatch)


def test_regex_path_texts(verifier, terms, monkeypatch):
    texts = [
        f"FDA-approved {terms[0]} don't {terms[1]}",
        f"Café {terms[2]} \u212aelvin {terms[3]} naïve",
        f"{terms[4]}-{terms[5]} o'neill -- ' {terms[6]}",
    ]
    sites = [site(f"regex{i}-rx.com", text) for i, text in enumerate(texts)]
    assert_rows_equal_summaries(verifier, sites, monkeypatch)


def test_blank_page_among_texted_pages(verifier, terms, monkeypatch):
    sites = [
        site("blank-page-rx.com", " ".join(terms[:4]), " \n\t ", " ".join(terms[4:8])),
        site("all-blank-rx.com", "", "   "),
    ]
    assert_rows_equal_summaries(verifier, sites, monkeypatch)


def test_raw_above_cut_filtered_at_cut(verifier, terms, monkeypatch):
    # No subsample is drawn: the raw count exceeds max_terms only
    # because of stop words.
    words = (list(terms) * 2)[:MAX_TERMS]
    text = " ".join(words) + " " + STOP_TEXT
    assert len(tokenize(text)) > MAX_TERMS >= n_filtered(text)
    assert n_filtered(text) == MAX_TERMS
    assert_rows_equal_summaries(verifier, [site("boundary-rx.com", text)], monkeypatch)


def test_filtered_above_cut_is_subsampled(verifier, terms, monkeypatch):
    # One term past the cut, then well past it.
    texts = [
        " ".join((list(terms) * 2)[: MAX_TERMS + 1]) + " " + STOP_TEXT,
        " ".join(list(terms) * 5) + " " + STOP_TEXT,
    ]
    assert n_filtered(texts[0]) == MAX_TERMS + 1
    sites = [site(f"big{i}-rx.com", text) for i in range(3) for text in texts]
    assert_rows_equal_summaries(verifier, sites, monkeypatch)


@pytest.mark.parametrize("max_terms", [None, MAX_TERMS, 300])
def test_corpus_sites(train, tiny_corpus, max_terms, monkeypatch):
    verifier = PharmacyVerifier(max_terms=max_terms, seed=5).fit(train)
    assert_rows_equal_summaries(verifier, list(tiny_corpus.sites), monkeypatch)


def test_uncut_verifier_on_stop_and_regex_texts(train, terms, monkeypatch):
    verifier = PharmacyVerifier(max_terms=None, seed=5).fit(train)
    sites = [
        site("stops-rx.com", STOP_TEXT),
        site("regex-rx.com", f"FDA-approved {terms[0]} don't \u212a"),
        site("long-rx.com", " ".join(list(terms) * 5) + " " + STOP_TEXT),
    ]
    assert_rows_equal_summaries(verifier, sites, monkeypatch)
