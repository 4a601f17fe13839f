"""Tests for preprocessing and stop-word lists."""

import pytest
from hypothesis import given, strategies as st

from repro.text.preprocessing import TextPreprocessor
from repro.text.tokenization import _TOKEN_RE
from repro.text.stopwords import (
    EXTENDED_ENGLISH_STOP_WORDS,
    LUCENE_ENGLISH_STOP_WORDS,
    default_stop_words,
)


class TestStopWordLists:
    def test_lucene_list_has_33_words(self):
        assert len(LUCENE_ENGLISH_STOP_WORDS) == 33

    def test_extended_is_superset(self):
        assert LUCENE_ENGLISH_STOP_WORDS <= EXTENDED_ENGLISH_STOP_WORDS

    def test_default_is_lucene(self):
        assert default_stop_words() == LUCENE_ENGLISH_STOP_WORDS

    def test_known_members(self):
        for word in ("the", "a", "and", "no", "not"):
            assert word in LUCENE_ENGLISH_STOP_WORDS


class TestTextPreprocessor:
    def test_removes_stop_words(self):
        pre = TextPreprocessor()
        assert pre.preprocess("the pharmacy is open") == ["pharmacy", "open"]

    def test_no_stemming(self):
        """The paper explicitly avoids stemming (trademarks survive)."""
        pre = TextPreprocessor()
        assert pre.preprocess("running medications") == [
            "running",
            "medications",
        ]

    def test_custom_stop_words(self):
        pre = TextPreprocessor(stop_words={"pharmacy"})
        assert pre.preprocess("the pharmacy") == ["the"]

    def test_empty_stop_words_disables_removal(self):
        pre = TextPreprocessor(stop_words=())
        assert pre.preprocess("the end") == ["the", "end"]

    def test_stop_words_case_insensitive(self):
        pre = TextPreprocessor(stop_words={"The"})
        assert pre.preprocess("THE end") == ["end"]

    def test_min_token_length(self):
        pre = TextPreprocessor(stop_words=(), min_token_length=3)
        assert pre.preprocess("a an the word") == ["the", "word"]

    def test_min_token_length_validation(self):
        with pytest.raises(ValueError):
            TextPreprocessor(min_token_length=0)

    def test_no_prescription_survives(self):
        """'no' is a Lucene stop word but 'prescription' must survive —
        the strongest illegitimate marker in the paper."""
        pre = TextPreprocessor()
        assert "prescription" in pre.preprocess("no prescription needed")


def _reference_preprocess(text, stop_words, min_len):
    """The token-by-token filter ``preprocess`` was defined by."""
    return [
        tok
        for tok in (m.group(0) for m in _TOKEN_RE.finditer(text.lower()))
        if len(tok) >= min_len and tok not in stop_words
    ]


_STOP_SETS = {
    "default": None,
    "custom": {"the", "Pharmacy", "no", "a", "rx-free"},
    "empty": (),
}

_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("abtheno'- "),
        st.sampled_from("ABCXYZ0123456789.,\n"),
        st.sampled_from("éİß"),
    ),
    max_size=200,
) | st.lists(
    st.sampled_from(
        ["the", "THE", "a", "an", "no", "pharmacy", "Rx-Free", "pills", "20", "mg", "x"]
    ),
    max_size=40,
).map(" ".join)


@pytest.mark.parametrize("min_len", [1, 3])
@pytest.mark.parametrize("stop_set", sorted(_STOP_SETS))
@given(text=_TEXT)
def test_preprocess_equals_token_filter(stop_set, min_len, text):
    pre = TextPreprocessor(stop_words=_STOP_SETS[stop_set], min_token_length=min_len)
    assert pre.preprocess(text) == _reference_preprocess(
        text, pre.stop_words, min_len
    )
