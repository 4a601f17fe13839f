"""Tests for the tokenizer."""

from hypothesis import given, strategies as st

from repro.text.tokenization import _TOKEN_RE, tokenize

#: Text weighted toward the token alphabet ``[a-z0-9'-]`` (so runs,
#: internal hyphens/apostrophes and their edge cases are common), plus
#: uppercase, whitespace and non-ASCII letters whose lowercasing is
#: not one-to-one (``"İ"`` lowercases to two code points).
_TOKENISH_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789'-"),
        st.sampled_from("abcxyz09'-"),
        st.sampled_from("ABCXYZ"),
        st.sampled_from(" \t\n.,!"),
        st.sampled_from("éÉßİıΣσçÇøÅ日本"),
    ),
    max_size=200,
)

#: ASCII text over all 128 code points but ``-`` and ``'``, weighted
#: toward the separators ``str.split()`` also cuts at (``\x0b``,
#: ``\x0c``, ``\x1c``-``\x1f``) and the word character ``_`` that is
#: not a token character, plus the Kelvin sign, which is not ASCII but
#: lowercases to ASCII ``k``.  Every example lowercases to ASCII text
#: without ``-`` or ``'``, so it takes the translate-and-split path.
_FAST_PATH_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from([chr(c) for c in range(128) if chr(c) not in "-'"]),
        st.sampled_from("_\x0b\x0c\x1c\x1d\x1e\x1f\u212a"),
        st.sampled_from("aZ09"),
    ),
    max_size=200,
)


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_punctuation_split(self):
        assert tokenize("a,b.c!d") == ["a", "b", "c", "d"]

    def test_keeps_internal_hyphen(self):
        assert tokenize("FDA-Approved drugs") == ["fda-approved", "drugs"]

    def test_keeps_internal_apostrophe(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_numbers_kept(self):
        assert tokenize("take 20 mg") == ["take", "20", "mg"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("  \n\t ") == []

    def test_leading_trailing_hyphen_stripped(self):
        assert tokenize("-start end-") == ["start", "end"]


@given(_TOKENISH_TEXT)
def test_tokenize_equals_finditer_group0(text):
    """``findall`` returns exactly the ``group(0)`` of every match."""
    assert tokenize(text) == [
        m.group(0) for m in _TOKEN_RE.finditer(text.lower())
    ]


@given(_FAST_PATH_TEXT)
def test_translate_and_split_equals_findall(text):
    """On ASCII text without ``-`` or ``'``, the fast path is the regex."""
    low = text.lower()
    assert low.isascii() and "-" not in low and "'" not in low
    assert tokenize(text) == _TOKEN_RE.findall(low)


def test_kelvin_sign_lowercases_into_a_token():
    assert tokenize("\u212aelvin_2\x1cK") == ["kelvin", "2", "k"]


@given(st.text(max_size=200))
def test_tokens_always_lowercase_and_nonempty(text):
    for token in tokenize(text):
        assert token
        assert token == token.lower()


@given(st.text(max_size=200))
def test_tokenize_idempotent_on_joined_output(text):
    """Re-tokenizing the joined token stream is a fixpoint."""
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens
