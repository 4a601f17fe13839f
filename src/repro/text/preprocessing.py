"""Text preprocessing: tokenization + stop-word removal, no stemming.

Mirrors Section 4.1 of the paper: stop words are removed (the paper used
Apache Lucene 3.4.0); stemming is deliberately **not** applied because
pharmacy text is dense with technical terms and trademarks that stemming
would corrupt.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterable

from repro.sanitizers import sanitizes
from repro.text.stopwords import default_stop_words
from repro.text.tokenization import tokenize
from repro.exceptions import ValidationError

__all__ = ["TextPreprocessor"]


class TextPreprocessor:
    """Tokenize, lowercase, and drop stop words.

    Args:
        stop_words: the stop set to remove.  Defaults to Lucene's
            33-word English list (the paper's choice).  Pass an empty
            collection to disable stop-word removal.
        min_token_length: tokens shorter than this are dropped
            (default 1, i.e. keep everything the tokenizer emits).
    """

    def __init__(
        self,
        stop_words: Iterable[str] | None = None,
        min_token_length: int = 1,
    ) -> None:
        if min_token_length < 1:
            raise ValidationError(f"min_token_length must be >= 1, got {min_token_length}")
        self._stop_words = (
            frozenset(w.lower() for w in stop_words)
            if stop_words is not None
            else default_stop_words()
        )
        self._min_len = min_token_length

    @property
    def stop_words(self) -> frozenset[str]:
        return self._stop_words

    @sanitizes("*")
    def preprocess(self, text: str) -> list[str]:
        """Return the non-stop-word tokens of ``text`` in order.

        Inherits :func:`~repro.text.tokenization.tokenize`'s sanitizer
        guarantee: every emitted token is ``[a-z0-9'-]``."""
        return self.filter_tokens(tokenize(text))

    def filter_tokens(self, tokens: Iterable[str]) -> list[str]:
        """Drop the stop words and too-short tokens of ``tokens``, in order.

        The filter judges each token alone, whatever its neighbours, so
        filtering a token list removes exactly the tokens that
        :meth:`preprocess` would not have emitted from the same text.
        Stop words are dropped by a C-level ``filterfalse``; the length
        filter runs only when ``min_token_length > 1``, since every
        token the tokenizer emits is at least one character long."""
        kept = filterfalse(self._stop_words.__contains__, tokens)
        if self._min_len > 1:
            min_len = self._min_len
            return [tok for tok in kept if len(tok) >= min_len]
        return list(kept)
