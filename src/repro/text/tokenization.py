"""Word tokenization.

A deliberately simple, Lucene-StandardAnalyzer-like tokenizer: lowercase
alphanumeric runs, keeping internal apostrophes and hyphens so that
terms like ``"fda-approved"`` and ``"don't"`` survive as single tokens.
The paper's pipeline does **not** stem (technical terms and trademarks
would be mangled), and neither does this module.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.sanitizers import sanitizes

__all__ = ["tokenize", "iter_tokens"]

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")


@sanitizes("*")
def iter_tokens(text: str) -> Iterator[str]:
    """Yield lowercase tokens from ``text`` in document order.

    A full sanitizer for taint purposes: the output alphabet is
    ``[a-z0-9'-]``, which can express no path traversal, regex
    metacharacters, URLs, or markup.
    """
    for match in _TOKEN_RE.finditer(text.lower()):
        yield match.group(0)


@sanitizes("*")
def tokenize(text: str) -> list[str]:
    """Tokenize ``text`` into a list of lowercase tokens.

    One ``findall`` over the lowercased text: the pattern has no
    capturing group, so it returns exactly the ``group(0)`` strings
    :func:`iter_tokens` yields, built in C.  Same sanitizer guarantee.

    >>> tokenize("Buy FDA-Approved drugs, no prescription!")
    ['buy', 'fda-approved', 'drugs', 'no', 'prescription']
    """
    return _TOKEN_RE.findall(text.lower())
