"""Word tokenization.

A deliberately simple, Lucene-StandardAnalyzer-like tokenizer: lowercase
alphanumeric runs, keeping internal apostrophes and hyphens so that
terms like ``"fda-approved"`` and ``"don't"`` survive as single tokens.
The paper's pipeline does **not** stem (technical terms and trademarks
would be mangled), and neither does this module.
"""

from __future__ import annotations

import re

from repro.sanitizers import sanitizes

__all__ = ["tokenize"]

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")


@sanitizes("*")
def tokenize(text: str) -> list[str]:
    """Tokenize ``text`` into a list of lowercase tokens.

    One ``findall`` over the lowercased text: the pattern has no
    capturing group, so it returns each match's ``group(0)``, built in
    C.  A full sanitizer for taint purposes: the output alphabet is
    ``[a-z0-9'-]``, which can express no path traversal, regex
    metacharacters, URLs, or markup.

    >>> tokenize("Buy FDA-Approved drugs, no prescription!")
    ['buy', 'fda-approved', 'drugs', 'no', 'prescription']
    """
    return _TOKEN_RE.findall(text.lower())
