"""Word tokenization.

A deliberately simple, Lucene-StandardAnalyzer-like tokenizer: lowercase
alphanumeric runs, keeping internal apostrophes and hyphens so that
terms like ``"fda-approved"`` and ``"don't"`` survive as single tokens.
The paper's pipeline does **not** stem (technical terms and trademarks
would be mangled), and neither does this module.
"""

from __future__ import annotations

import re
import string

from repro.sanitizers import sanitizes

__all__ = ["tokenize"]

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")

#: Every ASCII character outside ``[a-z0-9]`` mapped to a space.
_SPLIT_TABLE = str.maketrans(
    {
        c: " "
        for c in map(chr, range(128))
        if c not in string.ascii_lowercase + string.digits
    }
)


@sanitizes("*")
def tokenize(text: str) -> list[str]:
    """Tokenize ``text`` into a list of lowercase tokens.

    The tokens are the matches of ``[a-z0-9]+(?:[-'][a-z0-9]+)*`` in
    the lowercased text ``low``, and two C-level paths find them:

    * **Translate and split**, when ``low`` is ASCII and holds neither
      ``-`` nor ``'``.  Then the pattern's optional group can never
      match, so the tokens are exactly the maximal ``[a-z0-9]`` runs.
      Mapping every other ASCII character to a space and splitting on
      whitespace yields those runs, in order: the translated text holds
      only ``[a-z0-9 ]``, so ``split()`` cuts at the spaces and nowhere
      else.  The test is on ``low``, not ``text``, because lowercasing
      can turn a non-ASCII character into an ASCII one (the Kelvin sign
      becomes ``k``).
    * **One regex** ``findall`` otherwise: the pattern has no capturing
      group, so it returns each match's ``group(0)``, built in C.

    A full sanitizer for taint purposes: the output alphabet is
    ``[a-z0-9'-]``, which can express no path traversal, regex
    metacharacters, URLs, or markup.

    >>> tokenize("Buy FDA-Approved drugs, no prescription!")
    ['buy', 'fda-approved', 'drugs', 'no', 'prescription']
    """
    low = text.lower()
    if low.isascii() and "-" not in low and "'" not in low:
        return low.translate(_SPLIT_TABLE).split()
    return _TOKEN_RE.findall(low)
