"""Summarization: merge a site's pages into one document and subsample it.

Section 4.1 of the paper: all crawled pages of a pharmacy are merged
into a single summary document (documents of ~160k terms are not
unusual); experiments then consider either the full document ("all
terms") or random subsamples of 100 / 250 / 1000 / 2000 terms.

:class:`Summarizer` performs both steps deterministically given a seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.text.preprocessing import TextPreprocessor
from repro.web.site import SiteEvidence
from repro.exceptions import ValidationError

__all__ = ["Summarizer", "SummaryDocument", "TERM_SUBSET_SIZES"]

#: The subsample sizes evaluated in the paper (None = all terms).
TERM_SUBSET_SIZES: tuple[int | None, ...] = (100, 250, 1000, 2000, None)


@dataclass(frozen=True, slots=True)
class SummaryDocument:
    """A pharmacy reduced to a single (possibly subsampled) token list.

    Attributes:
        domain: the pharmacy's registrable domain.
        tokens: preprocessed tokens of the summary document.
        n_source_terms: token count of the full merged document before
            any subsampling (for diagnostics).
    """

    domain: str
    tokens: tuple[str, ...]
    n_source_terms: int

    @property
    def text(self) -> str:
        """Tokens re-joined with spaces (for character-level models)."""
        return " ".join(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


class Summarizer:
    """Merge a website's pages and optionally subsample the terms.

    Args:
        preprocessor: the text preprocessor to apply to the merged text.
            Defaults to the paper's (Lucene stop words, no stemming).
        max_terms: if not ``None``, randomly select this many terms from
            the merged document (without replacement when possible).
            Selection keeps document order, matching "randomly selecting
            N terms" from a bag-of-terms perspective while preserving
            local context for character n-gram models.
        seed: RNG seed for the subsample, making summaries reproducible.

    A scorer that only needs a summary's TF-IDF row can skip the stop
    filter: :meth:`scoring_tokens` hands back the raw token list of a
    site when no subsample would be drawn.  The filter judges each
    token alone, so the raw list holds the summary's tokens plus
    tokens the filter drops, and a vocabulary fitted on summaries holds
    none of those.  A raw count at or below ``max_terms`` bounds the
    filtered count too, so no subsample is drawn and both lists count
    every vocabulary term the same number of times.
    """

    def __init__(
        self,
        preprocessor: TextPreprocessor | None = None,
        max_terms: int | None = None,
        seed: int = 0,
    ) -> None:
        if max_terms is not None and max_terms < 1:
            raise ValidationError(f"max_terms must be >= 1 or None, got {max_terms}")
        self._preprocessor = preprocessor or TextPreprocessor()
        self._max_terms = max_terms
        self._seed = seed

    @property
    def max_terms(self) -> int | None:
        return self._max_terms

    def summarize_site(self, site: SiteEvidence) -> SummaryDocument:
        """Summarize a crawled site (any :class:`~repro.web.site.SiteEvidence`)."""
        return self.summarize_text(site.domain, site.merged_text())

    def summarize_text(self, domain: str, text: str) -> SummaryDocument:
        """Summarize raw merged text for ``domain``."""
        tokens = self._preprocessor.preprocess(text)
        n_source = len(tokens)
        if self._max_terms is not None and n_source > self._max_terms:
            tokens = self._subsample(domain, tokens)
        return SummaryDocument(
            domain=domain, tokens=tuple(tokens), n_source_terms=n_source
        )

    def scoring_tokens(self, domain: str, tokens: list[str]) -> list[str]:
        """Tokens with the same TF-IDF row as the summary of ``domain``.

        ``tokens`` is ``tokenize`` of the merged text that
        :meth:`summarize_text` would read.  At or below ``max_terms``
        (or with no cut) they come back unfiltered: they differ from
        the summary's tokens only by filtered tokens, which no
        vocabulary fitted on this summarizer's output contains (see the
        class docstring).  Above the cut the result is the summary's
        token list exactly, filtered and, when the filtered count still
        exceeds ``max_terms``, subsampled with the same RNG.
        """
        max_terms = self._max_terms
        if max_terms is None or len(tokens) <= max_terms:
            return tokens
        kept = self._preprocessor.filter_tokens(tokens)
        if len(kept) > max_terms:
            return self._subsample(domain, kept)
        return kept

    def _subsample(self, domain: str, tokens: list[str]) -> list[str]:
        """Pick ``max_terms`` positions uniformly without replacement.

        The RNG is keyed on (seed, domain) so the same site always gets
        the same subsample, independent of processing order.
        """
        rng = np.random.default_rng(
            [self._seed, zlib.crc32(domain.encode("utf-8"))]
        )
        assert self._max_terms is not None
        idx = rng.choice(len(tokens), size=self._max_terms, replace=False)
        idx.sort()
        return list(map(tokens.__getitem__, idx.tolist()))
