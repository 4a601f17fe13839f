"""Website model: a domain plus its pages.

A :class:`Website` is the unit of classification in the paper — one
online pharmacy.  It aggregates the pages the crawler collected for one
registrable domain and exposes the two raw signals the system uses:

* the merged text of all crawled pages (input to summarization), and
* the set of outbound link endpoints (input to the network graph).

Verification reads a site only through :class:`SiteEvidence`: its
domain, merged text, whether it has any text, and its outbound
endpoints.  :class:`Website` satisfies it, and so does a shard row
(:class:`repro.io.SiteRow`) without building any page objects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Protocol

from repro.exceptions import DataGenerationError
from repro.web.page import WebPage

__all__ = ["SiteEvidence", "Website"]


class SiteEvidence(Protocol):
    """What verification reads of one site (paper §4, Algorithm 1).

    The pages merged into one summary document, and the outbound links
    pruned to second-level domains, plus whether any page has text at
    all (a textless site gets a network-only verdict).
    """

    @property
    def domain(self) -> str:
        """Registrable domain of the site."""

    def merged_text(self) -> str:
        """Text of all pages joined by newlines."""

    def has_text(self) -> bool:
        """True when any page has non-blank text."""

    def outbound_endpoints(self) -> tuple[str, ...]:
        """Distinct external second-level domains, in first-seen order."""


@dataclass(frozen=True, slots=True)
class Website:
    """A crawled website: one registrable domain and its pages.

    Attributes:
        domain: registrable domain (e.g. ``"healthmart-rx.com"``).
        pages: crawled pages, all belonging to :attr:`domain`.
    """

    domain: str
    pages: tuple[WebPage, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for page in self.pages:
            if page.domain != self.domain:
                raise DataGenerationError(
                    f"page {page.url!r} does not belong to domain {self.domain!r}"
                )

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    def merged_text(self) -> str:
        """Concatenated text of all pages (paper's summarization input)."""
        return "\n".join(page.text for page in self.pages)

    def has_text(self) -> bool:
        """True when any page has non-blank text."""
        return any(page.text.strip() for page in self.pages)

    def outbound_endpoints(self) -> tuple[str, ...]:
        """Distinct external second-level domains linked from any page.

        This is ``outboundLinks`` + ``endpoint`` of Algorithm 1, already
        deduplicated, in first-seen order.
        """
        return tuple(
            dict.fromkeys(
                chain.from_iterable(page.external_endpoints() for page in self.pages)
            )
        )

    def outbound_endpoint_counts(self) -> Counter[str]:
        """Multiplicity of external endpoints (how often each is linked)."""
        return Counter(
            chain.from_iterable(page.external_endpoints() for page in self.pages)
        )

    def front_page(self) -> WebPage | None:
        """The first crawled page (by convention the site root), if any."""
        return self.pages[0] if self.pages else None
