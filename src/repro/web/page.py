"""Web page model used by the crawler and the synthetic web."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import InvalidURLError
from repro.web.url import endpoint, parse_url, resolve_url

__all__ = ["WebPage"]


@dataclass(frozen=True, slots=True)
class WebPage:
    """One fetched (or synthesized) HTML page, reduced to what the
    verification pipeline consumes.

    Attributes:
        url: absolute URL of the page.
        text: visible text content of the page (HTML already stripped).
        links: absolute URLs of all hyperlinks found on the page, in
            document order.  May point within the same domain or to
            external domains.
    """

    url: str
    text: str
    links: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        parse_url(self.url)  # validate eagerly; raises InvalidURLError

    @property
    def domain(self) -> str:
        """Second-level domain this page belongs to."""
        return endpoint(self.url)

    def resolved_links(self) -> tuple[str, ...]:
        """The page's links as absolute URLs.

        Relative hrefs (``/cart``, ``../about``, ``//cdn.net/x``) are
        resolved against the page URL; unresolvable entries (mailto:,
        javascript:, garbage) are dropped.
        """
        resolved: list[str] = []
        for href in self.links:
            try:
                resolved.append(resolve_url(self.url, href))
            except InvalidURLError:
                continue
        return tuple(resolved)

    def internal_links(self) -> tuple[str, ...]:
        """Links that stay on this page's registrable domain."""
        own = self.domain
        return tuple(
            u for u in self.resolved_links() if _safe_endpoint(u) == own
        )

    def external_links(self) -> tuple[str, ...]:
        """Links that leave this page's registrable domain.

        These are the *outbound links* of Algorithm 1 in the paper.
        """
        own = self.domain
        return tuple(
            u
            for u in self.resolved_links()
            if (e := _safe_endpoint(u)) is not None and e != own
        )

    def external_endpoints(self) -> tuple[str, ...]:
        """The endpoint of each of :meth:`external_links`, in order.

        Equal to ``tuple(endpoint(u) for u in self.external_links())``,
        but each link's endpoint is computed once, by the same test that
        decides the link is external.
        """
        own = self.domain
        return tuple(
            e
            for u in self.resolved_links()
            if (e := _safe_endpoint(u)) is not None and e != own
        )


def _safe_endpoint(url: str) -> str | None:
    """``endpoint`` that swallows malformed URLs (returns None)."""
    try:
        return endpoint(url)
    except InvalidURLError:
        return None
