"""Web page model used by the crawler and the synthetic web."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.exceptions import InvalidURLError
from repro.web.url import ParsedURL, _resolve, parse_url

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
        return parse_url(self.url).registered_domain

    def _targets(self, base: ParsedURL) -> Iterator[ParsedURL]:
        """Each link resolved against ``base``; unresolvable ones dropped."""
        for href in self.links:
            try:
                yield _resolve(base, href)
            except InvalidURLError:
                continue

    def resolved_links(self) -> tuple[str, ...]:
        """The page's links as absolute URLs.

        Relative hrefs (``/cart``, ``../about``, ``//cdn.net/x``) are
        resolved against the page URL; unresolvable entries (mailto:,
        javascript:, garbage) are dropped.
        """
        return tuple(map(str, self._targets(parse_url(self.url))))

    def internal_links(self) -> tuple[str, ...]:
        """Links that stay on this page's registrable domain."""
        base = parse_url(self.url)
        own = base.registered_domain
        return tuple(str(t) for t in self._targets(base) if t._domain == own)

    def external_links(self) -> tuple[str, ...]:
        """Links that leave this page's registrable domain.

        These are the *outbound links* of Algorithm 1 in the paper.
        Links to a bare public suffix have no endpoint and are dropped.
        """
        base = parse_url(self.url)
        own = base.registered_domain
        return tuple(
            str(t)
            for t in self._targets(base)
            if (e := t._domain) is not None and e != own
        )

    def external_endpoints(self) -> tuple[str, ...]:
        """The endpoint of each of :meth:`external_links`, in order.

        Equal to ``tuple(endpoint(u) for u in self.external_links())``,
        but each endpoint is read off the link's parse — one
        :func:`~repro.web.url.parse_url` lookup per absolute link and
        none per relative one — by the same test that decides the link
        is external.
        """
        base = parse_url(self.url)
        return tuple(_external_endpoints(base, base.registered_domain, self.links))


def _external_endpoints(
    base: ParsedURL, own: str, links: Iterable[str]
) -> Iterator[str]:
    """Endpoints of the ``links`` of a page at ``base`` that leave ``own``.

    The one per-page endpoint rule, shared by
    :meth:`WebPage.external_endpoints` and the shard-row evidence of
    :class:`repro.io.SiteRow`: each href is resolved against ``base``
    (unresolvable ones dropped), and its registered domain is yielded
    unless it is ``own`` or a bare public suffix.  ``own`` must be
    ``base``'s registered domain.

    Two kinds of href are skipped without a parse, and both skips are
    exact:

    * **No ``//``** (``/cart``, ``../about``, ``#top``, ``mailto:x``).
      Such an href is neither absolute (``"://"`` in it) nor
      protocol-relative (``//`` after stripping), so
      :func:`~repro.web.url._resolve` either raises on it or returns a
      URL on ``base.host``, whose domain is ``own``.
    * **Same origin**: it starts with ``f"{base.scheme}://{base.host}/"``.
      A parsed host holds no ``/ # ? @ :``, is lowercased (and
      lowercasing is idempotent) and has no trailing dot, so re-parsing
      such an href splits off exactly ``base.host`` as its host, and
      its domain is again ``own``.  An href that differs in case or
      leading whitespace only misses the prefix and takes the full
      resolve, which gives the same answer.
    """
    same_origin = f"{base.scheme}://{base.host}/"
    for href in links:
        if "//" not in href or href.startswith(same_origin):
            continue
        try:
            e = _resolve(base, href)._domain
        except InvalidURLError:
            continue
        if e is not None and e != own:
            yield e
