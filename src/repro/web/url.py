"""URL parsing and second-level-domain extraction.

The paper's network analysis (Section 4.2, Algorithm 1) prunes the link
feature space by mapping every outbound URL to its *endpoint*: the
second-level domain of the link target.  For example::

    endpoint("http://www.fda.gov/forconsumers/updates/ucm149202.htm")
    -> "fda.gov"

This module implements that mapping without any network access.  It
understands a small embedded list of multi-part public suffixes
(``co.uk``-style) so that ``shop.example.co.uk`` maps to
``example.co.uk`` rather than ``co.uk``.

Two host forms are not domain names and get their own rules:

* **userinfo** — everything up to the last ``@`` of the authority
  (``user[:password]@``) is dropped before the port, so both
  ``http://good.com@evil.com/x`` and ``http://user:pw@evil.com:8080/``
  name the host ``evil.com``; credentials never survive a parse.
* **IPv4 literals** — a dotted-quad host (``10.0.0.1``) is its own
  registered domain, so unrelated addresses never collapse into one
  endpoint such as ``0.1``.

Each :class:`ParsedURL` computes its registered domain once, when it is
built, so mapping a link to its endpoint is one :func:`parse_url` lookup
plus an attribute read.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from repro.exceptions import InvalidURLError
from repro.sanitizers import sanitizes

__all__ = [
    "ParsedURL",
    "parse_url",
    "endpoint",
    "resolve_url",
    "normalize_url",
]

#: Multi-label public suffixes that need three labels for a registrable
#: domain.  This is intentionally a small curated subset; the synthetic
#: web only emits domains covered here or plain two-label domains.
_MULTI_PART_SUFFIXES = frozenset(
    {
        "co.uk",
        "org.uk",
        "ac.uk",
        "gov.uk",
        "com.au",
        "net.au",
        "org.au",
        "co.jp",
        "co.in",
        "co.nz",
        "com.br",
        "com.cn",
        "com.mx",
    }
)

_ALLOWED_SCHEMES = ("http", "https")

_IPV4_RE = re.compile(r"\d{1,3}(?:\.\d{1,3}){3}", re.ASCII)
_NON_HIERARCHICAL_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9+.-]*:")


@dataclass(frozen=True, slots=True)
class ParsedURL:
    """A parsed absolute URL.

    Attributes:
        scheme: ``"http"`` or ``"https"``.
        host: full host name, lowercased (e.g. ``"www.fda.gov"``).
        path: path component including the leading slash (``"/"`` if
            the URL had no explicit path).

    The registered domain is computed once, at construction, and kept
    out of equality, hashing and ``repr``.
    """

    scheme: str
    host: str
    path: str
    _domain: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_domain", _registered_domain(self.host))

    @property
    def registered_domain(self) -> str:
        """The second-level (registrable) domain of :attr:`host`.

        Raises:
            InvalidURLError: when the host has none (a bare public
                suffix such as ``co.uk``, or a single label).
        """
        if self._domain is None:
            raise InvalidURLError(f"host {self.host!r} has no registrable domain")
        return self._domain

    def __str__(self) -> str:
        return f"{self.scheme}://{self.host}{self.path}"


@sanitizes("path")
@functools.lru_cache(maxsize=65536)
def parse_url(url: str) -> ParsedURL:
    """Parse an absolute ``http(s)`` URL.

    Results are memoized (bounded LRU): parsing is pure, the returned
    :class:`ParsedURL` is frozen, and link-graph construction calls this
    on the same handful of URL strings hundreds of thousands of times.
    Failed parses raise and are never cached.

    Declared a sanitizer for the ``path`` sink category: parsing
    rejects everything but a lowercased ``scheme://host/path`` shape,
    so the result cannot smuggle path separator tricks into a
    filesystem path.  It deliberately does **not** clear ``ssrf`` — a
    well-formed URL is still an arbitrary fetch target; only the
    crawler's registrable-domain guard clears that.

    Args:
        url: the URL text.

    Returns:
        A :class:`ParsedURL`.

    Raises:
        InvalidURLError: if the URL is relative, has an unsupported
            scheme, or has an empty/invalid host.
    """
    if not isinstance(url, str) or not url.strip():
        raise InvalidURLError(f"empty or non-string URL: {url!r}")
    text = url.strip()
    if "://" not in text:
        raise InvalidURLError(f"relative or scheme-less URL: {url!r}")
    scheme, _, rest = text.partition("://")
    scheme = scheme.lower()
    if scheme not in _ALLOWED_SCHEMES:
        raise InvalidURLError(f"unsupported scheme {scheme!r} in {url!r}")
    # Strip fragment and query before splitting host/path.
    rest = rest.split("#", 1)[0].split("?", 1)[0]
    host, slash, path = rest.partition("/")
    host = host.rpartition("@")[2].lower().rstrip(".")  # drop any userinfo
    if ":" in host:  # drop an explicit port
        host = host.split(":", 1)[0]
    if not host or "" in host.split("."):
        raise InvalidURLError(f"invalid host in URL: {url!r}")
    if "." not in host:
        raise InvalidURLError(f"host has no dot (not a public domain): {url!r}")
    return ParsedURL(scheme=scheme, host=host, path=(slash + path) if slash else "/")


def _registered_domain(host: str) -> str | None:
    """The registrable (second-level) domain of ``host``, or None.

    None for a single label or a bare public suffix; an IPv4 literal is
    its own registered domain.
    """
    host = host.lower()
    # Every IPv4 literal ends in a digit; no other host needs the regex.
    if host[-1:].isdigit() and _IPV4_RE.fullmatch(host):
        return host
    labels = host.split(".")
    if len(labels) < 2:
        return None
    two = ".".join(labels[-2:])
    if two in _MULTI_PART_SUFFIXES:
        return ".".join(labels[-3:]) if len(labels) >= 3 else None
    return two


def endpoint(url: str) -> str:
    """Map a URL to its second-level domain (the paper's ``endpoint()``).

    This is the pruning step of Algorithm 1: all pages of one domain are
    assumed to share one trustiness value, so links are collapsed to the
    target's registrable domain.

    >>> endpoint("http://www.fda.gov/forconsumers/updates.htm")
    'fda.gov'
    """
    return parse_url(url).registered_domain


def normalize_url(url: str) -> str:
    """Canonical ``host/path`` key for visited-set and cache lookups.

    Scheme, port, query, and fragment are dropped by :func:`parse_url`;
    a trailing slash is insignificant.  Two URLs that normalize equal
    address the same resource for crawling purposes.

    >>> normalize_url("HTTPS://www.Shop.com/a/?q=1")
    'www.shop.com/a'

    Raises:
        InvalidURLError: when the URL does not parse.
    """
    parsed = parse_url(url)
    path = parsed.path.rstrip("/") or "/"
    return f"{parsed.host}{path}"


def resolve_url(base: str, href: str) -> str:
    """Resolve a (possibly relative) hyperlink against its page URL.

    Handles the forms real pages contain: absolute URLs (returned
    normalized), protocol-relative (``//host/path``), root-relative
    (``/path``), and path-relative (``sub/page``, ``../up``).  Query
    strings and fragments are dropped, matching :func:`parse_url`.

    >>> resolve_url("https://www.shop.com/a/b", "../c")
    'https://www.shop.com/c'
    >>> resolve_url("https://www.shop.com/a/", "//cdn.net/x")
    'https://cdn.net/x'

    Raises:
        InvalidURLError: when the base is invalid or the resolved
            result is not a usable http(s) URL.
    """
    return str(_resolve(parse_url(base), href))


def _resolve(parsed_base: ParsedURL, href: str) -> ParsedURL:
    """:func:`resolve_url` against an already parsed base, unserialized.

    The one resolver behind :func:`resolve_url` and every link view of
    :class:`~repro.web.page.WebPage`: an absolute or protocol-relative
    href costs one :func:`parse_url` lookup, a relative one none.
    """
    text = href.strip()
    if not text:
        raise InvalidURLError("empty href")
    if "://" in text:
        return parse_url(text)
    if text.startswith("//"):
        return parse_url(f"{parsed_base.scheme}:{text}")
    if _NON_HIERARCHICAL_RE.match(text):
        # Non-hierarchical scheme (mailto:, javascript:, tel:, ...).
        raise InvalidURLError(f"unresolvable href scheme: {href!r}")
    text = text.split("#", 1)[0].split("?", 1)[0]
    if not text:
        # Fragment-/query-only link: resolves to the page itself.
        return parsed_base
    if text.startswith("/"):
        path = text
    else:
        # Path-relative: resolve against the base path's directory.
        directory = parsed_base.path.rsplit("/", 1)[0]
        path = f"{directory}/{text}"
    # Normalize "." and ".." segments.
    segments: list[str] = []
    for segment in path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if segments:
                segments.pop()
            continue
        segments.append(segment)
    normalized = "/" + "/".join(segments)
    if path.endswith("/") and normalized != "/":
        normalized += "/"
    return ParsedURL(scheme=parsed_base.scheme, host=parsed_base.host, path=normalized)
