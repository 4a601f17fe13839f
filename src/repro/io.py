"""Persistence: save/load models and export/import corpora.

* Fitted models (any library object, e.g. a
  :class:`~repro.core.verifier.PharmacyVerifier`) round-trip through
  pickle with a format header and version check, so stale artifacts
  fail loudly instead of mis-predicting.
* Corpora export to a line-oriented JSON format (one pharmacy per line:
  domain, label, ground-truth flags, pages) so labelled crawls can be
  shared without pickling arbitrary code.  Every reader of that format
  (:func:`import_corpus` and the sharded corpus reader) validates each
  row with :func:`parse_site_row`, which keeps it as a
  :class:`SiteRow`: verifiable evidence that builds page objects only
  on demand.

All writers are *atomic*: content goes to a sibling temporary file that
is :func:`os.replace`-d over the destination, so a crash mid-write
never leaves a truncated artifact for a later run to trip over.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from itertools import chain
from pathlib import Path
from typing import Any, Callable, IO, NamedTuple

from repro.data.corpus import PharmacyCorpus
from repro.data.synthesis import PharmacyRecord
from repro.exceptions import DataGenerationError, ValidationError
from repro.web.page import WebPage, _external_endpoints
from repro.web.site import Website
from repro.web.url import ParsedURL, parse_url

__all__ = [
    "save_model",
    "load_model",
    "export_corpus",
    "import_corpus",
    "atomic_write",
    "atomic_write_text",
    "site_record_to_row",
    "site_record_from_row",
    "parse_site_row",
    "SiteRow",
]

_MAGIC = "repro-model"
_FORMAT_VERSION = 2


class PersistenceError(ValidationError):
    """Raised for unreadable or incompatible persisted artifacts.

    Subclasses :class:`~repro.exceptions.ValidationError`: a corrupt
    artifact is invalid input, and callers validating inputs wholesale
    should catch it without importing this module.
    """


def atomic_write(
    path: str | Path, mode: str, writer: Callable[[IO[Any]], None], **open_kwargs: Any
) -> None:
    """Write via a sibling temp file + :func:`os.replace` (atomic on
    POSIX within one filesystem); the temp file is removed on failure.

    The temp name is unique per writer (:func:`tempfile.mkstemp`), so
    concurrent writers to the same destination never clobber each
    other's half-written file — each replace lands a complete
    artifact, last writer wins.

    Args:
        path: destination file.
        mode: ``open`` mode for the temp file (e.g. ``"w"``, ``"wb"``).
        writer: callback receiving the open temp-file handle.
        open_kwargs: forwarded to :func:`open` (e.g. ``encoding``).
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, mode, **open_kwargs) as fh:
            writer(fh)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, content: str) -> None:
    """Atomically replace ``path`` with UTF-8 ``content``."""
    atomic_write(path, "w", lambda fh: fh.write(content), encoding="utf-8")


def save_model(model: Any, path: str | Path) -> None:
    """Pickle a (fitted) model with a format header (atomically)."""
    payload = {
        "magic": _MAGIC,
        "format_version": _FORMAT_VERSION,
        "model": model,
    }
    atomic_write(path, "wb", lambda fh: pickle.dump(payload, fh))


def load_model(path: str | Path) -> Any:
    """Load a model saved by :func:`save_model`.

    Raises:
        PersistenceError: missing file, wrong format, or version skew.
    """
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError as exc:
        raise PersistenceError(f"no such model file: {path}") from exc
    except (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        ValueError,
    ) as exc:
        # Truncated or corrupt pickles surface any of these, depending
        # on where the stream breaks.
        raise PersistenceError(f"corrupt model file: {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise PersistenceError(f"not a repro model file: {path}")
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise PersistenceError(
            f"model format version {version} != supported {_FORMAT_VERSION}"
        )
    return payload["model"]


#: Ground-truth role flags of a row, in the order rows store them.
_FLAGS = (
    "is_affiliate_hub",
    "is_affiliate_member",
    "is_outlier",
    "is_asocial",
    "is_trust_imitator",
)


def site_record_to_row(site: Website, record: PharmacyRecord) -> dict[str, Any]:
    """The JSON-line row of one (site, record) pair.

    Shared by :func:`export_corpus` and the sharded corpus writers in
    :mod:`repro.data.sharding`, so every on-disk pharmacy row uses one
    format regardless of which path wrote it.
    """
    return {
        "domain": record.domain,
        "label": record.label,
        "flags": {name: getattr(record, name) for name in _FLAGS},
        "pages": [
            {"url": p.url, "text": p.text, "links": list(p.links)}
            for p in site.pages
        ],
    }


class SiteRow(NamedTuple):
    """One validated pharmacy row, kept as parsed JSON.

    Satisfies :class:`~repro.web.site.SiteEvidence`, so verification
    scores it directly; :meth:`to_site` and :meth:`to_record` build the
    :class:`Website` and :class:`PharmacyRecord` only when a caller asks
    for objects.

    Page URLs are checked when evidence is read, exactly as building
    the :class:`Website` checks them: :meth:`outbound_endpoints` and
    :meth:`to_site` raise :class:`~repro.exceptions.InvalidURLError`
    for a page URL that does not parse and
    :class:`~repro.exceptions.DataGenerationError` for a page on a
    foreign domain.

    A named tuple rather than a frozen dataclass: as immutable, and a
    batch pass builds one per site at under half the cost.

    Attributes:
        domain: registrable domain of the pharmacy.
        label: oracle label (1 legitimate, 0 illegitimate).
        flags: ground-truth role flags as stored in the row.
        pages: ``(url, text, links)`` per page, in row order.
    """

    domain: str
    label: int
    flags: dict[str, Any]
    pages: tuple[tuple[str, str, tuple[str, ...]], ...]

    def merged_text(self) -> str:
        """Concatenated text of all pages (as :meth:`Website.merged_text`)."""
        return "\n".join(text for _, text, _ in self.pages)

    def has_text(self) -> bool:
        """True when any page has non-blank text."""
        return any(text.strip() for _, text, _ in self.pages)

    def outbound_endpoints(self) -> tuple[str, ...]:
        """Equal to ``self.to_site().outbound_endpoints()``.

        One :func:`~repro.web.url.parse_url` per page origin, not per
        page: a page URL that starts with an already parsed page's
        origin ``f"{scheme}://{host}/"`` parses to that host (see
        :func:`~repro.web.page._external_endpoints` for why), so it
        shares that page's base.  A link's endpoint depends on its base
        only through the scheme and host (a relative href stays on the
        base's host, whatever its path), and so does ownership, so a
        shared base changes neither.

        Errors keep :meth:`to_site`'s precedence: every page URL is
        parsed or origin-matched before any ownership check, and the
        checks run in page order, once per origin.  Nothing is memoized
        on the row.
        """
        domain = self.domain
        origins: dict[str, tuple[ParsedURL, str]] = {}
        bases = []
        for url, _, _ in self.pages:
            for origin, (base, _) in origins.items():
                if url.startswith(origin):
                    break
            else:
                base = parse_url(url)
                origins.setdefault(f"{base.scheme}://{base.host}/", (base, url))
            bases.append(base)
        for base, url in origins.values():
            if base.registered_domain != domain:
                raise DataGenerationError(
                    f"page {url!r} does not belong to domain {domain!r}"
                )
        return tuple(
            dict.fromkeys(
                chain.from_iterable(
                    _external_endpoints(base, domain, links)
                    for base, (_, _, links) in zip(bases, self.pages)
                )
            )
        )

    def to_site(self) -> Website:
        """The row's :class:`Website` (validates every page URL)."""
        return Website(
            domain=self.domain,
            pages=tuple(
                WebPage(url=url, text=text, links=links)
                for url, text, links in self.pages
            ),
        )

    def to_record(self) -> PharmacyRecord:
        """The row's ground-truth :class:`PharmacyRecord`."""
        flags = self.flags
        return PharmacyRecord(
            domain=self.domain,
            label=self.label,
            **{name: bool(flags.get(name, False)) for name in _FLAGS},
        )


def _malformed(where: str, why: str) -> PersistenceError:
    return PersistenceError(f"malformed row at {where}: {why}")


def parse_site_row(row: Any, where: str = "row") -> SiteRow:
    """Validate one decoded JSON row written by :func:`site_record_to_row`.

    The one row parser of every corpus reader.  It checks structure and
    types only; page URLs are checked when the row's evidence or
    objects are read (see :class:`SiteRow`).

    Args:
        row: the decoded JSON value of one line.
        where: location named in errors, e.g. ``"shard.jsonl:3"``.

    Raises:
        PersistenceError: the row is not an object, lacks ``domain``,
            ``label`` or ``pages``, or has a field of the wrong type.
    """
    if not isinstance(row, dict):
        raise _malformed(where, "not a JSON object")
    try:
        domain = row["domain"]
        raw_label = row["label"]
        raw_pages = row["pages"]
    except KeyError as exc:
        raise _malformed(where, f"missing {exc}") from None
    flags = row.get("flags", {})
    if not isinstance(domain, str):
        raise _malformed(where, "domain is not a string")
    if not isinstance(raw_pages, list):
        raise _malformed(where, "pages is not a list")
    if not isinstance(flags, dict):
        raise _malformed(where, "flags is not an object")
    try:
        label = int(raw_label)
    except (TypeError, ValueError):
        raise _malformed(where, f"label {raw_label!r} is not an integer") from None
    pages = []
    for page in raw_pages:
        if not isinstance(page, dict):
            raise _malformed(where, "page is not a JSON object")
        try:
            url, text, links = page["url"], page["text"], page["links"]
        except KeyError as exc:
            raise _malformed(where, f"page missing {exc}") from None
        if not (
            isinstance(url, str)
            and isinstance(text, str)
            and isinstance(links, list)
            and all(isinstance(href, str) for href in links)
        ):
            raise _malformed(where, "page url, text or links of the wrong type")
        pages.append((url, text, tuple(links)))
    return SiteRow(domain, label, flags, tuple(pages))


def site_record_from_row(
    row: Any, where: str = "row"
) -> tuple[Website, PharmacyRecord]:
    """Parse one row written by :func:`site_record_to_row` into objects.

    Raises:
        PersistenceError: structurally malformed row (see
            :func:`parse_site_row`).
        InvalidURLError: a page URL that does not parse.
        DataGenerationError: a page on a foreign domain.
    """
    parsed = parse_site_row(row, where)
    return parsed.to_site(), parsed.to_record()


def export_corpus(corpus: PharmacyCorpus, path: str | Path) -> None:
    """Write a corpus as JSON lines (one pharmacy per line), atomically."""

    def write(fh: IO[str]) -> None:
        header = {"format": "repro-corpus", "version": 1, "name": corpus.name}
        fh.write(json.dumps(header) + "\n")
        for site, record in zip(corpus.sites, corpus.records):
            fh.write(json.dumps(site_record_to_row(site, record)) + "\n")

    atomic_write(path, "w", write, encoding="utf-8")


def import_corpus(path: str | Path) -> PharmacyCorpus:
    """Read a corpus written by :func:`export_corpus`.

    Raises:
        PersistenceError: unreadable path (missing, a directory, no
            permission), malformed file or unsupported version.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise PersistenceError(
            f"cannot read corpus file {path}: {exc.strerror or exc} "
            "(train reads a .jsonl corpus; verify, rank and serve also "
            "read a --shards directory)"
        ) from exc
    if not lines:
        raise PersistenceError(f"empty corpus file: {path}")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"malformed corpus header at {path}:1") from exc
    if (
        not isinstance(header, dict)
        or header.get("format") != "repro-corpus"
        or header.get("version") != 1
    ):
        raise PersistenceError(f"unsupported corpus format at {path}:1")

    sites: list[Website] = []
    records: list[PharmacyRecord] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise PersistenceError(
                f"malformed corpus row at {path}:{line_no}"
            ) from exc
        site, record = site_record_from_row(row, f"{path}:{line_no}")
        sites.append(site)
        records.append(record)
    return PharmacyCorpus(
        name=str(header.get("name", "imported")),
        sites=tuple(sites),
        records=tuple(records),
    )
