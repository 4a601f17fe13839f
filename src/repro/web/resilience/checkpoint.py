"""Crawl checkpoint/resume.

A :class:`CrawlCheckpoint` is the crawler's loop state frozen to JSON:
the fetched pages, the visited set, the remaining frontier, and the
stat counters.  The crawler saves one (atomically, through
:func:`repro.io.atomic_write_text`) whenever a crawl stops early —
deadline hit, fetch budget exhausted — and a later crawl of the same
seed resumes from it without re-fetching a single completed page.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import CheckpointError
from repro.sanitizers import sanitizes
from repro.web.page import WebPage

__all__ = ["CrawlCheckpoint", "save_checkpoint", "load_checkpoint"]

_FORMAT = "repro-crawl-checkpoint"
_VERSION = 1


@dataclass(frozen=True, slots=True)
class CrawlCheckpoint:
    """Mid-crawl state for one site.

    Attributes:
        seed_url: the crawl's seed (resume validates it matches).
        domain: registrable domain being crawled.
        pages: pages fetched so far, in BFS order.
        visited: normalized URLs already enqueued or fetched.
        frontier: URLs still to fetch, in queue order.
        counters: stat counters accumulated so far (retries, failures,
            rejected links, ...), merged into the resumed crawl's stats.
        failed_urls: URLs already given up on, in encounter order.
    """

    seed_url: str
    domain: str
    pages: tuple[WebPage, ...]
    visited: frozenset[str]
    frontier: tuple[str, ...]
    counters: dict[str, int] = field(default_factory=dict)
    failed_urls: tuple[str, ...] = ()

    def to_json(self) -> str:
        """Serialize to a stable, human-inspectable JSON document."""
        return json.dumps(
            {
                "format": _FORMAT,
                "version": _VERSION,
                "seed_url": self.seed_url,
                "domain": self.domain,
                "pages": [
                    {"url": p.url, "text": p.text, "links": list(p.links)}
                    for p in self.pages
                ],
                "visited": sorted(self.visited),
                "frontier": list(self.frontier),
                "counters": dict(self.counters),
                "failed_urls": list(self.failed_urls),
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, source: str = "<memory>") -> "CrawlCheckpoint":
        """Parse a checkpoint serialized by :meth:`to_json`.

        Raises:
            CheckpointError: malformed JSON, wrong format, or version
                skew.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"malformed checkpoint {source}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            raise CheckpointError(f"not a crawl checkpoint: {source}")
        if payload.get("version") != _VERSION:
            raise CheckpointError(
                f"checkpoint version {payload.get('version')} != {_VERSION}: {source}"
            )
        try:
            pages = tuple(
                WebPage(url=p["url"], text=p["text"], links=tuple(p["links"]))
                for p in payload["pages"]
            )
            return cls(
                seed_url=payload["seed_url"],
                domain=payload["domain"],
                pages=pages,
                visited=frozenset(payload["visited"]),
                frontier=tuple(payload["frontier"]),
                counters={k: int(v) for k, v in payload.get("counters", {}).items()},
                failed_urls=tuple(payload.get("failed_urls", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"incomplete checkpoint {source}: {exc}") from exc


def save_checkpoint(checkpoint: CrawlCheckpoint, path: str | Path) -> None:
    """Atomically persist ``checkpoint`` to ``path``."""
    # Imported lazily: repro.io sits above the web layer's substrate
    # modules in import order (it pulls in repro.data at load time).
    from repro.io import atomic_write_text

    atomic_write_text(path, checkpoint.to_json() + "\n")


@sanitizes("*")
def load_checkpoint(path: str | Path) -> CrawlCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Declared a full sanitizer: a checkpoint is this library's own
    serialized state, written only through :func:`save_checkpoint` to an
    operator-chosen path.  :meth:`CrawlCheckpoint.from_json` rejects
    anything that is not a well-formed document of the expected format
    and version, and the crawler independently re-checks the seed/domain
    binding and re-runs every restored frontier URL through its
    same-site SSRF guard before fetching.

    Raises:
        CheckpointError: missing or unreadable file, malformed content.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise CheckpointError(f"no such checkpoint: {path}") from exc
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    return CrawlCheckpoint.from_json(text, source=str(path))
