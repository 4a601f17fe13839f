"""Content-addressed on-disk feature cache.

Cross-validation folds, the table sweeps, and the nine ablation suites
repeatedly extract the *same* per-document features (summary documents,
n-gram graphs, TF-IDF token streams) from the same content.  This
module memoizes those extractions on disk, keyed by::

    sha256(kind, content fingerprint, extractor params, code version)

so a cache entry can only be served when the input content, every
extractor knob, *and* the extractor implementation are all unchanged.
Bump :data:`CODE_VERSION` whenever an extractor's output for identical
inputs changes; stale entries then miss instead of poisoning results.

Entries are pickles written through the atomic writers of
:mod:`repro.io` (sibling temp file + ``os.replace``), so a crash
mid-write never leaves a truncated artifact; corrupt or stale entries
are treated as misses and silently recomputed.

The cache is opt-in: pipelines take an optional
:class:`FeatureCache` and behave identically with it on or off —
cached and fresh runs return equal values by construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.exceptions import ValidationError
from repro.io import PersistenceError, load_model, save_model

__all__ = [
    "CODE_VERSION",
    "FeatureCache",
    "content_fingerprint",
    "params_fingerprint",
]

#: Version of the feature-extraction code paths guarded by this cache.
#: Bump on any change that alters extractor output for identical input.
CODE_VERSION = "1"


def content_fingerprint(parts: Iterable[str | bytes]) -> str:
    """Collision-resistant digest of an ordered content stream.

    Args:
        parts: the content to fingerprint (document texts, token
            streams, serialized pages …), in a canonical order.

    Returns:
        Hex SHA-256 of the length-prefixed concatenation (length
        prefixes prevent ``("ab", "c")`` colliding with ``("a", "bc")``).
    """
    digest = hashlib.sha256()
    for part in parts:
        raw = part.encode("utf-8") if isinstance(part, str) else part
        digest.update(len(raw).to_bytes(8, "big"))
        digest.update(raw)
    return digest.hexdigest()


def params_fingerprint(params: Mapping[str, Any]) -> str:
    """Canonical digest of an extractor-parameter mapping.

    Parameters are serialized as sorted-key JSON so dict ordering never
    changes the key; values must therefore be JSON-representable.

    Raises:
        ValidationError: for non-JSON-serializable parameter values.
    """
    try:
        canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"cache params must be JSON-serializable: {exc}"
        ) from exc
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`FeatureCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for logs and reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }


class FeatureCache:
    """Directory-backed content-addressed memoization.

    Args:
        root: cache directory (created on first store).

    Entries are sharded two hex characters deep
    (``<root>/ab/abcdef….pkl``) to keep directory fan-out sane for
    large corpora.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self.stats = CacheStats()

    @property
    def root(self) -> Path:
        """The cache directory."""
        return self._root

    def key(
        self,
        kind: str,
        content: str,
        params: Mapping[str, Any],
        code_version: str = CODE_VERSION,
    ) -> str:
        """Full cache key for one extraction.

        Args:
            kind: extractor family (``"summary"``, ``"ngg"``, …);
                namespaces otherwise-identical inputs.
            content: content fingerprint from
                :func:`content_fingerprint`.
            params: extractor parameters (JSON-serializable).
            code_version: implementation version of the extractor.
        """
        return params_fingerprint(
            {
                "kind": kind,
                "content": content,
                "params": params_fingerprint(params),
                "code_version": code_version,
            }
        )

    def _path(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> Any | None:
        """The cached value for ``key``, or ``None`` on a miss.

        Corrupt, truncated, or format-skewed entries count as misses
        (and are unlinked so the rewritten entry is clean).
        """
        path = self._path(key)
        try:
            value = load_model(path)
        except PersistenceError:
            if path.exists():
                # Corrupt (not merely absent): drop it.
                path.unlink(missing_ok=True)
                self.stats.evictions += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def store(self, key: str, value: Any) -> None:
        """Persist ``value`` under ``key`` (atomically)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_model(value, path)
        self.stats.stores += 1

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and storing on miss."""
        value = self.load(key)
        if value is None:
            value = compute()
            self.store(key, value)
        return value
