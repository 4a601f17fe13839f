"""Baseline (grandfathered-findings) support for the analyzers.

A baseline is a committed JSON file listing fingerprints of known
violations.  ``repro-analyze`` subtracts baselined findings from its
report, so a rule can be introduced without first fixing (or while
deliberately keeping) every historical hit; any *new* violation still
fails the build.  Rule IDs are disjoint across the four tools, so one
file, ``.repro-baseline.json``, gates them all.  Regenerate it with
``python -m repro.devtools.analyze --write-baseline``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.findings import Finding
from repro.exceptions import ValidationError

__all__ = ["Baseline", "DEFAULT_BASELINE_NAME"]

DEFAULT_BASELINE_NAME = ".repro-baseline.json"

_FORMAT_VERSION = 1


class Baseline:
    """An allowlist of grandfathered finding fingerprints."""

    def __init__(self, entries: Iterable[dict[str, object]] = ()) -> None:
        self._entries: list[dict[str, object]] = [dict(e) for e in entries]
        self._fingerprints = {str(e["fingerprint"]) for e in self._entries}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint() in self._fingerprints

    @property
    def entries(self) -> tuple[dict[str, object], ...]:
        """The raw baseline entries, in file order."""
        return tuple(self._entries)

    def filter(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """Split ``findings`` into (new, grandfathered)."""
        new: list[Finding] = []
        old: list[Finding] = []
        for finding in findings:
            (old if finding in self else new).append(finding)
        return new, old

    def stale_fingerprints(self, findings: Sequence[Finding]) -> list[str]:
        """Baseline entries no longer observed (fixed since recording)."""
        live = {finding.fingerprint() for finding in findings}
        return [
            str(e["fingerprint"])
            for e in self._entries
            if str(e["fingerprint"]) not in live
        ]

    @classmethod
    def from_findings(
        cls,
        findings: Sequence[Finding],
        justification: str = "",
        previous: "Baseline | None" = None,
    ) -> "Baseline":
        """Build a baseline grandfathering every given finding.

        A finding ``previous`` already holds keeps the justification
        recorded there; ``justification`` annotates the others.
        """
        recorded = {
            str(e["fingerprint"]): str(e["justification"])
            for e in (previous.entries if previous is not None else ())
            if e.get("justification")
        }
        entries = []
        for finding in sorted(
            findings, key=lambda f: (f.path, f.line, f.rule)
        ):
            entry: dict[str, object] = {
                "fingerprint": finding.fingerprint(),
                "rule": finding.rule,
                "path": finding.path,
                "symbol": finding.symbol,
                "message": finding.message,
            }
            note = recorded.get(finding.fingerprint(), justification)
            if note:
                entry["justification"] = note
            entries.append(entry)
        return cls(entries)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.exists():
            return cls()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"baseline {path} is not valid JSON: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("version") != _FORMAT_VERSION
            or not isinstance(payload.get("findings"), list)
        ):
            raise ValidationError(
                f"baseline {path} has an unsupported format; regenerate it "
                "with --write-baseline"
            )
        entries = []
        for entry in payload["findings"]:
            if not isinstance(entry, dict) or "fingerprint" not in entry:
                raise ValidationError(
                    f"baseline {path} contains an entry without a fingerprint"
                )
            entries.append(entry)
        return cls(entries)

    def save(self, path: Path) -> None:
        """Write the baseline as deterministic, diff-friendly JSON."""
        payload = {
            "version": _FORMAT_VERSION,
            "tool": "repro-analyze",
            "findings": self._entries,
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
