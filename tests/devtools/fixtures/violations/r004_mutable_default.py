"""Seeded R004 violation: mutable default argument (the default is
only *read* here; R004 flags the shape, mutated or not)."""

from __future__ import annotations


def collect(item: str, bucket: list[str] = []) -> list[str]:
    """Return a new list; the shared default is never mutated."""
    return bucket + [item]
