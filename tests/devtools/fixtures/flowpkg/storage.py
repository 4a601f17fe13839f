"""Path sink two calls away from the untrusted data."""

from __future__ import annotations


def cache_path(name):
    return "cache/" + name


def store(name, content):
    path = cache_path(name)
    with open(path, "w") as fh:  # T001 when `name` is tainted
        fh.write(content)


def store_quiet(name, content):
    path = cache_path(name)
    with open(path, "w") as fh:  # repro-flow: disable=T001
        fh.write(content)
