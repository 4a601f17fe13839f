"""Entrypoint module: ties sources to every sink cross-module."""

from __future__ import annotations

import time

from flowpkg import helpers, storage
from flowpkg.web import fetch_page as grab, refetch


def main(host):
    content = grab(host, "https://pharm.example/start")  # aliased import
    storage.store(content, "payload")  # -> T001 in storage.py
    storage.store_quiet(content, "payload")  # suppressed in storage.py
    refetch(host, content)  # -> T004 in web.py
    scores = helpers.sample_scores([1, 2, 3])  # -> transitive D001
    ordered = helpers.pick_order(scores)  # -> transitive D003
    return ordered


def elapsed_filter(scores):
    cutoff = time.time()  # near-miss: a wall-clock read is no finding
    return [score for score in scores if score < cutoff]
