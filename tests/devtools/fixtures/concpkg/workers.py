"""Worker callables and their helpers.

Seeded hazards (each asserted by ``test_conc_rules.py``):

* ``_record`` / ``accumulate`` — C001 true positives: the worker call
  tree mutates ``state._RESULT_CACHE``, directly and through a
  parameter whose default aliases it.
* ``_draw_noise`` — C003 true positive: unseeded ``default_rng()``
  gives every worker process (and every run) a different stream.
  ``_draw_seeded`` is the near-miss: seeded per item, bit-stable.
* ``dump_partial`` — C004 true positive: a raw write-mode ``open``
  that tears on crash.  ``read_blob`` (read-mode) and
  ``export_report`` (write-mode but unreachable from any worker) are
  the near-misses; ``dump_suppressed`` shows the suppression comment.
* ``locked_worker`` — C006 true positive: its default argument
  constructs a ``threading.Lock``, which cannot cross a pickle/fork
  boundary.  ``scale_item`` is the picklable near-miss used through
  ``functools.partial``.
"""

from __future__ import annotations

import os

from numpy.random import default_rng
from threading import Lock

from concpkg.state import _CONFIG, _RESULT_CACHE, TALLY


def _record(item: int) -> None:
    _RESULT_CACHE[item] = item * 2


def accumulate(item: int, acc=_RESULT_CACHE) -> None:
    acc[item] = True


def untouched_mutator() -> None:
    # C001 near-miss: mutates shared state, but no worker reaches it.
    TALLY.append(1)


def read_config() -> int:
    # C001 near-miss: workers *read* forked module state all the time.
    return _CONFIG["scale"]


def _draw_noise() -> float:
    return float(default_rng().random())


def _draw_seeded(seed: int) -> float:
    return float(default_rng(seed).random())


def dump_partial(path: str, payload: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def dump_suppressed(path: str, payload: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # repro-conc: disable=C004
        fh.write(payload)


def read_blob(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def export_report(path: str, rows: list[str]) -> None:
    # C004 near-miss: raw write, but nothing ships this to a worker.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows))


def locked_worker(item: int, lock=Lock()) -> int:
    with lock:
        return item


def scale_item(item: int, scale: int = 1) -> int:
    return item * scale


def work(item: int, out_dir: str | None = None) -> float:
    """The hazardous worker: reaches every true positive above."""
    _record(item)
    accumulate(item)
    if out_dir is not None:
        dump_partial(os.path.join(out_dir, f"{item}.txt"), str(item))
        dump_suppressed(os.path.join(out_dir, f"{item}.ok"), str(item))
    return item * read_config() + _draw_noise()


def work_seeded(item: int) -> float:
    """The disciplined near-miss worker: seeded, read-only, write-free."""
    return item * 2 + _draw_seeded(item)
