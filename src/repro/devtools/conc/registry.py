"""Rule catalogue and shared configuration for ``repro-conc``.

The concurrency analyzer guards the two contracts the perf layer
documents but nothing verifies statically:

* :func:`repro.perf.pmap` is deterministic and order-stable **only
  if** worker callables are picklable, draw no ambient state, and
  write nothing the parent expects to observe (fork semantics: child
  mutations of globals silently vanish);
* :class:`repro.perf.FeatureCache` hits are correct **only if** every
  input the memoized computation reads is folded into the key.

Rules C001 and C003–C006 each police one way those contracts break.  Findings
are suppressed with ``# repro-conc: disable=C003`` comments (same
syntax as repro-lint/repro-flow, different marker).
"""

from __future__ import annotations

__all__ = [
    "CONC_RULES",
    "SUPPRESSION_MARKER",
    "MUTATOR_METHODS",
    "MUTABLE_FACTORIES",
    "EXECUTOR_FACTORIES",
    "FORK_UNSAFE_FACTORIES",
    "EXECUTION_KNOBS",
    "TEMPORAL_KEY_ATTRS",
    "ATOMIC_IO_EXEMPT_SUFFIXES",
    "WRITE_MODE_CHARS",
]

#: Marker recognised in suppression comments.
SUPPRESSION_MARKER = "repro-conc"

CONC_RULES: dict[str, str] = {
    "C001": (
        "worker-reachable code mutates shared module-level mutable state "
        "(in-place writes diverge or vanish across process boundaries)"
    ),
    "C003": (
        "nondeterminism (unseeded RNG, unordered iteration) "
        "reachable from a parallel worker — fork-divergent results"
    ),
    "C004": (
        "non-atomic file write in worker- or cache-reachable code; use "
        "repro.io atomic helpers (torn artifacts on crash or overlap)"
    ),
    "C005": (
        "cache key omits an input the memoized computation reads "
        "(stale hits when the omitted input changes)"
    ),
    "C006": (
        "unpicklable or fork-unsafe callable submitted to a process "
        "pool (lambda, nested function, or captured handle/lock)"
    ),
}

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "appendleft",
        "extendleft",
        "sort",
        "reverse",
    }
)

#: Callables whose result is a shared mutable container when assigned
#: at module level.
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)

#: Constructors that create a process/thread pool executor.
EXECUTOR_FACTORIES = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})

#: Constructors whose instances cannot cross a pickle/fork boundary
#: when captured in a submitted callable's defaults.
FORK_UNSAFE_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Semaphore",
        "BoundedSemaphore",
        "Condition",
        "Event",
        "Barrier",
        "open",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
    }
)

#: Parameter names that tune *how* a computation runs, never *what* it
#: computes — legitimately absent from cache keys (pmap is order-stable
#: at any worker count, so ``jobs`` cannot change a cached value).
EXECUTION_KNOBS = frozenset(
    {
        "jobs",
        "n_jobs",
        "workers",
        "max_workers",
        "chunksize",
        "executor",
        "pool",
        "verbose",
        "progress",
        "cache",
        "cache_dir",
        "cache_fingerprint",
        "timeout",
        "logger",
    }
)

#: Attribute names (after stripping leading underscores) that mark a
#: value as *temporal* — a snapshot epoch, content revision, or
#: delta-sequence id.  A memoized computation that reads one of these
#: from its instance must fold it into the cache key, else a replayed
#: or resumed tick can be served another snapshot's cached artifact
#: (C005's incremental-pipeline extension).
TEMPORAL_KEY_ATTRS = frozenset({"epoch", "revision", "tick", "delta_seq"})

#: Module-path suffixes exempt from C004: the atomic helpers themselves
#: must open temp files with write modes.
ATOMIC_IO_EXEMPT_SUFFIXES: tuple[str, ...] = ("repro/io.py",)

#: ``open()`` mode characters that make the call a write.
WRITE_MODE_CHARS = frozenset("wax+")
