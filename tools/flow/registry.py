"""Source, sink, and rule registry for the flow analyses.

The taint model is *structural* rather than hard-coded to repro module
names, so the same analyzer checks both ``src/repro`` and the seeded
test fixture packages:

* **Sources** — calls whose return value is untrusted: any
  ``.fetch(...)`` (web content; the :class:`~repro.web.host.WebHost`
  protocol) and any file-content read (``.read()``, ``.read_text()``,
  ``.readlines()``).
* **Sinks** — dangerous positions, each with a *category* a sanitizer
  can clear: filesystem path construction and ``open()`` (``path``)
  and outbound fetch URLs (``ssrf``).
* **Sanitizers** — functions carrying the
  :func:`repro.sanitizers.sanitizes` decorator, read statically from
  the AST by the project loader.

Rule catalogue (``python -m tools.analyze --list-rules``):

======  ===============================================================
T001    untrusted data reaches a filesystem path / ``open()`` sink
T004    untrusted URL reaches an outbound fetch (SSRF) without
        registrable-domain pinning
D001    unseeded RNG reachable from an experiment entrypoint
D003    iteration over an unordered set feeding results, reachable
        from an entrypoint
======  ===============================================================
"""

from __future__ import annotations

__all__ = [
    "FLOW_RULES",
    "TAINT_RULE_BY_CATEGORY",
    "SOURCE_ATTR_NAMES",
    "FILE_READ_ATTRS",
    "PATH_SINK_BUILTINS",
    "PATH_SINK_DOTTED",
    "PATH_SINK_ANY_ARG",
    "FETCH_ATTR_NAMES",
    "FETCH_SINK_DOTTED",
    "SEEDED_RNG_ALLOWED",
    "CLEAN_BUILTINS",
    "PROPAGATING_BUILTINS",
]

#: Rule id -> one-line description (CLI catalogue + SARIF metadata).
FLOW_RULES: dict[str, str] = {
    "T001": "untrusted data reaches a filesystem path/open() sink",
    "T004": "untrusted URL reaches an outbound fetch (SSRF)",
    "D001": "unseeded RNG reachable from an experiment entrypoint",
    "D003": "unordered-set iteration feeding results reachable from an entrypoint",
}

#: sink category -> taint rule id.
TAINT_RULE_BY_CATEGORY = {"path": "T001", "ssrf": "T004"}

# -- sources ---------------------------------------------------------------

#: Attribute-call names whose return value is untrusted web content.
SOURCE_ATTR_NAMES = frozenset({"fetch"})

#: Attribute-call names whose return value is untrusted file content.
FILE_READ_ATTRS = frozenset({"read", "read_text", "read_bytes", "readlines"})

# -- sinks -----------------------------------------------------------------

#: Builtin call names whose first argument is a filesystem path.
PATH_SINK_BUILTINS = frozenset({"open"})

#: Resolved dotted calls whose first argument is a filesystem path.
PATH_SINK_DOTTED = frozenset(
    {
        "os.open",
        "os.remove",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "pathlib.Path",
        "pathlib.PurePath",
        "pathlib.PurePosixPath",
    }
)

#: Resolved dotted calls where *every* argument is a filesystem path.
PATH_SINK_ANY_ARG = frozenset(
    {"os.replace", "os.rename", "os.path.join", "shutil.copy", "shutil.move"}
)

#: Attribute-call names that perform an outbound fetch (URL = arg 0).
FETCH_ATTR_NAMES = frozenset({"fetch"})

#: Resolved dotted outbound-fetch calls (URL = arg 0).
FETCH_SINK_DOTTED = frozenset(
    {
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.head",
        "httpx.get",
    }
)

# -- determinism -----------------------------------------------------------

#: ``numpy.random`` members that construct explicitly seeded generators
#: (mirrors repro-lint R002's allowlist).
SEEDED_RNG_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

# -- builtin call modeling -------------------------------------------------

#: Builtins whose return value never carries taint (numeric casts and
#: size/identity queries break the data dependency on content).
CLEAN_BUILTINS = frozenset(
    {
        "len",
        "int",
        "float",
        "bool",
        "abs",
        "round",
        "sum",
        "hash",
        "id",
        "isinstance",
        "issubclass",
        "ord",
        "range",
        "divmod",
        "pow",
    }
)

#: Builtins that pass their arguments' taint through to the result.
PROPAGATING_BUILTINS = frozenset(
    {
        "str",
        "repr",
        "format",
        "bytes",
        "list",
        "tuple",
        "set",
        "frozenset",
        "dict",
        "sorted",
        "reversed",
        "enumerate",
        "zip",
        "map",
        "filter",
        "min",
        "max",
        "next",
        "iter",
        "getattr",
        "vars",
    }
)
