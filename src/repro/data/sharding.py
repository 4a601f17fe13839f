"""Sharded synthetic corpora: deterministic generation, lazy loading.

The single-snapshot generator (:class:`~repro.data.synthesis.
SyntheticWebGenerator`) materializes every page of every site in one
process — fine at the paper's ~1.5k pharmacies, impossible at the 10^6
domains ROADMAP item 2 targets.  This module grows the same synthetic
web *sharded*:

* **Stable placement** — a domain's shard is ``sha256(domain) mod K``
  (:func:`shard_of`), never Python's per-process salted ``hash``.
* **Per-site determinism** — every site is built from its own RNG whose
  seed derives from ``(master seed, domain)`` (:func:`site_seed`), and
  its role flags (outlier / affiliate member / trust imitator / …) come
  from per-domain uniform draws against the configured fractions
  (:func:`plan_site`).  No site's bytes depend on any other site, so
  the union of all shards is bit-identical at any shard count K and
  any worker count — the property pinned by
  ``tests/data/test_sharding.py``.  (Role counts are therefore
  *statistical* rather than the exact rounded counts the in-memory
  snapshot generator draws; the two paths are separate determinism
  schemes and are not byte-compatible with each other.)
* **Streamed storage** — each shard is one JSON-lines file of
  :func:`repro.io.site_record_to_row` rows written atomically, plus a
  ``manifest.json`` carrying the generator config, so readers can
  re-derive the domain plan without touching site data.
* **Lazy reading** — :class:`ShardedCorpus` opens shards on demand with
  a small LRU of parsed shards, so ``get(domain)`` on a million-site
  corpus loads exactly one shard, and block-wise pipelines stream
  ``iter_shards()`` holding one shard in memory at a time.  The LRU
  holds each shard as validated rows (:class:`repro.io.SiteRow`), not
  objects: a verification pass over ``sites_view()`` scores the rows
  directly, and :class:`~repro.web.site.Website` /
  :class:`~repro.data.synthesis.PharmacyRecord` objects are built only
  for the callers that ask for them.

Generation fans out over shards via :func:`repro.perf.pmap` — each
worker writes only its own shard files, no shared state.
"""

from __future__ import annotations

import hashlib
import json
import logging
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.data.synthesis import (
    GeneratorConfig,
    PharmacyRecord,
    SyntheticWebGenerator,
    illegit_domain_names,
    legit_domain_names,
)
from repro.exceptions import MissingKeyError, ValidationError
from repro.io import (
    PersistenceError,
    SiteRow,
    atomic_write,
    parse_site_row,
    site_record_to_row,
)
from repro.perf.parallel import pmap
from repro.sanitizers import sanitizes
from repro.web.site import Website

logger = logging.getLogger(__name__)

__all__ = [
    "MANIFEST_FILENAME",
    "SitePlan",
    "ShardManifest",
    "ShardedCorpus",
    "stable_hash",
    "shard_of",
    "site_seed",
    "plan_domains",
    "plan_site",
    "shard_filename",
    "write_shards",
]

MANIFEST_FILENAME = "manifest.json"

_SHARD_FORMAT = "repro-shard"
_MANIFEST_FORMAT = "repro-shard-manifest"
_FORMAT_VERSION = 1


def stable_hash(text: str) -> int:
    """Process-stable 64-bit hash (SHA-256 prefix).

    Python's builtin ``hash`` is salted per process, which would move
    domains between shards from run to run; this never changes.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def shard_of(domain: str, n_shards: int) -> int:
    """The shard that owns ``domain`` in a ``n_shards``-way layout.

    Raises:
        ValidationError: for a non-positive shard count.
    """
    if n_shards < 1:
        raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
    return stable_hash(domain) % n_shards


def site_seed(master_seed: int, domain: str, purpose: str = "site") -> int:
    """Seed of one site's private RNG stream.

    Derived from ``(master seed, purpose, domain)`` so each domain's
    text/link draws and its role draws are independent streams, each a
    pure function of the master seed — the root of shard- and
    worker-count invariance.
    """
    digest = hashlib.sha256(
        f"{master_seed}:{purpose}:{domain}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True, slots=True)
class SitePlan:
    """One domain's deterministic generation plan (label + roles)."""

    domain: str
    label: int
    is_hub: bool = False
    is_member: bool = False
    is_outlier: bool = False
    is_asocial: bool = False
    is_imitator: bool = False
    hub_targets: tuple[str, ...] = ()


def plan_domains(
    config: GeneratorConfig, generation: int = 1
) -> tuple[list[str], list[str], tuple[str, ...]]:
    """Canonical domain plan: (legit, illegit, sorted hub domains).

    Pure function of the config — both the shard writers and
    :class:`ShardedCorpus` re-derive it instead of persisting 10^6
    domain strings.
    """
    n_illegit = config.n_illegitimate
    if generation == 2 and config.n_illegitimate_snapshot2 is not None:
        n_illegit = config.n_illegitimate_snapshot2
    legit = legit_domain_names(config.n_legitimate)
    illegit, hubs = illegit_domain_names(
        n_illegit, config.n_affiliate_hubs, generation=generation
    )
    return legit, illegit, tuple(sorted(hubs))


def plan_site(
    config: GeneratorConfig,
    domain: str,
    label: int,
    *,
    is_hub: bool = False,
    hubs: tuple[str, ...] = (),
    generation: int = 1,
    revision: int = 0,
) -> SitePlan:
    """Deterministic role assignment for one domain.

    Draws come from the domain's private ``"role"`` RNG stream in a
    fixed order, so the plan depends on nothing but ``(config.seed,
    domain)``.  Fractions are interpreted per-site (each site joins a
    role with the configured probability), which converges to the
    snapshot generator's exact rounded counts as the corpus grows.

    ``revision`` selects the delta-stream rebuild of the same domain
    (:mod:`repro.data.deltas`): revision 0 is the base snapshot stream
    (bit-identical to shard rows), revision ``r > 0`` draws fresh roles
    from the ``"role:r{r}"`` stream so a rewired affiliate can land on
    different hubs without disturbing any other site.
    """
    purpose = "role" if revision == 0 else f"role:r{revision}"
    rng = np.random.default_rng(site_seed(config.seed, domain, purpose))
    draws = rng.random(4)
    if label == 1:
        return SitePlan(
            domain=domain,
            label=1,
            is_outlier=bool(draws[0] < config.legit_outlier_fraction),
            is_asocial=bool(draws[1] < config.legit_asocial_fraction),
        )
    if is_hub:
        return SitePlan(domain=domain, label=0, is_hub=True)
    is_outlier = bool(draws[0] < config.illegit_outlier_fraction)
    is_member = not is_outlier and bool(
        draws[1] < config.affiliate_member_fraction
    )
    is_imitator = not is_outlier and bool(
        draws[2] < config.illegit_trust_imitation_fraction
    )
    hub_targets: tuple[str, ...] = ()
    if is_member and hubs:
        # Mirror the snapshot generator's 1-or-2 hub links per member.
        n_links = min(len(hubs), 1 + int(draws[3] < 0.5))
        picks = rng.choice(len(hubs), size=n_links, replace=False)
        hub_targets = tuple(hubs[int(i)] for i in sorted(picks))
    return SitePlan(
        domain=domain,
        label=0,
        is_member=is_member,
        is_outlier=is_outlier,
        is_imitator=is_imitator,
        hub_targets=hub_targets,
    )


def shard_filename(shard_index: int) -> str:
    """On-disk name of one shard's JSON-lines file."""
    return f"shard-{shard_index:05d}.jsonl"


def _bucket_domains(
    config: GeneratorConfig, n_shards: int, generation: int
) -> tuple[list[list[tuple[str, int]]], tuple[str, ...]]:
    """Per-shard ``(domain, label)`` lists in canonical corpus order."""
    legit, illegit, hubs = plan_domains(config, generation)
    buckets: list[list[tuple[str, int]]] = [[] for _ in range(n_shards)]
    for domain in legit:
        buckets[shard_of(domain, n_shards)].append((domain, 1))
    for domain in illegit:
        buckets[shard_of(domain, n_shards)].append((domain, 0))
    return buckets, hubs


def _build_planned_site(
    generator: SyntheticWebGenerator,
    plan: SitePlan,
    generation: int,
) -> tuple[Website, PharmacyRecord]:
    """Materialize one planned site from its domain-derived RNG."""
    rng = np.random.default_rng(
        site_seed(generator.config.seed, plan.domain, "site")
    )
    pages, record = generator.build_pharmacy_site(
        plan.domain,
        plan.label,
        rng,
        is_hub=plan.is_hub,
        is_member=plan.is_member,
        is_outlier=plan.is_outlier,
        is_asocial=plan.is_asocial,
        is_imitator=plan.is_imitator,
        hub_targets=plan.hub_targets,
        generation=generation,
    )
    return Website(domain=plan.domain, pages=tuple(pages)), record


def _write_shard_worker(
    item: tuple[int, tuple[tuple[str, int], ...]],
    *,
    config: GeneratorConfig,
    out_dir: str,
    n_shards: int,
    hubs: tuple[str, ...],
    generation: int,
    name: str,
) -> dict[str, object]:
    """Generate and atomically write one shard file (pmap worker).

    Pure per shard: touches only its own output file, derives every
    byte from ``(config, domain)`` — safe at any worker count.
    """
    shard_index, assigned = item
    generator = SyntheticWebGenerator(config)
    hub_set = set(hubs)
    path = Path(out_dir) / shard_filename(shard_index)
    n_pages = 0

    def write(fh) -> None:
        nonlocal n_pages
        header = {
            "format": _SHARD_FORMAT,
            "version": _FORMAT_VERSION,
            "name": name,
            "shard": shard_index,
            "n_shards": n_shards,
            "domains": [domain for domain, _ in assigned],
        }
        fh.write(json.dumps(header) + "\n")
        for domain, label in assigned:
            plan = plan_site(
                config,
                domain,
                label,
                is_hub=domain in hub_set,
                hubs=hubs,
                generation=generation,
            )
            site, record = _build_planned_site(generator, plan, generation)
            fh.write(json.dumps(site_record_to_row(site, record)) + "\n")
            n_pages += len(site.pages)

    atomic_write(path, "w", write, encoding="utf-8")
    return {
        "shard": shard_index,
        "file": shard_filename(shard_index),
        "n_sites": len(assigned),
        "n_pages": n_pages,
    }


@dataclass(frozen=True, slots=True)
class ShardManifest:
    """Metadata of one sharded corpus directory.

    ``config`` round-trips the :class:`GeneratorConfig` so readers can
    re-derive the canonical domain plan without opening any shard.
    """

    name: str
    n_shards: int
    n_sites: int
    n_legitimate: int
    n_illegitimate: int
    generation: int
    config: dict[str, object]
    shards: tuple[dict[str, object], ...] = field(default_factory=tuple)

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable manifest payload (with format header)."""
        payload = asdict(self)
        payload["format"] = _MANIFEST_FORMAT
        payload["version"] = _FORMAT_VERSION
        payload["shards"] = list(self.shards)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ShardManifest":
        """Parse a manifest payload written by :meth:`as_dict`.

        Raises:
            PersistenceError: not an object, wrong format marker or
                version, a missing key, a field of the wrong type
                (including a shard entry without ``file`` or
                ``n_sites``), or totals that disagree with the shard
                entries (``n_shards`` against their count, ``n_sites``
                against the sum of theirs).
        """
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _MANIFEST_FORMAT
            or payload.get("version") != _FORMAT_VERSION
        ):
            raise PersistenceError("not a repro shard manifest")
        try:
            shards = tuple(dict(s) for s in payload["shards"])
            for entry in shards:
                if not isinstance(entry.get("file"), str) or not isinstance(
                    entry.get("n_sites"), int
                ):
                    raise PersistenceError(
                        f"malformed shard manifest: bad shard entry {entry!r}"
                    )
            n_shards = int(payload["n_shards"])
            n_sites = int(payload["n_sites"])
            if n_shards != len(shards):
                raise PersistenceError(
                    f"malformed shard manifest: n_shards is {n_shards} but "
                    f"{len(shards)} shard entries are listed"
                )
            listed = sum(int(entry["n_sites"]) for entry in shards)
            if n_sites != listed:
                raise PersistenceError(
                    f"malformed shard manifest: n_sites is {n_sites} but the "
                    f"shard entries hold {listed}"
                )
            return cls(
                name=str(payload["name"]),
                n_shards=n_shards,
                n_sites=n_sites,
                n_legitimate=int(payload["n_legitimate"]),
                n_illegitimate=int(payload["n_illegitimate"]),
                generation=int(payload["generation"]),
                config=dict(payload["config"]),
                shards=shards,
            )
        except KeyError as exc:
            raise PersistenceError(
                f"malformed shard manifest: missing {exc}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise PersistenceError(f"malformed shard manifest: {exc}") from None

    @property
    def generator_config(self) -> GeneratorConfig:
        """The corpus's :class:`GeneratorConfig`, reconstructed."""
        return GeneratorConfig(**self.config)


def write_shards(
    config: GeneratorConfig,
    out_dir: str | Path,
    n_shards: int,
    *,
    name: str = "dataset1",
    generation: int = 1,
    jobs: int | None = None,
) -> ShardManifest:
    """Generate a corpus as ``n_shards`` shard files plus a manifest.

    Args:
        config: generator knobs; ``config.seed`` roots all determinism.
        out_dir: destination directory (created if missing).
        n_shards: shard count K; placement is ``sha256(domain) mod K``.
        name: dataset name recorded in the manifest.
        generation: 1 = first crawl, 2 = drifted snapshot.
        jobs: shard-level parallelism per :func:`repro.perf.pmap`
            (``None``/1 serial, 0 = CPU count).

    Returns:
        The written :class:`ShardManifest`.
    """
    if n_shards < 1:
        raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    buckets, hubs = _bucket_domains(config, n_shards, generation)
    worker = partial(
        _write_shard_worker,
        config=config,
        out_dir=str(out),
        n_shards=n_shards,
        hubs=hubs,
        generation=generation,
        name=name,
    )
    shard_stats = pmap(
        worker,
        [(k, tuple(bucket)) for k, bucket in enumerate(buckets)],
        jobs=jobs,
    )
    n_legit = sum(1 for bucket in buckets for _, label in bucket if label == 1)
    n_sites = sum(len(bucket) for bucket in buckets)
    manifest = ShardManifest(
        name=name,
        n_shards=n_shards,
        n_sites=n_sites,
        n_legitimate=n_legit,
        n_illegitimate=n_sites - n_legit,
        generation=generation,
        config=asdict(config),
        shards=tuple(shard_stats),
    )
    atomic_write(
        out / MANIFEST_FILENAME,
        "w",
        lambda fh: json.dump(manifest.as_dict(), fh, indent=2),
        encoding="utf-8",
    )
    logger.info(
        "wrote sharded corpus %s: %d sites in %d shards at %s",
        name,
        n_sites,
        n_shards,
        out,
    )
    return manifest


def _header_domains(line: str, path: Path) -> list[str]:
    """The domains listed by the header (first line) of shard ``path``.

    The one reader of shard headers, for :meth:`ShardedCorpus.domains`
    and for the shard parse.  Raises :class:`PersistenceError` naming
    ``path:1`` unless the line is a JSON object with this module's
    format marker and version and a ``domains`` list of strings.
    """
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"malformed shard header: {path}:1") from exc
    if (
        not isinstance(header, dict)
        or header.get("format") != _SHARD_FORMAT
        or header.get("version") != _FORMAT_VERSION
    ):
        raise PersistenceError(f"unsupported shard format: {path}:1")
    domains = header.get("domains")
    if not isinstance(domains, list) or not all(
        isinstance(domain, str) for domain in domains
    ):
        raise PersistenceError(
            f"shard header domains is not a list of strings: {path}:1"
        )
    return domains


@dataclass(slots=True)
class _LoadedShard:
    """One parsed shard held in the reader's LRU.

    ``rows`` are the validated rows; ``sites`` memoizes the
    :class:`Website` of each domain :meth:`ShardedCorpus.get` has
    built since the shard was loaded, so the LRU holds objects only
    for the domains looked up, never a whole shard twice.
    """

    rows: tuple[SiteRow, ...]
    by_domain: dict[str, int]
    sites: dict[int, Website] = field(default_factory=dict)


class _LazySiteSequence(Sequence[Website]):
    """Read-only global view over all shards' sites, opened lazily.

    Index ``i`` maps to shard ``k`` via cumulative shard sizes, and an
    index outside the reader's LRU re-parses its whole shard.  Only the
    shards a caller touches are parsed.  Indexing builds the
    :class:`Website` of each site asked for; :meth:`rows` hands out the
    validated rows themselves, which is how ``verify_sites`` reads the
    view: in blocks, each touched shard through the LRU once per block.
    A pass that walks the view once in index order therefore parses
    each shard once; walking it again re-parses every shard the LRU
    has evicted.
    """

    def __init__(self, corpus: "ShardedCorpus") -> None:
        self._corpus = corpus
        sizes = [int(s["n_sites"]) for s in corpus.manifest.shards]
        self._offsets = list(np.cumsum([0] + sizes))

    def __len__(self) -> int:
        return int(self._offsets[-1])

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            # The Sequence protocol requires IndexError here (iteration
            # and slicing rely on it).
            raise IndexError(index)  # repro-lint: disable=R001
        shard_index = bisect_right(self._offsets, i) - 1
        shard = self._corpus._shard(shard_index)
        return shard.rows[i - self._offsets[shard_index]].to_site()

    def rows(self, start: int, stop: int) -> list[SiteRow]:
        """The validated rows of sites ``start:stop``, in view order.

        Each shard the range touches is read once, through the
        reader's LRU, and sliced as a block; no site object is built.
        """
        start, stop, _ = slice(start, stop).indices(len(self))
        out: list[SiteRow] = []
        k = bisect_right(self._offsets, start) - 1
        while start < stop:
            first, end = int(self._offsets[k]), int(self._offsets[k + 1])
            if end > start:
                rows = self._corpus._shard(k).rows
                out.extend(rows[start - first : min(stop, end) - first])
                start = end
            k += 1
        return out


class ShardedCorpus:
    """Lazy reader over a directory written by :func:`write_shards`.

    Holds at most ``max_open_shards`` parsed shards (LRU), so lookups
    and shard-streaming passes run in O(shard) memory regardless of
    corpus size.  ``shard_opens`` counts actual file parses — the
    lazy-serving tests pin that a single-domain lookup opens exactly
    one shard.

    Args:
        root: the sharded corpus directory.
        max_open_shards: LRU capacity in shards.
    """

    def __init__(self, root: str | Path, max_open_shards: int = 2) -> None:
        if max_open_shards < 1:
            raise ValidationError(
                f"max_open_shards must be >= 1, got {max_open_shards}"
            )
        self._root = Path(root)
        manifest_path = self._root / MANIFEST_FILENAME
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError as exc:
            raise PersistenceError(
                f"no shard manifest at {manifest_path}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise PersistenceError(
                f"malformed shard manifest at {manifest_path}"
            ) from exc
        try:
            self._manifest = ShardManifest.from_dict(payload)
        except PersistenceError as exc:
            raise PersistenceError(f"{manifest_path}: {exc}") from exc
        self._max_open = max_open_shards
        self._cache: OrderedDict[int, _LoadedShard] = OrderedDict()
        # Each parsed shard's labels outlive its LRU slot: one int per
        # site, so labels() after a pass opens no shard.
        self._labels: dict[int, tuple[int, ...]] = {}
        self.shard_opens = 0

    # -- metadata ----------------------------------------------------------

    @property
    def root(self) -> Path:
        """The corpus directory."""
        return self._root

    @property
    def manifest(self) -> ShardManifest:
        """The parsed manifest."""
        return self._manifest

    @property
    def name(self) -> str:
        """Dataset name recorded at write time."""
        return self._manifest.name

    @property
    def n_shards(self) -> int:
        """Shard count K of the on-disk layout."""
        return self._manifest.n_shards

    @property
    def config(self) -> GeneratorConfig:
        """The generator config the corpus was synthesized from."""
        return self._manifest.generator_config

    def __len__(self) -> int:
        return self._manifest.n_sites

    def __contains__(self, domain: str) -> bool:
        return self.get(domain) is not None

    # -- shard access -------------------------------------------------------

    @sanitizes("*")
    def _parse_shard(self, shard_index: int) -> _LoadedShard:
        """Read and validate one shard file into rows.

        The one place a shard's rows are read; its header goes through
        :func:`_header_domains`, as in :meth:`domains`.  Sanitizer: every
        row passes through :func:`repro.io.parse_site_row`, which checks
        its structure and field types; malformed or format-skewed input
        raises :class:`PersistenceError` naming the file and line
        instead of flowing onward.  The rows must also be the header's
        domains, in its order, and as many as the manifest's
        ``n_sites`` for the shard: the view's length and index offsets,
        :meth:`domains` and :meth:`labels` all rely on that, so a
        truncated, padded or reordered shard raises
        :class:`PersistenceError` naming the file.  Page URLs are
        checked when a row's evidence or objects are read (see
        :class:`repro.io.SiteRow`).
        """
        entry = self._manifest.shards[shard_index]
        path = self._root / str(entry["file"])
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError as exc:
            raise PersistenceError(f"missing shard file: {path}") from exc
        if not lines:
            raise PersistenceError(f"empty shard file: {path}")
        domains = _header_domains(lines[0], path)
        rows: list[SiteRow] = []
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PersistenceError(
                    f"malformed shard row at {path}:{line_no}"
                ) from exc
            rows.append(parse_site_row(row, f"{path}:{line_no}"))
        if len(rows) != entry["n_sites"]:
            raise PersistenceError(
                f"shard {path} holds {len(rows)} rows, but the manifest "
                f"lists {entry['n_sites']} sites for it"
            )
        if [row.domain for row in rows] != domains:
            raise PersistenceError(
                f"shard rows do not match the domains of its header: {path}"
            )
        return _LoadedShard(
            rows=tuple(rows),
            by_domain={row.domain: i for i, row in enumerate(rows)},
        )

    def _shard(self, shard_index: int) -> _LoadedShard:
        """The parsed shard, through the LRU of open shards."""
        if not 0 <= shard_index < self.n_shards:
            raise ValidationError(f"no such shard: {shard_index}")
        cached = self._cache.get(shard_index)
        if cached is not None:
            self._cache.move_to_end(shard_index)
            return cached
        shard = self._parse_shard(shard_index)
        self.shard_opens += 1
        self._labels[shard_index] = tuple(row.label for row in shard.rows)
        self._cache[shard_index] = shard
        while len(self._cache) > self._max_open:
            self._cache.popitem(last=False)
        return shard

    # -- domain-keyed lookups (one shard open each) -------------------------

    def get(self, domain: str) -> Website | None:
        """The site of ``domain``, or ``None`` when absent.

        Opens only the one shard that ``sha256(domain)`` maps to, and
        builds the :class:`Website` at most once per shard load.
        """
        shard = self._shard(shard_of(domain, self.n_shards))
        i = shard.by_domain.get(domain)
        if i is None:
            return None
        site = shard.sites.get(i)
        if site is None:
            site = shard.sites.setdefault(i, shard.rows[i].to_site())
        return site

    def site_for(self, domain: str) -> Website:
        """The site of ``domain``; raises :class:`MissingKeyError`."""
        site = self.get(domain)
        if site is None:
            raise MissingKeyError(domain)
        return site

    def record_for(self, domain: str) -> PharmacyRecord:
        """Ground truth of ``domain``; raises :class:`MissingKeyError`."""
        shard = self._shard(shard_of(domain, self.n_shards))
        i = shard.by_domain.get(domain)
        if i is None:
            raise MissingKeyError(domain)
        return shard.rows[i].to_record()

    def oracle(self, domain: str) -> int:
        """The oracle O(p): ground-truth label of ``domain``."""
        return self.record_for(domain).label

    # -- streaming views ----------------------------------------------------

    def iter_shards(
        self,
    ) -> Iterator[tuple[int, tuple[Website, ...], tuple[PharmacyRecord, ...]]]:
        """Yield ``(shard_index, sites, records)`` one shard at a time.

        The objects are built from the shard's rows per call and are
        not kept in the LRU.
        """
        for k in range(self.n_shards):
            rows = self._shard(k).rows
            yield (
                k,
                tuple(row.to_site() for row in rows),
                tuple(row.to_record() for row in rows),
            )

    def iter_sites(self) -> Iterator[Website]:
        """All sites in global (shard-major) order, streamed."""
        for _, sites, _ in self.iter_shards():
            yield from sites

    def labels(self) -> list[int]:
        """Every site's oracle label in global (shard-major) order.

        Read off the rows; no site or record object is built.  A shard
        this reader has parsed before is not opened again: its labels
        are kept when it is parsed.
        """
        out: list[int] = []
        for k in range(self.n_shards):
            if k not in self._labels:
                self._shard(k)
            out.extend(self._labels[k])
        return out

    def domains(self) -> tuple[str, ...]:
        """All domains in global (shard-major) order, from headers only.

        Raises:
            PersistenceError: a shard file is missing, or its header is
                not a valid shard header (the message names ``file:1``).
        """
        out: list[str] = []
        for entry in self._manifest.shards:
            path = self._root / str(entry["file"])
            try:
                with open(path, encoding="utf-8") as fh:
                    line = fh.readline()
            except FileNotFoundError as exc:
                raise PersistenceError(f"missing shard file: {path}") from exc
            out.extend(_header_domains(line, path))
        return tuple(out)

    def sites_view(self) -> Sequence[Website]:
        """Lazy, indexable, sliceable view over every site.

        Drop-in for APIs that expect a sequence of sites without
        materializing the corpus: only the shards behind the touched
        indices are opened, and indexing builds the
        :class:`Website` asked for.  ``PharmacyVerifier.verify_sites``
        and ``rank_sites`` read it through its ``rows(start, stop)``
        blocks instead, scoring the validated rows with no site,
        page or record objects built.
        """
        return _LazySiteSequence(self)
