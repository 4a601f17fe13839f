"""Synthetic pharmacy-web generator.

The paper's corpus is a proprietary crawl from a verification company.
This module builds its closest synthetic equivalent: a labelled web of
online pharmacies whose text and link structure carry exactly the class
signals the paper documents (see DESIGN.md, Substitutions):

* word-usage mixtures per class (illegitimate sites over-use lifestyle
  drug brands, discount marketing, and "no prescription" language;
  legitimate sites carry more health content, store presence, and
  verification-seal text);
* link-target distributions per class matching Table 11 (legitimate →
  facebook/twitter/fda.gov/...; illegitimate → wikipedia/wordpress/
  affiliate billing hosts);
* affiliate networks: most illegitimate pharmacies link to a small set
  of hub pharmacies, which are themselves illegitimate sites in the
  working set (Section 6.3.2);
* ranking outliers: a few illegitimate sites that avoid the blatant
  signals and stay out of affiliate networks, and a few legitimate
  sites whose "new prescriptions online" business reads scam-adjacent
  (Section 6.4);
* temporal drift: a second snapshot six months later keeps the same
  legitimate sites (re-crawled) and replaces every illegitimate domain
  with a new one whose vocabulary has drifted toward legitimate-looking
  store-presence language (Section 6.5 / Tables 16–17).

Everything is deterministic given the seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from repro.data import lexicon
from repro.exceptions import DataGenerationError, MissingKeyError
from repro.web.host import InMemoryWebHost
from repro.web.page import WebPage

logger = logging.getLogger(__name__)

__all__ = [
    "GeneratorConfig",
    "PharmacyRecord",
    "WebSnapshot",
    "SyntheticWebGenerator",
    "legit_domain_names",
    "illegit_domain_names",
]

# ---------------------------------------------------------------------------
# Class word-mixture profiles.  Keys are lexicon pool names; values are
# sampling probabilities (normalized at build time).
# ---------------------------------------------------------------------------

_LEGIT_MIX: dict[str, float] = {
    "HEALTH_CONTENT": 0.22,
    "PHARMACY_COMMERCE": 0.16,
    "STORE_PRESENCE": 0.14,
    "VERIFICATION_SEALS": 0.08,
    "PRESCRIPTION_POLICY_LEGIT": 0.07,
    "GENERIC_DRUGS": 0.10,
    "LIFESTYLE_DRUGS": 0.01,
    "SCAM_MARKETING": 0.015,
    "NO_PRESCRIPTION_MARKETING": 0.005,
    "DRIFT_MARKETING": 0.02,
    "COMMON_FILLER": 0.18,
}

_ILLEGIT_MIX: dict[str, float] = {
    "HEALTH_CONTENT": 0.055,
    "PHARMACY_COMMERCE": 0.10,
    "STORE_PRESENCE": 0.03,
    "VERIFICATION_SEALS": 0.01,
    "PRESCRIPTION_POLICY_LEGIT": 0.01,
    "GENERIC_DRUGS": 0.08,
    "LIFESTYLE_DRUGS": 0.21,
    "SCAM_MARKETING": 0.20,
    "NO_PRESCRIPTION_MARKETING": 0.09,
    "DRIFT_MARKETING": 0.008,
    "COMMON_FILLER": 0.207,
}

#: Snapshot-2 drift: new illegitimate sites *rotate* their vocabulary —
#: they tone down the blatant "no prescription" pitch, adopt
#: trust-imitating marketing (DRIFT_MARKETING: "trusted", "certified",
#: "canadian", ...), and keep the sales machinery.  The result stays
#: internally separable (New-New ~ Old-Old) but degrades a model
#: trained on the old vocabulary (Old-New legitimate precision drops,
#: Table 17), because the drift terms were class-neutral in Dataset 1.
_ILLEGIT_DRIFT_MIX: dict[str, float] = {
    "HEALTH_CONTENT": 0.06,
    "PHARMACY_COMMERCE": 0.10,
    "STORE_PRESENCE": 0.05,
    "VERIFICATION_SEALS": 0.025,
    "PRESCRIPTION_POLICY_LEGIT": 0.012,
    "GENERIC_DRUGS": 0.08,
    "LIFESTYLE_DRUGS": 0.18,
    "SCAM_MARKETING": 0.16,
    "NO_PRESCRIPTION_MARKETING": 0.035,
    "DRIFT_MARKETING": 0.13,
    "COMMON_FILLER": 0.17,
}

# Link-target weight tables.  Order follows Table 11 so the popularity
# ranking reproduces the paper's lists.
_LEGIT_LINK_WEIGHTS: dict[str, float] = {
    "facebook.com": 0.95,
    "twitter.com": 0.90,
    "fda.gov": 0.80,
    "google.com": 0.72,
    "youtube.com": 0.64,
    "nih.gov": 0.56,
    "adobe.com": 0.48,
    "cdc.gov": 0.40,
    "doubleclick.net": 0.32,
    "nabp.net": 0.28,
    "mayoclinic.org": 0.10,
    "webmd.com": 0.08,
}

#: Link table for "asocial" legitimate pharmacies: only mundane
#: infrastructure targets, none of the high-trust government/social
#: domains, and fewer links overall (see GeneratorConfig).
_ASOCIAL_LEGIT_LINK_WEIGHTS: dict[str, float] = {
    "google.com": 0.35,
    "doubleclick.net": 0.30,
    "adobe.com": 0.25,
    "statcounter.com": 0.30,
    "youtube.com": 0.05,
    "wordpress.org": 0.25,
    "wikipedia.org": 0.20,
}

#: Extra targets mixed in for trust-imitating illegitimate sites.
_TRUST_IMITATION_LINK_WEIGHTS: dict[str, float] = {
    "fda.gov": 0.9,
    "facebook.com": 0.75,
    "twitter.com": 0.6,
    "nih.gov": 0.4,
    "cdc.gov": 0.3,
    "nabp.net": 0.25,
}

_ILLEGIT_LINK_WEIGHTS: dict[str, float] = {
    "wikipedia.org": 0.85,
    "wordpress.org": 0.80,
    "drugs.com": 0.70,
    "securebilling-page.com": 0.62,
    "rxwinners.com": 0.55,
    "google.com": 0.48,
    "providesupport.com": 0.40,
    "euro-med-store.com": 0.34,
    "statcounter.com": 0.28,
    "cipla.com": 0.22,
    "medicalnewstoday.com": 0.08,
    "facebook.com": 0.05,
}


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Knobs of the synthetic web.

    The defaults describe the *shape* of the paper's corpus; the sizes
    are set by the caller (see :mod:`repro.core.config` presets).

    Attributes:
        n_legitimate: number of legitimate pharmacies.
        n_illegitimate: number of illegitimate pharmacies (snapshot 1).
        n_illegitimate_snapshot2: illegitimate count of the second
            crawl; ``None`` copies ``n_illegitimate``.  Table 1 has
            1292 vs 1275 — illegitimate pharmacies disappear over the
            six months.
        min_pages / max_pages: per-site page-count range.
        min_terms_per_page / max_terms_per_page: page-length range.
        n_affiliate_hubs: illegitimate hub pharmacies (spokes link to
            them).  Must be <= n_illegitimate.
        affiliate_member_fraction: fraction of non-hub illegitimate
            sites that join an affiliate network.
        illegit_outlier_fraction: fraction of illegitimate sites that
            imitate legitimate text and avoid affiliate networks.
        legit_outlier_fraction: fraction of legitimate sites whose
            new-prescription business reads scam-adjacent.
        legit_asocial_fraction: fraction of legitimate sites with a
            weak web presence — few external links, none to the
            high-trust government/social domains.  These drive the
            imperfect legitimate recall of the paper's network
            classifier (Table 13: 0.73).
        illegit_trust_imitation_fraction: fraction of illegitimate
            sites that fake trust signals by linking to fda.gov and
            social networks (drives legitimate-precision noise in the
            network classifier).
        external_links_per_page: mean external links per page (Poisson).
        n_health_portals: auxiliary NON-pharmacy portal sites that link
            to legitimate pharmacies, which in turn link back — giving
            the network signal at graph distance > 1 (the paper's
            future-work extension (a)).  0 disables them.
        n_spam_directories: auxiliary spam link directories pointing to
            illegitimate pharmacies (the bad-side counterpart).
        n_potentially_legitimate: gray-zone pharmacies (Section 6.1:
            "do not fully adhere to the ... policies, but are probably
            not illegitimate").  They are kept OUT of the labelled
            working set, mirroring the paper's datasets, and surface as
            ``gray_records`` for ranking/triage studies.
        seed: master RNG seed.
    """

    n_legitimate: int = 40
    n_illegitimate: int = 294
    n_illegitimate_snapshot2: int | None = None
    min_pages: int = 4
    max_pages: int = 10
    min_terms_per_page: int = 80
    max_terms_per_page: int = 180
    n_affiliate_hubs: int = 6
    affiliate_member_fraction: float = 0.75
    illegit_outlier_fraction: float = 0.03
    legit_outlier_fraction: float = 0.05
    legit_asocial_fraction: float = 0.28
    illegit_trust_imitation_fraction: float = 0.07
    external_links_per_page: float = 1.4
    n_health_portals: int = 0
    n_spam_directories: int = 0
    n_potentially_legitimate: int = 0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_legitimate < 1 or self.n_illegitimate < 1:
            raise DataGenerationError("need at least one site per class")
        if (
            self.n_illegitimate_snapshot2 is not None
            and self.n_illegitimate_snapshot2 < 1
        ):
            raise DataGenerationError("n_illegitimate_snapshot2 must be >= 1")
        if self.n_affiliate_hubs > self.n_illegitimate:
            raise DataGenerationError(
                "n_affiliate_hubs cannot exceed n_illegitimate"
            )
        if not 1 <= self.min_pages <= self.max_pages:
            raise DataGenerationError("invalid page range")
        if not 1 <= self.min_terms_per_page <= self.max_terms_per_page:
            raise DataGenerationError("invalid terms-per-page range")
        for name in (
            "affiliate_member_fraction",
            "illegit_outlier_fraction",
            "legit_outlier_fraction",
            "legit_asocial_fraction",
            "illegit_trust_imitation_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DataGenerationError(f"{name} must be in [0, 1], got {value}")
        if self.external_links_per_page < 0:
            raise DataGenerationError("external_links_per_page must be >= 0")
        if self.n_health_portals < 0 or self.n_spam_directories < 0:
            raise DataGenerationError("auxiliary site counts must be >= 0")
        if self.n_potentially_legitimate < 0:
            raise DataGenerationError("n_potentially_legitimate must be >= 0")


@dataclass(frozen=True, slots=True)
class PharmacyRecord:
    """Ground truth for one generated pharmacy.

    Attributes:
        domain: registrable domain.
        label: 1 legitimate, 0 illegitimate.
        is_affiliate_hub: hub of an affiliate network.
        is_affiliate_member: spoke linking to a hub.
        is_outlier: deliberately atypical for its class (Section 6.4).
        is_asocial: legitimate site with a weak link presence.
        is_trust_imitator: illegitimate site faking trust links.
    """

    domain: str
    label: int
    is_affiliate_hub: bool = False
    is_affiliate_member: bool = False
    is_outlier: bool = False
    is_asocial: bool = False
    is_trust_imitator: bool = False


@dataclass(frozen=True, slots=True)
class WebSnapshot:
    """One generated crawl snapshot: the hosted web plus ground truth.

    ``auxiliary_domains`` are hosted non-pharmacy sites (health portals
    and spam directories) that are *not* part of the working set P but
    participate in the link graph when the future-work network
    extension is enabled.  ``gray_domains`` are hosted "potentially
    legitimate" pharmacies (Section 6.1), also outside P.
    """

    name: str
    host: InMemoryWebHost
    records: tuple[PharmacyRecord, ...] = field(default_factory=tuple)
    auxiliary_domains: tuple[str, ...] = field(default_factory=tuple)
    gray_domains: tuple[str, ...] = field(default_factory=tuple)

    @property
    def domains(self) -> tuple[str, ...]:
        return tuple(r.domain for r in self.records)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(r.label for r in self.records)

    def record_for(self, domain: str) -> PharmacyRecord:
        for record in self.records:
            if record.domain == domain:
                return record
        raise MissingKeyError(domain)


def legit_domain_names(n: int) -> list[str]:
    """The first ``n`` legitimate pharmacy domains, deterministically.

    Pure function of ``n``: prefixes of this list are stable as ``n``
    grows, which is what lets sharded generation enumerate domains
    without materializing a snapshot.
    """
    stems = lexicon.LEGIT_DOMAIN_STEMS
    return [
        f"{stems[i % len(stems)]}-pharmacy{i // len(stems)}.com"
        for i in range(n)
    ]


def illegit_domain_names(
    n: int, n_hubs: int, generation: int = 1
) -> tuple[list[str], set[str]]:
    """The first ``n`` illegitimate domains plus the hub subset.

    Hubs lead the list; generation 2 domains carry a ``-v2`` tag so the
    two snapshots are disjoint.  Pure function of its arguments.
    """
    stems = lexicon.ILLEGIT_DOMAIN_STEMS
    hub_stems = lexicon.AFFILIATE_HUB_STEMS
    tag = "" if generation == 1 else "-v2"
    hubs = []
    for i in range(min(n_hubs, n)):
        stem = hub_stems[i % len(hub_stems)]
        suffix = "" if i < len(hub_stems) else str(i // len(hub_stems))
        hubs.append(f"{stem}{tag}{suffix}.com")
    plain = [
        f"{stems[i % len(stems)]}{tag}{i // len(stems)}.net"
        for i in range(n - len(hubs))
    ]
    return hubs + plain, set(hubs)


class SyntheticWebGenerator:
    """Generate one or two labelled pharmacy-web snapshots.

    Usage::

        gen = SyntheticWebGenerator(GeneratorConfig(seed=7))
        snap1, snap2 = gen.generate_pair()

    ``snap2`` models the six-months-later crawl: identical legitimate
    sites (fresh page text, same character), entirely new illegitimate
    domains with drifted vocabulary.
    """

    def __init__(self, config: GeneratorConfig | None = None) -> None:
        self._config = config or GeneratorConfig()
        self._pools = {
            name: np.array(getattr(lexicon, name), dtype=object)
            for name in _LEGIT_MIX
        }
        # Pharmacy pages draw from the pools concatenated in this order.
        self._words = np.concatenate(list(self._pools.values()))
        self._pool_sizes = np.array([len(pool) for pool in self._pools.values()])

    @property
    def config(self) -> GeneratorConfig:
        return self._config

    # -- public API ---------------------------------------------------------

    def generate_snapshot(self, name: str = "dataset1") -> WebSnapshot:
        """Generate the first-crawl snapshot."""
        rng = np.random.default_rng(self._config.seed)
        return self._build_snapshot(name, rng, generation=1)

    def generate_pair(self) -> tuple[WebSnapshot, WebSnapshot]:
        """Generate (Dataset 1, Dataset 2) per Table 1 semantics.

        Dataset 2 has the same legitimate domains (re-crawled) and a
        disjoint set of illegitimate domains with drifted text.
        """
        rng1 = np.random.default_rng(self._config.seed)
        snap1 = self._build_snapshot("dataset1", rng1, generation=1)
        rng2 = np.random.default_rng(self._config.seed + 1_000_003)
        snap2 = self._build_snapshot("dataset2", rng2, generation=2)
        return snap1, snap2

    def build_pharmacy_site(
        self,
        domain: str,
        label: int,
        rng: np.random.Generator,
        *,
        is_hub: bool = False,
        is_member: bool = False,
        is_outlier: bool = False,
        is_asocial: bool = False,
        is_imitator: bool = False,
        hub_targets: tuple[str, ...] = (),
        generation: int = 1,
    ) -> tuple[list[WebPage], PharmacyRecord]:
        """Build one pharmacy's pages + ground truth from its own RNG.

        This is the per-site core of :meth:`_build_snapshot`, exposed so
        the sharded generator (:mod:`repro.data.sharding`) can produce
        site ``domain`` from a domain-derived RNG — independent of every
        other site, hence identical at any shard count or worker count.

        Args:
            domain: the pharmacy's registrable domain.
            label: 1 legitimate, 0 illegitimate.
            rng: the site's private RNG (seed derived from the domain).
            is_hub / is_member / is_outlier / is_asocial / is_imitator:
                role flags (see :class:`PharmacyRecord`).
            hub_targets: affiliate hub domains this site links to
                (members only).
            generation: 1 = first crawl vocabulary, 2 = drifted.
        """
        if label == 1:
            mix = self._site_mixture(
                rng,
                base=_LEGIT_MIX,
                blend=_ILLEGIT_MIX if is_outlier else None,
                blend_weight=0.40 if is_outlier else 0.0,
            )
            pages = self._make_site_pages(
                rng,
                domain=domain,
                mix=mix,
                link_weights=(
                    _ASOCIAL_LEGIT_LINK_WEIGHTS
                    if is_asocial
                    else _LEGIT_LINK_WEIGHTS
                ),
                hub_targets=(),
                link_rate_scale=0.35 if is_asocial else 1.0,
            )
            record = PharmacyRecord(
                domain=domain,
                label=1,
                is_outlier=is_outlier,
                is_asocial=is_asocial,
            )
            return pages, record

        base_illegit = _ILLEGIT_DRIFT_MIX if generation == 2 else _ILLEGIT_MIX
        mix = self._site_mixture(
            rng,
            base=base_illegit,
            blend=_LEGIT_MIX if is_outlier else None,
            blend_weight=0.55 if is_outlier else 0.0,
        )
        link_weights = dict(_ILLEGIT_LINK_WEIGHTS)
        if is_imitator:
            link_weights.update(_TRUST_IMITATION_LINK_WEIGHTS)
        pages = self._make_site_pages(
            rng,
            domain=domain,
            mix=mix,
            link_weights=link_weights,
            hub_targets=() if is_outlier else hub_targets,
        )
        record = PharmacyRecord(
            domain=domain,
            label=0,
            is_affiliate_hub=is_hub,
            is_affiliate_member=is_member,
            is_outlier=is_outlier,
            is_trust_imitator=is_imitator,
        )
        return pages, record

    # -- snapshot assembly -----------------------------------------------------

    def _build_snapshot(
        self, name: str, rng: np.random.Generator, generation: int
    ) -> WebSnapshot:
        cfg = self._config
        host = InMemoryWebHost()
        records: list[PharmacyRecord] = []

        legit_domains = self._legit_domains()
        illegit_domains, hub_domains = self._illegit_domains(generation)

        # Decide outliers and affiliate membership deterministically
        # from the snapshot RNG.
        n_illegit_outliers = int(round(cfg.illegit_outlier_fraction * len(illegit_domains)))
        n_legit_outliers = int(round(cfg.legit_outlier_fraction * len(legit_domains)))
        illegit_outlier_set = set(
            rng.choice(
                [d for d in illegit_domains if d not in hub_domains],
                size=min(
                    n_illegit_outliers,
                    len(illegit_domains) - len(hub_domains),
                ),
                replace=False,
            ).tolist()
        )
        legit_outlier_set = set(
            rng.choice(legit_domains, size=n_legit_outliers, replace=False).tolist()
        )
        asocial_set = set(
            rng.choice(
                legit_domains,
                size=int(round(cfg.legit_asocial_fraction * len(legit_domains))),
                replace=False,
            ).tolist()
        )
        imitator_candidates = [
            d
            for d in illegit_domains
            if d not in hub_domains and d not in illegit_outlier_set
        ]
        n_imitators = min(
            len(imitator_candidates),
            int(round(cfg.illegit_trust_imitation_fraction * len(illegit_domains))),
        )
        imitator_set = set(
            rng.choice(imitator_candidates, size=n_imitators, replace=False).tolist()
        )

        portal_domains = self._aux_domains(
            lexicon.HEALTH_PORTAL_STEMS, cfg.n_health_portals, "org"
        )
        directory_domains = self._aux_domains(
            lexicon.SPAM_DIRECTORY_STEMS, cfg.n_spam_directories, "net"
        )

        # Legitimate sites.
        for domain in legit_domains:
            is_outlier = domain in legit_outlier_set
            is_asocial = domain in asocial_set
            mix = self._site_mixture(
                rng,
                base=_LEGIT_MIX,
                blend=_ILLEGIT_MIX if is_outlier else None,
                blend_weight=0.40 if is_outlier else 0.0,
            )
            portal_targets: tuple[str, ...] = ()
            if portal_domains and not is_asocial:
                n_portals = int(
                    rng.integers(1, min(2, len(portal_domains)) + 1)
                )
                portal_targets = tuple(
                    rng.choice(portal_domains, size=n_portals, replace=False)
                )
            pages = self._make_site_pages(
                rng,
                domain=domain,
                mix=mix,
                link_weights=(
                    _ASOCIAL_LEGIT_LINK_WEIGHTS if is_asocial else _LEGIT_LINK_WEIGHTS
                ),
                hub_targets=portal_targets,
                link_rate_scale=0.35 if is_asocial else 1.0,
            )
            for page in pages:
                host.add(page)
            records.append(
                PharmacyRecord(
                    domain=domain,
                    label=1,
                    is_outlier=is_outlier,
                    is_asocial=is_asocial,
                )
            )

        # Illegitimate sites.
        non_hub = [d for d in illegit_domains if d not in hub_domains]
        members = set(
            rng.choice(
                non_hub,
                size=int(round(cfg.affiliate_member_fraction * len(non_hub))),
                replace=False,
            ).tolist()
        ) - illegit_outlier_set

        base_illegit = _ILLEGIT_DRIFT_MIX if generation == 2 else _ILLEGIT_MIX
        for domain in illegit_domains:
            is_hub = domain in hub_domains
            is_member = domain in members
            is_outlier = domain in illegit_outlier_set
            mix = self._site_mixture(
                rng,
                base=base_illegit,
                blend=_LEGIT_MIX if is_outlier else None,
                blend_weight=0.55 if is_outlier else 0.0,
            )
            hub_targets: tuple[str, ...] = ()
            if is_member:
                n_hubs = min(len(hub_domains), 1 + int(rng.integers(0, 2)))
                hub_targets = tuple(
                    rng.choice(sorted(hub_domains), size=n_hubs, replace=False)
                )
            link_weights = dict(_ILLEGIT_LINK_WEIGHTS)
            if domain in imitator_set:
                link_weights.update(_TRUST_IMITATION_LINK_WEIGHTS)
            extra_targets = () if is_outlier else hub_targets
            if directory_domains and not is_outlier and rng.random() < 0.6:
                extra_targets = extra_targets + (
                    str(rng.choice(directory_domains)),
                )
            pages = self._make_site_pages(
                rng,
                domain=domain,
                mix=mix,
                link_weights=link_weights,
                hub_targets=extra_targets,
            )
            for page in pages:
                host.add(page)
            records.append(
                PharmacyRecord(
                    domain=domain,
                    label=0,
                    is_affiliate_hub=is_hub,
                    is_affiliate_member=is_member,
                    is_outlier=is_outlier,
                    is_trust_imitator=domain in imitator_set,
                )
            )

        # Auxiliary non-pharmacy sites (future-work extension (a)).
        for domain in portal_domains:
            n_targets = min(len(legit_domains), 6)
            targets = rng.choice(legit_domains, size=n_targets, replace=False)
            for page in self._make_aux_pages(
                rng,
                domain=domain,
                pharmacy_targets=tuple(targets),
                endpoint_targets=("fda.gov", "nih.gov", "cdc.gov"),
                pools=("HEALTH_CONTENT", "COMMON_FILLER"),
            ):
                host.add(page)
        illegit_non_outliers = [
            d for d in illegit_domains if d not in illegit_outlier_set
        ]
        for domain in directory_domains:
            n_targets = min(len(illegit_non_outliers), 10)
            targets = rng.choice(
                illegit_non_outliers, size=n_targets, replace=False
            )
            for page in self._make_aux_pages(
                rng,
                domain=domain,
                pharmacy_targets=tuple(targets),
                endpoint_targets=("wordpress.org", "statcounter.com"),
                pools=("SCAM_MARKETING", "COMMON_FILLER"),
            ):
                host.add(page)

        # Gray-zone "potentially legitimate" pharmacies (Section 6.1).
        gray_domains = self._aux_domains(
            lexicon.POTENTIALLY_LEGIT_STEMS,
            cfg.n_potentially_legitimate,
            "com",
        )
        for domain in gray_domains:
            mix = self._site_mixture(
                rng, base=_LEGIT_MIX, blend=_ILLEGIT_MIX, blend_weight=0.45
            )
            gray_links = dict(_LEGIT_LINK_WEIGHTS)
            # Policy-violating but not criminal: thinner trust links,
            # some bargain-web infrastructure.
            gray_links.pop("nabp.net", None)
            gray_links["statcounter.com"] = 0.25
            gray_links["wordpress.org"] = 0.20
            for page in self._make_site_pages(
                rng,
                domain=domain,
                mix=mix,
                link_weights=gray_links,
                hub_targets=(),
                link_rate_scale=0.7,
            ):
                host.add(page)

        logger.debug(
            "snapshot %s: %d pharmacies (%d legit), %d auxiliary, %d gray, "
            "%d hosted pages",
            name,
            len(records),
            sum(r.label for r in records),
            len(portal_domains) + len(directory_domains),
            len(gray_domains),
            len(host),
        )
        return WebSnapshot(
            name=name,
            host=host,
            records=tuple(records),
            auxiliary_domains=tuple(portal_domains) + tuple(directory_domains),
            gray_domains=tuple(gray_domains),
        )

    @staticmethod
    def _aux_domains(stems: tuple[str, ...], count: int, tld: str) -> list[str]:
        domains = []
        for i in range(count):
            stem = stems[i % len(stems)]
            suffix = "" if i < len(stems) else str(i // len(stems))
            domains.append(f"{stem}{suffix}.{tld}")
        return domains

    def _make_aux_pages(
        self,
        rng: np.random.Generator,
        domain: str,
        pharmacy_targets: tuple[str, ...],
        endpoint_targets: tuple[str, ...],
        pools: tuple[str, ...],
    ) -> list[WebPage]:
        """Pages of a non-pharmacy site linking to pharmacy sites."""
        cfg = self._config
        n_pages = int(rng.integers(2, 5))
        base = f"https://www.{domain}"
        urls = [f"{base}/"] + [f"{base}/page{i}" for i in range(1, n_pages)]
        words = np.concatenate([self._pools[name] for name in pools])
        pages: list[WebPage] = []
        per_page = max(1, len(pharmacy_targets) // n_pages)
        for i, url in enumerate(urls):
            n_terms = int(
                rng.integers(cfg.min_terms_per_page, cfg.max_terms_per_page + 1)
            )
            # The draw ``rng.choice(words, size=n_terms)`` makes.
            picks = rng.integers(0, len(words), size=n_terms)
            text = " ".join(words[picks].tolist())
            links: list[str] = []
            if n_pages > 1:
                links.append(urls[(i + 1) % n_pages])
            start = i * per_page
            for target in pharmacy_targets[start : start + per_page]:
                links.append(f"https://www.{target}/")
            for endpoint_domain in endpoint_targets:
                if rng.random() < 0.5:
                    links.append(f"https://www.{endpoint_domain}/")
            pages.append(WebPage(url=url, text=text, links=tuple(links)))
        return pages

    # -- domain naming -------------------------------------------------------------

    def _legit_domains(self) -> list[str]:
        return legit_domain_names(self._config.n_legitimate)

    def _illegit_domains(self, generation: int) -> tuple[list[str], set[str]]:
        """Illegitimate domains + hub subset; disjoint across generations."""
        cfg = self._config
        n_illegit = cfg.n_illegitimate
        if generation == 2 and cfg.n_illegitimate_snapshot2 is not None:
            n_illegit = cfg.n_illegitimate_snapshot2
        return illegit_domain_names(
            n_illegit, cfg.n_affiliate_hubs, generation=generation
        )

    # -- text generation -----------------------------------------------------------

    def _site_mixture(
        self,
        rng: np.random.Generator,
        base: dict[str, float],
        blend: dict[str, float] | None,
        blend_weight: float,
    ) -> np.ndarray:
        """Per-site word distribution over the concatenated pools.

        Starts from the class mixture, optionally blends toward the
        other class (outliers), perturbs with a Dirichlet draw for
        site-to-site diversity, then expands pool probabilities to
        per-word probabilities.
        """
        names = list(_LEGIT_MIX)
        weights = np.array([base[n] for n in names], dtype=np.float64)
        if blend is not None and blend_weight > 0.0:
            other = np.array([blend[n] for n in names], dtype=np.float64)
            weights = (1.0 - blend_weight) * weights + blend_weight * other
        weights /= weights.sum()
        weights = rng.dirichlet(weights * 60.0)  # mild per-site jitter
        probs = np.repeat(weights / self._pool_sizes, self._pool_sizes)
        return probs / probs.sum()

    def _make_site_pages(
        self,
        rng: np.random.Generator,
        domain: str,
        mix: np.ndarray,
        link_weights: dict[str, float],
        hub_targets: tuple[str, ...],
        link_rate_scale: float = 1.0,
    ) -> list[WebPage]:
        """One pharmacy's pages, drawn in batches from ``rng``.

        The words of a page, and its external link targets with its hub
        links, are each one batched draw.  They consume exactly the
        random stream of the per-draw calls they replace, so the pages
        are the same bytes (``tests/reference.py`` keeps those calls as
        the oracle):

        * ``rng.choice(words, size=n, p=mix)`` validates ``mix``, then
          searches its normalized cdf (:func:`_choice_cdf`) at
          ``rng.random(n)``.  The cdf is built once per site here.
        * The ``n_ext`` scalar ``rng.choice(targets, p=...)`` calls and
          the hub links' scalar ``rng.random()`` calls are consecutive
          doubles, and ``rng.random(n_ext + n_hubs)`` fills a vector
          with the same successive doubles.
        """
        cfg = self._config
        n_pages = int(rng.integers(cfg.min_pages, cfg.max_pages + 1))
        words = self._words
        base = f"https://www.{domain}"
        urls = [f"{base}/"] + [f"{base}/page{i}" for i in range(1, n_pages)]

        # Choose this site's external link targets once (sites are
        # consistent in what they link to), then spread them over pages.
        targets = [f"https://www.{t}/" for t in link_weights]
        target_w = np.array(list(link_weights.values()))
        target_cdf = _choice_cdf(target_w / target_w.sum())
        word_cdf = _choice_cdf(mix)
        hub_links = [f"https://www.{hub}/" for hub in hub_targets]

        pages: list[WebPage] = []
        for i, url in enumerate(urls):
            n_terms = int(
                rng.integers(cfg.min_terms_per_page, cfg.max_terms_per_page + 1)
            )
            picks = word_cdf.searchsorted(rng.random(n_terms), side="right")
            text = " ".join(words[picks].tolist())
            if i == 0:
                text = f"welcome to {domain.split('.')[0]} online pharmacy. {text}"

            links: list[str] = []
            # Internal navigation: next page + up to 2 random pages.
            if n_pages > 1:
                links.append(urls[(i + 1) % n_pages])
                for _ in range(2):
                    links.append(urls[int(rng.integers(0, n_pages))])
            # External links, then affiliate spokes' links to their hubs
            # from most pages.
            n_ext = int(rng.poisson(cfg.external_links_per_page * link_rate_scale))
            draws = rng.random(n_ext + len(hub_links))
            for j in target_cdf.searchsorted(draws[:n_ext], side="right").tolist():
                links.append(targets[j])
            for link, u in zip(hub_links, draws[n_ext:].tolist()):
                if u < 0.8:
                    links.append(link)
            pages.append(WebPage(url=url, text=text, links=tuple(links)))
        return pages


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice(a, size, p=p)`` searches, built once.

    With replacement, ``choice`` validates ``p``, takes
    ``cdf = p.cumsum()``, divides it by ``cdf[-1]`` and returns
    ``a[cdf.searchsorted(rng.random(size), side="right")]``.  Searching
    this cdf at the same doubles picks the same items, without the
    validation that dominates a small draw.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def scaled_config(config: GeneratorConfig, factor: float) -> GeneratorConfig:
    """Return a copy of ``config`` with class sizes scaled by ``factor``.

    Keeps the class ratio; useful for quick-running test variants.
    """
    if factor <= 0:
        raise DataGenerationError(f"factor must be > 0, got {factor}")
    return replace(
        config,
        n_legitimate=max(2, int(round(config.n_legitimate * factor))),
        n_illegitimate=max(2, int(round(config.n_illegitimate * factor))),
        n_affiliate_hubs=max(
            1, min(config.n_affiliate_hubs, int(round(config.n_illegitimate * factor)) // 4)
        ),
    )
