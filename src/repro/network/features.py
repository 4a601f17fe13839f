"""The network stage and link-popularity analysis.

Provides:

* :func:`neighbour_mean` — the one kernel of the network evidence: the
  mean score of each site's neighbour list (outbound endpoints or
  in-link sources), with 0.0 for an empty list;
* :class:`NetworkStage` — the fitted TrustRank stage: propagation
  seeded from the known-legitimate training pharmacies (the paper's
  network feature), read through each site's outbound endpoints, with
  Anti-TrustRank distrust and in-link trust as the future-work
  "richer input".  :class:`~repro.core.verifier.PharmacyVerifier` and
  :class:`~repro.core.network_pipeline.NetworkClassificationPipeline`
  both read networkRank from it;
* :func:`top_linked_domains` — the Table 11 analysis: the most
  frequently linked-to external domains per class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.network.construction import build_pharmacy_graph
from repro.network.graph import DirectedGraph
from repro.network.trustrank import anti_trustrank, trustrank
from repro.web.site import SiteEvidence, Website
from repro.exceptions import ValidationError

__all__ = [
    "NetworkFeatureMatrix",
    "NetworkStage",
    "neighbour_mean",
    "top_linked_domains",
]


def neighbour_mean(
    neighbours: Sequence[Sequence[str]], scores: Mapping[str, float]
) -> np.ndarray:
    """Mean score of each neighbour list; exactly 0.0 for an empty list.

    A domain missing from ``scores`` scores 0.0.  The lookups of every
    list are concatenated into one flat array and the per-list sums
    come from one ``reduceat`` over the lists' offsets, which adds each
    list's scores in order.
    """
    lengths = np.fromiter(
        (len(domains) for domains in neighbours),
        dtype=np.int64,
        count=len(neighbours),
    )
    means = np.zeros(len(neighbours), dtype=np.float64)
    total = int(lengths.sum())
    if total == 0:
        return means
    score = scores.get
    flat = np.fromiter(
        (score(domain, 0.0) for domains in neighbours for domain in domains),
        dtype=np.float64,
        count=total,
    )
    # reduceat mishandles zero-length segments (it reads the next
    # one), so reduce only over the non-empty lists' offsets.
    nonzero = lengths > 0
    offsets = np.concatenate(([0], np.cumsum(lengths[nonzero])[:-1]))
    means[nonzero] = np.add.reduceat(flat, offsets) / lengths[nonzero]
    return means


def _nonzero(scores: Mapping[str, float]) -> dict[str, float]:
    """``scores`` without its zeros: every reading scores a missing domain 0.0.

    Most nodes sit outside the seed's reach and score exactly 0.0, so
    this keeps a saved verifier small.
    """
    return {domain: score for domain, score in scores.items() if score}


def _lookup(domains: Sequence[str], scores: Mapping[str, float]) -> np.ndarray:
    """Each domain's entry in ``scores`` (0.0 when it has none)."""
    score = scores.get
    return np.fromiter(
        (score(domain, 0.0) for domain in domains),
        dtype=np.float64,
        count=len(domains),
    )


@dataclass(frozen=True, slots=True)
class NetworkFeatureMatrix:
    """Network features for an ordered list of pharmacy domains.

    Attributes:
        domains: pharmacy domains, row order of :attr:`features`.
        features: array of shape ``(len(domains), n_features)``.
        feature_names: column names.
    """

    domains: tuple[str, ...]
    features: np.ndarray
    feature_names: tuple[str, ...]

    def column(self, name: str) -> np.ndarray:
        """One feature column by name."""
        return self.features[:, self.feature_names.index(name)]


class NetworkStage:
    """TrustRank seeded from the legitimate training fold, read per site.

    :meth:`fit` builds the web graph from the full working set (labeled
    + unlabeled sites — TrustRank is semi-supervised by design), runs
    the propagation seeded from the *training* legitimate pharmacies
    only, matching the paper's protocol where the two training folds
    form the seed P0, and keeps only the resulting score maps, without
    their zeros: no graph and no per-site matrix.  Sites are then read
    through their :class:`~repro.web.site.SiteEvidence` — the domain and
    the outbound endpoints — so a fitted stage scores sites outside its
    graph.

    Two TrustRank readings are always available:

    * ``outlink_trust`` — the mean TrustRank score of the external
      endpoints the pharmacy links to.  This is the column the network
      classifier trains on.  It is the signal that lets TrustRank
      scores separate *unseen* pharmacies at all: legitimate seeds pump
      trust into fda.gov/nabp.net/..., and an unseen pharmacy linking
      to those domains inherits a high value while affiliate-network
      targets stay cold.  Crucially its distribution is the same for
      seed and non-seed pharmacies, so a classifier trained on the fold
      that forms the seed transfers to the test fold.
    * ``trustrank`` — the pharmacy node's own TrustRank score.  In the
      paper's graph (Algorithm 1 emits only pharmacy -> endpoint
      edges), trust reaches a non-seed pharmacy only through in-links
      from other pharmacies (affiliate networks), so this is near zero
      for every unlabeled site while being large for the seed nodes
      themselves.  That train/test mismatch is why the classifier
      excludes it.  Without the neighbourhood-level column the paper's
      Table 12/13 numbers (accuracy 0.96, legitimate recall 0.73) are
      unreachable in this graph topology, so we treat ``outlink_trust``
      as the intended reading of "train a classifier using the output
      values" (Section 4.2).

    networkRank (Section 5) is their sum, :meth:`network_rank`.

    Args:
        damping: TrustRank damping factor.
    """

    def __init__(self, damping: float = 0.85) -> None:
        self._damping = damping
        self._trust: dict[str, float] = {}
        self._distrust: dict[str, float] | None = None
        self._inlink: dict[str, float] | None = None

    def fit(
        self,
        sites: Sequence[SiteEvidence],
        trusted: Sequence[str],
        distrusted: Sequence[str] = (),
        auxiliary_sites: Sequence[SiteEvidence] = (),
        graph: DirectedGraph | None = None,
    ) -> "NetworkStage":
        """Propagate trust (and distrust) over the working set's graph.

        Args:
            sites: the full working set P (train + test pharmacies).
            trusted: known-legitimate seed (P0+, training fold).
            distrusted: known-illegitimate seed; when given,
                Anti-TrustRank distrust is propagated backwards from it
                (future-work extension; empty for the paper's Tables
                12–13).
            auxiliary_sites: non-pharmacy sites to add to the graph
                (future-work extension (a); empty = the paper's graph).
                When given, the in-link trust of every site in
                ``sites`` is kept as well: portal and directory links
                are what give pharmacies in-neighbours.
            graph: a prebuilt web graph for exactly ``sites`` +
                ``auxiliary_sites``.  The graph depends only on the
                working set — not on the seeds — so cross-validation
                folds over a fixed working set can build it once and
                share it; when omitted it is built here.
        """
        if graph is None:
            graph = build_pharmacy_graph(sites, auxiliary_sites=auxiliary_sites)
        self._trust = _nonzero(trustrank(graph, trusted, damping=self._damping))
        self._distrust = (
            _nonzero(anti_trustrank(graph, distrusted, damping=self._damping))
            if distrusted
            else None
        )
        self._inlink = None
        if auxiliary_sites:
            domains = [site.domain for site in sites]
            # Unlike the raw node score, the mean trust of a site's
            # in-neighbours is identically distributed for seed and
            # non-seed pharmacies, so classifiers trained on it transfer.
            sources = [
                tuple(graph.predecessors(domain)) if domain in graph else ()
                for domain in domains
            ]
            self._inlink = dict(
                zip(domains, neighbour_mean(sources, self._trust).tolist())
            )
        return self

    def network_rank(
        self, domains: Sequence[str], endpoints: Sequence[Sequence[str]]
    ) -> np.ndarray:
        """networkRank of sites: own TrustRank plus outlink trust.

        Args:
            domains: the sites' domains.
            endpoints: each site's outbound endpoints, aligned with
                ``domains``; a site outside the graph has no own score,
                so its endpoints carry its rank.
        """
        return _lookup(domains, self._trust) + neighbour_mean(endpoints, self._trust)

    def features(
        self, domains: Sequence[str], endpoints: Sequence[Sequence[str]]
    ) -> NetworkFeatureMatrix:
        """Per-site columns, in this order.

        ``outlink_trust`` and ``trustrank`` always; ``inlink_trust``
        when the stage was fitted with auxiliary sites; then
        ``outlink_distrust`` and ``anti_trustrank`` when it was fitted
        with distrusted seeds.

        Args:
            domains: the sites' domains.
            endpoints: each site's outbound endpoints, aligned with
                ``domains``.
        """
        columns = {
            "outlink_trust": neighbour_mean(endpoints, self._trust),
            "trustrank": _lookup(domains, self._trust),
        }
        if self._inlink is not None:
            columns["inlink_trust"] = _lookup(domains, self._inlink)
        if self._distrust is not None:
            columns["outlink_distrust"] = neighbour_mean(endpoints, self._distrust)
            columns["anti_trustrank"] = _lookup(domains, self._distrust)
        return NetworkFeatureMatrix(
            domains=tuple(domains),
            features=np.column_stack(list(columns.values())),
            feature_names=tuple(columns),
        )


def top_linked_domains(
    sites: Sequence[Website],
    labels: Sequence[int],
    top_k: int = 10,
    count_mode: str = "links",
) -> dict[int, list[tuple[str, int]]]:
    """Most linked-to external domains per class (Table 11).

    Args:
        sites: pharmacy websites.
        labels: class labels aligned with ``sites`` (1 legit, 0 illegit).
        top_k: how many domains to report per class.
        count_mode: ``"links"`` tallies raw link multiplicity across all
            pages; ``"sites"`` tallies how many pharmacies of the class
            link to the domain at least once.

    Returns:
        label -> list of (domain, count), most-linked first; ties broken
        alphabetically for determinism.
    """
    if len(sites) != len(labels):
        raise ValidationError(
            f"sites and labels disagree in length: {len(sites)} vs {len(labels)}"
        )
    if count_mode not in ("links", "sites"):
        raise ValidationError(f"unknown count_mode: {count_mode!r}")
    per_class: dict[int, Counter[str]] = {}
    for site, label in zip(sites, labels):
        counter = per_class.setdefault(int(label), Counter())
        if count_mode == "links":
            counter.update(site.outbound_endpoint_counts())
        else:
            counter.update(set(site.outbound_endpoints()))
    result: dict[int, list[tuple[str, int]]] = {}
    for label, counter in per_class.items():
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        result[label] = ranked[:top_k]
    return result
