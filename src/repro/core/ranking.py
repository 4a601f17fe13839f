"""Online Pharmacy Ranking — Problem 2 (Section 5).

The trust score of a pharmacy is the cumulative model

    rank(p) = textRank(p) + networkRank(p)

where textRank is the legitimate-class membership probability (TF-IDF
pipelines with probabilistic classifiers), the hard 0/1 label (SVM), or
the Equation-3 similarity sum (N-Gram Graphs); networkRank is the
TrustRank value.  Quality is measured by pairwise orderedness over the
test pairs, and the outlier analysis of Section 6.4 surfaces the
illegitimate pharmacies that fooled the system and the legitimate ones
it under-ranked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.contracts import check_score_range
from repro.exceptions import ValidationError
from repro.ml.metrics import pairwise_orderedness

__all__ = [
    "RankedPharmacy",
    "RankingResult",
    "OutlierReport",
    "rank_pharmacies",
    "analyze_outliers",
]


@dataclass(frozen=True, slots=True)
class RankedPharmacy:
    """One row of the legitimacy ranking."""

    domain: str
    rank_score: float
    text_rank: float
    network_rank: float
    oracle_label: int | None = None


@dataclass(frozen=True, slots=True)
class RankingResult:
    """A complete ranking with its quality measure.

    Attributes:
        entries: pharmacies in decreasing legitimacy order.
        pairord: pairwise orderedness against the oracle labels
            (``nan`` when labels were not supplied).
    """

    entries: tuple[RankedPharmacy, ...]
    pairord: float

    @property
    def domains(self) -> tuple[str, ...]:
        """Domains in ranking order (most legitimate first)."""
        return tuple(entry.domain for entry in self.entries)


@check_score_range(0.0, 1.0, getter=lambda result: result.pairord, allow_nan=True)
def rank_pharmacies(
    domains: Sequence[str],
    text_ranks: Sequence[float],
    network_ranks: Sequence[float],
    oracle_labels: Sequence[int] | None = None,
) -> RankingResult:
    """Build the totally ordered set of Problem 2.

    Args:
        domains: pharmacy domains.
        text_ranks: textRank values aligned with ``domains``.
        network_ranks: networkRank values aligned with ``domains``.
        oracle_labels: ground truth for pairwise orderedness (optional).

    Returns:
        Ranking in decreasing legitimacy (most legitimate first), with
        deterministic tie-breaking on domain name.
    """
    if not (len(domains) == len(text_ranks) == len(network_ranks)):
        raise ValidationError("domains/text_ranks/network_ranks length mismatch")
    text = np.asarray(text_ranks, dtype=np.float64)
    network = np.asarray(network_ranks, dtype=np.float64)
    scores = text + network
    labels = (
        np.asarray(oracle_labels, dtype=np.int64)
        if oracle_labels is not None
        else None
    )
    # Python floats and ints hold the same values as the arrays, and
    # sorting on them is cheaper than on numpy scalars.
    score_list = scores.tolist()
    text_list = text.tolist()
    network_list = network.tolist()
    label_list = labels.tolist() if labels is not None else [None] * len(domains)
    order = sorted(
        range(len(domains)), key=lambda i: (-score_list[i], domains[i])
    )
    entries = tuple(
        RankedPharmacy(
            domain=domains[i],
            rank_score=score_list[i],
            text_rank=text_list[i],
            network_rank=network_list[i],
            oracle_label=label_list[i],
        )
        for i in order
    )
    pairord = (
        pairwise_orderedness(scores, labels) if labels is not None else float("nan")
    )
    return RankingResult(entries=entries, pairord=pairord)


@dataclass(frozen=True, slots=True)
class OutlierReport:
    """Section 6.4 outlier analysis.

    Attributes:
        illegitimate_outliers: illegitimate pharmacies ranked highest
            (the ones that fooled the system).
        legitimate_outliers: legitimate pharmacies ranked lowest (the
            ones the system under-ranks).
    """

    illegitimate_outliers: tuple[RankedPharmacy, ...]
    legitimate_outliers: tuple[RankedPharmacy, ...]


def analyze_outliers(result: RankingResult, top_k: int = 5) -> OutlierReport:
    """Extract ranking outliers per Section 6.4.

    Args:
        result: a ranking whose entries carry oracle labels.
        top_k: how many outliers to report per class.

    Raises:
        ValueError: when the ranking has no oracle labels.
    """
    if any(entry.oracle_label is None for entry in result.entries):
        raise ValidationError("outlier analysis requires oracle labels")
    illegit_high = [e for e in result.entries if e.oracle_label == 0][:top_k]
    legit_low = [e for e in reversed(result.entries) if e.oracle_label == 1][
        :top_k
    ]
    return OutlierReport(
        illegitimate_outliers=tuple(illegit_high),
        legitimate_outliers=tuple(legit_low),
    )
