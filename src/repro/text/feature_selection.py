"""Supervised term selection for text classification.

The paper reduces dimensionality by *random* term subsampling
(Section 4.1).  Classic text-categorization practice (Sebastiani [31],
Yang & Pedersen) instead scores terms against the labels and keeps the
top-k.  This module implements the standard scorer so the
random-vs-informed choice can be ablated.  It scores by **information
gain**, the entropy reduction of the class variable given the term's
presence: a presence/absence (document frequency) statistic, the
convention of the text-categorization literature.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np
from repro.exceptions import ValidationError

__all__ = [
    "information_gain_scores",
    "select_terms",
]


def _presence_counts(
    documents: Sequence[Sequence[str]], y: np.ndarray
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Per-term document-frequency in the positive / negative class."""
    pos_counts: Counter[str] = Counter()
    neg_counts: Counter[str] = Counter()
    for doc, label in zip(documents, y):
        seen = set(doc)
        if label == 1:
            pos_counts.update(seen)
        else:
            neg_counts.update(seen)
    terms = sorted(set(pos_counts) | set(neg_counts))
    pos = np.array([pos_counts.get(t, 0) for t in terms], dtype=np.float64)
    neg = np.array([neg_counts.get(t, 0) for t in terms], dtype=np.float64)
    return terms, pos, neg


def _entropy(p: np.ndarray) -> np.ndarray:
    """Binary entropy of probability array ``p`` (elementwise)."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def information_gain_scores(
    documents: Sequence[Sequence[str]], y: Sequence[int]
) -> dict[str, float]:
    """Information gain of each term's presence w.r.t. the class.

    Args:
        documents: tokenized documents.
        y: binary labels aligned with ``documents``.

    Returns:
        term -> IG score (bits), higher = more class-informative.
    """
    labels = np.asarray(y, dtype=np.int64)
    if len(documents) != labels.shape[0]:
        raise ValidationError("documents and y disagree in length")
    n = labels.shape[0]
    if n == 0:
        return {}
    n_pos = float(np.sum(labels == 1))
    terms, pos, neg = _presence_counts(documents, labels)
    base = float(_entropy(np.array([n_pos / n]))[0])
    df = pos + neg
    p_term = df / n
    # P(class=1 | term present) and P(class=1 | term absent).
    p_pos_given_term = np.divide(pos, df, out=np.zeros_like(pos), where=df > 0)
    absent = n - df
    p_pos_given_absent = np.divide(
        n_pos - pos, absent, out=np.zeros_like(pos), where=absent > 0
    )
    conditional = p_term * _entropy(p_pos_given_term) + (
        1.0 - p_term
    ) * _entropy(p_pos_given_absent)
    gains = np.maximum(base - conditional, 0.0)
    return dict(zip(terms, gains.tolist()))


def select_terms(
    documents: Sequence[Sequence[str]],
    y: Sequence[int],
    k: int,
) -> frozenset[str]:
    """The top-``k`` class-informative terms.

    Args:
        documents: tokenized training documents.
        y: labels.
        k: how many terms to keep.

    Returns:
        The selected term set (ties broken alphabetically).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    scores = information_gain_scores(documents, y)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return frozenset(term for term, _ in ranked[:k])


def filter_documents(
    documents: Sequence[Sequence[str]], keep: frozenset[str]
) -> list[list[str]]:
    """Project documents onto a selected term set (order preserved)."""
    return [[t for t in doc if t in keep] for doc in documents]
