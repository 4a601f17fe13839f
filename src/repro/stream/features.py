"""Incremental feature state: TF-IDF document frequencies and NGG class graphs.

Both maintainers follow the same contract: per-site ``add`` /
``remove`` / ``replace`` operations cost O(site), and the finalized
artifact matches a from-scratch fit of the *current* membership —
bit-equal for document frequencies (integer counts), within float
reassociation error (``1e-9``) for the running-mean class graphs.
``tests/stream/test_incremental_features.py`` pins both equivalences
against random delta sequences.

* :class:`IncrementalDocumentFrequencies` keeps the per-term document
  counts plus each member's token *set*, so removing a site subtracts
  exactly what it once added.  ``fit_vectorizer`` hands the counts to
  :meth:`repro.text.term_vector.TfidfVectorizer.fit_document_frequencies`
  — the same finalization the batch ``fit`` delegates to — so the
  vocabulary and IDF vector are bit-identical to a cold refit.

* :class:`IncrementalClassGraphs` keeps, per class, sorted packed edge
  keys with running weight *sums* and per-edge contributor counts; the
  class graph is the **exact mean** over members (absent edges count
  as zero): ``weight(e) = sum_members w(e) / n_members``.  The batch
  :meth:`NGramGraph.merged <repro.text.ngram_graph.NGramGraph.merged>`
  JInsect rule only *approximates* this mean and depends on merge
  order, so it admits no exact add/subtract form — the tests pin the
  mean itself, with :func:`mean_class_graphs` as the independent
  from-scratch computation of the same statistic.

The streaming verifier keeps only the document frequencies: its verdict
is the TF-IDF SVM, and nothing reads a class graph.  The class graphs
stay only because ``perfbench/layers.py`` still traces their methods.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import MissingKeyError, ValidationError
from repro.text.ngram_graph import ClassGraphModel, NGramGraph
from repro.text.term_vector import TfidfVectorizer

__all__ = [
    "IncrementalDocumentFrequencies",
    "IncrementalClassGraphs",
    "mean_class_graphs",
]


def mean_class_graphs(
    graphs: "Iterable[NGramGraph]",
    labels: Iterable[int],
    *,
    n: int = 4,
    window: int = 4,
) -> dict[int, NGramGraph]:
    """Exact per-class mean graphs, computed from scratch.

    The independent oracle for :class:`IncrementalClassGraphs`: all
    member edges of a class are concatenated and reduced with one
    ``unique``/``bincount`` pass (a different summation order than the
    incremental add/subtract path — agreement within float
    reassociation error is exactly what the property tests pin).
    """
    reference = NGramGraph(n=n, window=window)
    interner = reference._interner
    per_class: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for graph, label in zip(graphs, labels):
        per_class.setdefault(int(label), []).append(graph._aligned(interner))
    result: dict[int, NGramGraph] = {}
    for label, members in sorted(per_class.items()):
        keys = np.concatenate([entry[0] for entry in members])
        weights = np.concatenate([entry[1] for entry in members])
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=weights, minlength=uniq.size)
        result[label] = NGramGraph.from_edge_arrays(
            uniq,
            sums / len(members),
            n=n,
            window=window,
            interner=interner,
        )
    return result


class IncrementalDocumentFrequencies:
    """Exact document-frequency counts under site add/remove/replace."""

    __slots__ = ("_df", "_members")

    def __init__(self) -> None:
        self._df: Counter[str] = Counter()
        self._members: dict[str, frozenset[str]] = {}

    @property
    def n_docs(self) -> int:
        """Number of member documents."""
        return len(self._members)

    def __contains__(self, domain: str) -> bool:
        return domain in self._members

    def add(self, domain: str, tokens: Iterable[str]) -> None:
        """Count ``domain``'s distinct tokens into the frequencies.

        Raises:
            ValidationError: ``domain`` is already a member.
        """
        if domain in self._members:
            raise ValidationError(f"domain already counted: {domain}")
        terms = frozenset(tokens)
        self._members[domain] = terms
        self._df.update(terms)

    def remove(self, domain: str) -> None:
        """Subtract ``domain``'s contribution.

        Raises:
            MissingKeyError: ``domain`` is not a member.
        """
        terms = self._members.pop(domain, None)
        if terms is None:
            raise MissingKeyError(domain)
        df = self._df
        for term in terms:
            remaining = df[term] - 1
            if remaining:
                df[term] = remaining
            else:
                # Drop zero entries so the Counter stays bit-equal to a
                # fresh count of the current membership.
                del df[term]

    def replace(self, domain: str, tokens: Iterable[str]) -> None:
        """Swap ``domain``'s tokens for its current revision's."""
        self.remove(domain)
        self.add(domain, tokens)

    def document_frequencies(self) -> Counter[str]:
        """A copy of the current term -> document-count table."""
        return Counter(self._df)

    def fit_vectorizer(
        self, *, min_df: int = 1, max_features: int | None = None
    ) -> TfidfVectorizer:
        """Finalize a vectorizer from the maintained counts.

        Bit-identical to ``TfidfVectorizer(...).fit(current docs)`` —
        both paths finalize through ``fit_document_frequencies``.

        Raises:
            ValidationError: no member documents.
        """
        if not self._members:
            raise ValidationError("cannot fit a vectorizer with no documents")
        vectorizer = TfidfVectorizer(min_df=min_df, max_features=max_features)
        return vectorizer.fit_document_frequencies(
            Counter(self._df), len(self._members)
        )


class _ClassState:
    """Running edge sums of one class graph."""

    __slots__ = ("keys", "sums", "counts", "n_members")

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.sums = np.empty(0, dtype=np.float64)
        self.counts = np.empty(0, dtype=np.int64)
        self.n_members = 0

    def merge(self, keys: np.ndarray, weights: np.ndarray, sign: int) -> None:
        """Add (+1) or subtract (-1) one member graph's edges.

        Both key arrays are sorted, so the add path is a searchsorted
        merge — O(n + k log n), never re-sorting or hashing the class
        state the way ``np.union1d`` would.
        """
        if sign > 0:
            pos = np.searchsorted(self.keys, keys)
            in_range = pos < self.keys.size
            matched = np.zeros(keys.size, dtype=bool)
            matched[in_range] = self.keys[pos[in_range]] == keys[in_range]
            hit = pos[matched]
            self.sums[hit] += weights[matched]
            self.counts[hit] += 1
            fresh = ~matched
            if bool(np.any(fresh)):
                insert_at = pos[fresh]
                self.keys = np.insert(self.keys, insert_at, keys[fresh])
                self.sums = np.insert(self.sums, insert_at, weights[fresh])
                self.counts = np.insert(self.counts, insert_at, 1)
            self.n_members += 1
            return
        pos = np.searchsorted(self.keys, keys)
        if pos.size and (
            bool(np.any(pos >= self.keys.size))
            or bool(np.any(self.keys[pos] != keys))
        ):
            raise ValidationError(
                "cannot subtract edges that were never contributed"
            )
        self.sums[pos] -= weights
        self.counts[pos] -= 1
        keep = self.counts > 0
        if not bool(np.all(keep)):
            self.keys = self.keys[keep]
            self.sums = self.sums[keep]
            self.counts = self.counts[keep]
        self.n_members -= 1


class IncrementalClassGraphs:
    """Per-class mean graphs under site add/remove/replace.

    The class graph of label ``c`` is the exact mean of its member
    document graphs — edge weight ``sum(w_doc) / n_members`` over the
    edges at least one member carries (absent members contribute 0).
    Two deliberate departures from the batch
    :class:`~repro.text.ngram_graph.ClassGraphModel` fit: no
    half-training-set subsample (every member must stay individually
    subtractable on takedown), and the exact mean instead of the
    order-dependent JInsect running blend of
    :meth:`NGramGraph.merged <repro.text.ngram_graph.NGramGraph.merged>`
    — only the mean admits an exact add/subtract update.
    :func:`mean_class_graphs` recomputes the same statistic from
    scratch and is the oracle the equivalence tests compare against.

    All member graphs are aligned into one shared interner, so packed
    edge keys stay comparable across revisions.
    """

    __slots__ = ("_n", "_window", "_interner", "_classes", "_members")

    def __init__(self, n: int = 4, window: int = 4) -> None:
        reference = NGramGraph(n=n, window=window)
        self._n = n
        self._window = window
        # Adopt the shared process-wide interner (whatever the default
        # graph bound to), so graphs built elsewhere align for free.
        self._interner = reference._interner
        self._classes: dict[int, _ClassState] = {}
        # domain -> (label, aligned keys, weights) for exact subtraction
        self._members: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}

    @property
    def n_members(self) -> int:
        """Total member documents across classes."""
        return len(self._members)

    def __contains__(self, domain: str) -> bool:
        return domain in self._members

    def members_of(self, label: int) -> int:
        """Member count of one class (0 for unknown labels)."""
        state = self._classes.get(label)
        return state.n_members if state is not None else 0

    def build_document_graph(self, text: str) -> NGramGraph:
        """One document graph with this maintainer's (n, window)."""
        return NGramGraph.from_text(text, n=self._n, window=self._window)

    def add(self, domain: str, label: int, graph: NGramGraph) -> None:
        """Fold one member document graph into its class.

        Raises:
            ValidationError: ``domain`` is already a member.
        """
        if domain in self._members:
            raise ValidationError(f"domain already in class graphs: {domain}")
        keys, weights = graph._aligned(self._interner)
        self._members[domain] = (int(label), keys, weights)
        state = self._classes.get(int(label))
        if state is None:
            state = self._classes[int(label)] = _ClassState()
        state.merge(keys, weights, +1)

    def remove(self, domain: str) -> None:
        """Subtract one member's contribution from its class.

        Raises:
            MissingKeyError: ``domain`` is not a member.
        """
        entry = self._members.pop(domain, None)
        if entry is None:
            raise MissingKeyError(domain)
        label, keys, weights = entry
        state = self._classes[label]
        state.merge(keys, weights, -1)
        if state.n_members == 0:
            del self._classes[label]

    def replace(self, domain: str, label: int, graph: NGramGraph) -> None:
        """Swap a member's document graph for its current revision's."""
        self.remove(domain)
        self.add(domain, label, graph)

    def class_graph(self, label: int) -> NGramGraph:
        """The current mean graph of one class.

        Raises:
            MissingKeyError: no members with ``label``.
        """
        state = self._classes.get(label)
        if state is None:
            raise MissingKeyError(str(label))
        return NGramGraph.from_edge_arrays(
            state.keys,
            state.sums / state.n_members,
            n=self._n,
            window=self._window,
            interner=self._interner,
        )

    def class_graphs(self) -> dict[int, NGramGraph]:
        """label -> current mean graph, for every populated class."""
        # _classes is mutated in place by add/remove, so the sort
        # cannot be hoisted to __init__.
        return {label: self.class_graph(label) for label in sorted(self._classes)}  # repro-hot: disable=P006

    def model(self) -> ClassGraphModel:
        """A transform-capable model over the current class graphs.

        Raises:
            ValidationError: no members at all.
        """
        return ClassGraphModel.with_class_graphs(
            self.class_graphs(), n=self._n, window=self._window
        )

    def labels(self) -> Mapping[str, int]:
        """domain -> label for every member."""
        return {domain: entry[0] for domain, entry in self._members.items()}
