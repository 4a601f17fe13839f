"""Incremental feature state: TF-IDF document frequencies and NGG class graphs.

Both maintainers follow the same contract: per-site ``add`` /
``remove`` / ``replace`` operations cost O(site), and the finalized
artifact matches a from-scratch fit of the *current* membership —
bit-equal for document frequencies (integer counts), within float
reassociation error (``1e-9``) for the running-mean class graphs.
``tests/stream/test_incremental_features.py`` pins both equivalences
against random delta sequences.

* :class:`IncrementalDocumentFrequencies` interns every live term to
  an integer id (freed when its document count reaches 0) and keeps
  each member's term ids and term counts, so removing a site subtracts
  exactly what it once added.  ``fit_vectorizer`` hands the counts to
  :meth:`repro.text.term_vector.TfidfVectorizer.fit_document_frequencies`
  — the same finalization the batch ``fit`` delegates to — so the
  vocabulary and IDF vector are bit-identical to a cold refit.
  ``rows`` rebuilds members' TF-IDF rows from the cached counts,
  bit-equal to ``transform`` of their tokens, so neither a tick nor a
  retrain keeps or re-counts tokens.

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
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import MissingKeyError, ValidationError
from repro.text.ngram_graph import ClassGraphModel, NGramGraph
from repro.text.term_vector import TfidfVectorizer, Vocabulary

__all__ = [
    "IncrementalDocumentFrequencies",
    "IncrementalClassGraphs",
    "mean_class_graphs",
]

_NO_IDS = np.zeros(0, dtype=np.intp)


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
    """Exact document frequencies and per-member term counts.

    Every term with a nonzero document frequency is interned to a small
    integer id; an id is freed, and later reused, when its frequency
    drops to 0, so the interner holds exactly the live vocabulary.  A
    member keeps its distinct term ids and their counts, both sorted by
    term string, which is all :meth:`rows` needs to rebuild its TF-IDF
    row without its tokens.
    """

    __slots__ = (
        "_ids", "_terms", "_free", "_df", "_members", "_vocabulary", "_columns"
    )

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}  # live term -> id
        self._terms: list[str | None] = []  # id -> term, None once freed
        self._free: list[int] = []
        self._df = np.zeros(0, dtype=np.int64)  # id -> document frequency
        # domain -> (term ids, term counts), both in sorted term order
        self._members: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # id -> column in the vocabulary last passed to rows(), or -1
        self._vocabulary: Vocabulary | None = None
        self._columns = np.zeros(0, dtype=np.intp)

    @property
    def n_docs(self) -> int:
        """Number of member documents."""
        return len(self._members)

    def __contains__(self, domain: str) -> bool:
        return domain in self._members

    def add(self, domain: str, tokens: Iterable[str]) -> None:
        """Count ``domain``'s tokens into the frequencies.

        Raises:
            ValidationError: ``domain`` is already a member.
        """
        if domain in self._members:
            raise ValidationError(f"domain already counted: {domain}")
        counts = Counter(tokens)
        terms = sorted(counts)
        ids = list(map(self._ids.get, terms))
        if None in ids:
            ids = [
                self._intern(term) if term_id is None else term_id
                for term, term_id in zip(terms, ids)
            ]
        term_ids = np.array(ids, dtype=np.intp)
        self._df[term_ids] += 1
        self._members[domain] = (
            term_ids,
            np.fromiter(map(counts.__getitem__, terms), np.int64, len(terms)),
        )

    def remove(self, domain: str) -> None:
        """Subtract ``domain``'s contribution.

        Raises:
            MissingKeyError: ``domain`` is not a member.
        """
        entry = self._members.pop(domain, None)
        if entry is None:
            raise MissingKeyError(domain)
        term_ids = entry[0]
        self._df[term_ids] -= 1
        for term_id in term_ids[self._df[term_ids] == 0].tolist():
            del self._ids[self._terms[term_id]]
            self._terms[term_id] = None
            self._free.append(term_id)

    def replace(self, domain: str, tokens: Iterable[str]) -> None:
        """Swap ``domain``'s tokens for its current revision's."""
        self.remove(domain)
        self.add(domain, tokens)

    def _intern(self, term: str) -> int:
        """A fresh id for a term whose document frequency is 0."""
        if self._free:
            term_id = self._free.pop()
            self._terms[term_id] = term
        else:
            term_id = len(self._terms)
            self._terms.append(term)
            if term_id == self._df.size:
                grow = max(64, term_id)
                self._df = np.concatenate([self._df, np.zeros(grow, np.int64)])
                self._columns = np.concatenate(
                    [self._columns, np.full(grow, -1, np.intp)]
                )
        self._ids[term] = term_id
        if self._vocabulary is not None:
            column = self._vocabulary.index_of(term)
            self._columns[term_id] = -1 if column is None else column
        return term_id

    def document_frequencies(self) -> Counter[str]:
        """A copy of the current term -> document-count table."""
        ids = np.fromiter(self._ids.values(), np.intp, len(self._ids))
        return Counter(dict(zip(self._ids, self._df[ids].tolist())))

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
            self.document_frequencies(), len(self._members)
        )

    def rows(
        self, domains: Sequence[str], vectorizer: TfidfVectorizer
    ) -> sp.csr_matrix:
        """``vectorizer.transform`` of the members' tokens, from their counts.

        One remap array takes term ids to the fitted vocabulary's
        columns; it is rebuilt only when the vocabulary changes and kept
        current as terms are interned.  A fitted vocabulary is in sorted
        term order, as are each member's ids, so every row's columns
        come out increasing, as CSR needs, and
        :meth:`TfidfVectorizer.tfidf_rows` weighs them exactly as
        ``transform`` would.

        Raises:
            MissingKeyError: a domain is not a member.
        """
        vocabulary = vectorizer.vocabulary
        if vocabulary is not self._vocabulary:
            known = np.fromiter(
                map(self._ids.get, vocabulary.terms(), repeat(-1)),
                np.intp,
                len(vocabulary),
            )
            in_state = known >= 0
            self._columns = np.full(self._df.size, -1, dtype=np.intp)
            self._columns[known[in_state]] = np.flatnonzero(in_state)
            self._vocabulary = vocabulary
        try:
            members = [self._members[domain] for domain in domains]
        except KeyError as exc:
            raise MissingKeyError(exc.args[0]) from None
        lengths = np.fromiter(
            (entry[0].size for entry in members), np.int64, len(members)
        )
        ids = np.concatenate([_NO_IDS, *(entry[0] for entry in members)])
        counts = np.concatenate([_NO_IDS, *(entry[1] for entry in members)])
        cols = self._columns[ids]
        present = cols >= 0
        row_of = np.repeat(np.arange(len(members)), lengths)
        return vectorizer.tfidf_rows(
            cols[present],
            counts[present],
            np.bincount(row_of[present], minlength=len(members)),
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
        return {label: self.class_graph(label) for label in sorted(self._classes)}

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
