"""Term Vector model with TF-IDF weighting (Section 4.1.1).

Documents are represented as vectors over the corpus vocabulary; each
component carries a TF-IDF weight:

    tfidf(t, d) = tf(t, d) * idf(t)          with
    idf(t)      = ln((1 + |D|) / (1 + df(t))) + 1

(the smoothed variant, which never divides by zero for unseen terms).
Vectors are L2-normalized so that document length does not dominate.

The vectorizer is fit on training documents only; transforming unseen
documents silently drops out-of-vocabulary terms, which mirrors how the
model behaves on "new" data in the paper's temporal experiments.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NotFittedError, ValidationError

__all__ = ["Vocabulary", "TfidfVectorizer"]


class Vocabulary:
    """An ordered term -> column-index mapping."""

    def __init__(self, terms: Iterable[str] = ()) -> None:
        self._index: dict[str, int] = {}
        for term in terms:
            self.add(term)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def add(self, term: str) -> int:
        """Add ``term`` if absent; return its column index."""
        idx = self._index.get(term)
        if idx is None:
            idx = len(self._index)
            self._index[term] = idx
        return idx

    def index_of(self, term: str) -> int | None:
        """Column index of ``term``, or ``None`` if unknown."""
        return self._index.get(term)

    def terms(self) -> tuple[str, ...]:
        """Terms in column order.

        Indices are assigned densely in insertion order, so the dict's
        iteration order already *is* the column order — no per-call
        sort needed.
        """
        return tuple(self._index)


class TfidfVectorizer:
    """Fit a vocabulary + IDF on token lists; transform to sparse TF-IDF.

    Args:
        min_df: drop terms appearing in fewer than this many documents.
        max_features: if set, keep only the ``max_features`` terms with
            the highest document frequency (ties broken alphabetically
            for determinism).
        sublinear_tf: when True use ``1 + ln(tf)`` instead of raw counts.
        normalize: L2-normalize each document vector (default True).
    """

    def __init__(
        self,
        min_df: int = 1,
        max_features: int | None = None,
        sublinear_tf: bool = False,
        normalize: bool = True,
    ) -> None:
        if min_df < 1:
            raise ValidationError(f"min_df must be >= 1, got {min_df}")
        if max_features is not None and max_features < 1:
            raise ValidationError(f"max_features must be >= 1, got {max_features}")
        self._min_df = min_df
        self._max_features = max_features
        self._sublinear_tf = sublinear_tf
        self._normalize = normalize
        self._vocabulary: Vocabulary | None = None
        self._idf: np.ndarray | None = None

    @property
    def vocabulary(self) -> Vocabulary:
        if self._vocabulary is None:
            raise NotFittedError("TfidfVectorizer has not been fitted")
        return self._vocabulary

    @property
    def idf(self) -> np.ndarray:
        if self._idf is None:
            raise NotFittedError("TfidfVectorizer has not been fitted")
        return self._idf

    def fit(self, documents: Sequence[Sequence[str]]) -> "TfidfVectorizer":
        """Learn vocabulary and IDF weights from tokenized documents."""
        if not documents:
            raise ValidationError("cannot fit TfidfVectorizer on an empty corpus")
        doc_freq: Counter[str] = Counter()
        for doc in documents:
            doc_freq.update(set(doc))
        return self.fit_document_frequencies(doc_freq, len(documents))

    def fit_document_frequencies(
        self, doc_freq: Counter[str], n_docs: int
    ) -> "TfidfVectorizer":
        """Finalize a fit from pre-counted document frequencies.

        The out-of-core path: a streaming caller counts ``doc_freq``
        one corpus shard at a time (merging per-shard Counters) and
        hands the totals here, so fitting a million-site vocabulary
        never holds the tokenized corpus in memory.  ``fit`` delegates
        to this method, so both paths select and order terms — and
        weight IDF — identically.
        """
        if n_docs < 1:
            raise ValidationError(f"n_docs must be >= 1, got {n_docs}")
        items = [(t, df) for t, df in doc_freq.items() if df >= self._min_df]
        if self._max_features is not None and len(items) > self._max_features:
            items.sort(key=lambda kv: (-kv[1], kv[0]))
            items = items[: self._max_features]
        items.sort(key=lambda kv: kv[0])  # deterministic column order
        vocab = Vocabulary(term for term, _ in items)
        idf = np.empty(len(vocab), dtype=np.float64)
        for term, df in items:
            idx = vocab.index_of(term)
            assert idx is not None
            idf[idx] = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        self._vocabulary = vocab
        self._idf = idf
        return self

    def transform(self, documents: Sequence[Sequence[str]]) -> sp.csr_matrix:
        """Transform tokenized documents to a sparse TF-IDF matrix.

        The CSR matrix is assembled in one batched pass.  The vocabulary
        lookup is one C-level pass over all tokens of all documents
        (``map(dict.get)`` chained into ``np.fromiter``, with ``-1``
        for out-of-vocabulary terms), and one mask drops the ``-1``
        entries with their row ids.  Term counts come from a single
        ``np.unique`` over ``row * |V| + col`` keys (whose sorted order
        *is* CSR row-major order), and :meth:`tfidf_rows` weighs them
        with one vectorized expression.  Output is bit-identical to the
        former per-document dict loop (pinned by a regression test
        against ``tests.reference.reference_tfidf_transform``).
        """
        vocab = self.vocabulary
        n_docs = len(documents)
        n_vocab = len(vocab)
        lookup = vocab._index.get
        lengths = np.fromiter(map(len, documents), dtype=np.int64, count=n_docs)
        ids = np.fromiter(
            chain.from_iterable(
                map(lookup, doc, repeat(-1)) for doc in documents
            ),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        known = ids >= 0
        flat_cols = ids[known]
        flat_rows = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)[known]
        keys = flat_rows * n_vocab + flat_cols
        uniq, counts = np.unique(keys, return_counts=True)
        out_rows = uniq // n_vocab
        out_cols = uniq - out_rows * n_vocab
        return self.tfidf_rows(
            out_cols, counts, np.bincount(out_rows, minlength=n_docs)
        )

    def tfidf_rows(
        self, cols: np.ndarray, counts: np.ndarray, row_nnz: np.ndarray
    ) -> sp.csr_matrix:
        """The TF-IDF matrix of pre-counted terms: ``transform``'s tail.

        ``cols`` and ``counts`` hold every row's in-vocabulary column
        ids and raw term counts back to back, each row in increasing
        column order; ``row_nnz`` is the entry count of each row.  The
        weights are ``tf * idf`` (``1 + ln(tf)`` when ``sublinear_tf``),
        L2-normalized per row when ``normalize``.  ``transform`` ends
        here, and the streaming verifier builds rows from its cached
        term counts through the same call, so both weigh identically.
        """
        tf = counts.astype(np.float64)
        if self._sublinear_tf:
            tf = 1.0 + np.log(tf)
        indices = cols.astype(np.int32)
        indptr = np.zeros(row_nnz.size + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        matrix = sp.csr_matrix(
            (tf * self.idf[indices], indices, indptr),
            shape=(row_nnz.size, len(self.vocabulary)),
            dtype=np.float64,
        )
        if self._normalize:
            matrix = _l2_normalize_rows(matrix)
        return matrix

    def fit_transform(self, documents: Sequence[Sequence[str]]) -> sp.csr_matrix:
        """Equivalent to ``fit(documents).transform(documents)``."""
        return self.fit(documents).transform(documents)


def _l2_normalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Row-wise L2 normalization; zero rows stay zero."""
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
    norms[norms == 0.0] = 1.0  # exact zero-division guard
    inv = sp.diags(1.0 / norms)
    return (inv @ matrix).tocsr()
