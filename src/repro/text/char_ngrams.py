"""Character N-Gram (bag) model — the baseline N-Gram Graphs improve on.

Section 2.2 of the paper discusses Giannakopoulos et al. [13], who
compare the Term Vector model, the **Character N-Grams model**, and the
N-Gram Graphs model.  The graphs win because they keep character order;
the plain character-n-gram *bag* discards it.  This module implements
that baseline so the comparison can be reproduced
(`repro.experiments.ablations.representation_ablation`).

The vectorizer mirrors :class:`~repro.text.term_vector.TfidfVectorizer`
but over character n-grams instead of word terms.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NotFittedError, ValidationError

__all__ = ["CharNGramVectorizer"]


class CharNGramVectorizer:
    """TF-IDF over character n-grams of raw text.

    Args:
        n: n-gram length (default 4, matching the N-Gram-Graph rank).
        min_df: drop n-grams appearing in fewer documents than this.
        max_features: keep only the most document-frequent n-grams.
        normalize: L2-normalize rows (default True).
    """

    def __init__(
        self,
        n: int = 4,
        min_df: int = 1,
        max_features: int | None = None,
        normalize: bool = True,
    ) -> None:
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        if min_df < 1:
            raise ValidationError(f"min_df must be >= 1, got {min_df}")
        if max_features is not None and max_features < 1:
            raise ValidationError(f"max_features must be >= 1, got {max_features}")
        self._n = n
        self._min_df = min_df
        self._max_features = max_features
        self._normalize = normalize
        self._index: dict[str, int] | None = None
        self._idf: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self._n

    def _ngrams(self, text: str) -> list[str]:
        if len(text) < self._n:
            return [text] if text else []
        return [text[i : i + self._n] for i in range(len(text) - self._n + 1)]

    def fit(self, texts: Sequence[str]) -> "CharNGramVectorizer":
        """Learn the n-gram vocabulary and IDF weights."""
        if not texts:
            raise ValidationError("cannot fit CharNGramVectorizer on an empty corpus")
        doc_freq: Counter[str] = Counter()
        for text in texts:
            doc_freq.update(set(self._ngrams(text)))
        items = [(g, df) for g, df in doc_freq.items() if df >= self._min_df]
        if self._max_features is not None and len(items) > self._max_features:
            items.sort(key=lambda kv: (-kv[1], kv[0]))
            items = items[: self._max_features]
        items.sort(key=lambda kv: kv[0])
        self._index = {gram: i for i, (gram, _) in enumerate(items)}
        n_docs = len(texts)
        idf = np.empty(len(items))
        for gram, df in items:
            idf[self._index[gram]] = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        self._idf = idf
        return self

    def transform(self, texts: Sequence[str]) -> sp.csr_matrix:
        """Map texts to the sparse TF-IDF n-gram matrix."""
        if self._index is None or self._idf is None:
            raise NotFittedError("CharNGramVectorizer has not been fitted")
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for text in texts:
            counts: Counter[int] = Counter()
            for gram in self._ngrams(text):
                idx = self._index.get(gram)
                if idx is not None:
                    counts[idx] += 1
            for idx in sorted(counts):
                indices.append(idx)
                data.append(counts[idx] * self._idf[idx])
            indptr.append(len(indices))
        matrix = sp.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
            shape=(len(texts), len(self._index)),
        )
        if self._normalize:
            norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
            norms[norms == 0.0] = 1.0  # exact zero-division guard
            matrix = (sp.diags(1.0 / norms) @ matrix).tocsr()
        return matrix

    def fit_transform(self, texts: Sequence[str]) -> sp.csr_matrix:
        """``fit(texts).transform(texts)``."""
        return self.fit(texts).transform(texts)
