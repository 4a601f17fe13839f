"""Character N-Gram Graphs (Section 4.1.2), vectorized.

An N-Gram Graph represents a text as a graph whose vertices are the
character n-grams of the text and whose weighted edges record how often
two n-grams co-occur within a sliding window.  Per the paper (and
Giannakopoulos et al.), we use rank ``Lmin = Lmax = 4`` and window
``Dwin = 4``.

The module provides:

* :class:`NGramInterner` — a shared n-gram -> integer-id table; all
  graphs in a process intern through one table so edge identities are
  comparable across graphs without string hashing.
* :class:`NGramGraph` — build from text, merge (for class graphs), and
  the four similarity measures the paper uses:

  - Containment Similarity  ``CS(Gi, Gj) = sum_{e in Gi} mu(e, Gj) / min(|Gi|, |Gj|)``
  - Size Similarity         ``SS(Gi, Gj) = min(|Gi|, |Gj|) / max(|Gi|, |Gj|)``
  - Value Similarity        ``VS(Gi, Gj) = sum_{e in Gi} (min(wi,wj)/max(wi,wj)) / max(|Gi|, |Gj|)``
  - Normalized Value Sim.   ``NVS = VS / SS``

* :class:`ClassGraphModel` — the classification featurizer of Figure 2:
  one merged graph per class; each document is mapped to the vector of
  its similarities against every class graph.

Representation: an edge {a, b} is the packed ``int64`` key
``(min(id_a, id_b) << 32) | max(id_a, id_b)``; a graph stores one
sorted key array plus an aligned ``float64`` weight array.  Pairwise
and batch similarities are sorted-array intersections
(``searchsorted``/``intersect1d``) instead of per-edge dict probes; see
``tests.reference.ReferenceNGramGraph`` for the equivalent
dict-loop semantics this implementation is property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.perf.parallel import pmap

__all__ = [
    "NGramGraph",
    "NGramInterner",
    "GraphSimilarities",
    "ClassGraphModel",
    "SIMILARITY_NAMES",
]

#: Feature order produced by :class:`ClassGraphModel` per class graph.
SIMILARITY_NAMES = ("cs", "ss", "vs", "nvs")

#: Bits per interned id inside a packed edge key.
_ID_BITS = 32
_ID_MASK = np.int64((1 << _ID_BITS) - 1)
#: Ids must stay below 2**31 so ``id << 32`` cannot overflow int64.
_MAX_IDS = 1 << 31


class NGramInterner:
    """A process-wide n-gram -> integer-id table.

    Interning maps every distinct n-gram string to a small dense
    integer once, so graphs can store and intersect packed integer
    edge keys instead of tuple-of-string dict keys.  Ids are assigned
    in first-seen order and are only meaningful within the process —
    :class:`NGramGraph` re-interns on unpickle, so artifacts stay
    portable across processes (which :func:`repro.perf.parallel.pmap`
    relies on).
    """

    __slots__ = ("_ids", "_grams")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._grams: list[str] = []

    def __len__(self) -> int:
        return len(self._grams)

    def intern(self, gram: str) -> int:
        """The id of ``gram``, assigning a fresh one if unseen."""
        gram_id = self._ids.get(gram)
        if gram_id is None:
            gram_id = len(self._grams)
            if gram_id >= _MAX_IDS:
                raise ValidationError(
                    f"n-gram interner exhausted ({_MAX_IDS} distinct grams)"
                )
            self._ids[gram] = gram_id
            self._grams.append(gram)
        return gram_id

    def intern_many(self, grams: Sequence[str]) -> np.ndarray:
        """Ids of ``grams`` (order-preserving), as an int64 array."""
        ids = self._ids
        table = self._grams
        out = np.empty(len(grams), dtype=np.int64)
        for i, gram in enumerate(grams):
            gram_id = ids.get(gram)
            if gram_id is None:
                gram_id = len(table)
                if gram_id >= _MAX_IDS:
                    raise ValidationError(
                        f"n-gram interner exhausted ({_MAX_IDS} distinct grams)"
                    )
                ids[gram] = gram_id
                table.append(gram)
            out[i] = gram_id
        return out

    def id_of(self, gram: str) -> int | None:
        """The id of ``gram`` without assigning, or ``None`` if unseen."""
        return self._ids.get(gram)

    def gram(self, gram_id: int) -> str:
        """The n-gram string of an assigned id."""
        return self._grams[gram_id]


#: Default table shared by every graph in the process.
_SHARED_INTERNER = NGramInterner()


def _pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical (order-free) packed keys for id pairs ``(a[i], b[i])``."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return (lo << _ID_BITS) | hi


@dataclass(frozen=True, slots=True)
class GraphSimilarities:
    """The four graph similarity values between a document and a graph."""

    cs: float
    ss: float
    vs: float
    nvs: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The four similarities as ``(cs, ss, vs, nvs)``."""
        return (self.cs, self.ss, self.vs, self.nvs)


class NGramGraph:
    """A character n-gram graph.

    Edges are undirected (stored under a canonical packed key) and
    weighted by co-occurrence counts within the sliding window; merged
    graphs carry averaged weights.

    Args:
        n: n-gram rank (paper: 4).
        window: neighbourhood distance Dwin (paper: 4).
        interner: n-gram id table; defaults to the process-shared one.
    """

    __slots__ = ("_n", "_window", "_interner", "_keys", "_weights")

    def __init__(
        self,
        n: int = 4,
        window: int = 4,
        interner: NGramInterner | None = None,
    ) -> None:
        if n < 1:
            raise ValidationError(f"n-gram rank must be >= 1, got {n}")
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        self._n = n
        self._window = window
        self._interner = interner if interner is not None else _SHARED_INTERNER
        self._keys: np.ndarray = np.empty(0, dtype=np.int64)
        self._weights: np.ndarray = np.empty(0, dtype=np.float64)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str, n: int = 4, window: int = 4) -> "NGramGraph":
        """Build the n-gram graph of ``text``."""
        graph = cls(n=n, window=window)
        graph._add_text(text)
        return graph

    @classmethod
    def from_edge_arrays(
        cls,
        keys: np.ndarray,
        weights: np.ndarray,
        *,
        n: int = 4,
        window: int = 4,
        interner: NGramInterner | None = None,
    ) -> "NGramGraph":
        """Wrap precomputed ``(sorted keys, weights)`` arrays as a graph.

        The incremental class-graph maintainer (:mod:`repro.stream.
        features`) rebuilds class graphs from running edge sums; this
        constructor adopts its arrays without re-tokenizing anything.
        ``keys`` must be packed edge keys interned through ``interner``
        (the shared table by default), strictly sorted ascending.

        Raises:
            ValidationError: mismatched lengths or unsorted keys.
        """
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if keys.shape != weights.shape or keys.ndim != 1:
            raise ValidationError(
                f"edge arrays must be equal-length 1-D, got {keys.shape} "
                f"and {weights.shape}"
            )
        if keys.size > 1 and not bool(np.all(keys[:-1] < keys[1:])):
            raise ValidationError("edge keys must be strictly sorted ascending")
        graph = cls(n=n, window=window, interner=interner)
        graph._keys = keys.copy()
        graph._weights = weights.copy()
        return graph

    def _add_text(self, text: str) -> None:
        ids = self._interner.intern_many(self._ngrams(text))
        m = ids.size
        window = self._window
        # Pair (i, i+d) for every offset d up to the window, clipped at
        # the last gram — identical to the sliding-window double loop.
        parts = [_pack_pairs(ids[:-d], ids[d:]) for d in range(1, window + 1) if d < m]
        if not parts:
            return
        packed = np.concatenate(parts) if len(parts) > 1 else parts[0]
        keys, counts = np.unique(packed, return_counts=True)
        if self._keys.size == 0:
            self._keys = keys
            self._weights = counts.astype(np.float64)
            return
        self._accumulate(keys, counts.astype(np.float64))

    def _accumulate(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Add ``weights`` onto this graph's edges (union of key sets)."""
        union = np.union1d(self._keys, keys)
        w = np.zeros(union.size, dtype=np.float64)
        w[np.searchsorted(union, self._keys)] = self._weights
        pos = np.searchsorted(union, keys)
        w[pos] += weights
        self._keys = union
        self._weights = w

    def _ngrams(self, text: str) -> list[str]:
        n = self._n
        if len(text) < n:
            return [text] if text else []
        return [text[i : i + n] for i in range(len(text) - n + 1)]

    # -- introspection ---------------------------------------------------

    @property
    def n(self) -> int:
        """The n-gram length."""
        return self._n

    @property
    def window(self) -> int:
        """The neighbourhood window Dwin."""
        return self._window

    @property
    def n_edges(self) -> int:
        """|G| — the edge count used by the similarity formulas."""
        return int(self._keys.size)

    def __len__(self) -> int:
        return int(self._keys.size)

    def edge_weight(self, a: str, b: str) -> float:
        """Weight of edge {a, b}, or 0.0 when absent."""
        id_a = self._interner.id_of(a)
        id_b = self._interner.id_of(b)
        if id_a is None or id_b is None or self._keys.size == 0:
            return 0.0
        key = np.int64(min(id_a, id_b)) << _ID_BITS | np.int64(max(id_a, id_b))
        pos = int(np.searchsorted(self._keys, key))
        if pos < self._keys.size and self._keys[pos] == key:
            return float(self._weights[pos])
        return 0.0

    def edges(self) -> Mapping[tuple[str, str], float]:
        """The weighted edge set keyed by lexicographic string pairs."""
        interner = self._interner
        out: dict[tuple[str, str], float] = {}
        lo_ids = self._keys >> _ID_BITS
        hi_ids = self._keys & _ID_MASK
        for lo, hi, weight in zip(lo_ids, hi_ids, self._weights):
            a = interner.gram(int(lo))
            b = interner.gram(int(hi))
            key = (a, b) if a <= b else (b, a)
            out[key] = float(weight)
        return out

    # -- cross-interner alignment & pickling ------------------------------

    def _aligned(self, interner: NGramInterner) -> tuple[np.ndarray, np.ndarray]:
        """This graph's (keys, weights) expressed in ``interner``'s ids."""
        if interner is self._interner or self._keys.size == 0:
            return self._keys, self._weights
        own = self._interner
        lo = [own.gram(int(i)) for i in self._keys >> _ID_BITS]
        hi = [own.gram(int(i)) for i in self._keys & _ID_MASK]
        keys = _pack_pairs(interner.intern_many(lo), interner.intern_many(hi))
        order = np.argsort(keys)
        return keys[order], self._weights[order]

    def __getstate__(self) -> dict[str, Any]:
        own = self._interner
        return {
            "n": self._n,
            "window": self._window,
            "grams_lo": [own.gram(int(i)) for i in self._keys >> _ID_BITS],
            "grams_hi": [own.gram(int(i)) for i in self._keys & _ID_MASK],
            "weights": self._weights,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Re-intern into the unpickling process's shared table: interner
        # ids are process-local, gram strings are not.
        self._n = state["n"]
        self._window = state["window"]
        self._interner = _SHARED_INTERNER
        weights = np.asarray(state["weights"], dtype=np.float64)
        keys = _pack_pairs(
            self._interner.intern_many(state["grams_lo"]),
            self._interner.intern_many(state["grams_hi"]),
        )
        order = np.argsort(keys)
        self._keys = keys[order]
        self._weights = weights[order]

    # -- merging (class graphs) -------------------------------------------

    def merge(self, other: "NGramGraph", learning_rate: float = 0.5) -> None:
        """Merge ``other`` into this graph in place.

        Weights are blended with the JInsect update rule
        ``w <- w + lr * (w_other - w)``; edges new to this graph are
        adopted with ``lr * w_other`` so repeated merging converges to
        the running average of the merged documents.

        Args:
            other: graph to merge in (must share n and window).
            learning_rate: blending factor in (0, 1].
        """
        if (other.n, other.window) != (self._n, self._window):
            raise ValidationError(
                "cannot merge graphs with different (n, window): "
                f"{(self._n, self._window)} vs {(other.n, other.window)}"
            )
        if not 0.0 < learning_rate <= 1.0:
            raise ValidationError(f"learning_rate must be in (0, 1], got {learning_rate}")
        other_keys, other_weights = other._aligned(self._interner)
        if other_keys.size == 0:
            return
        if self._keys.size == 0:
            self._keys = other_keys.copy()
            self._weights = learning_rate * other_weights
            return
        union = np.union1d(self._keys, other_keys)
        w = np.zeros(union.size, dtype=np.float64)
        w[np.searchsorted(union, self._keys)] = self._weights
        pos = np.searchsorted(union, other_keys)
        known = np.isin(other_keys, self._keys, assume_unique=True)
        w[pos[known]] += learning_rate * (other_weights[known] - w[pos[known]])
        w[pos[~known]] = learning_rate * other_weights[~known]
        self._keys = union
        self._weights = w

    @classmethod
    def merged(
        cls, graphs: Sequence["NGramGraph"], n: int = 4, window: int = 4
    ) -> "NGramGraph":
        """Build a class graph by folding ``graphs`` together.

        Uses learning rate ``1/i`` for the i-th merge so the result is
        the (approximate) average graph of the collection.
        """
        result = cls(n=n, window=window)
        for i, graph in enumerate(graphs, start=1):
            result.merge(graph, learning_rate=1.0 / i)
        return result

    # -- similarities ------------------------------------------------------

    def _intersection(
        self, other: "NGramGraph"
    ) -> tuple[int, float]:
        """(shared edge count, VS numerator) against ``other``."""
        other_keys, other_weights = other._aligned(self._interner)
        _, idx_self, idx_other = np.intersect1d(
            self._keys, other_keys, assume_unique=True, return_indices=True
        )
        if idx_self.size == 0:
            return 0, 0.0
        w_self = self._weights[idx_self]
        w_other = other_weights[idx_other]
        ratios = np.minimum(w_self, w_other) / np.maximum(w_self, w_other)
        return int(idx_self.size), float(ratios.sum())

    def containment_similarity(self, other: "NGramGraph") -> float:
        """CS: fraction of this graph's edges present in ``other``."""
        if self._keys.size == 0 or other._keys.size == 0:
            return 0.0
        shared, _ = self._intersection(other)
        return shared / min(self.n_edges, other.n_edges)

    def size_similarity(self, other: "NGramGraph") -> float:
        """SS: ratio of the two edge-set sizes (min over max)."""
        if self._keys.size == 0 or other._keys.size == 0:
            return 0.0
        return min(self.n_edges, other.n_edges) / max(self.n_edges, other.n_edges)

    def value_similarity(self, other: "NGramGraph") -> float:
        """VS: weight-aware containment."""
        if self._keys.size == 0 or other._keys.size == 0:
            return 0.0
        _, vs_total = self._intersection(other)
        return vs_total / max(self.n_edges, other.n_edges)

    def normalized_value_similarity(self, other: "NGramGraph") -> float:
        """NVS = VS / SS (0 when SS is 0)."""
        ss = self.size_similarity(other)
        if ss == 0.0:  # exact zero-division guard
            return 0.0
        return self.value_similarity(other) / ss

    def similarities(self, other: "NGramGraph") -> GraphSimilarities:
        """All four similarity measures against ``other``.

        Equivalent to calling the four methods separately but computed
        from a single sorted-array intersection.
        """
        if self._keys.size == 0 or other._keys.size == 0:
            return GraphSimilarities(cs=0.0, ss=0.0, vs=0.0, nvs=0.0)
        shared, vs_total = self._intersection(other)
        lo = min(self.n_edges, other.n_edges)
        hi = max(self.n_edges, other.n_edges)
        cs = shared / lo
        ss = lo / hi
        vs = vs_total / hi
        return GraphSimilarities(cs=cs, ss=ss, vs=vs, nvs=vs / ss)


def _batch_similarities(
    graphs: Sequence[NGramGraph], class_graph: NGramGraph
) -> np.ndarray:
    """(CS, SS, VS, NVS) of every document graph against one class graph.

    One vectorized pass: all document edge keys are concatenated,
    located in the class graph's sorted key array with a single
    ``searchsorted``, and reduced per document with ``bincount`` —
    no per-document Python loop over edges.

    Returns:
        Array of shape ``(len(graphs), 4)``.
    """
    n_docs = len(graphs)
    out = np.zeros((n_docs, 4), dtype=np.float64)
    m = class_graph.n_edges
    if n_docs == 0 or m == 0:
        return out
    interner = class_graph._interner
    aligned = [g._aligned(interner) for g in graphs]
    sizes = np.fromiter((k.size for k, _ in aligned), dtype=np.int64, count=n_docs)
    total = int(sizes.sum())
    if total == 0:
        return out
    doc_of = np.repeat(np.arange(n_docs), sizes)
    doc_keys = np.concatenate([k for k, _ in aligned if k.size])
    doc_weights = np.concatenate([w for _, w in aligned if w.size])
    class_keys = class_graph._keys
    class_weights = class_graph._weights
    pos = np.searchsorted(class_keys, doc_keys)
    pos = np.minimum(pos, m - 1)
    hit = class_keys[pos] == doc_keys
    w_doc = doc_weights[hit]
    w_class = class_weights[pos[hit]]
    ratios = np.minimum(w_doc, w_class) / np.maximum(w_doc, w_class)
    shared = np.bincount(doc_of[hit], minlength=n_docs).astype(np.float64)
    vs_total = np.bincount(doc_of[hit], weights=ratios, minlength=n_docs)
    lo = np.minimum(sizes, m).astype(np.float64)
    hi = np.maximum(sizes, m).astype(np.float64)
    nonempty = sizes > 0
    np.divide(shared, lo, out=out[:, 0], where=nonempty)
    np.divide(lo, hi, out=out[:, 1], where=nonempty)
    np.divide(vs_total, hi, out=out[:, 2], where=nonempty)
    np.divide(out[:, 2], out[:, 1], out=out[:, 3], where=out[:, 1] > 0.0)
    return out


class ClassGraphModel:
    """The N-Gram-Graph featurizer of Figure 2.

    ``fit`` builds one merged graph per class from (a subset of) the
    training documents; ``transform`` maps each document to the
    concatenated (CS, SS, VS, NVS) similarities against every class
    graph — 8 features for the paper's two classes.

    Args:
        n: n-gram rank (paper: 4).
        window: Dwin (paper: 4).
        class_sample_fraction: fraction of each class's training
            documents used to build its class graph.  The paper
            "randomly selected half of the training instances to build
            the class graph", i.e. 0.5.
        seed: RNG seed for the class-graph subsample.
    """

    def __init__(
        self,
        n: int = 4,
        window: int = 4,
        class_sample_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 < class_sample_fraction <= 1.0:
            raise ValidationError(
                f"class_sample_fraction must be in (0, 1], got {class_sample_fraction}"
            )
        self._n = n
        self._window = window
        self._fraction = class_sample_fraction
        self._seed = seed
        self._class_graphs: dict[int, NGramGraph] | None = None
        self._class_order: tuple[int, ...] = ()

    @classmethod
    def with_class_graphs(
        cls,
        class_graphs: Mapping[int, NGramGraph],
        *,
        n: int = 4,
        window: int = 4,
    ) -> "ClassGraphModel":
        """Adopt prebuilt per-class graphs as a fitted model.

        The incremental class-graph maintainer (:mod:`repro.stream.
        features`) rebuilds class graphs from running edge sums each
        tick; this constructor wraps them in a transform-capable model
        without re-merging anything.

        Raises:
            ValidationError: empty mapping.
        """
        if not class_graphs:
            raise ValidationError("class_graphs must be non-empty")
        model = cls(n=n, window=window, class_sample_fraction=1.0)
        model._class_graphs = dict(class_graphs)
        model._class_order = tuple(sorted(class_graphs))
        return model

    @property
    def class_graphs(self) -> dict[int, NGramGraph]:
        """Fitted label -> merged class graph mapping."""
        if self._class_graphs is None:
            raise NotFittedError("ClassGraphModel has not been fitted")
        return self._class_graphs

    @property
    def classes(self) -> tuple[int, ...]:
        """Class labels in feature-block order."""
        if self._class_graphs is None:
            raise NotFittedError("ClassGraphModel has not been fitted")
        return self._class_order

    def feature_names(self) -> tuple[str, ...]:
        """Names of the transform output columns."""
        return tuple(
            f"{name}_class{label}"
            for label in self.classes
            for name in SIMILARITY_NAMES
        )

    def build_document_graph(self, text: str) -> NGramGraph:
        """Build one document graph with this model's (n, window)."""
        return NGramGraph.from_text(text, n=self._n, window=self._window)

    def build_document_graphs(
        self, texts: Iterable[str], jobs: int | None = None
    ) -> list[NGramGraph]:
        """Document graphs for ``texts``, optionally across processes.

        Args:
            texts: document texts.
            jobs: worker count per
                :func:`repro.perf.parallel.resolve_jobs`.
        """
        build = partial(NGramGraph.from_text, n=self._n, window=self._window)
        return pmap(build, texts, jobs=jobs)

    def fit(self, texts: Sequence[str], labels: Sequence[int]) -> "ClassGraphModel":
        """Build per-class graphs from training texts."""
        return self.fit_graphs(self.build_document_graphs(texts), labels)

    def fit_graphs(
        self, graphs: Sequence[NGramGraph], labels: Sequence[int]
    ) -> "ClassGraphModel":
        """Like :meth:`fit` but over pre-built document graphs.

        Lets callers that evaluate many classifiers or folds build each
        document's graph exactly once.
        """
        if len(graphs) != len(labels):
            raise ValidationError(
                f"graphs and labels disagree in length: {len(graphs)} vs {len(labels)}"
            )
        if not graphs:
            raise ValidationError("cannot fit ClassGraphModel on an empty corpus")
        rng = np.random.default_rng(self._seed)
        by_class: dict[int, list[int]] = {}
        for i, label in enumerate(labels):
            by_class.setdefault(int(label), []).append(i)
        class_graphs: dict[int, NGramGraph] = {}
        for label in sorted(by_class):
            indices = by_class[label]
            n_pick = max(1, int(round(self._fraction * len(indices))))
            picked = rng.choice(len(indices), size=n_pick, replace=False)
            class_graphs[label] = NGramGraph.merged(
                [graphs[indices[k]] for k in sorted(picked)],
                n=self._n,
                window=self._window,
            )
        self._class_graphs = class_graphs
        self._class_order = tuple(sorted(class_graphs))
        return self

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Map texts to similarity-feature vectors.

        Returns:
            Array of shape ``(len(texts), 4 * n_classes)`` with columns
            ordered per :meth:`feature_names`.
        """
        return self.transform_graphs(self.build_document_graphs(texts))

    def transform_graphs(self, graphs: Sequence[NGramGraph]) -> np.ndarray:
        """Like :meth:`transform` but over pre-built document graphs."""
        class_graphs = self.class_graphs
        out = np.zeros((len(graphs), 4 * len(class_graphs)), dtype=np.float64)
        for k, label in enumerate(self._class_order):
            out[:, 4 * k : 4 * k + 4] = _batch_similarities(
                graphs, class_graphs[label]
            )
        return out

    def fit_transform(
        self, texts: Sequence[str], labels: Sequence[int]
    ) -> np.ndarray:
        """``fit`` then ``transform`` the same texts."""
        graphs = self.build_document_graphs(texts)
        return self.fit_graphs(graphs, labels).transform_graphs(graphs)
