"""Pre-optimization reference implementations (the equivalence oracle).

These are the pure-Python loop kernels this repo shipped before the
vectorized fast paths landed (or, for the ML layer, the classic
sequential formulations the fast kernels must reproduce):

* :class:`ReferenceNGramGraph` — the dict-backed character n-gram graph
  with per-edge dict-probe similarities.
* :func:`reference_personalized_pagerank` — the per-node Python-loop
  power iteration.
* :func:`reference_pegasos_fit` — per-sample-loop mini-batch Pegasos
  (``batch_size=1`` is the classic per-sample schedule).
* :class:`ReferenceC45Tree` — C4.5 with the per-feature/per-candidate
  split-search loop and per-row prediction loop.
* :func:`reference_ensemble_select` — per-candidate hill-climbing loop
  for Ensemble Selection.
* :class:`ReferenceSMOTE` — per-sample neighbour-search loop (the
  Chawla et al. pseudocode shape).
* :func:`reference_tfidf_transform` — the per-document dict +
  ``sorted(counts)`` CSR assembly loop.
* :func:`reference_ensure_dense` — the ``np.matrix``-routed densify
  helper that converted dtypes with a second full-matrix pass.
* :func:`reference_tokenize` — one regex ``findall`` over every text.
* :func:`reference_row_endpoints` — a shard row's endpoints with one
  ``parse_url`` per page and one ``_resolve`` per href.
* :func:`reference_score_text` — a verifier's text scores through one
  stop-filtered summary document per site.
* :class:`ReferenceWebGenerator` — the synthetic web generator drawing
  each page's words, each external link target and each hub link with
  its own ``Generator.choice`` or ``random`` call.

They exist for two reasons: the property tests in ``tests/perf`` assert
the fast paths match them within tight tolerances on randomized inputs,
and ``benchmarks/test_kernel_speed_floor.py`` times them as the
baseline that speedups are reported against.  They live beside the
tests, outside the installed package, and no pipeline imports them.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from typing import Any, Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import (
    DataGenerationError,
    GraphError,
    InvalidURLError,
    NotFittedError,
    ValidationError,
)
from repro.core.evaluation import PipelineScores
from repro.data.synthesis import SyntheticWebGenerator
from repro.io import SiteRow
from repro.ml.base import ensure_dense
from repro.ml.metrics import auc_roc
from repro.ml.sampling import SMOTE
from repro.ml.tree import C45Tree, _entropy
from repro.ml.tree import _EPS as _TREE_EPS
from repro.network.graph import DirectedGraph
from repro.text.summarization import SummaryDocument
from repro.text.term_vector import TfidfVectorizer, _l2_normalize_rows
from repro.web.page import WebPage
from repro.web.url import _resolve, parse_url

__all__ = [
    "ReferenceNGramGraph",
    "reference_personalized_pagerank",
    "reference_pegasos_fit",
    "ReferenceC45Tree",
    "reference_ensemble_select",
    "ReferenceSMOTE",
    "reference_tfidf_transform",
    "reference_ensure_dense",
    "reference_tokenize",
    "reference_row_endpoints",
    "reference_score_text",
    "ReferenceWebGenerator",
]


class ReferenceNGramGraph:
    """Dict-backed n-gram graph (the pre-vectorization implementation).

    Args:
        n: n-gram rank.
        window: neighbourhood distance Dwin.
    """

    def __init__(self, n: int = 4, window: int = 4) -> None:
        if n < 1:
            raise ValidationError(f"n-gram rank must be >= 1, got {n}")
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        self._n = n
        self._window = window
        self._edges: dict[tuple[str, str], float] = {}

    @classmethod
    def from_text(
        cls, text: str, n: int = 4, window: int = 4
    ) -> "ReferenceNGramGraph":
        """Build the n-gram graph of ``text`` with dict loops."""
        graph = cls(n=n, window=window)
        grams = graph._ngrams(text)
        edges = graph._edges
        for i, gram in enumerate(grams):
            stop = min(i + window, len(grams) - 1)
            for j in range(i + 1, stop + 1):
                key = graph._edge_key(gram, grams[j])
                edges[key] = edges.get(key, 0.0) + 1.0
        return graph

    def _ngrams(self, text: str) -> list[str]:
        n = self._n
        if len(text) < n:
            return [text] if text else []
        return [text[i : i + n] for i in range(len(text) - n + 1)]

    @staticmethod
    def _edge_key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    @property
    def n_edges(self) -> int:
        """|G| — the edge count used by the similarity formulas."""
        return len(self._edges)

    def edges(self) -> Mapping[tuple[str, str], float]:
        """Read-only view of the weighted edge set."""
        return dict(self._edges)

    def merge(
        self, other: "ReferenceNGramGraph", learning_rate: float = 0.5
    ) -> None:
        """In-place JInsect merge: ``w <- w + lr * (w_other - w)``."""
        for key, w_other in other._edges.items():
            w_self = self._edges.get(key)
            if w_self is None:
                self._edges[key] = learning_rate * w_other
            else:
                self._edges[key] = w_self + learning_rate * (w_other - w_self)

    @classmethod
    def merged(
        cls,
        graphs: Sequence["ReferenceNGramGraph"],
        n: int = 4,
        window: int = 4,
    ) -> "ReferenceNGramGraph":
        """Fold ``graphs`` together with learning rate 1/i."""
        result = cls(n=n, window=window)
        for i, graph in enumerate(graphs, start=1):
            result.merge(graph, learning_rate=1.0 / i)
        return result

    def similarities(
        self, other: "ReferenceNGramGraph"
    ) -> tuple[float, float, float, float]:
        """(CS, SS, VS, NVS) against ``other`` via per-edge dict probes."""
        if not self._edges or not other._edges:
            return (0.0, 0.0, 0.0, 0.0)
        n_self = len(self._edges)
        n_other = len(other._edges)
        shared = 0
        vs_total = 0.0
        other_edges = other._edges
        for key, w_self in self._edges.items():
            w_other = other_edges.get(key)
            if w_other is not None:
                shared += 1
                hi = max(w_self, w_other)
                if hi > 0.0:
                    vs_total += min(w_self, w_other) / hi
        lo, hi = min(n_self, n_other), max(n_self, n_other)
        cs = shared / lo
        ss = lo / hi
        vs = vs_total / hi
        return (cs, ss, vs, vs / ss)


def reference_personalized_pagerank(
    graph: DirectedGraph,
    teleport: Mapping[str, float] | None = None,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> dict[str, float]:
    """Per-node-loop power iteration (the pre-CSR implementation).

    Matches the semantics of
    :func:`repro.network.pagerank.personalized_pagerank` (including the
    :class:`~repro.exceptions.ValidationError` on negative teleport
    mass) but spends one Python loop iteration per node per power step.

    Raises:
        GraphError: empty graph or all-zero teleport vector.
        ValidationError: invalid damping or negative teleport entries.
    """
    if graph.n_nodes == 0:
        raise GraphError("cannot rank an empty graph")
    if not 0.0 < damping < 1.0:
        raise ValidationError(f"damping must be in (0, 1), got {damping}")

    nodes = list(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    if teleport is None:
        t = np.full(n, 1.0 / n)
    else:
        t = np.zeros(n)
        for node, mass in teleport.items():
            if mass < 0.0:
                raise ValidationError(
                    f"teleport mass must be >= 0, got {mass} for {node!r}"
                )
            if node in index and mass > 0.0:
                t[index[node]] = mass
        total = t.sum()
        if total <= 0.0:
            raise GraphError("teleport vector has no mass on graph nodes")
        t /= total

    out_targets: list[np.ndarray] = []
    out_weights: list[np.ndarray] = []
    dangling = np.zeros(n, dtype=bool)
    for i, node in enumerate(nodes):
        succ = graph.successors(node)
        if not succ:
            dangling[i] = True
            out_targets.append(np.empty(0, dtype=np.int64))
            out_weights.append(np.empty(0))
            continue
        targets = np.fromiter((index[d] for d in succ), dtype=np.int64)
        weights = np.fromiter(succ.values(), dtype=np.float64)
        out_targets.append(targets)
        out_weights.append(weights / weights.sum())

    rank = t.copy()
    for _ in range(max_iterations):
        new_rank = np.zeros(n)
        for i in range(n):
            mass = rank[i]
            if mass == 0.0:  # exact sparsity skip
                continue
            if dangling[i]:
                new_rank += mass * t
            else:
                new_rank[out_targets[i]] += mass * out_weights[i]
        new_rank = damping * new_rank + (1.0 - damping) * t
        if np.abs(new_rank - rank).sum() < tolerance:
            rank = new_rank
            break
        rank = new_rank
    return {node: float(rank[index[node]]) for node in nodes}


# -- ML layer references -----------------------------------------------------


def reference_pegasos_fit(
    X: "np.ndarray | sp.csr_matrix",
    signs: np.ndarray,
    sample_weight: np.ndarray,
    lam: float,
    n_epochs: int,
    seed: int,
    batch_size: int,
) -> np.ndarray:
    """Per-sample-loop mini-batch Pegasos (the sequential formulation).

    Implements exactly the schedule of
    :func:`repro.ml.svm.pegasos_weights` — same RNG stream, same global
    step counter, margins taken against the batch-start weights — but
    walks every batch member in a Python loop: one row dot product per
    margin, one scaled row addition per violator.  ``batch_size=1`` is
    the classic per-sample Pegasos update sequence.

    Args:
        X: ``(n_samples, n_features)`` dense ndarray or CSR matrix.
        signs: ±1.0 per sample.
        sample_weight: per-sample loss weight.
        lam: regularization strength λ.
        n_epochs: full passes over the training set.
        seed: RNG seed controlling the example order.
        batch_size: samples per sub-gradient step.

    Returns:
        Augmented weight vector of ``n_features + 1`` entries (bias
        folded in as the last component).
    """
    n_samples, n_features = X.shape
    rng = np.random.default_rng(seed)
    w = np.zeros(n_features + 1, dtype=np.float64)
    is_sparse = sp.issparse(X)
    t = 0
    for _ in range(n_epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            batch = order[start : start + batch_size]
            t += 1
            eta = 1.0 / (lam * t)
            margins = []
            for i in batch:
                if is_sparse:
                    row = X[int(i)]
                    dot = float((row @ w[:-1])[0])
                else:
                    dot = float(X[int(i)] @ w[:-1])
                margins.append(signs[i] * (dot + w[-1]))
            w *= 1.0 - eta * lam
            step = eta / batch.shape[0]
            for pos, i in enumerate(batch):
                if margins[pos] < 1.0:
                    c = step * (sample_weight[i] * signs[i])
                    if is_sparse:
                        row = X[int(i)]
                        w[row.indices] += c * row.data
                    else:
                        w[:-1] += c * X[int(i)]
                    w[-1] += c
    return w


class ReferenceC45Tree(C45Tree):
    """C4.5 with the per-feature/per-candidate split-search loop.

    Growth, pruning, hyperparameters, and the random ``max_features``
    draws are shared with :class:`repro.ml.tree.C45Tree`; only the
    split search and the prediction traversal are the sequential
    pre-vectorization loops, so a fitted tree (and every prediction)
    must be identical to the fast path's.
    """

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        n_samples = X.shape[0]
        parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        parent_entropy = _entropy(parent_counts)
        min_leaf = self._min_samples_leaf

        gains: list[tuple[float, float, int, float]] = []
        for feature in self._candidate_features(X, rng):
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            sorted_y = y[order]
            left = np.zeros(n_classes, dtype=np.float64)
            best_ratio = -np.inf
            best_gain = 0.0
            best_thr = 0.0
            found = False
            for i in range(n_samples - 1):
                left[sorted_y[i]] += 1.0
                if not sorted_vals[i + 1] - sorted_vals[i] > _TREE_EPS:
                    continue
                n_left = float(i + 1)
                n_right = n_samples - n_left
                if n_left < min_leaf or n_right < min_leaf:
                    continue
                right = parent_counts - left
                h_left = _entropy_of_counts(left, n_left)
                h_right = _entropy_of_counts(right, n_right)
                weighted = (n_left * h_left + n_right * h_right) / n_samples
                gain = parent_entropy - weighted
                p_left = n_left / n_samples
                p_right = n_right / n_samples
                split_info = -(
                    p_left * np.log2(p_left) + p_right * np.log2(p_right)
                )
                ratio = gain / split_info if split_info > _TREE_EPS else 0.0
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_gain = gain
                    best_thr = 0.5 * (sorted_vals[i] + sorted_vals[i + 1])
                    found = True
            if not found or not best_gain > _TREE_EPS:
                continue
            gains.append((best_gain, best_ratio, int(feature), float(best_thr)))

        if not gains:
            return None
        gain_values = np.array([g for g, _, _, _ in gains])
        avg_gain = float(np.sum(gain_values)) / len(gains)
        eligible = [item for item in gains if item[0] >= avg_gain - _TREE_EPS]
        _, _, feature, thr = max(eligible, key=lambda item: item[1])
        return feature, thr

    def predict_proba(self, X: "np.ndarray | sp.csr_matrix") -> np.ndarray:
        """Per-row tree traversal (the pre-vectorization loop)."""
        if self._root is None:
            raise NotFittedError("C45Tree has not been fitted")
        X = ensure_dense(X)
        if X.shape[1] != self._n_features:
            raise ValidationError(
                f"feature-count mismatch: fitted on {self._n_features}, "
                f"got {X.shape[1]}"
            )
        n_classes = len(self._fitted_classes())
        out = np.empty((X.shape[0], n_classes), dtype=np.float64)
        for i in range(X.shape[0]):
            node = self._root
            while not node.is_leaf:
                assert node.left is not None and node.right is not None
                node = (
                    node.left
                    if X[i, node.feature] <= node.threshold
                    else node.right
                )
            out[i] = (node.counts + 1.0) / (node.counts.sum() + n_classes)
        return out


def _entropy_of_counts(counts: np.ndarray, total: float) -> float:
    """Entropy of one class-count vector, fp-identical to the fast path."""
    p = counts / total
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return float(-np.sum(p * logp))


def reference_ensemble_select(
    predictions: Mapping[str, np.ndarray],
    y: np.ndarray,
    metric: "Callable[[np.ndarray, np.ndarray], float] | None" = None,
    n_init: int = 1,
    max_rounds: int = 30,
    tolerance: float = 1e-6,
) -> dict[str, int]:
    """Per-candidate hill-climbing loop for Ensemble Selection.

    Same selection semantics as
    :class:`repro.ml.ensemble.EnsembleSelection` — candidates walked in
    sorted-name order, initialization ranked by (metric desc, Brier
    asc, name asc), hill-climb ties resolved to the first (lowest)
    name, an addition accepted only when it beats the current bag score
    by more than ``tolerance`` — but every candidate of every round
    calls the scalar metric on a freshly averaged bag.

    Args:
        predictions: model name -> ``(n, 2)`` probability matrix.
        y: hill-climbing labels.
        metric: scoring function (default AUC-ROC).
        n_init: sorted-initialization size.
        max_rounds: cap on greedy additions.
        tolerance: minimum improvement to keep climbing.

    Returns:
        Bag composition as a model-name -> selection-count mapping.
    """
    score = metric or auc_roc
    labels = np.asarray(y).ravel()
    names = sorted(predictions)
    arrays = {name: np.asarray(predictions[name]) for name in names}
    singles = {
        name: float(score(labels, arrays[name][:, 1])) for name in names
    }
    briers = {
        name: float(np.mean((arrays[name][:, 1] - labels) ** 2))
        for name in names
    }
    ranked = sorted(names, key=lambda nm: (-singles[nm], briers[nm], nm))
    bag = list(ranked[:n_init])
    bag_sum = np.sum([arrays[nm] for nm in bag], axis=0)
    best_score = float(score(labels, (bag_sum / len(bag))[:, 1]))
    for _ in range(max_rounds):
        best_name: str | None = None
        best_new = -np.inf
        for name in names:
            candidate = (bag_sum + arrays[name]) / (len(bag) + 1)
            value = float(score(labels, candidate[:, 1]))
            if value > best_new:
                best_new = value
                best_name = name
        if best_name is None or not best_new > best_score + tolerance:
            break
        bag.append(best_name)
        bag_sum = bag_sum + arrays[best_name]
        best_score = best_new
    counts: dict[str, int] = {}
    for name in bag:
        counts[name] = counts.get(name, 0) + 1
    return counts


class ReferenceSMOTE(SMOTE):
    """SMOTE with the per-sample neighbour-search loop.

    RNG draw order (base rows, neighbour picks, gaps) and the
    interpolation arithmetic match :class:`repro.ml.sampling.SMOTE`
    exactly; the nearest-neighbour search and the synthetic-row
    interpolation run one sample at a time, as in the Chawla et al.
    pseudocode.
    """

    def _synthesize(
        self, block: np.ndarray, n_new: int, rng: np.random.Generator
    ) -> np.ndarray:
        k = min(self._k_neighbors, block.shape[0] - 1)
        n_rows = block.shape[0]
        sq = np.sum(block**2, axis=1)
        neighbour_idx = np.empty((n_rows, k), dtype=np.int64)
        for i in range(n_rows):
            d2 = sq[i] + sq - 2.0 * (block @ block[i])
            d2[i] = np.inf
            neighbour_idx[i] = np.argsort(d2)[:k]
        base = rng.integers(0, n_rows, size=n_new)
        pick = rng.integers(0, k, size=n_new)
        gaps = rng.random(size=(n_new, 1))
        out = np.empty((n_new, block.shape[1]), dtype=block.dtype)
        for j in range(n_new):
            row = block[base[j]]
            neighbour = block[neighbour_idx[base[j], pick[j]]]
            out[j] = row + gaps[j, 0] * (neighbour - row)
        return out


def reference_tfidf_transform(
    vectorizer: TfidfVectorizer, documents: Sequence[Sequence[str]]
) -> sp.csr_matrix:
    """The per-document dict + ``sorted(counts)`` CSR assembly loop.

    Reads the fitted vocabulary/IDF (and the vectorizer's configured
    flags) and rebuilds the TF-IDF matrix the way
    ``TfidfVectorizer.transform`` did before the batched construction;
    the output must be bit-identical (same data, indices, indptr).

    Args:
        vectorizer: a fitted :class:`repro.text.term_vector.TfidfVectorizer`.
        documents: tokenized documents.
    """
    vocab = vectorizer.vocabulary
    idf = vectorizer.idf
    sublinear = vectorizer._sublinear_tf
    normalize = vectorizer._normalize
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for doc in documents:
        counts: Counter[int] = Counter()
        for term in doc:
            idx = vocab.index_of(term)
            if idx is not None:
                counts[idx] += 1
        for idx in sorted(counts):
            tf = float(counts[idx])
            if sublinear:
                tf = 1.0 + np.log(tf)
            indices.append(idx)
            data.append(tf * idf[idx])
        indptr.append(len(indices))
    matrix = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
        shape=(len(documents), len(vocab)),
        dtype=np.float64,
    )
    if normalize:
        matrix = _l2_normalize_rows(matrix)
    return matrix


def reference_ensure_dense(X: Any) -> np.ndarray:
    """The pre-optimization densify helper, verbatim.

    ``np.asarray(X.todense(), dtype=np.float64)`` materializes an
    intermediate :class:`numpy.matrix` and, whenever the sparse input
    is not already float64 (integer count matrices, float32 blocks),
    re-reads the entire dense result to convert it — a second
    full-matrix pass that :func:`repro.ml.base.ensure_dense` now
    avoids by choosing the conversion order per dtype.  On float64
    input both routes cost one dense write, so the benchmarked win is
    specifically the dtype-converting regime.
    """
    if sp.issparse(X):
        return np.asarray(X.todense(), dtype=np.float64)
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


_REFERENCE_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")


def reference_tokenize(text: str) -> list[str]:
    """The tokenizer as one regex ``findall`` over the lowercased text."""
    return _REFERENCE_TOKEN_RE.findall(text.lower())


def reference_row_endpoints(row: SiteRow) -> tuple[str, ...]:
    """A row's distinct external endpoints, one parse per page and href.

    Every page URL is parsed, then every page is checked for ownership
    in page order, then every href is resolved against its page's
    parse, and its registered domain kept unless it is the row's own
    or a bare public suffix.
    """
    bases = [parse_url(url) for url, _, _ in row.pages]
    for base, (url, _, _) in zip(bases, row.pages):
        if base.registered_domain != row.domain:
            raise DataGenerationError(
                f"page {url!r} does not belong to domain {row.domain!r}"
            )
    out: list[str] = []
    for base, (_, _, links) in zip(bases, row.pages):
        for href in links:
            try:
                e = _resolve(base, href)._domain
            except InvalidURLError:
                continue
            if e is not None and e != row.domain:
                out.append(e)
    return tuple(dict.fromkeys(out))


def reference_score_text(verifier: Any, sites: Sequence[Any]) -> PipelineScores:
    """A fitted verifier's text scores through its sites' summaries.

    Each site becomes the summary document ``Summarizer.summarize_site``
    builds: tokenize and drop stop words (the verifier's preprocessor),
    then, above ``max_terms``, keep the sorted positions the
    ``(seed, crc32(domain))`` RNG draws, read one numpy index at a time.
    ``TfidfTextPipeline.score`` scores the documents through one
    transform.  This is the text path of
    :class:`~repro.core.verifier.PharmacyVerifier` before it scored
    straight from each site's tokens.

    Args:
        verifier: a fitted :class:`repro.core.verifier.PharmacyVerifier`.
        sites: site evidence with text.
    """
    summarizer = verifier._summarizer
    max_terms = summarizer.max_terms
    documents = []
    for site in sites:
        tokens = summarizer._preprocessor.preprocess(site.merged_text())
        n_source = len(tokens)
        if max_terms is not None and n_source > max_terms:
            rng = np.random.default_rng(
                [summarizer._seed, zlib.crc32(site.domain.encode("utf-8"))]
            )
            idx = rng.choice(n_source, size=max_terms, replace=False)
            idx.sort()
            tokens = [tokens[i] for i in idx]
        documents.append(SummaryDocument(site.domain, tuple(tokens), n_source))
    return verifier._pipeline.score(documents)


class ReferenceWebGenerator(SyntheticWebGenerator):
    """The synthetic web generator with one ``Generator.choice`` per draw.

    Each site concatenates the word pools and expands its pool weights
    to per-word probabilities with one ``np.full`` per pool.  Each page
    draws its words with ``choice(words, size, p=mix)``, each external
    link target with a scalar ``choice(targets, p=weights)``, and each
    hub link with a scalar ``random()``; an auxiliary page draws its
    words with a uniform ``choice``.  ``choice`` validates ``p`` on every
    call.  This is the generator before its draws were batched; the
    batched one must consume the same random stream and build the same
    pages.
    """

    def _site_mixture(
        self,
        rng: np.random.Generator,
        base: dict[str, float],
        blend: dict[str, float] | None,
        blend_weight: float,
    ) -> np.ndarray:
        names = list(self._pools)
        weights = np.array([base[n] for n in names], dtype=np.float64)
        if blend is not None and blend_weight > 0.0:
            other = np.array([blend[n] for n in names], dtype=np.float64)
            weights = (1.0 - blend_weight) * weights + blend_weight * other
        weights /= weights.sum()
        weights = rng.dirichlet(weights * 60.0)
        word_probs: list[np.ndarray] = []
        for w, name in zip(weights, names):
            pool = self._pools[name]
            word_probs.append(np.full(len(pool), w / len(pool)))
        probs = np.concatenate(word_probs)
        return probs / probs.sum()

    def _make_aux_pages(
        self,
        rng: np.random.Generator,
        domain: str,
        pharmacy_targets: tuple[str, ...],
        endpoint_targets: tuple[str, ...],
        pools: tuple[str, ...],
    ) -> list[WebPage]:
        cfg = self._config
        n_pages = int(rng.integers(2, 5))
        base = f"https://www.{domain}"
        urls = [f"{base}/"] + [f"{base}/page{i}" for i in range(1, n_pages)]
        words = np.concatenate([self._pools[name] for name in pools])
        pages = []
        per_page = max(1, len(pharmacy_targets) // n_pages)
        for i, url in enumerate(urls):
            n_terms = int(
                rng.integers(cfg.min_terms_per_page, cfg.max_terms_per_page + 1)
            )
            text = " ".join(rng.choice(words, size=n_terms).tolist())
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

    def _make_site_pages(
        self,
        rng: np.random.Generator,
        domain: str,
        mix: np.ndarray,
        link_weights: dict[str, float],
        hub_targets: tuple[str, ...],
        link_rate_scale: float = 1.0,
    ) -> list[WebPage]:
        cfg = self._config
        n_pages = int(rng.integers(cfg.min_pages, cfg.max_pages + 1))
        words = np.concatenate(list(self._pools.values()))
        base = f"https://www.{domain}"
        urls = [f"{base}/"] + [f"{base}/page{i}" for i in range(1, n_pages)]
        targets = list(link_weights)
        target_w = np.array([link_weights[t] for t in targets])
        target_w = target_w / target_w.sum()
        pages = []
        for i, url in enumerate(urls):
            n_terms = int(
                rng.integers(cfg.min_terms_per_page, cfg.max_terms_per_page + 1)
            )
            tokens = rng.choice(words, size=n_terms, p=mix)
            text = " ".join(tokens.tolist())
            if i == 0:
                text = f"welcome to {domain.split('.')[0]} online pharmacy. {text}"
            links: list[str] = []
            if n_pages > 1:
                links.append(urls[(i + 1) % n_pages])
                for _ in range(2):
                    links.append(urls[int(rng.integers(0, n_pages))])
            n_ext = int(rng.poisson(cfg.external_links_per_page * link_rate_scale))
            for _ in range(n_ext):
                target = str(rng.choice(targets, p=target_w))
                links.append(f"https://www.{target}/")
            for hub in hub_targets:
                if rng.random() < 0.8:
                    links.append(f"https://www.{hub}/")
            pages.append(WebPage(url=url, text=text, links=tuple(links)))
        return pages
