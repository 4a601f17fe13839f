"""Property tests: incremental feature state equals a from-scratch fit.

The random-sequence properties are the heart of the stream layer's
contract: after any interleaving of add/remove/replace, the maintained
document frequencies are *bit-equal* to a fresh count of the surviving
membership, and the maintained class-graph means agree with the
independent :func:`~repro.stream.features.mean_class_graphs` oracle
within float reassociation error.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.exceptions import MissingKeyError, ValidationError
from repro.stream.features import (
    IncrementalClassGraphs,
    IncrementalDocumentFrequencies,
    mean_class_graphs,
)
from repro.text.ngram_graph import NGramGraph
from repro.text.term_vector import TfidfVectorizer

_WORDS = [
    "viagra", "pharmacy", "prescription", "discount", "licensed",
    "shipping", "generic", "cialis", "verified", "accreditation",
    "dosage", "pills", "overnight", "refund", "pharmacist",
]


def _random_tokens(rng: np.random.Generator) -> list[str]:
    size = int(rng.integers(3, 10))
    return [_WORDS[i] for i in rng.integers(0, len(_WORDS), size)]


def _random_text(rng: np.random.Generator) -> str:
    return " ".join(_random_tokens(rng))


def _drive(rng: np.random.Generator, n_ops: int, state, make_payload, apply):
    """Random add/remove/replace walk; returns the surviving membership."""
    live: dict[str, object] = {}
    counter = 0
    for _ in range(n_ops):
        roll = rng.random()
        if live and roll < 0.25:
            domain = sorted(live)[int(rng.integers(0, len(live)))]
            apply(state, "remove", domain, None)
            del live[domain]
        elif live and roll < 0.5:
            domain = sorted(live)[int(rng.integers(0, len(live)))]
            payload = make_payload(rng)
            apply(state, "replace", domain, payload)
            live[domain] = payload
        else:
            counter += 1
            domain = f"site{counter}.net"
            payload = make_payload(rng)
            apply(state, "add", domain, payload)
            live[domain] = payload
    return live


class TestIncrementalDocumentFrequencies:
    def _apply(self, state, op, domain, payload):
        if op == "remove":
            state.remove(domain)
        elif op == "replace":
            state.replace(domain, payload)
        else:
            state.add(domain, payload)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sequence_bit_equals_fresh_count(self, seed):
        rng = np.random.default_rng(seed)
        state = IncrementalDocumentFrequencies()
        live = _drive(rng, 60, state, _random_tokens, self._apply)
        fresh: Counter[str] = Counter()
        for tokens in live.values():
            fresh.update(frozenset(tokens))
        assert state.document_frequencies() == fresh
        assert state.n_docs == len(live)

    def test_fit_vectorizer_bit_equals_batch_fit(self):
        rng = np.random.default_rng(3)
        state = IncrementalDocumentFrequencies()
        live = _drive(rng, 40, state, _random_tokens, self._apply)
        docs = [live[d] for d in sorted(live)]
        batch = TfidfVectorizer(min_df=2).fit(docs)
        incremental = state.fit_vectorizer(min_df=2)
        assert incremental.vocabulary.terms() == batch.vocabulary.terms()
        assert np.array_equal(incremental.idf, batch.idf)

    @pytest.mark.parametrize(
        "sublinear_tf,normalize", [(False, True), (True, False)]
    )
    def test_rows_equal_transform_of_the_tokens(self, sublinear_tf, normalize):
        rng = np.random.default_rng(4)
        state = IncrementalDocumentFrequencies()
        live = _drive(rng, 40, state, _random_tokens, self._apply)
        vectorizer = TfidfVectorizer(
            min_df=2, sublinear_tf=sublinear_tf, normalize=normalize
        ).fit_document_frequencies(state.document_frequencies(), state.n_docs)
        # After the fit: a member taken down and added back, terms no
        # fit has seen, an all-out-of-vocabulary and an empty document.
        back = sorted(live)[0]
        state.remove(back)
        state.add(back, live[back])
        live["novel.net"] = ["brandnew", "brandnew", "viagra", "unseen"]
        live["oov.net"] = ["neverseen", "neverseen"]
        live["empty.net"] = []
        for domain in ("novel.net", "oov.net", "empty.net"):
            state.add(domain, live[domain])
        for fitted in (vectorizer, state.fit_vectorizer()):
            domains = sorted(live, reverse=True)
            rows = state.rows(domains, fitted)
            expected = fitted.transform([live[d] for d in domains])
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(rows, part), getattr(expected, part)
                )
        assert state.rows(["oov.net"], vectorizer).nnz == 0
        assert set(state._ids) == set().union(*map(set, live.values()))

    def test_rows_of_unknown_domain_raises(self):
        state = IncrementalDocumentFrequencies()
        state.add("a.net", ["x"])
        with pytest.raises(MissingKeyError):
            state.rows(["ghost.net"], state.fit_vectorizer())

    def test_duplicate_add_raises(self):
        state = IncrementalDocumentFrequencies()
        state.add("a.net", ["x"])
        with pytest.raises(ValidationError):
            state.add("a.net", ["y"])

    def test_remove_unknown_raises(self):
        with pytest.raises(MissingKeyError):
            IncrementalDocumentFrequencies().remove("ghost.net")

    def test_fit_with_no_docs_raises(self):
        with pytest.raises(ValidationError):
            IncrementalDocumentFrequencies().fit_vectorizer()


class TestIncrementalClassGraphs:
    def _apply(self, state, op, domain, payload):
        if op == "remove":
            state.remove(domain)
            return
        label = len(domain) % 2
        graph = state.build_document_graph(payload)
        if op == "replace":
            state.replace(domain, label, graph)
        else:
            state.add(domain, label, graph)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sequence_matches_mean_oracle(self, seed):
        rng = np.random.default_rng(seed)
        state = IncrementalClassGraphs()
        live = _drive(rng, 50, state, _random_text, self._apply)
        graphs = [NGramGraph.from_text(live[d]) for d in sorted(live)]
        labels = [len(d) % 2 for d in sorted(live)]
        expected = mean_class_graphs(graphs, labels)
        actual = state.class_graphs()
        assert set(actual) == set(expected)
        for label, expected_graph in expected.items():
            keys_a, weights_a = actual[label]._aligned(state._interner)
            keys_e, weights_e = expected_graph._aligned(state._interner)
            assert np.array_equal(keys_a, keys_e)
            assert np.max(np.abs(weights_a - weights_e), initial=0.0) < 1e-9

    def test_remove_returns_state_to_exact_prior(self):
        state = IncrementalClassGraphs()
        base = state.build_document_graph("alpha beta gamma delta")
        state.add("keep.net", 1, base)
        keys_before = state._classes[1].keys.copy()
        sums_before = state._classes[1].sums.copy()
        extra = state.build_document_graph("epsilon zeta eta theta")
        state.add("drop.net", 1, extra)
        state.remove("drop.net")
        assert np.array_equal(state._classes[1].keys, keys_before)
        assert np.array_equal(state._classes[1].sums, sums_before)

    def test_duplicate_add_raises(self):
        state = IncrementalClassGraphs()
        graph = state.build_document_graph("one two three four")
        state.add("a.net", 0, graph)
        with pytest.raises(ValidationError):
            state.add("a.net", 0, graph)

    def test_remove_unknown_raises(self):
        with pytest.raises(MissingKeyError):
            IncrementalClassGraphs().remove("ghost.net")

    def test_model_round_trip(self):
        state = IncrementalClassGraphs()
        state.add("a.net", 0, state.build_document_graph("spam spam offer"))
        state.add("b.net", 1, state.build_document_graph("pharmacy licensed"))
        model = state.model()
        assert set(model.class_graphs) == {0, 1}
        assert state.members_of(0) == 1 and state.members_of(1) == 1
        assert state.labels() == {"a.net": 0, "b.net": 1}
