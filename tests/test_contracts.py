"""Contract-decorator tests: valid passes, invalid raises, disabled no-ops."""

from __future__ import annotations

import numpy as np
import pytest

from repro import contracts
from repro.contracts import (
    check_probability_vector,
    check_row_stochastic,
    check_score_range,
    contracts_enabled,
)
from repro.exceptions import ContractViolationError
from repro.network.graph import DirectedGraph
from repro.network.pagerank import personalized_pagerank
from repro.network.trustrank import trustrank


class TestEnablement:
    def test_enabled_under_pytest(self):
        assert contracts_enabled() is True

    def test_env_zero_forces_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        assert contracts_enabled() is False

    def test_env_one_forces_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        assert contracts_enabled() is True

    def test_disabled_decorator_is_identity(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "0")

        def broken() -> dict[str, float]:
            return {"a": 5.0}

        decorated = check_probability_vector()(broken)
        assert decorated is broken
        assert decorated() == {"a": 5.0}

    def test_enabled_decorator_wraps(self):
        def fine() -> dict[str, float]:
            return {"a": 0.5, "b": 0.5}

        decorated = check_probability_vector()(fine)
        assert decorated is not fine
        assert decorated() == {"a": 0.5, "b": 0.5}


class TestProbabilityVector:
    def test_valid_dict_passes(self):
        @check_probability_vector()
        def dist() -> dict[str, float]:
            return {"x": 0.25, "y": 0.75}

        assert dist() == {"x": 0.25, "y": 0.75}

    def test_valid_array_passes(self):
        @check_probability_vector()
        def dist() -> np.ndarray:
            return np.array([0.1, 0.2, 0.7])

        assert dist().sum() == pytest.approx(1.0)

    def test_bad_mass_raises(self):
        @check_probability_vector()
        def dist() -> dict[str, float]:
            return {"x": 0.9, "y": 0.9}

        with pytest.raises(ContractViolationError, match="mass sums to"):
            dist()

    def test_negative_entry_raises(self):
        @check_probability_vector()
        def dist() -> dict[str, float]:
            return {"x": -0.5, "y": 1.5}

        with pytest.raises(ContractViolationError, match="outside"):
            dist()

    def test_nan_raises(self):
        @check_probability_vector()
        def dist() -> dict[str, float]:
            return {"x": float("nan"), "y": 1.0}

        with pytest.raises(ContractViolationError, match="non-finite"):
            dist()

    def test_empty_raises(self):
        @check_probability_vector()
        def dist() -> dict[str, float]:
            return {}

        with pytest.raises(ContractViolationError, match="empty"):
            dist()


class TestRowStochastic:
    def test_valid_matrix_passes(self):
        @check_row_stochastic()
        def proba() -> np.ndarray:
            return np.array([[0.2, 0.8], [1.0, 0.0]])

        assert proba().shape == (2, 2)

    def test_bad_row_sum_raises(self):
        @check_row_stochastic()
        def proba() -> np.ndarray:
            return np.array([[0.2, 0.9]])

        with pytest.raises(ContractViolationError, match="row sums"):
            proba()

    def test_wrong_ndim_raises(self):
        @check_row_stochastic()
        def proba() -> np.ndarray:
            return np.array([0.2, 0.8])

        with pytest.raises(ContractViolationError, match="2-D"):
            proba()


class TestScoreRange:
    def test_scalar_in_range_passes(self):
        @check_score_range(0.0, 1.0)
        def score() -> float:
            return 0.5

        assert score() == 0.5

    def test_out_of_range_raises(self):
        @check_score_range(0.0, 1.0)
        def score() -> float:
            return 1.5

        with pytest.raises(ContractViolationError, match="outside"):
            score()

    def test_getter_projection(self):
        @check_score_range(0.0, 1.0, getter=lambda pair: pair[1])
        def labelled() -> tuple[str, float]:
            return ("ok", 2.0)

        with pytest.raises(ContractViolationError):
            labelled()

    def test_allow_nan(self):
        @check_score_range(0.0, 1.0, allow_nan=True)
        def score() -> float:
            return float("nan")

        assert np.isnan(score())

    def test_nan_rejected_by_default(self):
        @check_score_range(0.0, 1.0)
        def score() -> float:
            return float("nan")

        with pytest.raises(ContractViolationError, match="NaN"):
            score()


class TestKernelWiring:
    """The shipped kernels run under their contracts in this suite."""

    @staticmethod
    def _chain() -> DirectedGraph:
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        return graph

    def test_trustrank_is_instrumented(self):
        assert hasattr(trustrank, "__wrapped__")
        scores = trustrank(self._chain(), trusted_seed=["a"])
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_personalized_pagerank_is_instrumented(self):
        assert hasattr(personalized_pagerank, "__wrapped__")
        scores = personalized_pagerank(self._chain())
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_contract_catches_corrupted_kernel_output(self):
        raw = personalized_pagerank.__wrapped__

        def corrupted(graph: DirectedGraph) -> dict[str, float]:
            scores = dict(raw(graph))
            first = next(iter(scores))
            scores[first] += 1.0
            return scores

        guarded = check_probability_vector()(corrupted)
        with pytest.raises(ContractViolationError):
            guarded(self._chain())
