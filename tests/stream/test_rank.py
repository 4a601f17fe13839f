"""DeltaRankState vs a fresh power-iteration TrustRank oracle.

Every property pins the push-based incremental scores against
:func:`repro.network.trustrank.trustrank` run cold on the current graph
with a tight budget (``max_iterations=1000, tolerance=1e-12`` — the
default 100-iteration cap stops short of 1e-9 agreement).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, ValidationError
from repro.network.graph import DirectedGraph
from repro.network.trustrank import trustrank
from repro.stream.rank import DeltaRankState

_DAMPING = 0.85
_SEEDS = ("trusted0.org", "trusted1.org")


def _oracle_graph(rows: dict[str, dict[str, float]], live: set[str]) -> DirectedGraph:
    graph = DirectedGraph()
    for node in sorted(live):
        graph.add_node(node)
    for src in sorted(rows):
        for dst in sorted(rows[src]):
            graph.add_edge(src, dst, weight=rows[src][dst])
    return graph


def _assert_matches_oracle(state, rows, live):
    expected = trustrank(
        _oracle_graph(rows, live),
        _SEEDS,
        damping=_DAMPING,
        max_iterations=1000,
        tolerance=1e-12,
    )
    actual = state.scores()
    assert set(actual) == set(expected)
    for node, score in expected.items():
        assert abs(actual[node] - score) < 1e-9, node
    assert state.residual_norm() < 1e-12


def _bootstrap(rng: np.random.Generator, n_pharmacies: int = 10):
    state = DeltaRankState(damping=_DAMPING, n_blocks=4)
    names = list(_SEEDS) + [f"pharm{i}.net" for i in range(n_pharmacies)]
    rows: dict[str, dict[str, float]] = {}
    live: set[str] = set()
    for name in names:
        targets = [t for t in names if t != name]
        picks = rng.choice(len(targets), size=3, replace=False)
        row = {targets[int(p)]: float(rng.integers(1, 4)) for p in picks}
        state.set_row(name, row)
        rows[name] = row
        live.add(name)
    state.set_trust_seeds(_SEEDS)
    state.push(1e-12)
    return state, rows, live


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bootstrap_matches_cold_trustrank(self, seed):
        state, rows, live = _bootstrap(np.random.default_rng(seed))
        _assert_matches_oracle(state, rows, live)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_edit_sequence_tracks_oracle(self, seed):
        rng = np.random.default_rng(seed)
        state, rows, live = _bootstrap(rng)
        removable = sorted(live - set(_SEEDS))
        born = 0
        for _ in range(6):
            # Takedown: drop a non-seed source (it may stay as a
            # dangling endpoint while others still link to it).
            victim = removable.pop(int(rng.integers(0, len(removable))))
            state.remove_source(victim)
            live.discard(victim)
            rows.pop(victim, None)
            # Birth: a new pharmacy linking into the live graph.
            born += 1
            baby = f"baby{born}.net"
            pool = sorted(live)
            picks = rng.choice(len(pool), size=2, replace=False)
            row = {pool[int(p)]: 1.0 for p in picks}
            state.set_row(baby, row)
            rows[baby] = row
            live.add(baby)
            removable.append(baby)
            # Rewire: replace one live source's out-row.
            src = pool[int(rng.integers(0, len(pool)))]
            picks = rng.choice(len(pool), size=2, replace=False)
            row = {
                pool[int(p)]: float(rng.integers(1, 4))
                for p in picks
                if pool[int(p)] != src
            }
            state.set_row(src, row)
            rows[src] = row
            state.push(1e-12)
            _assert_matches_oracle(state, rows, live)

    def test_capacity_growth_past_initial_allocation(self):
        # A 300-node ring crosses the 256-slot initial capacity, so the
        # arrays and block offsets must regrow without losing state.
        n = 300
        state = DeltaRankState(damping=_DAMPING, n_blocks=4)
        names = [_SEEDS[0], _SEEDS[1]] + [f"ring{i}.net" for i in range(n - 2)]
        rows = {
            names[i]: {names[(i + 1) % n]: 1.0} for i in range(n)
        }
        for src, row in rows.items():
            state.set_row(src, row)
        state.set_trust_seeds(_SEEDS)
        state.push(1e-12)
        assert state.n_nodes == n
        _assert_matches_oracle(state, rows, set(names))


class TestLifecycle:
    def test_unreferenced_takedown_is_tombstoned(self):
        state = DeltaRankState(damping=_DAMPING)
        state.set_row("a.net", {"b.net": 1.0})
        state.set_row("b.net", {"a.net": 1.0})
        state.set_row("lonely.net", {})
        state.set_trust_seeds(["a.net"])
        state.push(1e-12)
        assert "lonely.net" in state
        state.remove_source("lonely.net")
        state.push(1e-12)
        assert "lonely.net" not in state
        assert state.score_of("lonely.net") == 0.0
        assert "lonely.net" not in state.scores()

    def test_referenced_takedown_stays_dangling(self):
        state = DeltaRankState(damping=_DAMPING)
        state.set_row("hub.net", {"a.net": 1.0})
        state.set_row("a.net", {"hub.net": 1.0})
        state.set_trust_seeds(["a.net"])
        state.push(1e-12)
        state.remove_source("hub.net")
        state.push(1e-12)
        # a.net still links to the taken-down hub, so the node remains
        # (as a dangling endpoint) and keeps accumulating rank.
        assert "hub.net" in state
        assert state.score_of("hub.net") > 0.0

    def test_score_of_unknown_node_is_zero(self):
        assert DeltaRankState().score_of("ghost.net") == 0.0

    def test_push_on_empty_state_is_a_noop(self):
        assert DeltaRankState().push() == 0


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValidationError):
            DeltaRankState(damping=0.0)
        with pytest.raises(ValidationError):
            DeltaRankState(damping=1.0)
        with pytest.raises(ValidationError):
            DeltaRankState(n_blocks=0)
        with pytest.raises(ValidationError):
            DeltaRankState(tolerance=0.0)

    def test_negative_row_weight_rejected(self):
        state = DeltaRankState()
        with pytest.raises(ValidationError):
            state.set_row("a.net", {"b.net": -1.0})

    def test_non_finite_row_weight_rejected(self):
        state = DeltaRankState()
        with pytest.raises(ValidationError):
            state.set_row("a.net", {"b.net": float("nan")})

    def test_remove_unknown_source_rejected(self):
        with pytest.raises(ValidationError):
            DeltaRankState().remove_source("ghost.net")

    def test_trust_seeds_without_overlap_rejected(self):
        state = DeltaRankState()
        state.set_row("a.net", {"b.net": 1.0})
        with pytest.raises(GraphError):
            state.set_trust_seeds(["stranger.org"])

    def test_teleport_validation(self):
        state = DeltaRankState()
        state.set_row("a.net", {"b.net": 1.0})
        with pytest.raises(ValidationError):
            state.set_teleport({"a.net": -1.0})
        with pytest.raises(ValidationError):
            state.set_teleport({"a.net": 0.0})
        with pytest.raises(ValidationError):
            state.set_teleport({"stranger.org": 1.0})

    def test_push_tolerance_must_be_positive(self):
        state = DeltaRankState()
        state.set_row("a.net", {"b.net": 1.0})
        with pytest.raises(ValidationError):
            state.push(0.0)

    def test_exhausted_sweep_cap_trips_the_guard(self):
        state = DeltaRankState(max_sweeps=0)
        state.set_row("a.net", {"b.net": 1.0})
        state.set_teleport({"a.net": 1.0})
        with pytest.raises(GraphError):
            state.push(1e-12)
