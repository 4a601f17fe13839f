"""Push-based delta TrustRank/PageRank over row-blocked CSR state.

Full power iteration costs O(edges x iterations) per snapshot no
matter how small the change.  This module maintains the personalized
PageRank fixed point

    x = (1 - d) * t  +  d * (P @ x  +  t * sum(x[dangling]))

*incrementally*: the state keeps, besides ``x``, the **residual**
``res = rhs(x) - x``.  Editing a source's out-row (or the teleport
vector) with ``x`` held fixed changes the residual by an exactly
computable sparse delta — ``d * x[src] * (new_row - old_row)`` for a
row edit — so a tick touching a handful of sites perturbs ``res`` in
O(changed edges).  :meth:`DeltaRankState.push` then restores the fixed
point by residual propagation::

    x   +=  res
    res  =  d * (P @ res + t * sum(res[dangling]))

whose L1 norm contracts by ``d`` per sweep, giving
``|x - x*|_1 <= |res|_1 / (1 - d)`` — solve to ``1e-12`` and the
result agrees with a fresh :func:`repro.network.pagerank.
personalized_pagerank` run to 1e-9 (pinned by ``tests/stream``).

The propagation matrix lives in row blocks mirroring
:mod:`repro.network.blockrank`: sources are partitioned by
:func:`~repro.network.blockrank._block_offsets`, each block holding a
CSR of its sources' normalized out-rows (``block[src_local, dst]``).
Row edits only mark the owning block dirty; blocks rebuild lazily at
the next push, and sweeps touching few sources slice just the active
rows of the affected blocks.

Node lifecycle matches :func:`repro.network.construction.
build_pharmacy_graph` semantics: a node exists while it is a live
pharmacy *or* some live site still links to it (a taken-down affiliate
hub stays a dangling endpoint node until the last member rewires away);
a node nobody references is tombstoned — its teleport mass and row are
gone, so pushing drains its score to zero and it drops out of
:meth:`DeltaRankState.scores`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError, ValidationError
from repro.network.blockrank import _block_offsets

__all__ = ["DeltaRankState"]

#: Rebuild threshold: when more than this fraction of a block's sources
#: carry residual, a full block matvec beats slicing the active rows.
_ACTIVE_ROW_FRACTION = 0.25

_INITIAL_CAPACITY = 256


class DeltaRankState:
    """Incrementally maintained personalized PageRank scores.

    Args:
        damping: probability of following a link (α).
        n_blocks: source-row blocks for the propagation matrix.
        tolerance: default residual L1 target of :meth:`push`.
        max_sweeps: hard cap on push sweeps (the residual contracts by
            ``damping`` per sweep, so ``log(tol)/log(damping)`` sweeps
            suffice from any state; the cap only guards against NaNs).
    """

    def __init__(
        self,
        damping: float = 0.85,
        n_blocks: int = 8,
        tolerance: float = 1e-12,
        max_sweeps: int = 2000,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ValidationError(f"damping must be in (0, 1), got {damping}")
        if n_blocks < 1:
            raise ValidationError(f"n_blocks must be >= 1, got {n_blocks}")
        if tolerance <= 0.0:
            raise ValidationError(f"tolerance must be > 0, got {tolerance}")
        self._damping = damping
        self._n_blocks = n_blocks
        self._tolerance = tolerance
        self._max_sweeps = max_sweeps
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        cap = _INITIAL_CAPACITY
        self._x = np.zeros(cap)
        self._res = np.zeros(cap)
        self._t = np.zeros(cap)
        self._dangling = np.zeros(cap, dtype=bool)
        self._ref = np.zeros(cap, dtype=np.int64)
        self._live_pharm = np.zeros(cap, dtype=bool)
        # rows[src_id] = (dst ids, normalized probabilities)
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._offsets = _block_offsets(cap, n_blocks)
        self._blocks: list[sp.csr_matrix | None] = [None] * (
            len(self._offsets) - 1
        )
        self._dirty: set[int] = set(range(len(self._blocks)))

    # -- node bookkeeping ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Allocated node slots (live + tombstoned)."""
        return len(self._names)

    def __contains__(self, node: str) -> bool:
        i = self._index.get(node)
        return i is not None and bool(self._alive(i))

    def _alive(self, i: int) -> bool:
        return bool(self._live_pharm[i]) or self._ref[i] > 0

    def _ensure_capacity(self, n: int) -> None:
        cap = self._x.size
        if n <= cap:
            return
        while cap < n:
            cap *= 2
        for name in ("_x", "_res", "_t"):
            old = getattr(self, name)
            grown = np.zeros(cap)
            grown[: old.size] = old
            setattr(self, name, grown)
        for name, dtype in (
            ("_dangling", bool),
            ("_ref", np.int64),
            ("_live_pharm", bool),
        ):
            old = getattr(self, name)
            grown = np.zeros(cap, dtype=dtype)
            grown[: old.size] = old
            setattr(self, name, grown)
        self._offsets = _block_offsets(cap, self._n_blocks)
        self._blocks = [None] * (len(self._offsets) - 1)
        self._dirty = set(range(len(self._blocks)))

    def _node_id(self, node: str) -> int:
        i = self._index.get(node)
        if i is None:
            i = len(self._names)
            self._ensure_capacity(i + 1)
            self._index[node] = i
            self._names.append(node)
        return i

    def _block_of(self, i: int) -> int:
        # Balanced offsets over a fixed capacity: binary search is the
        # general form (blocks differ by at most one row).
        return int(np.searchsorted(self._offsets, i, side="right") - 1)

    def _set_dangling(self, i: int, value: bool) -> None:
        """Flip a node's dangling flag, keeping the residual exact.

        A dangling column of the propagation matrix is ``t`` (mass
        redistributes by teleport), so the flip moves
        ``d * x[i] * t`` in or out of the residual.
        """
        if bool(self._dangling[i]) == value:
            return
        sign = 1.0 if value else -1.0
        xi = self._x[i]
        if xi != 0.0:
            n = len(self._names)
            self._res[:n] += self._damping * sign * xi * self._t[:n]
        self._dangling[i] = value

    def _refresh_node_state(self, i: int) -> None:
        """Re-derive dangling from (alive, has-row) after a change."""
        alive = self._alive(i)
        self._set_dangling(i, alive and i not in self._rows)

    def _adjust_refs(self, dst_ids: np.ndarray, delta: int) -> None:
        for i in dst_ids:
            i = int(i)
            self._ref[i] += delta
            self._refresh_node_state(i)

    # -- graph edits (each keeps ``res = rhs(x) - x`` exact) ---------------

    def set_row(self, src: str, weights: Mapping[str, float]) -> None:
        """Install or replace a live pharmacy's out-links.

        ``weights`` are raw link weights (normalized here); an empty
        mapping makes the source dangling.  The residual absorbs
        ``d * x[src] * (new_row - old_row)`` so the fixed-point error
        stays confined to the edit.

        Raises:
            ValidationError: negative or non-finite weights.
        """
        s = self._node_id(src)
        self._live_pharm[s] = True
        d = self._damping
        xs = self._x[s]
        old = self._rows.pop(s, None)
        if old is not None:
            old_ids, old_probs = old
            if xs != 0.0:
                self._res[old_ids] -= d * xs * old_probs
            self._adjust_refs(old_ids, -1)
            self._dirty.add(self._block_of(s))
        if weights:
            targets = list(weights)
            values = np.fromiter(
                (weights[node] for node in targets), dtype=np.float64
            )
            if not bool(np.all(np.isfinite(values))) or bool(
                np.any(values < 0.0)
            ):
                raise ValidationError(
                    f"row weights must be finite and >= 0, got {weights}"
                )
            total = values.sum()
            if total > 0.0:
                ids = np.fromiter(
                    (self._node_id(node) for node in targets), dtype=np.int64
                )
                probs = values / total
                self._rows[s] = (ids, probs)
                if xs != 0.0:
                    self._res[ids] += d * xs * probs
                self._adjust_refs(ids, +1)
                self._dirty.add(self._block_of(s))
        self._refresh_node_state(s)

    def remove_source(self, src: str) -> None:
        """Take down a pharmacy: drop its row and live flag.

        The node stays (dangling) while other live sites still link to
        it; once unreferenced it is tombstoned and its score drains to
        zero on the next pushes.

        Raises:
            ValidationError: unknown source.
        """
        s = self._index.get(src)
        if s is None or not self._live_pharm[s]:
            raise ValidationError(f"not a live ranked source: {src}")
        d = self._damping
        xs = self._x[s]
        old = self._rows.pop(s, None)
        if old is not None:
            old_ids, old_probs = old
            if xs != 0.0:
                self._res[old_ids] -= d * xs * old_probs
            self._adjust_refs(old_ids, -1)
            self._dirty.add(self._block_of(s))
        self._live_pharm[s] = False
        self._refresh_node_state(s)
        if not self._alive(s):
            # Tombstone: no teleport mass, no inbound edges; the exact
            # residual for the reduced system is -x so pushes zero it.
            if self._t[s] != 0.0:
                self.set_teleport(
                    {
                        name: float(self._t[i])
                        for i, name in enumerate(self._names)
                        if self._t[i] > 0.0 and i != s
                    }
                )
            self._res[s] = -self._x[s]

    def set_teleport(self, teleport: Mapping[str, float]) -> None:
        """Replace the teleport distribution (normalized here).

        With ``x`` fixed, both the bias term ``(1-d) t`` and the
        dangling redistribution ``d * t * sum(x[dangling])`` are linear
        in ``t``, so the residual shifts by an O(n) vector update.

        Raises:
            ValidationError: empty or non-positive teleport, or mass on
                nodes this state has never seen.
        """
        total = 0.0
        for node, mass in teleport.items():
            if mass < 0.0:
                raise ValidationError(
                    f"teleport mass must be >= 0, got {mass} for {node!r}"
                )
            total += mass
        if total <= 0.0:
            raise ValidationError("teleport distribution has no mass")
        n = len(self._names)
        new_t = np.zeros(self._x.size)
        for node, mass in teleport.items():
            if mass <= 0.0:
                continue
            i = self._index.get(node)
            if i is None:
                raise ValidationError(f"teleport on unknown node: {node}")
            new_t[i] = mass / total
        d = self._damping
        delta = new_t[:n] - self._t[:n]
        dangling_mass = float(self._x[:n][self._dangling[:n]].sum())
        self._res[:n] += (1.0 - d + d * dangling_mass) * delta
        self._t = new_t

    def set_trust_seeds(self, seeds: Iterable[str]) -> None:
        """TrustRank teleport: uniform over the trusted seed nodes."""
        seed_list = [node for node in seeds if node in self._index]
        if not seed_list:
            raise GraphError("trusted seed has no overlap with the graph")
        self.set_teleport({node: 1.0 for node in seed_list})

    # -- block-CSR propagation ---------------------------------------------

    def _rebuild_block(self, b: int) -> sp.csr_matrix:
        lo, hi = self._offsets[b], self._offsets[b + 1]
        cap = self._x.size
        indptr = np.zeros(hi - lo + 1, dtype=np.int64)
        id_parts: list[np.ndarray] = []
        prob_parts: list[np.ndarray] = []
        rows = self._rows
        for s in range(lo, hi):
            row = rows.get(s)
            if row is None:
                indptr[s - lo + 1] = indptr[s - lo]
                continue
            ids, probs = row
            indptr[s - lo + 1] = indptr[s - lo] + ids.size
            id_parts.append(ids)
            prob_parts.append(probs)
        if id_parts:
            indices = np.concatenate(id_parts)
            data = np.concatenate(prob_parts)
        else:
            indices = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.float64)
        block = sp.csr_matrix((data, indices, indptr), shape=(hi - lo, cap))
        self._blocks[b] = block
        self._dirty.discard(b)
        return block

    def _propagate(self, res: np.ndarray) -> np.ndarray:
        """``P @ res`` over the row blocks (active sources only)."""
        out = np.zeros(res.size)
        for b in range(len(self._blocks)):
            lo, hi = self._offsets[b], self._offsets[b + 1]
            local = res[lo:hi]
            active = np.flatnonzero(local)
            if active.size == 0:
                continue
            block = self._blocks[b]
            if block is None or b in self._dirty:
                block = self._rebuild_block(b)
            if active.size <= _ACTIVE_ROW_FRACTION * (hi - lo):
                out += block[active].T @ local[active]
            else:
                out += block.T @ local
        return out

    # -- solving ------------------------------------------------------------

    def push(self, tolerance: float | None = None) -> int:
        """Propagate residuals until the fixed point is restored.

        Returns the number of sweeps performed.  Each sweep moves the
        whole residual into ``x`` and replaces it with ``d * M @ res``,
        contracting its L1 norm by the damping factor, so the final
        score error is below ``tolerance / (1 - damping)``.

        Raises:
            GraphError: residual failed to contract within the sweep
                cap (only possible with non-finite state).
        """
        tol = self._tolerance if tolerance is None else tolerance
        if tol <= 0.0:
            raise ValidationError(f"tolerance must be > 0, got {tol}")
        n = len(self._names)
        if n == 0:
            return 0
        d = self._damping
        x = self._x
        res = self._res
        t = self._t
        dangling = self._dangling
        sweeps = 0
        while float(np.abs(res[:n]).sum()) >= tol:
            if sweeps >= self._max_sweeps:
                raise GraphError(
                    f"residual push failed to converge in {sweeps} sweeps"
                )
            sweeps += 1
            x[:n] += res[:n]
            spread = self._propagate(res)
            dangling_mass = float(res[:n][dangling[:n]].sum())
            if dangling_mass != 0.0:
                spread[:n] += dangling_mass * t[:n]
            new_res = d * spread
            res[:] = 0.0
            res[:n] = new_res[:n]
        return sweeps

    # -- score views --------------------------------------------------------

    def score_of(self, node: str) -> float:
        """Current score of ``node`` (0.0 for unknown or tombstoned)."""
        i = self._index.get(node)
        if i is None or not self._alive(i):
            return 0.0
        return float(self._x[i])

    def scores(self) -> dict[str, float]:
        """node -> score for every live node."""
        return {
            self._names[i]: float(self._x[i])
            for i in range(len(self._names))
            if self._alive(i)
        }

    def residual_norm(self) -> float:
        """Current L1 residual (distance bound: ``/(1 - damping)``)."""
        n = len(self._names)
        return float(np.abs(self._res[:n]).sum())
