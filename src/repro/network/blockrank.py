"""Block-wise, multi-process PageRank/TrustRank over out-of-core CSR.

:func:`repro.network.pagerank.personalized_pagerank` holds the whole
transition matrix in RAM and runs each power step as one SpMV.  At
10^6 domains the matrix still fits a workstation, but a single process
leaves every other core idle and couples peak RSS to corpus size.
This module splits the work **by CSR row blocks** and reuses the
in-memory ranker's transition builder and power iteration
(:mod:`repro.network.pagerank`), so in-memory ranking is simply the
one-block case:

* :func:`compile_transition_store_from_edges` compiles flat
  ``(src, dst, weight)`` edge arrays into row blocks one at a time and
  spills each through :class:`repro.perf.MatrixStore` (atomic writes,
  mmap loads).  Row ``i`` of a block has byte-identical data in the
  same order at any block count, so the per-row dot products — and
  therefore the concatenated block results — are **bit-equal** to the
  single-block SpMV, not merely close.
* :func:`block_personalized_pagerank` runs the power iteration with a
  persistent :class:`repro.perf.WorkerPool`: the current rank vector
  lives in one shared-memory segment that every worker maps read-only,
  each worker computes its block's SpMV against its mmap'd block, and
  the parent concatenates block results in block order (deterministic
  reduction).  Pool- or shared-memory-failure degrades to the serial
  block loop, which computes the identical result.

:func:`block_trustrank` mirrors :func:`repro.network.trustrank.trustrank`
over a compiled plan; over a plan compiled from swapped edge arrays it
is Anti-TrustRank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.contracts import check_probability_vector
from repro.exceptions import GraphError, ValidationError
from repro.network.pagerank import (
    _power_iteration,
    _seed_teleport,
    _transition_blocks,
)
from repro.perf.parallel import WorkerPool
from repro.perf.store import MatrixStore

__all__ = [
    "BlockPlan",
    "compile_transition_store_from_edges",
    "load_block_plan",
    "block_personalized_pagerank",
    "block_trustrank",
]


def _block_offsets(n: int, n_blocks: int) -> list[int]:
    """Balanced row-partition boundaries: ``n_blocks + 1`` offsets."""
    if n_blocks < 1:
        raise ValidationError(f"n_blocks must be >= 1, got {n_blocks}")
    n_blocks = min(n_blocks, max(1, n))
    base, extra = divmod(n, n_blocks)
    offsets = [0]
    for b in range(n_blocks):
        offsets.append(offsets[-1] + base + (1 if b < extra else 0))
    return offsets


@dataclass(frozen=True)
class BlockPlan:
    """A compiled, spilled row-blocked transition matrix.

    Attributes:
        store: the matrix store holding the artifacts.
        prefix: artifact namespace inside the store.
        nodes: node order — row/column index ``i`` is ``nodes[i]``.
        offsets: block row boundaries (``offsets[b]:offsets[b+1]``).
    """

    store: MatrixStore
    prefix: str
    nodes: tuple[str, ...]
    offsets: tuple[int, ...]

    @property
    def n(self) -> int:
        """Node count (rank-vector length)."""
        return len(self.nodes)

    @property
    def n_blocks(self) -> int:
        """Number of row blocks."""
        return len(self.offsets) - 1

    def block_name(self, block: int) -> str:
        """Store key of one row block's CSR artifact."""
        return f"{self.prefix}/block-{block:05d}"


def compile_transition_store_from_edges(
    store: MatrixStore,
    nodes: Sequence[str],
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    n_blocks: int,
    prefix: str = "rank",
) -> BlockPlan:
    """Compile flat edge arrays into spilled transition-matrix row blocks.

    ``src``/``dst`` are node indices into ``nodes``; parallel edges
    must already be folded (the sharded graph builder folds them).
    Blocks come one at a time from the shared builder, so peak memory
    is one block plus the edge arrays — never the full matrix.  Swap
    ``src`` and ``dst`` to compile the reversed graph (Anti-TrustRank).
    """
    n = len(nodes)
    if n == 0:
        raise GraphError("cannot compile an empty graph")
    offsets = _block_offsets(n, n_blocks)
    dangling, blocks = _transition_blocks(n, src, dst, weight, offsets)
    store.save_array(f"{prefix}/dangling", dangling)
    store.save_meta(
        f"{prefix}/plan",
        {
            "format": "repro-blockrank",
            "version": 1,
            "n": n,
            "offsets": offsets,
            "nodes": list(nodes),
        },
    )
    plan = BlockPlan(store, prefix, tuple(nodes), tuple(offsets))
    for b, block in enumerate(blocks):
        store.save_csr(plan.block_name(b), block)
    return plan


def load_block_plan(store: MatrixStore, prefix: str = "rank") -> BlockPlan:
    """Reload a compiled plan from its store."""
    meta = store.load_meta(f"{prefix}/plan")
    if meta.get("format") != "repro-blockrank" or meta.get("version") != 1:
        raise ValidationError(f"not a blockrank plan: {prefix}")
    return BlockPlan(
        store=store,
        prefix=prefix,
        nodes=tuple(meta["nodes"]),
        offsets=tuple(int(o) for o in meta["offsets"]),
    )


def _block_spmv(
    block: int,
    *,
    store_root: str,
    prefix: str,
    shm_name: str,
    n: int,
) -> np.ndarray:
    """One block's SpMV against the shared rank vector (pool worker).

    Read-only: maps the parent's shared-memory rank vector, mmap-loads
    its own CSR block, and returns the product.  No shared state is
    mutated, so results are identical at any worker count.
    """
    store = MatrixStore(store_root)
    matrix = store.load_csr(f"{prefix}/block-{block:05d}")
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        rank = np.ndarray((n,), dtype=np.float64, buffer=shm.buf)
        return np.asarray(matrix @ rank)
    finally:
        shm.close()


def _serial_block_spmv(plan: BlockPlan, rank: np.ndarray) -> np.ndarray:
    """The serial fallback: same blocks, same order, in-process."""
    parts = [
        plan.store.load_csr(plan.block_name(b)) @ rank
        for b in range(plan.n_blocks)
    ]
    return np.concatenate(parts)


def _pool_block_spmv(
    pool: WorkerPool,
    plan: BlockPlan,
    shm: shared_memory.SharedMemory,
    rank: np.ndarray,
) -> np.ndarray:
    """Publish ``rank`` to shared memory and map block SpMV over it."""
    np.ndarray((plan.n,), dtype=np.float64, buffer=shm.buf)[:] = rank
    worker = partial(
        _block_spmv,
        store_root=str(plan.store.root),
        prefix=plan.prefix,
        shm_name=shm.name,
        n=plan.n,
    )
    return np.concatenate(pool.map(worker, range(plan.n_blocks), chunksize=1))


@check_probability_vector()
def block_personalized_pagerank(
    plan: BlockPlan,
    teleport: Mapping[str, float] | None = None,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
    jobs: int | None = None,
) -> dict[str, float]:
    """Power-iteration PageRank over spilled row blocks, in parallel.

    Runs the same loop as
    :func:`~repro.network.pagerank.personalized_pagerank`, so the two
    are bit-equal when the plan was compiled from the same edges.

    Args:
        plan: compiled blocks from
            :func:`compile_transition_store_from_edges`.
        teleport: node -> probability; ``None`` = uniform.
        damping: probability of following a link (α).
        max_iterations: iteration cap.
        tolerance: L1 convergence threshold.
        jobs: worker processes per :func:`repro.perf.resolve_jobs`
            (``None``/1 serial, 0 = CPU count).  Serial and parallel
            runs return identical values.

    Returns:
        node -> score; scores sum to 1.
    """
    dangling = np.asarray(
        plan.store.load_array(f"{plan.prefix}/dangling", mmap=False),
        dtype=bool,
    )
    with WorkerPool(jobs) as pool:
        shm: shared_memory.SharedMemory | None = None
        if pool.workers > 1:
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=plan.n * np.dtype(np.float64).itemsize
                )
            except OSError:
                # No /dev/shm here; the serial loop computes the same.
                shm = None
        if shm is None:
            spmv = partial(_serial_block_spmv, plan)
        else:
            spmv = partial(_pool_block_spmv, pool, plan, shm)
        try:
            return _power_iteration(
                {node: i for i, node in enumerate(plan.nodes)},
                spmv,
                dangling,
                teleport,
                damping,
                max_iterations,
                tolerance,
            )
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()


def block_trustrank(
    plan: BlockPlan,
    trusted_seed: Iterable[str],
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
    jobs: int | None = None,
) -> dict[str, float]:
    """TrustRank over spilled blocks (teleport mass on the seed).

    Over a plan compiled from swapped edge arrays this is
    Anti-TrustRank.
    """
    return block_personalized_pagerank(
        plan,
        teleport=_seed_teleport(trusted_seed, set(plan.nodes)),
        damping=damping,
        max_iterations=max_iterations,
        tolerance=tolerance,
        jobs=jobs,
    )
