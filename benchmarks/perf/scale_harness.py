"""Scale-out harness: sites/sec and peak RSS from 10^4 to 10^6 sites.

Where ``benchmarks/test_kernel_speed_floor.py`` times kernels against
their pure-Python references, this harness sweeps the *sharded*
pipeline end to end at site counts the references could never touch:

* **synthesis** — :func:`repro.data.sharding.write_shards` streams the
  corpus to disk as K shard files (optionally in parallel).
* **features** — a two-pass streaming TF-IDF: pass 1 merges per-shard
  document-frequency counters into
  :meth:`~repro.text.term_vector.TfidfVectorizer.fit_document_frequencies`,
  pass 2 transforms one shard at a time and spills each shard's matrix
  through :class:`repro.perf.MatrixStore`.  No stage ever holds the
  full corpus or the full matrix in RAM.
* **ranking** — streams the link graph out of the shards into flat
  edge arrays, compiles spilled transition blocks
  (:func:`repro.network.blockrank.compile_transition_store_from_edges`)
  and runs block-wise TrustRank serially and with a worker pool,
  checking the two agree to 1e-9.

Each stage runs in its own subprocess by default so
``getrusage(RUSAGE_SELF).ru_maxrss`` is that stage's true peak RSS
(``rss_isolated: true`` in the report); if the harness cannot re-exec
itself it falls back in-process and says so.  Results land in
``BENCH_scale.json``.

Gates (for CI)::

    --max-rss-mb 1500        # fail if any stage's peak RSS exceeds
    --min-throughput 200     # fail if synthesis sites/sec falls below
    --min-parallel-speedup 2 # fail if parallel ranking < 2x serial
                             # (only enforced on >= 4-CPU machines)

Usage::

    PYTHONPATH=src python -m benchmarks.perf.scale_harness \
        --sites 10000,100000 --jobs 0 \
        --output benchmarks/output/BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import preset
from repro.data.sharding import ShardedCorpus, plan_domains, write_shards
from repro.io import atomic_write_text
from repro.network.blockrank import (
    block_trustrank,
    compile_transition_store_from_edges,
)
from repro.perf.parallel import resolve_jobs
from repro.perf.store import MatrixStore
from repro.text.term_vector import TfidfVectorizer

#: Stage names in pipeline order.
STAGES = ("synthesis", "features", "ranking")

#: Auto-sharding: aim for this many sites per shard.
SITES_PER_SHARD = 5_000


def scaled_config(n_sites: int):
    """The ``large`` preset's generator profile rescaled to ``n_sites``.

    Keeps the preset's class split (the paper's ~11.5% legitimate
    fraction) and hubs-per-site density while swapping in the total.
    """
    base = preset("large").generator
    n_legit = max(1, round(n_sites * base.n_legitimate / (base.n_legitimate + base.n_illegitimate)))
    n_hubs = max(
        2,
        n_sites * base.n_affiliate_hubs // (base.n_legitimate + base.n_illegitimate),
    )
    return replace(
        base,
        n_legitimate=n_legit,
        n_illegitimate=n_sites - n_legit,
        n_affiliate_hubs=n_hubs,
    )


def auto_shards(n_sites: int) -> int:
    """Default shard count: ~5k sites per shard, clamped to [4, 64]."""
    return max(4, min(64, n_sites // SITES_PER_SHARD))


def _peak_rss_mb() -> float:
    """Peak RSS of this process and its (pool) children, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return round(max(self_kb, child_kb) / 1024.0, 1)


# -- stages (each must run standalone in a fresh process) -------------------


def stage_synthesis(
    workdir: Path, n_sites: int, n_shards: int, jobs: int
) -> dict[str, Any]:
    """Write the sharded corpus; report throughput."""
    config = scaled_config(n_sites)
    start = time.perf_counter()
    manifest = write_shards(
        config, workdir / "corpus", n_shards, jobs=jobs or None
    )
    wall = time.perf_counter() - start
    n_pages = sum(int(s["n_pages"]) for s in manifest.shards)
    return {
        "wall_time_s": round(wall, 3),
        "sites_per_sec": round(manifest.n_sites / wall, 1),
        "n_sites": manifest.n_sites,
        "n_shards": manifest.n_shards,
        "n_pages": n_pages,
    }


def stage_features(
    workdir: Path, max_terms: int
) -> dict[str, Any]:
    """Streaming TF-IDF over the shards, spilled to the matrix store."""
    corpus = ShardedCorpus(workdir / "corpus", max_open_shards=1)
    vectorizer = TfidfVectorizer(max_features=max_terms)
    start = time.perf_counter()
    doc_freq: Counter[str] = Counter()
    n_docs = 0
    for _, sites, _ in corpus.iter_shards():
        for site in sites:
            terms: set[str] = set()
            for page in site.pages:
                terms.update(page.text.split())
            doc_freq.update(terms)
            n_docs += 1
    vectorizer.fit_document_frequencies(doc_freq, n_docs)
    store = MatrixStore(workdir / "store")
    nnz = 0
    for k, sites, _ in corpus.iter_shards():
        docs = [
            " ".join(page.text for page in site.pages).split()
            for site in sites
        ]
        matrix = vectorizer.transform(docs)
        nnz += int(matrix.nnz)
        store.save_csr(f"tfidf/shard-{k:05d}", matrix)
    wall = time.perf_counter() - start
    return {
        "wall_time_s": round(wall, 3),
        "sites_per_sec": round(n_docs / wall, 1),
        "n_sites": n_docs,
        "vocabulary": len(vectorizer.vocabulary),
        "nnz": nnz,
    }


def stage_ranking(workdir: Path, jobs: int) -> dict[str, Any]:
    """Stream the link graph from shards; block-TrustRank it twice.

    Runs the identical compiled plan serially and with ``jobs``
    workers; the two rankings must agree to 1e-9 (they are bit-equal
    by construction), and the speedup between them is the number the
    ``--min-parallel-speedup`` gate reads.
    """
    corpus = ShardedCorpus(workdir / "corpus", max_open_shards=1)
    start = time.perf_counter()
    domains = corpus.domains()
    index: dict[str, int] = {d: i for i, d in enumerate(domains)}
    nodes = list(domains)
    src: list[int] = []
    dst: list[int] = []
    for _, sites, _ in corpus.iter_shards():
        for site in sites:
            i = index[site.domain]
            for endpoint in site.outbound_endpoints():
                j = index.get(endpoint)
                if j is None:
                    j = len(nodes)
                    index[endpoint] = j
                    nodes.append(endpoint)
                src.append(i)
                dst.append(j)
    edge_wall = time.perf_counter() - start

    store = MatrixStore(workdir / "store")
    n_blocks = corpus.n_shards
    start = time.perf_counter()
    plan = compile_transition_store_from_edges(
        store,
        nodes,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.ones(len(src), dtype=np.float64),
        n_blocks=n_blocks,
    )
    compile_wall = time.perf_counter() - start

    trusted, _, _ = plan_domains(corpus.config)
    start = time.perf_counter()
    serial = block_trustrank(plan, trusted, jobs=1)
    serial_wall = time.perf_counter() - start

    workers = resolve_jobs(jobs if jobs else 0)
    parallel_wall = None
    speedup = None
    if workers > 1:
        start = time.perf_counter()
        parallel = block_trustrank(plan, trusted, jobs=workers)
        parallel_wall = round(time.perf_counter() - start, 3)
        worst = max(abs(serial[n] - parallel[n]) for n in serial)
        assert worst <= 1e-9, f"serial/parallel rank divergence {worst}"
        if parallel_wall > 0:
            speedup = round(serial_wall / parallel_wall, 2)
    total = edge_wall + compile_wall + serial_wall + (parallel_wall or 0.0)
    return {
        "wall_time_s": round(total, 3),
        "sites_per_sec": round(len(corpus) / total, 1),
        "n_sites": len(corpus),
        "n_nodes": len(nodes),
        "n_edges": len(src),
        "n_blocks": plan.n_blocks,
        "edge_stream_s": round(edge_wall, 3),
        "compile_s": round(compile_wall, 3),
        "serial_rank_s": round(serial_wall, 3),
        "parallel_rank_s": parallel_wall,
        "rank_workers": workers,
        "parallel_speedup": speedup,
    }


def run_stage_inprocess(stage: str, args: argparse.Namespace) -> dict[str, Any]:
    """Dispatch one stage in this process and stamp its peak RSS."""
    workdir = Path(args.workdir)
    if stage == "synthesis":
        result = stage_synthesis(
            workdir, args.n_sites, args.shards, args.jobs
        )
    elif stage == "features":
        result = stage_features(workdir, args.max_terms)
    elif stage == "ranking":
        result = stage_ranking(workdir, args.jobs)
    else:
        raise ValueError(f"unknown stage {stage!r}")
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def run_stage_isolated(
    stage: str, args: argparse.Namespace, n_shards: int
) -> dict[str, Any]:
    """Run one stage in a fresh subprocess so its peak RSS is its own."""
    with tempfile.NamedTemporaryFile(
        mode="r", suffix=".json", delete=False
    ) as fh:
        stage_output = fh.name
    cmd = [
        sys.executable,
        "-m",
        "benchmarks.perf.scale_harness",
        "--run-stage",
        stage,
        "--n-sites",
        str(args.n_sites),
        "--shards",
        str(n_shards),
        "--jobs",
        str(args.jobs),
        "--max-terms",
        str(args.max_terms),
        "--workdir",
        str(args.workdir),
        "--stage-output",
        stage_output,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=False
        )
    except OSError:
        result = run_stage_inprocess(stage, args)
        result["rss_isolated"] = False
        return result
    finally_path = Path(stage_output)
    try:
        if proc.returncode != 0:
            raise RuntimeError(
                f"stage {stage} failed (exit {proc.returncode}):\n"
                f"{proc.stderr[-2000:]}"
            )
        with open(finally_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        finally_path.unlink(missing_ok=True)
    result["rss_isolated"] = True
    return result


def _gate_failures(payload: dict[str, Any], args: argparse.Namespace) -> list[str]:
    """Evaluate the CI gates against a finished sweep."""
    failures: list[str] = []
    for run in payload["runs"]:
        for stage, result in run["stages"].items():
            if args.max_rss_mb and result["peak_rss_mb"] > args.max_rss_mb:
                failures.append(
                    f"{run['n_sites']} sites / {stage}: peak RSS "
                    f"{result['peak_rss_mb']} MiB > {args.max_rss_mb} MiB"
                )
        synthesis = run["stages"].get("synthesis")
        if (
            args.min_throughput
            and synthesis
            and synthesis["sites_per_sec"] < args.min_throughput
        ):
            failures.append(
                f"{run['n_sites']} sites: synthesis "
                f"{synthesis['sites_per_sec']} sites/sec "
                f"< {args.min_throughput}"
            )
        ranking = run["stages"].get("ranking")
        if (
            args.min_parallel_speedup
            and payload["cpus"] >= 4
            and ranking
            and ranking.get("parallel_speedup") is not None
            and ranking["parallel_speedup"] < args.min_parallel_speedup
        ):
            failures.append(
                f"{run['n_sites']} sites: parallel ranking "
                f"{ranking['parallel_speedup']}x "
                f"< {args.min_parallel_speedup}x"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep the sharded pipeline across site counts."
    )
    parser.add_argument(
        "--sites",
        default="10000,100000",
        help="comma-separated site counts to sweep",
    )
    parser.add_argument(
        "--stages",
        default=",".join(STAGES),
        help="comma-separated stage subset (synthesis,features,ranking)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="shard count K (0 = ~5k sites per shard, clamped to 4..64)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes for synthesis and ranking (0 = CPU count)",
    )
    parser.add_argument("--max-terms", type=int, default=1_000)
    parser.add_argument(
        "--workdir",
        default=None,
        help="scratch directory (default: a fresh temp dir per sweep)",
    )
    parser.add_argument(
        "--output",
        default=str(Path("benchmarks") / "output" / "BENCH_scale.json"),
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=0.0,
        help="fail when any stage's peak RSS exceeds this (0 disables)",
    )
    parser.add_argument(
        "--min-throughput",
        type=float,
        default=0.0,
        help="fail when synthesis sites/sec falls below this (0 disables)",
    )
    parser.add_argument(
        "--min-parallel-speedup",
        type=float,
        default=0.0,
        help="fail when parallel ranking speedup falls below this; only "
        "enforced on machines with >= 4 CPUs (0 disables)",
    )
    parser.add_argument(
        "--no-isolate",
        action="store_true",
        help="run stages in-process (RSS then accumulates across stages)",
    )
    # Internal: subprocess re-entry for per-stage RSS isolation.
    parser.add_argument("--run-stage", choices=STAGES, help=argparse.SUPPRESS)
    parser.add_argument("--n-sites", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--stage-output", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.run_stage:
        result = run_stage_inprocess(args.run_stage, args)
        atomic_write_text(
            Path(args.stage_output), json.dumps(result) + "\n"
        )
        return 0

    site_counts = [int(s) for s in args.sites.split(",") if s.strip()]
    stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    unknown = sorted(set(stages) - set(STAGES))
    if unknown:
        parser.error(f"unknown stages: {unknown}")

    runs: list[dict[str, Any]] = []
    for n_sites in site_counts:
        n_shards = args.shards or auto_shards(n_sites)
        if args.workdir:
            workdir = Path(args.workdir) / f"sites-{n_sites}"
            workdir.mkdir(parents=True, exist_ok=True)
            scratch = None
        else:
            scratch = tempfile.TemporaryDirectory(prefix="repro-scale-")
            workdir = Path(scratch.name)
        run_args = argparse.Namespace(**vars(args))
        run_args.n_sites = n_sites
        run_args.workdir = str(workdir)
        run_args.shards = n_shards
        results: dict[str, Any] = {}
        try:
            for stage in STAGES:
                if stage not in stages:
                    continue
                if args.no_isolate:
                    result = run_stage_inprocess(stage, run_args)
                    result["rss_isolated"] = False
                else:
                    result = run_stage_isolated(stage, run_args, n_shards)
                results[stage] = result
                print(
                    f"{n_sites:>9} sites  {stage:<10} "
                    f"{result['wall_time_s']:>9.2f}s  "
                    f"{result['sites_per_sec']:>9.1f} sites/s  "
                    f"peak {result['peak_rss_mb']:>7.1f} MiB"
                )
        finally:
            if scratch is not None:
                scratch.cleanup()
        runs.append(
            {"n_sites": n_sites, "n_shards": n_shards, "stages": results}
        )

    payload = {
        "benchmark": "repro-scale",
        "cpus": os.cpu_count() or 1,
        "jobs": args.jobs,
        "max_terms": args.max_terms,
        "runs": runs,
    }
    failures = _gate_failures(payload, args)
    payload["gates"] = {
        "max_rss_mb": args.max_rss_mb or None,
        "min_throughput": args.min_throughput or None,
        "min_parallel_speedup": args.min_parallel_speedup or None,
        "failures": failures,
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(output, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    for failure in failures:
        print(f"GATE FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
