"""Command-line interface for the verification system.

Subcommands:

* ``generate``  — build a synthetic labelled corpus and export it.
* ``train``     — fit a :class:`~repro.core.verifier.PharmacyVerifier`
  on an exported corpus and save the model.
* ``verify``    — classify every pharmacy in a corpus with a saved
  model; print a triage table.
* ``rank``      — rank a corpus by legitimacy; print the list with
  pairwise orderedness when labels are present.
* ``serve``     — run the verification API server over a saved model
  and corpus (tiered auth, rate limiting, admission control; see
  :mod:`repro.serve`).
* ``stream``    — replay planned snapshot deltas through the
  incremental pipeline (:mod:`repro.stream`), one tick at a time.
* ``experiments`` — delegate to the table/figure regeneration runner.

Example session::

    python -m repro.cli generate --legit 24 --illegit 176 -o corpus.jsonl
    python -m repro.cli train corpus.jsonl -o verifier.pkl
    python -m repro.cli verify verifier.pkl corpus.jsonl --top 10
    python -m repro.cli rank verifier.pkl corpus.jsonl
    python -m repro.cli serve verifier.pkl corpus.jsonl --port 8470
    python -m repro.cli generate -o shards/ --shards 4 --deltas 12
    python -m repro.cli stream shards/ --retrain-every 8
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.core.verifier import PharmacyVerifier, rank_reports
from repro.data.loaders import make_dataset
from repro.data.synthesis import GeneratorConfig
from repro.exceptions import ReproError
from repro.io import export_corpus, import_corpus, load_model, save_model
from repro.web.site import SiteEvidence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Internet pharmacy verification (EDBT 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate + crawl a synthetic corpus")
    gen.add_argument("--legit", type=int, default=24)
    gen.add_argument("--illegit", type=int, default=176)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "-o",
        "--output",
        required=True,
        help="corpus .jsonl path (a directory with --shards)",
    )
    gen.add_argument(
        "--shards",
        type=int,
        default=0,
        help="write the corpus as this many shard files instead of one "
        ".jsonl (output becomes a directory; 0 = single file)",
    )
    gen.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sharded generation (0 = CPU count)",
    )
    gen.add_argument(
        "--deltas",
        type=int,
        default=0,
        help="also plan this many snapshot deltas (weekly ticks) and "
        "write them as deltas.json next to the shards (requires --shards)",
    )

    train = sub.add_parser("train", help="train a verifier on a corpus")
    train.add_argument("corpus", help="corpus .jsonl path")
    train.add_argument("-o", "--output", required=True, help="model .pkl path")
    train.add_argument("--max-terms", type=int, default=1000)

    verify = sub.add_parser("verify", help="classify a corpus with a model")
    verify.add_argument("model", help="model .pkl path")
    verify.add_argument("corpus", help="corpus .jsonl path or sharded dir")
    verify.add_argument("--top", type=int, default=20, help="rows to print")

    rank = sub.add_parser("rank", help="rank a corpus by legitimacy")
    rank.add_argument("model", help="model .pkl path")
    rank.add_argument("corpus", help="corpus .jsonl path or sharded dir")
    rank.add_argument("--top", type=int, default=20, help="rows to print")

    serve = sub.add_parser("serve", help="run the verification API server")
    serve.add_argument("model", help="model .pkl path")
    serve.add_argument(
        "corpus", help="corpus .jsonl path or sharded dir (pre-crawled sites)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=8470, help="port (0 = free)")
    serve.add_argument(
        "--tier-config", default=None, help="JSON tier/key table (see docs/api.md)"
    )
    serve.add_argument(
        "--cache-dir", default=None, help="verdict cache directory (warm serving)"
    )
    serve.add_argument(
        "--jobs", type=int, default=8, help="max concurrent verifications"
    )
    serve.add_argument(
        "--max-queue", type=int, default=16, help="max requests queued for a slot"
    )
    serve.add_argument(
        "--metrics-output", default=None, help="drain-time metrics snapshot path"
    )
    serve.add_argument(
        "--check",
        action="store_true",
        help="bind, report the address, drain, and exit (smoke test)",
    )

    stream = sub.add_parser(
        "stream", help="replay snapshot deltas through the incremental pipeline"
    )
    stream.add_argument(
        "corpus", help="sharded corpus directory holding a deltas.json"
    )
    stream.add_argument(
        "--ticks", type=int, default=0, help="deltas to replay (0 = all planned)"
    )
    stream.add_argument(
        "--retrain-every",
        type=int,
        default=0,
        help="force a full retrain at least every N ticks (0 = drift-driven only)",
    )
    stream.add_argument(
        "--checkpoint-dir",
        default=None,
        help="crawl checkpoint directory (resumable re-crawls)",
    )

    exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    exp.add_argument("ids", nargs="*", default=[])
    exp.add_argument("--scale", default="small")
    return parser


def _is_sharded(path: str) -> bool:
    """True when ``path`` is a sharded-corpus directory (has a manifest)."""
    from repro.data.sharding import MANIFEST_FILENAME

    return (Path(path) / MANIFEST_FILENAME).is_file()


def _load_sites(
    path: str,
) -> tuple[Sequence[SiteEvidence], Callable[[], list[int]]]:
    """Sites, plus a reader of their labels, from a ``.jsonl`` corpus or
    a sharded directory.

    Sharded corpora come back as a lazy view: a verification pass walks
    it once, scoring the shards' rows, so each shard is parsed once per
    pass and memory holds the reader's shard LRU plus one verification
    block.  Their labels are read off the rows, and only when the
    returned reader is called; called after the pass, it opens no
    shard, because the reader keeps each parsed shard's labels.
    Single-file corpora load as before.
    """
    if _is_sharded(path):
        from repro.data.sharding import ShardedCorpus

        corpus = ShardedCorpus(path)
        return corpus.sites_view(), corpus.labels
    corpus = import_corpus(path)
    return list(corpus.sites), lambda: [int(y) for y in corpus.labels]


def _cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n_legitimate=args.legit, n_illegitimate=args.illegit, seed=args.seed
    )
    if args.deltas > 0 and args.shards <= 0:
        print("--deltas requires --shards (deltas ride on a sharded corpus)")
        return 2
    if args.shards > 0:
        from repro.data.deltas import DELTAS_FILENAME, StreamConfig, plan_deltas, write_deltas
        from repro.data.sharding import write_shards

        manifest = write_shards(
            config, args.output, args.shards, jobs=args.jobs
        )
        print(
            f"wrote {manifest.n_sites} pharmacies "
            f"({manifest.n_legitimate} legit / "
            f"{manifest.n_illegitimate} illegit) "
            f"as {manifest.n_shards} shards to {args.output}"
        )
        if args.deltas > 0:
            stream_config = StreamConfig(n_ticks=args.deltas)
            deltas = plan_deltas(config, stream_config)
            deltas_path = Path(args.output) / DELTAS_FILENAME
            write_deltas(deltas_path, deltas, stream_config)
            n_changes = sum(delta.n_changes for delta in deltas)
            print(
                f"planned {len(deltas)} snapshot deltas "
                f"({n_changes} site changes) to {deltas_path}"
            )
        return 0
    corpus = make_dataset(config)
    export_corpus(corpus, args.output)
    summary = corpus.summary()
    print(
        f"wrote {summary.n_examples} pharmacies "
        f"({summary.n_legitimate} legit / {summary.n_illegitimate} illegit) "
        f"to {args.output}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = import_corpus(args.corpus)
    verifier = PharmacyVerifier(max_terms=args.max_terms).fit(corpus)
    save_model(verifier, args.output)
    print(f"trained on {len(corpus)} pharmacies; model saved to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    verifier = load_model(args.model)
    sites, _ = _load_sites(args.corpus)
    reports = verifier.verify_sites(sites)
    print(f"{'domain':40}  {'verdict':12}  {'P(legit)':>8}")
    print("-" * 66)
    for report in reports[: args.top]:
        verdict = "LEGITIMATE" if report.is_legitimate else "illegitimate"
        print(
            f"{report.domain:40}  {verdict:12}  "
            f"{report.legitimacy_probability:8.3f}"
        )
    n_legit = sum(1 for r in reports if r.is_legitimate)
    print(
        f"\n{len(reports)} pharmacies verified: "
        f"{n_legit} legitimate / {len(reports) - n_legit} illegitimate"
    )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    verifier = load_model(args.model)
    sites, labels = _load_sites(args.corpus)
    # Labels after the pass, so a sharded corpus parses each shard once.
    ranking = rank_reports(verifier.verify_sites(sites), labels())
    print(f"{'rank score':>10}  {'oracle':8}  domain")
    print("-" * 66)
    for entry in ranking.entries[: args.top]:
        oracle = {1: "legit", 0: "illegit", None: "?"}[entry.oracle_label]
        print(f"{entry.rank_score:10.3f}  {oracle:8}  {entry.domain}")
    print(f"\npairwise orderedness: {ranking.pairord:.4f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import Authenticator, build_server

    verifier = load_model(args.model)
    if _is_sharded(args.corpus):
        # Lazy index: serve resolves each domain from its one shard.
        from repro.data.sharding import ShardedCorpus

        sites: object = ShardedCorpus(args.corpus)
        n_sites = len(sites)
    else:
        corpus = import_corpus(args.corpus)
        sites = list(corpus.sites)
        n_sites = len(corpus)
    authenticator = (
        Authenticator.from_file(args.tier_config) if args.tier_config else None
    )
    server = build_server(
        verifier,
        sites=sites,
        bind_host=args.host,
        port=args.port,
        authenticator=authenticator,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        max_queue=args.max_queue,
    )
    print(
        f"serving {n_sites} pharmacies on "
        f"http://{args.host}:{server.port} "
        f"(jobs={args.jobs}, queue={args.max_queue})"
    )
    if args.check:
        server.start_background()
        drained = server.drain()
        if args.metrics_output:
            server.metrics.flush(args.metrics_output)
        print("check ok: bound, served, drained cleanly")
        return 0 if drained else 1
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...")
        server.draining = True
    drained = server.drain()
    if args.metrics_output:
        server.metrics.flush(args.metrics_output)
    print("drained" if drained else "drain timed out")
    return 0 if drained else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.data.deltas import DELTAS_FILENAME, StreamCorpus, load_deltas
    from repro.data.sharding import ShardedCorpus
    from repro.stream import DriftDetector, StreamingVerifier

    if not _is_sharded(args.corpus):
        print(f"{args.corpus} is not a sharded corpus directory")
        return 2
    deltas, _stream_config = load_deltas(Path(args.corpus) / DELTAS_FILENAME)
    if args.ticks > 0:
        deltas = deltas[: args.ticks]
    corpus = StreamCorpus.from_sharded(ShardedCorpus(args.corpus))
    detector = DriftDetector(
        max_ticks_between_retrains=args.retrain_every or None
    )
    verifier = StreamingVerifier(
        corpus, detector=detector, checkpoint_dir=args.checkpoint_dir
    )
    verifier.bootstrap()
    print(f"bootstrapped {len(corpus)} sites at epoch {corpus.epoch}")
    retrains = 0
    for delta in deltas:
        report = verifier.apply_tick(delta)
        retrains += int(report.retrained)
        print(
            f"tick {report.epoch:3d}: {report.n_sites} sites  "
            f"+{report.n_changed} changed  -{report.n_removed} removed  "
            f"{report.n_flips} flips  {report.rank_sweeps} sweeps  "
            f"{report.seconds:.2f}s"
            + ("  [retrained]" if report.retrained else "")
        )
    n_legit = sum(1 for v in verifier.verdicts.values() if v == 1)
    print(
        f"replayed {len(deltas)} ticks ({retrains} retrains): "
        f"{n_legit} legitimate / {len(corpus) - n_legit} illegitimate"
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    argv = list(args.ids) + ["--scale", args.scale]
    return runner_main(argv)


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "verify": _cmd_verify,
    "rank": _cmd_rank,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
    "experiments": _cmd_experiments,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a library error prints one line and returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
