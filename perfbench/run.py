"""The repository's benchmark: the three user paths, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_rank --seed 1 --seconds 25 --trace 0

Workloads: ``batch_rank`` (``repro train`` + ``repro rank`` over a
sharded corpus), ``serve_sessions`` (API clients on keep-alive
connections to ``repro serve``) and ``stream_weekly`` (``repro stream``
over two simulated years of weekly deltas).  Each builds its inputs
from ``--seed``, times its set-up and its steady phase, and checks the
verdicts against the oracle labels and the library's own equivalence
pins.

With ``--trace 0`` the last stdout line reports every end-to-end
metric; with ``--trace 1`` the run wraps each library layer's entry
points, reports per-layer metrics instead, and writes the spans as
Chrome trace-event JSON under ``perfbench/out/``.  The last line is
always ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the environment record.  Exit status is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("batch_rank", "serve_sessions", "stream_weekly")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import PINNED_ENV

    # Hash randomization and BLAS/OpenMP thread pools are fixed before
    # the interpreter and NumPy start, for this run and every process
    # it starts.
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = {**os.environ, **PINNED_ENV}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    # A process started in the background may inherit SIGINT ignored,
    # and children keep an ignored signal across exec; with a handler
    # here they start with the default, so a served subprocess drains
    # on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    import importlib

    from perfbench import layers
    from perfbench.common import END_TO_END
    from perfbench.spans import Tracer

    module = importlib.import_module(f"perfbench.{args.workload}")
    tracer = Tracer() if args.trace else None
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome = module.run(workdir, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = layers.per_layer_metrics(tracer, outcome.metrics)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        outcome.info["trace_file"] = str(trace_path.relative_to(ROOT))
        outcome.info["spans"] = len(tracer.spans)
    else:
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in END_TO_END
        }
    for name, metric in metrics.items():
        print(f"{args.workload:15} {name:32} {metric['value']:14.6g} {metric['unit']}")
    for name, message in outcome.failures.items():
        print(f"CHECK FAILED: {name}: {message}")
    print(json.dumps({"environment": outcome.info}, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
