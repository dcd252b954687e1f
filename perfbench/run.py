"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload replay-hot --seed 1 --seconds 10 --trace 0

Workloads (the seed generates every input; the program only receives them):

* ``replay-hot`` -- offline ``ServingEngine`` replay of the ``heavy-traffic``
  mix at the default ``max_batch=32``: 37 request signatures, about 1.25
  requests per batch, so fixed per-batch costs (cycle prediction, screening,
  retrieval set-up) dominate.  Memoisation and screen caches can win here.
* ``replay-wide`` -- unique ``synthetic_trace`` requests against a generated
  12 x 200 x 10 case base (inside 16-bit CB-MEM addressing, so every request
  is priced by the cycle model) in full 32-request batches.  No signature
  repeats, so any memo must cost nothing here.
* ``daemon-mixed`` -- ``repro serve --max-batch 1 --journal DIR`` in its own
  process, two keep-alive clients in a closed loop of ``heavy-traffic`` wire
  requests with one ``POST /learn`` per 20 calls: HTTP, wire decode/encode,
  journal commits and snapshots, and delta propagation.

``--trace 0`` prints the end-to-end metrics (``throughput_rps``,
``latency_p50_ms``, ``latency_p95_ms``, ``setup_s``, ``peak_rss_mb``);
``--trace 1`` runs half the time untraced and half with the span recorder of
``spans.py`` installed, and prints the per-layer metrics.  The last line of
standard output is the JSON result; the exit code is 0 only when every
output check passed.

Noise controls: every run is a fresh process; the daemon runs in its own
process with ``--max-batch 1`` (two clients never fill a 32-request batch, so
the default would mostly measure the 500 us batch timer), on a CPU apart
from its clients; readiness is polled with a sleep; p95, not p99, is the
tail metric, because p99 is far noisier between runs of the same code;
set-up is repeated and reported as a median; throughput and the latency
percentiles are medians over passes (replays) or seconds (daemon).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Span files of traced runs and the daemon's journal and logs.
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("replay-hot", "replay-wide", "daemon-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    traced = bool(args.trace)
    if args.workload == "daemon-mixed":
        import daemon_mixed

        result = daemon_mixed.run(args.seed, args.seconds, traced, str(OUT_DIR))
    else:
        import replays

        result = replays.run(args.workload, args.seed, args.seconds, traced, str(OUT_DIR))
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
