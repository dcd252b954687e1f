#!/usr/bin/env python3
"""Online CBR learning in the serving loop, with incremental delta propagation.

The paper implements only the *retrieve* step in hardware and defers
"dynamic update mechanisms of Case-Base data structures ... enabling for a
self-learning system" to future work.  This demo shows that future-work
loop running live inside the serving layer:

1. generate a case base and a synthetic request trace,
2. replay the trace through the micro-batching serving engine with
   ``learn=True`` -- after every micro-batch, served outcomes are fed back
   through the CBR revise/retain cycle, mutating the case base mid-stream,
3. watch the case base grow while the per-phase host latency stays flat:
   every retained case is absorbed by the delta-propagation subsystem in
   O(touched types), not O(case base),
4. cross-check that a replay of the same traffic through the naive golden
   retrieval loop learns the exact same case base (bit-identical rankings
   and mutations).

Run with ``python examples/online_learning_demo.py``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import format_table
from repro.serving import ServingConfig, ServingEngine, synthetic_trace
from repro.tools import CaseBaseGenerator, GeneratorSpec

PHASES = 4
REQUESTS_PER_PHASE = 120


def main() -> None:
    generator = CaseBaseGenerator(
        GeneratorSpec(type_count=6, implementations_per_type=4,
                      attributes_per_implementation=6, attribute_type_count=8),
        seed=2004,
    )
    case_base = generator.case_base()
    config = ServingConfig(
        max_batch=16, n_best=3, learn=True,
        learning_rate=0.5, novelty_threshold=0.97, learn_capacity=12,
    )
    engine = ServingEngine(case_base, config=config)

    print("online learning under serving traffic "
          f"({PHASES} phases x {REQUESTS_PER_PHASE} requests)")
    rows = []
    for phase in range(PHASES):
        trace = synthetic_trace(
            case_base, REQUESTS_PER_PHASE, mean_interarrival_us=80.0,
            seed=100 + phase,
        )
        report = engine.serve(trace)
        learning = report.metrics["learning"]
        rows.append([
            phase + 1,
            report.metrics["served"],
            learning["revised"],
            learning["retained"],
            learning["implementations_after"],
            f"{report.wall_seconds * 1e3:.1f}",
        ])
    print(format_table(
        ["phase", "served", "revised", "retained", "cases", "host ms"],
        rows,
        title="case-base growth under evolving traffic",
    ))
    print(f"case base grew to {case_base.count_implementations()} implementations "
          f"across {case_base.revision} revisions; every mutation was absorbed "
          f"incrementally by the delta log (O(touched types) per retained case).")

    # Vectorized and naive-loop learning replays stay bit-identical: both
    # start from identical snapshots, learn from their own traffic, and must
    # end with the same rankings and the same evolved case base.
    source = generator.case_base()
    trace = synthetic_trace(source, 150, mean_interarrival_us=80.0, seed=7)
    vectorized_base, naive_base = source.copy(), source.copy()
    replays = [
        ServingEngine(
            replay_base, config=ServingConfig(
                backend=backend, max_batch=16, n_best=3, learn=True,
                novelty_threshold=0.97, learn_capacity=12,
            )
        ).serve(trace)
        for replay_base, backend in ((vectorized_base, "vectorized"),
                                     (naive_base, "naive"))
    ]
    assert replays[0].rankings() == replays[1].rankings()
    assert vectorized_base.to_dict() == naive_base.to_dict()
    print(f"vectorized and naive-loop replays learned identically: "
          f"{len(trace)} bit-identical rankings, "
          f"{vectorized_base.count_implementations()} cases either way.")


if __name__ == "__main__":
    main()
