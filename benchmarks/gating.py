"""Shared helpers of the gated benchmark suites.

Every ``test_bench_*`` module had grown its own copy of the same two idioms;
they live here exactly once now:

* :func:`record_baseline` -- merge one measurement into the committed
  ``BENCH_*.json`` baseline, but only when the matching environment variable
  names a path (CI's bench-smoke lane refreshes the artifacts; local runs
  stay read-only by default);
* :func:`best_of` / :func:`interleaved_best_of` -- best-of-N timing (wall
  clock by default, or the calling thread's CPU time), the noise-robust
  measurement the speedup gates compare.
"""

import json
import os
import time


def record_baseline(env_var, key, payload):
    """Merge one measurement into the JSON baseline when recording is enabled.

    ``env_var`` names the environment variable holding the baseline path
    (e.g. ``BENCH_SERVING_JSON``); when unset the call is a no-op, so plain
    test runs never touch the committed artifacts.
    """
    path = os.environ.get(env_var)
    if not path:
        return
    data = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as stream:
            data = json.load(stream)
    data[key] = payload
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(data, stream, indent=2, sort_keys=True)
        stream.write("\n")


def best_of(runs, function):
    """``(best wall seconds, last result)`` over ``runs`` calls of ``function``."""
    return interleaved_best_of(runs, function)[0]


def interleaved_best_of(runs, *functions, clock=time.perf_counter):
    """``[(best seconds, last result), ...]`` per function, in order.

    Each of the ``runs`` rounds calls every function once, in turn, so a
    burst of host load lands on all sides of a ratio gate alike instead of
    on whichever side happened to be timing when it struck.  ``clock``
    defaults to wall time; ``time.thread_time`` counts only the calling
    thread's CPU time, leaving out the time it waits descheduled while other
    processes run (valid when the functions do all their work in the
    calling thread).
    """
    best = [float("inf")] * len(functions)
    results = [None] * len(functions)
    for _ in range(runs):
        for index, function in enumerate(functions):
            start = clock()
            results[index] = function()
            best[index] = min(best[index], clock() - start)
    return list(zip(best, results))
