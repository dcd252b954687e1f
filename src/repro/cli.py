"""Command-line interface for the QoS function-allocation library.

Provides the day-to-day developer workflows as sub-commands:

* ``repro-qos paper-example`` -- reproduce Table 1 (reference, hardware and
  software executions) and print the comparison;
* ``repro-qos generate`` -- generate a random case base (the paper's Matlab
  tooling) and write it to JSON;
* ``repro-qos ingest`` -- bulk-ingest a CSV/JSONL/parquet implementation dump
  into a case base through columnar, 16-bit-validated batches; ``--synthesize``
  writes a seeded 10^5..10^6-row dump first, and ``--image-dir`` persists the
  memmap image store for O(1) reopen;
* ``repro-qos retrieve`` -- run a retrieval against a case-base JSON file with
  constraints given on the command line;
* ``repro-qos retrieve-batch`` -- run a whole batch of retrievals (from a
  requests JSON file or randomly generated) through a selectable execution
  backend, or through both backends with an equivalence check and speedup
  report;
* ``repro-qos cosim-batch`` -- run a request batch through the cycle-accurate
  hardware and/or software models via a selectable cycle engine
  (stepwise golden walk or the bit-identical vectorized fast path), or
  through both engines with an exactness check and speedup report;
* ``repro-qos serve-trace`` -- replay a timestamped request trace (application
  workloads, a synthetic Poisson mix, or a requests file) through the serving
  layer's micro-batching scheduler, cycle-exact admission control and
  retrieval engine, reporting throughput/latency/rejection metrics; the
  ``--engine compare`` mode re-serves the trace on the golden path and checks
  rankings and statuses are bit-identical, and ``--learn`` turns on online
  CBR learning (revise + retain fed back between micro-batches, the case
  base evolving mid-stream with incremental delta propagation keeping every
  cache patched);
* ``repro-qos serve-cluster`` -- replay a trace across a multi-device fleet
  (FPGA-hosted hardware retrieval units plus processor-hosted software
  units) with reconfiguration-aware earliest-finish routing; ``--engine
  compare`` checks cluster rankings are bit-identical to single-device
  serving, and the ``fleet-failover`` workload brackets a staggered device
  outage;
* ``repro-qos serve`` -- run the network-facing serving daemon: an asyncio
  HTTP/JSON service exposing ``POST /retrieve`` (single and batch),
  ``POST /learn`` (streaming case-base deltas), ``GET /metrics`` and
  ``GET /healthz`` over the same micro-batching pipeline the replay commands
  use; ``--capture`` records a replayable trace whose offline re-serving
  (``serve-trace --capture``) must be bit-identical;
* ``repro-qos estimate`` -- print the Table 2-style resource estimate for a
  retrieval-unit configuration;
* ``repro-qos export`` -- export CB-MEM/Req-MEM images as ``.memh`` / C headers;
* ``repro-qos scenario`` -- run the multi-application allocation scenario.

The CLI is intentionally a thin veneer over the library so that everything it
prints is also reachable programmatically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .analysis import format_table
from .core import (
    FunctionRequest,
    ReproError,
    RetrievalEngine,
    paper_case_base,
    paper_request,
)
from .hardware import HardwareConfig, HardwareRetrievalUnit, ResourceEstimator
from .software import (
    SoftwareRetrievalUnit,
    microblaze_cost_model,
    microblaze_soft_multiply_model,
)
from .tools import (
    CaseBaseGenerator,
    GeneratorSpec,
    export_memory_images,
    load_case_base,
    load_requests_json,
    random_requests,
    save_case_base,
)


def _parse_constraint(text: str) -> tuple:
    """Parse ``ID=VALUE[:WEIGHT]`` command-line constraints."""
    try:
        id_part, value_part = text.split("=", 1)
        if ":" in value_part:
            value_text, weight_text = value_part.split(":", 1)
            weight = float(weight_text)
        else:
            value_text, weight = value_part, 1.0
        return int(id_part), int(value_text), weight
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"constraint {text!r} is not of the form ID=VALUE or ID=VALUE:WEIGHT"
        ) from exc


def _hardware_config(args: argparse.Namespace) -> HardwareConfig:
    return HardwareConfig(
        clock_mhz=args.clock_mhz,
        wide_attribute_fetch=args.compact,
        pipelined_datapath=args.compact,
        cache_reciprocals=args.compact,
        n_best=args.n_best,
    )


def cmd_paper_example(args: argparse.Namespace) -> int:
    """Reproduce Table 1 with all three execution models."""
    case_base = paper_case_base()
    request = paper_request()
    engine = RetrievalEngine(case_base)
    ranking = engine.retrieve_n_best(request, 3)
    hardware = HardwareRetrievalUnit(case_base).run(request)
    software = SoftwareRetrievalUnit(case_base).run(request)
    rows = [
        [entry.implementation_id, entry.implementation.name, round(entry.similarity, 3)]
        for entry in ranking
    ]
    print(format_table(["impl", "name", "S_global"], rows, title="Table 1 reproduction"))
    print()
    print(f"hardware unit : best={hardware.best_id} S={hardware.best_similarity:.3f} "
          f"cycles={hardware.cycles}")
    print(f"software model: best={software.best_id} S={software.best_similarity:.3f} "
          f"cycles={software.cycles}")
    print(f"speedup at equal clock: {software.cycles / hardware.cycles:.1f}x "
          f"(paper: ~8.5x)")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a random case base and write it to JSON."""
    spec = GeneratorSpec(
        type_count=args.types,
        implementations_per_type=args.implementations,
        attributes_per_implementation=args.attributes,
        attribute_type_count=max(args.attributes, args.attribute_types),
    )
    generator = CaseBaseGenerator(spec, seed=args.seed)
    path = save_case_base(generator.case_base(), args.output)
    print(f"wrote case base with {spec.type_count} types x {spec.implementations_per_type} "
          f"implementations to {path}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Bulk-ingest an implementation dump (or synthesize one first)."""
    from .memmap import ImageStore
    from .tools import ingest_dump, synthesize_dump

    if args.synthesize:
        if args.synthesize % args.types:
            print(f"error: --synthesize {args.synthesize} is not divisible by "
                  f"--types {args.types}", file=sys.stderr)
            return 2
        per_type = args.synthesize // args.types
        if per_type > 0xFFFF:
            print(f"error: {per_type} implementations per type exceeds the "
                  f"16-bit ID space; raise --types", file=sys.stderr)
            return 2
        spec = GeneratorSpec(
            type_count=args.types,
            implementations_per_type=per_type,
            attributes_per_implementation=args.attributes,
            attribute_type_count=max(args.attributes, args.attribute_types),
            missing_probability=args.missing_probability,
        )
        started = time.perf_counter()
        rows = synthesize_dump(args.dump, spec, seed=args.seed, fmt=args.format)
        print(f"synthesized {rows} implementation rows "
              f"({spec.type_count} types x {spec.implementations_per_type}) "
              f"to {args.dump} in {time.perf_counter() - started:.2f}s")
        if not (args.out or args.image_dir):
            return 0
    case_base, report = ingest_dump(
        args.dump, fmt=args.format, batch_rows=args.batch_rows
    )
    print(report.summary())
    if args.out:
        path = save_case_base(case_base, args.out)
        print(f"wrote case-base JSON to {path}")
    if args.image_dir:
        started = time.perf_counter()
        ImageStore(args.image_dir).save(case_base)
        print(f"persisted memmap image store to {args.image_dir} "
              f"in {time.perf_counter() - started:.2f}s "
              f"(reopens O(1) while the case base is unchanged)")
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    """Run retrieval against a case-base JSON file."""
    case_base = load_case_base(args.case_base) if args.case_base else paper_case_base()
    request = FunctionRequest(args.type_id, list(args.constraint), requester="cli")
    if args.backend == "reference":
        result = RetrievalEngine(case_base).retrieve(request, n=args.n_best)
        rows = [
            [entry.implementation_id, entry.implementation.target.value, round(entry.similarity, 4)]
            for entry in result
        ]
        print(format_table(["impl", "target", "S_global"], rows, title="retrieval result"))
    else:
        unit = HardwareRetrievalUnit(case_base, config=_hardware_config(args))
        result = unit.run(request)
        rows = [
            [implementation_id, round(similarity, 4)]
            for implementation_id, similarity in zip(
                result.ranked_ids(), result.ranked_similarities()
            )
        ]
        print(format_table(["impl", "S_global"], rows, title="hardware retrieval result"))
        print(f"cycles={result.cycles} time={result.time_us:.2f} us at {result.clock_mhz:.0f} MHz")
    return 0


def cmd_retrieve_batch(args: argparse.Namespace) -> int:
    """Run a batch of retrievals through one or both execution backends."""
    case_base = load_case_base(args.case_base) if args.case_base else paper_case_base()
    if args.requests:
        try:
            requests = load_requests_json(args.requests)
        except ReproError as error:
            print(f"retrieve-batch: {error}", file=sys.stderr)
            return 2
    elif args.random > 0:
        requests = random_requests(case_base, args.random, args.seed)
    else:
        print("retrieve-batch needs --requests FILE or --random N", file=sys.stderr)
        return 2
    if not requests:
        print("retrieve-batch: no usable requests (empty file, or no case-base "
              "implementation describes any attributes)", file=sys.stderr)
        return 2
    threshold = args.threshold
    backends = ["naive", "vectorized"] if args.backend == "compare" else [args.backend]
    timings = {}
    outputs = {}
    for backend in backends:
        engine = RetrievalEngine(case_base, backend=backend)
        start = time.perf_counter()
        try:
            results = engine.retrieve_batch(requests, n=args.n_best, threshold=threshold)
        except ReproError as error:
            # Content errors surface here (a type ID the case base does not
            # know, a constrained attribute outside the bounds table, ...).
            print(f"retrieve-batch: {error}", file=sys.stderr)
            return 2
        timings[backend] = time.perf_counter() - start
        outputs[backend] = results
    results = outputs[backends[-1]]
    rows = [
        [index, request.type_id, result.best_id,
         round(result.best_similarity, 4) if result.best_similarity is not None else "-"]
        for index, (request, result) in enumerate(
            list(zip(requests, results))[: args.show]
        )
    ]
    print(format_table(["request", "type", "best impl", "S_global"], rows,
                       title=f"batch retrieval ({len(requests)} requests)"))
    for backend in backends:
        print(f"{backend:10s}: {timings[backend] * 1e3:8.2f} ms "
              f"({timings[backend] / len(requests) * 1e6:7.1f} us/request)")
    if args.backend == "compare":
        mismatches = _report_compare_mismatches(
            "retrieve-batch", "naive", "vectorized",
            [result.ids() for result in outputs["naive"]],
            [result.ids() for result in outputs["vectorized"]],
            format_value=_format_compare_value, unit="rankings",
        )
        speedup = timings["naive"] / timings["vectorized"] if timings["vectorized"] else float("inf")
        print(f"backends agree on {len(requests) - mismatches}/{len(requests)} rankings; "
              f"vectorized speedup {speedup:.1f}x")
        if mismatches:
            return 1
    return 0


def _cosim_comparable(model: str, result) -> tuple:
    """The exact-equality surface of one cycle-model result.

    Two results are bit- and cycle-identical (the vectorized engine's
    guarantee) exactly when these tuples compare equal: best case, raw
    similarity, cycle statistics, plus the full ranking (hardware) or the
    instruction-count breakdown (software).
    """
    extra = result.ranked if model == "hardware" else result.counters.counts
    return (result.best_id, result.best_similarity_raw, result.statistics, extra)


def cmd_cosim_batch(args: argparse.Namespace) -> int:
    """Run a request batch through the cycle models via selectable engines."""
    case_base = load_case_base(args.case_base) if args.case_base else paper_case_base()
    if args.requests:
        try:
            requests = load_requests_json(args.requests)
        except ReproError as error:
            print(f"cosim-batch: {error}", file=sys.stderr)
            return 2
    elif args.random > 0:
        requests = random_requests(case_base, args.random, args.seed)
    else:
        print("cosim-batch needs --requests FILE or --random N", file=sys.stderr)
        return 2
    if not requests:
        print("cosim-batch: no usable requests (empty file, or no case-base "
              "implementation describes any attributes)", file=sys.stderr)
        return 2

    units = {}
    if args.model in ("hardware", "both"):
        units["hardware"] = HardwareRetrievalUnit(case_base, config=_hardware_config(args))
    if args.model in ("software", "both"):
        cost_model = (
            microblaze_soft_multiply_model(args.clock_mhz)
            if args.soft_multiply
            else microblaze_cost_model(args.clock_mhz)
        )
        units["software"] = SoftwareRetrievalUnit(
            case_base, cost_model=cost_model, inline_helpers=args.inline_helpers
        )
    engines = ["stepwise", "vectorized"] if args.engine == "compare" else [args.engine]
    outputs = {}
    timings = {}
    for model, unit in units.items():
        for engine in engines:
            start = time.perf_counter()
            try:
                results = unit.run_batch(requests, engine=engine)
            except ReproError as error:
                print(f"cosim-batch: {error}", file=sys.stderr)
                return 2
            timings[(model, engine)] = time.perf_counter() - start
            outputs[(model, engine)] = results

    shown_engine = engines[-1]
    headers = ["request", "type", "best impl", "S_global"] + [
        f"{model} cycles" for model in units
    ]
    rows = []
    for index, request in enumerate(requests[: args.show]):
        first_model = next(iter(units))
        result = outputs[(first_model, shown_engine)][index]
        row = [index, request.type_id, result.best_id, round(result.best_similarity, 4)]
        row += [outputs[(model, shown_engine)][index].cycles for model in units]
        rows.append(row)
    print(format_table(headers, rows,
                       title=f"cycle co-simulation ({len(requests)} requests)"))
    for model in units:
        for engine in engines:
            elapsed = timings[(model, engine)]
            total_cycles = sum(result.cycles for result in outputs[(model, engine)])
            print(f"{model:9s}/{engine:10s}: {elapsed * 1e3:8.2f} ms wall, "
                  f"{total_cycles} modelled cycles "
                  f"({elapsed / len(requests) * 1e6:7.1f} us/request)")
    if "hardware" in units and "software" in units:
        hw = sum(result.cycles for result in outputs[("hardware", shown_engine)])
        sw = sum(result.cycles for result in outputs[("software", shown_engine)])
        if hw:
            print(f"modelled hw-vs-sw speedup at equal clock: {sw / hw:.1f}x (paper: ~8.5x)")
    if args.engine == "compare":
        exit_code = 0
        for model in units:
            mismatches = _report_compare_mismatches(
                "cosim-batch", "stepwise", "vectorized",
                [_cosim_comparable(model, result)
                 for result in outputs[(model, "stepwise")]],
                [_cosim_comparable(model, result)
                 for result in outputs[(model, "vectorized")]],
                format_value=_format_compare_value, unit=f"{model} results",
            )
            stepwise_time = timings[(model, "stepwise")]
            vectorized_time = timings[(model, "vectorized")]
            speedup = (
                stepwise_time / vectorized_time if vectorized_time else float("inf")
            )
            print(f"{model}: engines agree exactly on "
                  f"{len(requests) - mismatches}/{len(requests)} results "
                  f"(cycles, statistics, rankings); vectorized speedup {speedup:.1f}x")
            if mismatches:
                exit_code = 1
        return exit_code
    return 0


def _serve_spec_inputs(args: argparse.Namespace, *, cluster: bool = False):
    """``(spec, case base, trace)`` of one serve-* invocation.

    All three serve front-ends parse into the same
    :class:`~repro.serving.ServingSpec`, so the CLI surface cannot drift
    from the Python or HTTP surfaces.
    """
    from .serving import ServingSpec

    spec = ServingSpec.from_args(args, cluster=cluster)
    case_base, trace = spec.resolve_inputs()
    return spec, case_base, trace


def _format_ranking(ranking) -> str:
    """Compact ranking rendering for compare-mode diff summaries."""
    if ranking is None:
        return "unserved"
    shown = ", ".join(
        f"{implementation_id}:{similarity!r}"
        for implementation_id, similarity in ranking[:3]
    )
    suffix = ", ..." if len(ranking) > 3 else ""
    return f"[{shown}{suffix}]"


def _format_compare_value(value) -> str:
    """Generic compact rendering for compare-mode diff summaries."""
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _report_compare_mismatches(
    command: str,
    first_label: str,
    second_label: str,
    first,
    second,
    *,
    format_value=_format_ranking,
    limit: int = 5,
    population: Optional[int] = None,
    unit: str = "requests",
) -> int:
    """Print a diff summary of two per-request comparison lists to stderr.

    The one compare-reporting path of every ``--engine compare`` mode
    (retrieve-batch, cosim-batch, serve-trace, serve-cluster) and the capture
    replay check.  Returns the mismatch count (0 = bit-identical); the
    compare modes exit non-zero when it is positive, so CI catches
    equivalence regressions instead of scrolling past a printed count.
    ``population`` overrides the denominator when the comparison covers only
    a subset of the lists (the cluster compare's commonly-served requests).
    """
    from .observability import trace_id_for

    mismatched = [
        index for index, (a, b) in enumerate(zip(first, second)) if a != b
    ]
    if not mismatched:
        return 0
    total = population if population is not None else len(first)
    print(
        f"{command}: bit-identity FAILED for {len(mismatched)}/{total} "
        f"{unit}; first {min(limit, len(mismatched))} difference(s):",
        file=sys.stderr,
    )
    # The trace id makes a diverging request greppable straight out of the
    # daemon's GET /traces/recent listing (or a `repro trace` rendering).
    for index in mismatched[:limit]:
        print(
            f"  request {index} (trace {trace_id_for(index)}): "
            f"{first_label}={format_value(first[index])} "
            f"{second_label}={format_value(second[index])}",
            file=sys.stderr,
        )
    return len(mismatched)


def _print_replay_summary(report, trace, args, *, title: str, workers: bool = False) -> None:
    """Shared result table + metrics lines of the serve-* subcommands."""
    metrics = report.metrics
    statuses = metrics["statuses"]
    headers = ["request", "type", "status", "best impl", "S_global", "latency us"]
    if workers:
        headers.append("worker")
    rows = []
    for record in report.served[: args.show]:
        row = [record.index, trace[record.index].request.type_id, record.status.value,
               record.result.best_id if record.result is not None else "-",
               round(record.result.best_similarity, 4)
               if record.result is not None and record.result.best_similarity is not None
               else "-",
               f"{record.latency_us:.1f}" if record.latency_us is not None else "-"]
        if workers:
            row.append(record.worker or "-")
        rows.append(row)
    print(format_table(headers, rows, title=title))
    latency = metrics["latency"]
    batches = metrics["batches"]

    def _us(value) -> str:
        return f"{value:.1f}" if value is not None else "-"

    print(f"served={metrics['served']}/{metrics['requests']} "
          f"(hw={statuses.get('served_hardware', 0)} "
          f"sw={statuses.get('served_software', 0)}) "
          f"rejected: deadline={statuses.get('rejected_deadline', 0)} "
          f"infeasible={statuses.get('rejected_infeasible', 0)} "
          f"failed={statuses.get('failed', 0)}")
    print(f"modelled latency p50/p95/p99: {_us(latency['p50_us'])}/"
          f"{_us(latency['p95_us'])}/{_us(latency['p99_us'])} us")
    print(f"batches: {batches['count']} (mean size {batches['mean_size']:.1f}); "
          f"host wall {report.wall_seconds * 1e3:.2f} ms "
          f"({metrics['throughput_rps']:.0f} requests/s)")
    if args.learn:
        learning = metrics["learning"]
        print(f"learning: revised={learning['revised']} "
              f"retained={learning['retained']} implementations "
              f"{learning['implementations_before']} -> "
              f"{learning['implementations_after']} "
              f"({learning['revisions']} case-base revisions)")


def _write_json_report(report, args) -> None:
    """Write (or print) the full JSON serving report when ``--json`` is given."""
    from .api import schemas

    if not args.json:
        return
    payload = schemas.dumps(schemas.report_to_wire(report))
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w", encoding="utf-8") as stream:
            stream.write(payload + "\n")
        print(f"report written to {args.json}")


def _replay_capture_file(path: str, command: str = "serve-trace") -> int:
    """Offline-replay a daemon capture file and check response bit-identity.

    The differential half of the serving daemon's soak story: ``repro serve
    --capture cap.json`` records what the live asyncio service actually did;
    this re-serves the captured trace through the offline scheduler and
    demands byte-for-byte identical responses (rankings, similarity doubles,
    admission decisions).
    """
    from .api import schemas
    from .serving import replay_capture

    try:
        with open(path, "r", encoding="utf-8") as stream:
            document = schemas.loads(stream.read())
        if not isinstance(document, dict):
            raise schemas.SchemaError("a capture document must be a JSON object")
        report = replay_capture(document)
    except OSError as error:
        print(f"{command}: cannot read capture file {path}: {error}", file=sys.stderr)
        return 2
    except (schemas.SchemaError, ReproError) as error:
        print(f"{command}: {error}", file=sys.stderr)
        return 2

    recorded = document.get("responses", [])
    # Normalise the live records through a JSON round-trip so the comparison
    # sees exactly what a reader of the capture file sees (tuples become
    # lists; float reprs survive the round-trip bit-exactly).
    replayed = [
        json.loads(json.dumps(record.to_dict())) for record in report.served
    ]
    mismatches = _report_compare_mismatches(
        command, "recorded", "replayed", recorded, replayed,
        format_value=_format_compare_value, unit="responses",
    )
    if len(recorded) != len(replayed):
        print(f"{command}: capture has {len(recorded)} responses but replay "
              f"produced {len(replayed)}", file=sys.stderr)
        mismatches += abs(len(recorded) - len(replayed))
    print(f"capture replay bit-identical for "
          f"{len(recorded) - min(mismatches, len(recorded))}/{len(recorded)} responses")
    return 1 if mismatches else 0


def cmd_serve_trace(args: argparse.Namespace) -> int:
    """Replay a request trace through the micro-batching serving layer."""
    if args.capture:
        return _replay_capture_file(args.capture)

    try:
        spec, case_base, trace = _serve_spec_inputs(args)
    except ReproError as error:
        print(f"serve-trace: {error}", file=sys.stderr)
        return 2
    if not trace:
        print("serve-trace: the trace is empty (longer --duration-ms, a non-empty "
              "requests file, or --random N > 0 produce one)", file=sys.stderr)
        return 2

    # The compare mode's reference replays on its own copy, taken before the
    # served run: learning mutates the served case base mid-stream, and the
    # served run's plans (memoised rankings included) must not feed the
    # reference.
    reference_case_base = case_base.copy() if args.engine == "compare" else None
    try:
        report = spec.build_engine(case_base).serve(trace)
    except ReproError as error:
        print(f"serve-trace: {error}", file=sys.stderr)
        return 2

    _print_replay_summary(
        report, trace, args,
        title=f"trace replay ({len(trace)} requests, max_batch={spec.max_batch})",
    )

    exit_code = 0
    if args.engine == "compare":
        # The reference replay is the golden path (naive loop, stepwise cycles).
        golden = spec.replace(backend="naive", cycle_engine="stepwise").build_engine(
            reference_case_base
        ).serve(trace)
        served, reference = (
            list(zip([r.status.value for r in replay.served], replay.rankings()))
            for replay in (report, golden)
        )
        mismatches = _report_compare_mismatches(
            "serve-trace", "served", "golden", served, reference,
            format_value=_format_compare_value,
        )
        print(f"served vs golden-path rankings and statuses bit-identical for "
              f"{len(trace) - mismatches}/{len(trace)} requests")
        if mismatches:
            exit_code = 1
    _write_json_report(report, args)
    return exit_code


def cmd_serve_cluster(args: argparse.Namespace) -> int:
    """Replay a request trace across a multi-device fleet."""
    from .apps import apply_failover_outages

    try:
        spec, case_base, trace = _serve_spec_inputs(args, cluster=True)
    except ReproError as error:
        print(f"serve-cluster: {error}", file=sys.stderr)
        return 2
    if not trace:
        print("serve-cluster: the trace is empty (longer --duration-ms, a non-empty "
              "requests file, or --random N > 0 produce one)", file=sys.stderr)
        return 2

    # The single-device reference replays on its own copy, taken before the
    # cluster run: learning mutates the served case base mid-stream, and the
    # cluster run's plans (memoised rankings included) must not feed the
    # reference.
    reference_case_base = case_base.copy() if args.engine == "compare" else None
    try:
        fleet = spec.build_fleet(case_base)
        if spec.uses_workload_trace and "fleet-failover" in spec.workloads:
            # The failover workload's burst phase brackets a staggered
            # outage of every hardware device (see repro.apps.fleet_failover).
            # Only meaningful when the trace is actually workload-derived:
            # --requests/--random traces ignore --workload entirely.
            apply_failover_outages(fleet, spec.duration_ms * 1000.0)
        report = spec.build_engine(case_base, fleet=fleet).serve(trace)
    except ReproError as error:
        print(f"serve-cluster: {error}", file=sys.stderr)
        return 2

    _print_replay_summary(
        report, trace, args,
        title=f"cluster replay ({len(trace)} requests, devices={len(fleet)}, "
              f"max_batch={spec.max_batch})",
        workers=True,
    )
    cluster = report.metrics["cluster"]
    worker_rows = [
        [name, stats["kind"], stats["assigned"], f"{stats['busy_us']:.0f}",
         f"{stats['utilization']:.0%}"]
        for name, stats in cluster["workers"].items()
    ]
    print(format_table(
        ["worker", "kind", "assigned", "busy us", "util"],
        worker_rows, title="fleet utilisation",
    ))
    sync = cluster["sync"]
    throughput = cluster["modelled_throughput_rps"]
    print(f"image syncs: {sync['events']} ({sync['incremental']} incremental, "
          f"{sync['full']} full, {sync['bytes_streamed']} bytes, "
          f"{sync['reconfiguration_us']:.1f} us reconfiguration)")
    print(f"modelled fleet makespan {cluster['modelled_makespan_us']:.1f} us "
          f"({throughput:.0f} modelled requests/s)"
          if throughput is not None
          else "modelled fleet makespan: no requests dispatched")

    exit_code = 0
    if args.engine == "compare":
        # Single-device golden reference.
        single = spec.replace(cluster=False).build_engine(reference_case_base).serve(trace)
        cluster_rankings = report.rankings()
        single_rankings = single.rankings()
        #: Routing changes *capacity* (how many requests meet a deadline),
        #: never *results*: the bit-identity surface is every request both
        #: replays served; capacity differences are reported separately.
        both = [
            cluster_entry is not None and single_entry is not None
            for cluster_entry, single_entry in zip(cluster_rankings, single_rankings)
        ]
        common = sum(both)
        mismatches = _report_compare_mismatches(
            "serve-cluster", "cluster", "single-device",
            [entry if served else None
             for entry, served in zip(cluster_rankings, both)],
            [entry if served else None
             for entry, served in zip(single_rankings, both)],
            population=common,
        )
        print(f"cluster ({len(fleet)} devices) vs single-device rankings "
              f"bit-identical for {common - mismatches}/{common} commonly "
              f"served requests")
        cluster_only = sum(
            1 for cluster_entry, single_entry in zip(cluster_rankings, single_rankings)
            if cluster_entry is not None and single_entry is None
        )
        single_only = sum(
            1 for cluster_entry, single_entry in zip(cluster_rankings, single_rankings)
            if cluster_entry is None and single_entry is not None
        )
        if cluster_only or single_only:
            print(f"capacity difference: {cluster_only} request(s) served only "
                  f"by the cluster, {single_only} only by the single device")
        if mismatches:
            exit_code = 1
    _write_json_report(report, args)
    return exit_code


def cmd_estimate(args: argparse.Namespace) -> int:
    """Print the Table 2-style resource estimate."""
    estimate = ResourceEstimator().estimate(config=_hardware_config(args))
    print(format_table(["resource", "usage"], estimate.as_table_rows(),
                       title=f"resource estimate ({estimate.device.name})"))
    if args.components:
        rows = [[c.name, c.slices, c.multipliers, f"{c.delay_ns:.1f}"] for c in estimate.components]
        print()
        print(format_table(["component", "slices", "mult", "delay ns"], rows,
                           title="component inventory"))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Export memory images for RTL / firmware testbenches."""
    case_base = load_case_base(args.case_base) if args.case_base else paper_case_base()
    request = paper_request() if args.with_request else None
    outputs = export_memory_images(
        case_base, request, args.output_dir, prefix=args.prefix, formats=args.formats
    )
    for name, path in sorted(outputs.items()):
        print(f"{name:18s} -> {path}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    """Run the multi-application allocation scenario."""
    from .apps import ScenarioRunner, build_scenario

    scenario = build_scenario(
        fpga_count=args.fpgas,
        power_budget_mw=args.power_budget,
        retrieval_backend=args.backend if args.backend != "reference" else "reference",
        cycle_engine=args.cycle_engine,
    )
    result = ScenarioRunner(scenario, seed=args.seed).run(args.duration_ms * 1000.0)
    print(f"requests={result.request_count} served={result.success_count} "
          f"({result.success_rate:.0%}) bypass={result.bypass_count}")
    rows = [
        [application, requests, successes]
        for application, (requests, successes) in sorted(result.per_application().items())
    ]
    print(format_table(["application", "requests", "served"], rows))
    statistics = scenario.manager.statistics
    print(f"alternatives={statistics.allocated_alternative} "
          f"preemptions={statistics.preemptions} "
          f"infeasible={statistics.rejected_infeasible} "
          f"app-rejected={statistics.rejected_by_application}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the network-facing serving daemon (``repro serve``)."""
    import logging

    from .serving import ServingSpec, run_daemon

    # Structured single-line key=value logs (bind, spec hash, recovery
    # summary, drain) on stderr; --log-level warning silences them.
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(message)s",
    )

    try:
        spec = ServingSpec.from_args(args)
    except ReproError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2

    def announce(host: str, port: int) -> None:
        engine = "cluster" if spec.cluster else "single-node"
        print(f"serving on http://{host}:{port} ({engine} engine; Ctrl-C stops)",
              flush=True)

    try:
        run_daemon(
            spec,
            host=args.host,
            port=args.port,
            capture_path=args.capture,
            max_request_batch=args.max_request_batch,
            journal_dir=args.journal,
            snapshot_interval=args.snapshot_interval,
            announce=announce,
        )
    except ReproError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"serve: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    return 0


def _journal_trace_engine(directory: str, *, ring_floor: int = 0):
    """Replay a journal directory's committed tail and return the engine.

    The lean offline twin of the daemon's recovery path: newest snapshot,
    engine rebuilt under a tracing-forced spec, committed ``journal-trace``
    batches and ``journal-learn`` events re-applied in order.  The returned
    engine's observability store then holds one span tree per recovered
    request -- what ``repro trace --journal`` renders.
    """
    from .api import schemas
    from .core.case_base import CaseBase
    from .core.journal import DeltaJournal
    from .observability import DEFAULT_TRACE_RING, ObservabilityConfig
    from .serving import ServingSpec
    from .serving.scheduler import ScheduledBatch

    state = DeltaJournal.load(directory)
    if state.snapshot is None:
        raise ReproError(f"no journal snapshot found in {directory}")
    snapshot = state.snapshot
    spec = ServingSpec.from_wire(snapshot["spec"])
    trace_records = [r for r in state.records if r.get("kind") == "journal-trace"]
    requests = sum(len(r["batch"]["entries"]) for r in trace_records)
    ring = max(DEFAULT_TRACE_RING, ring_floor, requests + len(trace_records) + 16)
    spec = spec.replace(observability=ObservabilityConfig(
        enabled=True, trace_sample_rate=1.0, trace_ring=ring,
    ))
    case_base = CaseBase.from_dict(snapshot["case_base"])
    case_base.delta_log.rebase(case_base.revision)
    engine = spec.build_engine(case_base)
    session = engine.session()
    engine_state = snapshot.get("engine_state")
    if isinstance(engine_state, dict):
        session.restore_state(engine_state)
    for record in state.records:
        kind = record.get("kind")
        if kind == "journal-trace":
            batch_doc = record["batch"]
            indices = [int(index) for index, _ in batch_doc["entries"]]
            entries = schemas.trace_from_wire(
                [wire for _, wire in batch_doc["entries"]], requester="http"
            )
            session.process_batch(ScheduledBatch(
                index=int(batch_doc["index"]),
                entries=list(zip(indices, entries)),
                open_us=float(batch_doc["open_us"]),
                close_us=float(batch_doc["close_us"]),
            ))
        elif kind == "journal-learn":
            import contextlib

            with contextlib.suppress(ReproError):
                schemas.apply_mutation_events(
                    case_base, record.get("events", [])
                )
    return engine


def cmd_trace(args: argparse.Namespace) -> int:
    """Render span trees from a capture or journal (``repro trace``)."""
    from .api import schemas
    from .observability import (
        DEFAULT_TRACE_RING,
        ObservabilityConfig,
        render_trace,
        render_traces,
        trace_id_for,
    )
    from .serving import replay_capture

    if bool(args.capture) == bool(args.journal):
        print("trace needs exactly one of --capture FILE or --journal DIR",
              file=sys.stderr)
        return 2
    try:
        if args.capture:
            with open(args.capture, "r", encoding="utf-8") as stream:
                document = schemas.loads(stream.read())
            if not isinstance(document, dict):
                raise schemas.SchemaError(
                    "a capture document must be a JSON object"
                )
            requests = len(document.get("trace", []))
            config = ObservabilityConfig(
                enabled=True,
                trace_sample_rate=1.0,
                trace_ring=max(DEFAULT_TRACE_RING, 2 * requests + 16),
            )
            _, engine = replay_capture(
                document, observability=config, with_engine=True
            )
        else:
            engine = _journal_trace_engine(args.journal)
    except OSError as error:
        print(f"trace: cannot read {args.capture or args.journal}: {error}",
              file=sys.stderr)
        return 2
    except (schemas.SchemaError, ReproError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2

    store = engine.observability.store
    if args.request is not None:
        lookup = args.request.strip()
        if lookup.isdigit():
            lookup = trace_id_for(int(lookup))
        trace = store.get(lookup)
        if trace is None:
            print(f"trace: no trace {lookup!r} in the replay "
                  f"({len(store)} stored)", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(trace.to_dict(), sort_keys=True, indent=2))
        else:
            print(render_trace(trace))
        return 0
    traces = [
        trace for trace in store.all()
        if args.batches or trace.trace_id.startswith("req-")
    ]
    if args.limit > 0:
        traces = traces[-args.limit:]
    if not traces:
        print("trace: the replay produced no traces", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps([trace.to_dict() for trace in traces],
                         sort_keys=True, indent=2))
    else:
        print(render_traces(traces))
        print(f"\n{len(traces)} trace(s) shown ({len(store)} stored; "
              f"--request ID for one tree, --batches for batch pipelines)")
    return 0


def _add_replay_arguments(sub: argparse.ArgumentParser, *, engine_help: str) -> None:
    """The replay-only options (on top of the ServingSpec argument groups)."""
    sub.add_argument("--engine", choices=["vectorized", "naive", "compare"],
                     default="vectorized", help=engine_help)
    sub.add_argument("--show", type=int, default=10,
                     help="number of result rows to print (default 10)")
    sub.add_argument("--json", metavar="PATH",
                     help="write the full JSON serving report to PATH ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-qos",
        description="QoS-based function allocation for reconfigurable systems",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("paper-example", help="reproduce Table 1 of the paper")
    sub.set_defaults(handler=cmd_paper_example)

    sub = subparsers.add_parser("generate", help="generate a random case base as JSON")
    sub.add_argument("output", help="output JSON path")
    sub.add_argument("--types", type=int, default=15)
    sub.add_argument("--implementations", type=int, default=10)
    sub.add_argument("--attributes", type=int, default=10)
    sub.add_argument("--attribute-types", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=cmd_generate)

    sub = subparsers.add_parser(
        "ingest",
        help="bulk-ingest a CSV/JSONL/parquet implementation dump "
             "(columnar batches, 16-bit validation)",
    )
    sub.add_argument("dump", help="dump file to ingest (or to write with --synthesize)")
    sub.add_argument("--format", choices=["auto", "csv", "jsonl", "parquet"],
                     default="auto",
                     help="dump format (default: inferred from the suffix; "
                          "parquet needs the optional 'ingest' extra)")
    sub.add_argument("--batch-rows", type=int, default=65536,
                     help="rows per columnar batch (default 65536)")
    sub.add_argument("--out", help="also write the ingested case base as JSON")
    sub.add_argument("--image-dir", metavar="DIR",
                     help="also persist the memmap image store (see repro.memmap."
                          "ImageStore) for O(1) reopen on later starts")
    sub.add_argument("--synthesize", type=int, default=0, metavar="N",
                     help="first synthesize a seeded dump with N implementations "
                          "to DUMP (then ingest it only when --out/--image-dir "
                          "is also given)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--types", type=int, default=16,
                     help="function types for --synthesize (default 16)")
    sub.add_argument("--attributes", type=int, default=10)
    sub.add_argument("--attribute-types", type=int, default=10)
    sub.add_argument("--missing-probability", type=float, default=0.0,
                     help="per-attribute absence probability for --synthesize")
    sub.set_defaults(handler=cmd_ingest)

    sub = subparsers.add_parser("retrieve", help="run one retrieval")
    sub.add_argument("--case-base", help="case-base JSON (defaults to the paper example)")
    sub.add_argument("--type-id", type=int, default=1)
    sub.add_argument("--constraint", action="append", type=_parse_constraint, default=[],
                     help="constraint as ID=VALUE or ID=VALUE:WEIGHT (repeatable)")
    sub.add_argument("--backend", choices=["reference", "hardware"], default="reference")
    sub.add_argument("--n-best", type=int, default=3)
    sub.add_argument("--clock-mhz", type=float, default=66.0)
    sub.add_argument("--compact", action="store_true",
                     help="enable the compacted-block hardware configuration")
    sub.set_defaults(handler=cmd_retrieve)

    sub = subparsers.add_parser(
        "retrieve-batch", help="run a batch of retrievals through pluggable backends"
    )
    sub.add_argument("--case-base", help="case-base JSON (defaults to the paper example)")
    sub.add_argument("--requests", help="JSON file with a list of "
                     '{"type_id": ..., "constraints": ...} requests')
    sub.add_argument("--random", type=int, default=0, metavar="N",
                     help="generate N random requests matching the case base instead")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--backend", choices=["naive", "vectorized", "compare"],
                     default="vectorized",
                     help="'compare' runs both backends, checks ranking equality "
                          "and reports the vectorized speedup")
    sub.add_argument("--n-best", type=int, default=3)
    sub.add_argument("--threshold", type=float, default=None)
    sub.add_argument("--show", type=int, default=10,
                     help="number of result rows to print (default 10)")
    sub.set_defaults(handler=cmd_retrieve_batch)

    sub = subparsers.add_parser(
        "cosim-batch",
        help="run a request batch through the cycle-accurate models via cycle engines",
    )
    sub.add_argument("--case-base", help="case-base JSON (defaults to the paper example)")
    sub.add_argument("--requests", help="JSON file with a list of "
                     '{"type_id": ..., "constraints": ...} requests')
    sub.add_argument("--random", type=int, default=0, metavar="N",
                     help="generate N random requests matching the case base instead")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--model", choices=["hardware", "software", "both"], default="both")
    sub.add_argument("--engine", choices=["stepwise", "vectorized", "auto", "compare"],
                     default="auto",
                     help="'compare' runs both engines, checks bit- and cycle-exact "
                          "equality and reports the vectorized speedup")
    sub.add_argument("--n-best", type=int, default=1,
                     help="n most similar results delivered by the hardware unit")
    sub.add_argument("--clock-mhz", type=float, default=66.0)
    sub.add_argument("--compact", action="store_true",
                     help="enable the compacted-block hardware configuration")
    sub.add_argument("--inline-helpers", action="store_true",
                     help="model the aggressively inlined software build")
    sub.add_argument("--soft-multiply", action="store_true",
                     help="model the soft-core without its hardware multiplier")
    sub.add_argument("--show", type=int, default=10,
                     help="number of result rows to print (default 10)")
    sub.set_defaults(handler=cmd_cosim_batch)

    from .serving.spec import ServingSpec

    sub = subparsers.add_parser(
        "serve-trace",
        help="replay a request trace through the micro-batching serving layer",
    )
    ServingSpec.add_trace_arguments(sub)
    ServingSpec.add_serving_arguments(sub)
    _add_replay_arguments(
        sub,
        engine_help="retrieval backend; 'compare' re-serves the trace on the "
                    "golden path (naive retrieval, stepwise cycles) and "
                    "checks rankings and statuses are bit-identical "
                    "(non-zero exit + diff summary on mismatch)",
    )
    sub.add_argument("--capture", metavar="PATH",
                     help="instead of generating a trace, offline-replay a "
                          "daemon capture file (see 'repro-qos serve "
                          "--capture') and verify the responses are "
                          "bit-identical (non-zero exit on divergence)")
    sub.set_defaults(handler=cmd_serve_trace)

    sub = subparsers.add_parser(
        "serve-cluster",
        help="replay a request trace across a multi-device fleet with "
             "reconfiguration-aware routing",
    )
    ServingSpec.add_trace_arguments(sub)
    ServingSpec.add_cluster_arguments(sub)
    ServingSpec.add_serving_arguments(sub)
    _add_replay_arguments(
        sub,
        engine_help="retrieval backend; 'compare' "
                    "re-serves the trace on a single device and checks the "
                    "rankings of commonly served requests are bit-identical "
                    "(non-zero exit + diff summary on mismatch)",
    )
    sub.set_defaults(handler=cmd_serve_cluster)

    sub = subparsers.add_parser(
        "serve",
        help="run the network-facing serving daemon (HTTP/JSON over asyncio)",
    )
    ServingSpec.add_serving_arguments(sub)
    ServingSpec.add_cluster_arguments(sub)
    sub.add_argument("--cluster", action="store_true",
                     help="serve a multi-device fleet instead of the "
                          "single-node topology (see --devices / "
                          "--software-workers / --reconfig-us)")
    sub.add_argument("--engine", choices=["vectorized", "naive"],
                     default="vectorized",
                     help="retrieval backend")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8734,
                     help="TCP port (default 8734; 0 picks an ephemeral port)")
    sub.add_argument("--capture", metavar="PATH",
                     help="on shutdown, write the serving-capture document "
                          "(spec, trace, responses, learn events) to PATH "
                          "for offline bit-identity replay via 'repro-qos "
                          "serve-trace --capture PATH'")
    sub.add_argument("--max-request-batch", type=int, default=256,
                     help="largest accepted POST /retrieve batch (413 above; "
                          "default 256)")
    sub.add_argument("--journal", metavar="DIR",
                     help="durable delta journal directory: every flushed "
                          "batch and /learn mutation is fsync-committed "
                          "before its response is released, and a restarted "
                          "daemon recovers the directory (snapshot load + "
                          "tail replay) to serve bit-identically")
    sub.add_argument("--snapshot-interval", type=int, default=64,
                     help="journal commit groups between compacted snapshots "
                          "(default 64)")
    sub.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                     default="info",
                     help="threshold for the structured key=value stderr log "
                          "lines (bind, spec hash, recovery, drain; "
                          "default info)")
    sub.set_defaults(handler=cmd_serve)

    sub = subparsers.add_parser(
        "trace",
        help="render end-to-end span trees from a serving capture or journal",
    )
    sub.add_argument("--capture", metavar="FILE",
                     help="replay a serving-capture document (repro-qos serve "
                          "--capture) with tracing forced on and render its "
                          "span trees")
    sub.add_argument("--journal", metavar="DIR",
                     help="replay a journal directory's committed tail "
                          "instead of a capture file")
    sub.add_argument("--request", metavar="ID",
                     help="render one trace only (req-NNNNNNNN id or a bare "
                          "request index)")
    sub.add_argument("--limit", type=int, default=10,
                     help="most recent traces rendered in listing mode "
                          "(default 10; 0 = all)")
    sub.add_argument("--batches", action="store_true",
                     help="include per-batch pipeline traces (sync, requeue, "
                          "health transitions) alongside request traces")
    sub.add_argument("--json", action="store_true",
                     help="print trace documents as JSON instead of the "
                          "rendered tree")
    sub.set_defaults(handler=cmd_trace)

    sub = subparsers.add_parser("estimate", help="Table 2-style resource estimate")
    sub.add_argument("--n-best", type=int, default=1)
    sub.add_argument("--clock-mhz", type=float, default=66.0)
    sub.add_argument("--compact", action="store_true")
    sub.add_argument("--components", action="store_true", help="print the component inventory")
    sub.set_defaults(handler=cmd_estimate)

    sub = subparsers.add_parser("export", help="export CB-MEM / Req-MEM images")
    sub.add_argument("output_dir")
    sub.add_argument("--case-base", help="case-base JSON (defaults to the paper example)")
    sub.add_argument("--prefix", default="retrieval")
    sub.add_argument("--formats", nargs="+", choices=["memh", "c"], default=["memh", "c"])
    sub.add_argument("--with-request", action="store_true",
                     help="also export the paper's example request image")
    sub.set_defaults(handler=cmd_export)

    sub = subparsers.add_parser("scenario", help="run the multi-application scenario")
    sub.add_argument("--fpgas", type=int, default=2)
    sub.add_argument("--power-budget", type=float, default=3500.0)
    sub.add_argument("--duration-ms", type=float, default=3000.0)
    sub.add_argument("--seed", type=int, default=11)
    sub.add_argument("--backend", choices=["reference", "hardware"], default="reference")
    sub.add_argument("--cycle-engine", choices=["auto", "stepwise", "vectorized"],
                     default="auto",
                     help="cycle engine used by the hardware retrieval backend")
    sub.set_defaults(handler=cmd_scenario)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
