"""DeltaLog truncation/compaction edge cases under serving load.

The delta log is a bounded window: once more mutations land than the log
retains, ``since()``/``summary_since()`` return ``None`` and every consumer
must take the documented full-rebuild fallback -- and stay bit-identical
with a from-scratch build while doing so.  The property sweep covers this
only incidentally (its windows rarely overflow); these tests force the
truncation deliberately, on every consumer class the serving path relies on:
the vectorized backend, both retrieval units, the serving engine's retrieval
engine and screening tables, and the device fleet's image streams.
"""

import pytest

from repro.core import CaseBase, RetrievalEngine
from repro.core.deltas import DeltaLog
from repro.hardware import HardwareRetrievalUnit
from repro.platform import DeviceFleet
from repro.serving import ServingConfig, ServingEngine, synthetic_trace
from repro.software import SoftwareRetrievalUnit
from repro.tools import CaseBaseGenerator, GeneratorSpec


@pytest.fixture
def generator():
    return CaseBaseGenerator(
        GeneratorSpec(
            type_count=5,
            implementations_per_type=6,
            attributes_per_implementation=6,
            attribute_type_count=8,
        ),
        seed=13,
    )


def _shrink_log(case_base: CaseBase, capacity: int) -> None:
    """Install a tiny delta log anchored at the current revision."""
    case_base.delta_log = DeltaLog(capacity=capacity)
    case_base.delta_log.rebase(case_base.revision)


def _overflow(case_base: CaseBase, mutations: int) -> None:
    """Churn one implementation until the log window is truncated."""
    type_id = case_base.type_ids()[0]
    implementation = case_base.implementations(type_id)[0]
    for _ in range(mutations):
        case_base.replace_implementation(type_id, implementation)


class TestConsumerFallback:
    def test_every_consumer_falls_back_and_stays_bit_identical(self, generator):
        case_base = generator.case_base()
        _shrink_log(case_base, capacity=3)
        probes = [generator.request(salt=index) for index in range(8)]

        engine = RetrievalEngine(case_base, backend="vectorized")
        hardware = HardwareRetrievalUnit(case_base)
        software = SoftwareRetrievalUnit(case_base)
        # Warm every cache so the next refresh must absorb the window.
        engine.retrieve_batch(probes, n=3)
        hardware.run_batch(probes)
        software.run_batch(probes)
        trackers = {
            "backend": engine.backend.tracker,
            "hardware": hardware._tracker,
            "software": software._tracker,
        }
        rebuilds_before = {name: t.rebuild_count for name, t in trackers.items()}
        incremental_before = {name: t.incremental_count for name, t in trackers.items()}

        _overflow(case_base, mutations=5)  # > capacity: the window truncates
        assert case_base.delta_log.summary_since(
            trackers["backend"].revision
        ) is None

        live = engine.retrieve_batch(probes, n=3)
        live_hardware = hardware.run_batch(probes)
        live_software = software.run_batch(probes)

        for name, tracker in trackers.items():
            assert tracker.rebuild_count == rebuilds_before[name] + 1, name
            assert tracker.incremental_count == incremental_before[name], name

        fresh_engine = RetrievalEngine(
            case_base, bounds=engine.bounds, backend="vectorized"
        )
        expected = fresh_engine.retrieve_batch(probes, n=3)
        assert [
            [(e.implementation_id, e.similarity) for e in result.ranked]
            for result in live
        ] == [
            [(e.implementation_id, e.similarity) for e in result.ranked]
            for result in expected
        ]
        fresh_hardware = HardwareRetrievalUnit(case_base)
        assert [
            (r.best_id, r.best_similarity_raw, r.ranked, r.cycles)
            for r in live_hardware
        ] == [
            (r.best_id, r.best_similarity_raw, r.ranked, r.cycles)
            for r in fresh_hardware.run_batch(probes)
        ]
        fresh_software = SoftwareRetrievalUnit(case_base)
        assert [
            (r.best_id, r.best_similarity_raw, r.cycles) for r in live_software
        ] == [
            (r.best_id, r.best_similarity_raw, r.cycles)
            for r in fresh_software.run_batch(probes)
        ]

    def test_fleet_image_sync_takes_the_full_stream_fallback(self, generator):
        case_base = generator.case_base()
        _shrink_log(case_base, capacity=2)
        fleet = DeviceFleet.build(case_base, hardware_devices=2, software_devices=0)
        full_bytes = fleet.image_word_count() * 2
        _overflow(case_base, mutations=4)
        events = fleet.sync(0.0)
        assert len(events) == 2
        for event in events:
            assert not event.incremental
            assert event.bytes_streamed == full_bytes


class TestTruncationMidTrace:
    def test_serving_with_truncating_log_matches_default_log(self, generator):
        """Log capacity is a performance knob, never a semantics knob.

        Two identical snapshots serve the same learning trace; one's log is
        so small that every inter-batch window truncates (forcing the
        full-rebuild fallback on all consumers, every batch).  Rankings,
        statuses and the evolved case base must come out identical.
        """
        source = generator.case_base()
        trace = synthetic_trace(source, 40, mean_interarrival_us=400.0, seed=5)
        config = ServingConfig(max_batch=4, learn=True)

        default_case_base = source.copy()
        default_report = ServingEngine(default_case_base, config=config).serve(trace)

        tiny_case_base = source.copy()
        _shrink_log(tiny_case_base, capacity=1)
        tiny_engine = ServingEngine(tiny_case_base, config=config)
        tiny_report = tiny_engine.serve(trace)

        assert tiny_report.rankings() == default_report.rankings()
        assert [r.status for r in tiny_report.served] == [
            r.status for r in default_report.served
        ]
        assert tiny_report.metrics["learning"] == default_report.metrics["learning"]
        assert tiny_case_base.revision == default_case_base.revision
        # The tiny log genuinely truncated: the learning trace mutates more
        # than one revision per window, so the retrieval engine had to be
        # rebuilt mid-trace (its construction build is not counted).
        assert default_report.metrics["learning"]["revisions"] > 1
        assert tiny_engine._retriever_tracker.rebuild_count > 0

    def test_screen_tables_rebuild_after_truncation(self, generator):
        case_base = generator.case_base()
        _shrink_log(case_base, capacity=2)
        engine = ServingEngine(case_base, config=ServingConfig(max_batch=4))
        trace = synthetic_trace(case_base, 6, mean_interarrival_us=100.0, seed=1)
        engine.serve(trace)
        rebuilds = engine._screen_tracker.rebuild_count
        _overflow(case_base, mutations=4)
        report = engine.serve(trace)
        assert engine._screen_tracker.rebuild_count == rebuilds + 1
        assert report.metrics["served"] == len(trace)


class TestJournalOutlivesTheLog:
    def test_journalled_windows_recover_past_in_memory_truncation(
        self, generator, tmp_path
    ):
        """The durable journal is the unbounded twin of the bounded DeltaLog.

        A learning serving run mutates far more revisions than a capacity-1
        log retains; the in-memory window truncates (``since()`` goes None)
        but the journal tap recorded every delta in wire form, so the
        engine-free ``recover_case_base`` path rebuilds the final case base
        exactly."""
        from repro.api import schemas
        from repro.core.journal import DeltaJournal, recover_case_base

        case_base = generator.case_base()
        _shrink_log(case_base, capacity=1)
        journal = DeltaJournal(tmp_path)
        journal.begin(0, schemas.attach_envelope("journal-snapshot", {
            "case_base": case_base.to_dict(),
            "revision": case_base.revision,
        }))
        taps = []
        case_base.delta_log.attach_tap(taps.append)

        trace = synthetic_trace(case_base, 40, mean_interarrival_us=400.0, seed=5)
        config = ServingConfig(max_batch=4, learn=True)
        report = ServingEngine(case_base, config=config).serve(trace)
        assert report.metrics["learning"]["revisions"] > 1

        case_base.delta_log.detach_tap(taps.append)
        assert len(taps) > 1  # far more deltas than the log retained
        assert case_base.delta_log.since(case_base.revision - len(taps)) is None
        for delta in taps:
            journal.append({
                "kind": "journal-deltas",
                "revision": delta.revision,
                "replayable": True,
                "events": schemas.delta_to_wire_events(delta),
            })
        journal.commit()
        journal.close()

        recovered = recover_case_base(DeltaJournal.load(tmp_path))
        assert recovered.to_dict() == case_base.to_dict()
        assert recovered.count_implementations() == case_base.count_implementations()
