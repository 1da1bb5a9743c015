"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Covers the event bus, the metrics registry and its exact cross-shard
merging, wear heatmaps, the exporters, the chip/driver/leveler
instrumentation, and — most importantly — the *off* path: a stack built
without a bus must emit nothing and allocate no event objects, and a
telemetry-enabled run must produce a result identical to a disabled one
(minus the telemetry-only keys).
"""

from __future__ import annotations

import json
import logging

import pytest
from hypothesis import given, settings, strategies as st

import repro.ftl.base as ftl_base_module
import repro.obs.bus as bus_module
from repro.core.config import SWLConfig
from repro.obs.bus import (
    ALL_EVENTS,
    HOT_KINDS,
    K_ERASE,
    K_OBJ,
    K_PROGRAM,
    K_READ,
    TraceRecord,
)
from repro.flash import MLC2_TINY, NandFlash
from repro.ftl.factory import build_stack
from repro.obs import (
    NULL_BUS,
    ChromeTraceExporter,
    EventBus,
    JsonlTraceExporter,
    LogExporter,
    MetricsCollector,
    MetricsRegistry,
    NullEventBus,
    Telemetry,
    WearHeatmap,
    render_prometheus,
)
from repro.obs.events import (
    BetReset,
    Erase,
    GcEnd,
    GcStart,
    Program,
    QueueDepth,
    Read,
    SwlInvoke,
)
from repro.sim.engine import Simulator
from repro.sim.experiment import (
    ExperimentSpec,
    make_base_trace,
    run_fixed_horizon,
    scaled_mlc2_geometry,
    workload_params_for,
)


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_emit_delivers_timestamped_records(self):
        bus = EventBus(clock=lambda: 42.5)
        records = []
        bus.subscribe(records.append)
        bus.emit(Erase(block=3, count=7))
        assert len(records) == 1
        record = records[0]
        assert record.ts == 42.5
        assert record.shard == 0
        assert record.event.kind == "erase"
        assert record.event.payload() == {"block": 3, "count": 7}

    def test_no_clock_means_time_zero(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        bus.emit(Read(block=0, page=0))
        assert records[0].ts == 0.0

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        bus.unsubscribe(records.append)
        bus.unsubscribe(records.append)  # absent: no-op
        bus.emit(Read(block=0, page=0))
        assert records == []

    def test_subscriber_may_unsubscribe_mid_dispatch(self):
        bus = EventBus()
        seen = []

        def second(record):
            seen.append("second")

        def first(record):
            seen.append("first")
            bus.unsubscribe(second)

        bus.subscribe(first)
        bus.subscribe(second)
        bus.emit(Read(block=0, page=0))
        # The in-flight dispatch keeps its snapshot...
        assert seen == ["first", "second"]
        bus.emit(Read(block=0, page=0))
        # ...and the next one observes the removal.
        assert seen == ["first", "second", "first"]

    def test_shard_views_share_subscribers(self):
        bus = EventBus(clock=lambda: 1.0)
        records = []
        bus.subscribe(records.append)
        shard1 = bus.for_shard(1, clock=lambda: 9.0)
        shard1.emit(Erase(block=0, count=1))
        bus.emit(Erase(block=0, count=2))
        assert [(r.shard, r.ts) for r in records] == [(1, 9.0), (0, 1.0)]

    def test_null_bus_is_falsy_and_inert(self):
        assert not NullEventBus()
        assert not NULL_BUS
        assert bool(EventBus())
        assert bool(EventBus().for_shard(3))
        NULL_BUS.emit(Read(block=0, page=0))  # safe no-op
        assert NULL_BUS.for_shard(2) is NULL_BUS


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_merge_adds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counters["c"].value == 7

    @pytest.mark.parametrize(
        "agg,expected", [("sum", 7.0), ("max", 4.0), ("min", 3.0)]
    )
    def test_gauge_merge_applies_declared_aggregation(self, agg, expected):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g", agg=agg).set(3.0)
        b.gauge("g", agg=agg).set(4.0)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.gauges["g"].value == expected

    def test_gauge_merge_rejects_conflicting_aggregations(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g", agg="max").set(1.0)
        b.gauge("g", agg="sum").set(1.0)
        with pytest.raises(ValueError, match="conflicting"):
            a.snapshot().merge(b.snapshot())

    def test_histogram_observe_and_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.5, 3.0, 100.0):
            a.histogram("h", buckets=(1.0, 5.0)).observe(value)
        b.histogram("h", buckets=(1.0, 5.0)).observe(4.0)
        merged = a.snapshot().merge(b.snapshot())
        sample = merged.histograms["h"]
        assert sample.counts == (1, 2, 1)  # <=1, <=5, +Inf
        assert sample.count == 4
        assert sample.sum == pytest.approx(107.5)

    def test_histogram_merge_rejects_differing_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1)
        b.histogram("h", buckets=(1.0, 3.0)).observe(1)
        with pytest.raises(ValueError, match="differing buckets"):
            a.snapshot().merge(b.snapshot())

    def test_one_sided_metrics_pass_through(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("only_a").inc(1)
        b.gauge("only_b").set(2.0)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counters["only_a"].value == 1
        assert merged.gauges["only_b"].value == 2.0

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", help="a counter").inc(5)
        registry.gauge("repro_g").set(1.5)
        hist = registry.histogram("repro_h", buckets=(1.0, 5.0))
        hist.observe(0.5)
        hist.observe(2.0)
        text = render_prometheus(registry.snapshot())
        assert "# HELP repro_c_total a counter" in text
        assert "# TYPE repro_c_total counter" in text
        assert "repro_c_total 5" in text
        assert "repro_g 1.5" in text
        # Bucket counts are cumulative in the exposition format.
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="5"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 2' in text
        assert "repro_h_sum 2.5" in text
        assert "repro_h_count 2" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# Heatmaps
# ----------------------------------------------------------------------
class TestWearHeatmap:
    def test_binning(self):
        counts = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        heatmap = WearHeatmap.from_counts(3.0, counts, bins=4)
        assert heatmap.ts == 3.0
        assert heatmap.num_blocks == 10
        assert heatmap.bin_width == 3
        assert heatmap.cells == (2.0, 8.0, 14.0, 18.0)
        assert heatmap.min_count == 0
        assert heatmap.max_count == 18
        assert heatmap.total_erases == sum(counts)

    def test_more_bins_than_blocks(self):
        heatmap = WearHeatmap.from_counts(0.0, [5, 7], bins=64)
        assert heatmap.bin_width == 1
        assert heatmap.cells == (5.0, 7.0)

    def test_empty_counts(self):
        heatmap = WearHeatmap.from_counts(0.0, [], bins=8)
        assert heatmap.cells == ()
        assert heatmap.total_erases == 0

    def test_as_dict_is_json_friendly(self):
        heatmap = WearHeatmap.from_counts(1.0, [1, 2, 3], bins=2)
        assert json.loads(json.dumps(heatmap.as_dict()))


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------
class TestMetricsCollector:
    def test_event_to_metric_mapping(self):
        bus = EventBus()
        collector = MetricsCollector()
        bus.subscribe(collector)
        bus.emit(Erase(block=0, count=3))
        bus.emit(Program(block=0, page=0, lba=5))
        bus.emit(Read(block=0, page=0))
        bus.emit(GcStart(reason="free-space", victim=0))
        bus.emit(GcEnd(reason="free-space", victim=0, copies=4, erases=1))
        collector.pull_hot_counters(
            {0: _FakeHotSource(reads=1, programs=1, erases=2, max_erases=3)}
        )
        snapshot = collector.snapshot()
        # Flash totals come from the pulled device, not the hot events.
        assert snapshot.counters["repro_flash_erases_total"].value == 2
        assert snapshot.counters["repro_flash_programs_total"].value == 1
        assert snapshot.counters["repro_flash_reads_total"].value == 1
        assert snapshot.gauges["repro_flash_max_block_erases"].value == 3
        assert snapshot.counters["repro_gc_passes_total"].value == 1
        assert snapshot.counters["repro_gc_copied_pages_total"].value == 4

    def test_per_shard_registries_merge_to_global(self):
        bus = EventBus()
        collector = MetricsCollector()
        bus.subscribe(collector)
        bus.for_shard(0).emit(QueueDepth(depth=2, stalls=1))
        bus.for_shard(1).emit(QueueDepth(depth=5, stalls=3))
        assert collector.shards == (0, 1)
        shard0 = collector.shard_snapshot(0)
        shard1 = collector.shard_snapshot(1)
        assert shard0.gauges["repro_service_queue_stalls"].value == 1
        assert shard1.gauges["repro_service_queue_stalls"].value == 3
        merged = collector.snapshot()
        assert merged.gauges["repro_service_queue_stalls"].value == 4
        # Gauge uses max aggregation: the worst shard wins.
        assert merged.gauges["repro_service_queue_depth"].value == 5

    def test_swl_latency_histogram(self):
        bus = EventBus()
        collector = MetricsCollector()
        bus.subscribe(collector)
        bus.emit(SwlInvoke(findex=0, unevenness=3.0, ecnt=9, fcnt=3,
                           latency_erases=2))
        bus.emit(BetReset(resets=1, findex=4))
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_swl_invocations_total"].value == 1
        assert snapshot.counters["repro_bet_resets_total"].value == 1
        assert snapshot.gauges["repro_swl_unevenness"].value == 3.0
        hist = snapshot.histograms["repro_swl_trigger_latency_erases"]
        assert hist.count == 1
        assert hist.sum == 2


# ----------------------------------------------------------------------
# Delivery-form equivalence: per-record vs batched
# ----------------------------------------------------------------------
_HOT_METRICS = (
    "repro_flash_reads_total",
    "repro_flash_programs_total",
    "repro_flash_erases_total",
    "repro_flash_max_block_erases",
)


@st.composite
def _telemetry_streams(draw):
    """A random interleaving of hot events and cold events across shards.

    Each element is ``(kind, shard, event, flat)`` with *kind* one of
    ``"read"``, ``"program"``, ``"erase"``, ``"cold"``; *flat* says
    whether a batched bus would carry a hot event as a flat op (the
    ``emit_*`` entry points) or as a ``K_OBJ`` event (a plain ``emit``).
    """
    cold_events = (
        GcStart(reason="free-space", victim=1),
        GcEnd(reason="free-space", victim=1, copies=2, erases=1),
        SwlInvoke(findex=0, unevenness=2.5, ecnt=5, fcnt=2,
                  latency_erases=1),
        BetReset(resets=1, findex=3),
        QueueDepth(depth=4, stalls=2),
    )
    stream = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        shard = draw(st.integers(min_value=0, max_value=3))
        kind = draw(st.sampled_from(("read", "program", "erase", "cold")))
        if kind == "read":
            event = Read(block=draw(st.integers(0, 7)),
                         page=draw(st.integers(0, 3)))
        elif kind == "program":
            event = Program(block=draw(st.integers(0, 7)),
                            page=draw(st.integers(0, 3)),
                            lba=draw(st.integers(0, 63)))
        elif kind == "erase":
            event = Erase(block=draw(st.integers(0, 7)),
                          count=draw(st.integers(1, 50)))
        else:
            event = draw(st.sampled_from(cold_events))
        stream.append((kind, shard, event, draw(st.booleans())))
    return stream


class TestCollectorDeliveryEquivalence:
    """The two bus delivery forms fold to identical metric state.

    ``EventBus`` delivers the same emissions as synchronous per-record
    calls or as a buffered op batch (``consume_batch``); the exporters
    and the collector rely on the two being interchangeable, so the
    equivalence is property-tested here.  In neither form does a hot
    event reach a metric: hot totals are pulled from devices.
    """

    @staticmethod
    def _per_record(stream):
        collector = MetricsCollector()
        for _, shard, event, _ in stream:
            collector(TraceRecord(ts=0.0, shard=shard, event=event))
        return collector

    @staticmethod
    def _batched(stream):
        collector = MetricsCollector()
        batch = []
        for kind, shard, event, flat in stream:
            if kind == "read" and flat:
                batch.append((K_READ, 0.0, shard, event.block, event.page))
            elif kind == "program" and flat:
                batch.append((K_PROGRAM, 0.0, shard, event.block,
                              event.page, event.lba))
            elif kind == "erase" and flat:
                batch.append((K_ERASE, 0.0, shard, event.block, event.count))
            else:
                batch.append((K_OBJ, 0.0, shard, event))
        collector.consume_batch(batch)
        return collector

    @settings(max_examples=60, deadline=None)
    @given(stream=_telemetry_streams())
    def test_batched_matches_per_record(self, stream):
        reference = self._per_record(stream)
        batched = self._batched(stream)
        assert batched.shards == reference.shards
        assert batched.snapshot() == reference.snapshot()
        for shard in reference.shards:
            assert (batched.shard_snapshot(shard)
                    == reference.shard_snapshot(shard))

    @settings(max_examples=30, deadline=None)
    @given(stream=_telemetry_streams())
    def test_hot_kinds_never_counted_from_events(self, stream):
        for collector in (self._per_record(stream), self._batched(stream)):
            snapshot = collector.snapshot()
            for name in _HOT_METRICS:
                assert name not in snapshot.counters
                assert name not in snapshot.gauges


# ----------------------------------------------------------------------
# Pulled hot counters
# ----------------------------------------------------------------------
class _FakeOpCounters:
    def __init__(self, reads=0, programs=0, erases=0):
        self.reads = reads
        self.programs = programs
        self.erases = erases


class _FakeHotSource:
    """Minimal :class:`HotCounterSource`: counters plus a wear maximum."""

    def __init__(self, reads=0, programs=0, erases=0, max_erases=0):
        self.counters = _FakeOpCounters(reads, programs, erases)
        self._max_erases = max_erases

    def max_erase_count(self):
        return self._max_erases


class TestPulledHotCounters:
    def test_interest_mask_excludes_hot_kinds(self):
        collector = MetricsCollector()
        assert collector.interest_mask == ALL_EVENTS & ~HOT_KINDS
        # A bus whose only subscriber is the collector silences the hot
        # emit sites, on the shard views as well as the parent.
        bus = EventBus(capacity=8)
        view = bus.for_shard(1)
        bus.subscribe(collector)
        assert bus.mask == view.mask == ALL_EVENTS & ~HOT_KINDS
        records = []
        bus.subscribe(records.append)
        assert bus.mask == view.mask == ALL_EVENTS

    def test_repeated_pulls_apply_exact_deltas(self):
        collector = MetricsCollector()
        source = _FakeHotSource(reads=10, programs=5, erases=3, max_erases=7)
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 10
        assert snapshot.counters["repro_flash_programs_total"].value == 5
        assert snapshot.counters["repro_flash_erases_total"].value == 3
        assert snapshot.gauges["repro_flash_max_block_erases"].value == 7

        # The device advances; the next pull adds only the delta.
        source.counters.reads = 25
        source.counters.erases = 4
        source._max_erases = 9
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 25
        assert snapshot.counters["repro_flash_programs_total"].value == 5
        assert snapshot.counters["repro_flash_erases_total"].value == 4
        assert snapshot.gauges["repro_flash_max_block_erases"].value == 9

        # An idle pull (periodic snapshot, final flush) changes nothing.
        collector.pull_hot_counters({0: source})
        assert collector.snapshot() == snapshot

    def test_stray_hot_events_never_double_count(self):
        # Another subscriber (say a trace exporter) may keep hot events
        # flowing; the collector must take hot totals from pulls only.
        collector = MetricsCollector()
        collector(TraceRecord(ts=0.0, shard=0, event=Read(block=0, page=0)))
        collector.consume_batch([
            (K_READ, 0.0, 0, 0, 0),
            (K_ERASE, 0.0, 0, 0, 5),
            (K_OBJ, 0.0, 0, Program(block=0, page=1, lba=2)),
        ])
        source = _FakeHotSource(reads=4, programs=2, erases=1, max_erases=5)
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 4
        assert snapshot.counters["repro_flash_programs_total"].value == 2
        assert snapshot.counters["repro_flash_erases_total"].value == 1

    def test_cold_events_still_fold_in_pull_mode(self):
        collector = MetricsCollector()
        collector(TraceRecord(ts=0.0, shard=0,
                              event=BetReset(resets=1, findex=2)))
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_bet_resets_total"].value == 1

    def test_rewound_device_rebaselines_without_negative_delta(self):
        # A checkpoint restore can rewind a device's cumulative totals;
        # the pull must not decrement counters (impossible) nor replay
        # the rewound span later — it re-baselines at the lower value.
        collector = MetricsCollector()
        source = _FakeHotSource(reads=100, programs=50, erases=20,
                                max_erases=9)
        collector.pull_hot_counters({0: source})
        source.counters.reads = 40      # restore rewound the device
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 100
        # Post-restore progress counts from the new baseline.
        source.counters.reads = 70
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 130

    def test_replaced_source_counts_from_zero(self):
        # A second device registered for a shard (a second stack on the
        # same bus) starts below the first device's totals; its work
        # must still count, on top of what the first device did.
        collector = MetricsCollector()
        first = _FakeHotSource(reads=100, programs=50, erases=20,
                               max_erases=9)
        collector.pull_hot_counters({0: first})
        second = _FakeHotSource(reads=30, programs=10, erases=5,
                                max_erases=4)
        collector.pull_hot_counters({0: second})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 130
        assert snapshot.counters["repro_flash_programs_total"].value == 60
        assert snapshot.counters["repro_flash_erases_total"].value == 25
        assert snapshot.gauges["repro_flash_max_block_erases"].value == 9
        # The new device is the baseline from here on.
        second.counters.reads = 45
        collector.pull_hot_counters({0: second})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 145

    def test_second_stack_on_same_telemetry_keeps_flash_counts(self):
        telemetry = Telemetry()
        chips = []
        for writes in (3000, 1000):
            stack = build_stack(MLC2_TINY, "ftl", bus=telemetry.bus)
            pages = stack.layer.num_logical_pages
            for index in range(writes):
                stack.layer.write(index % pages)
            telemetry.flush()
            chips.append(stack.flash)
        snapshot = telemetry.snapshot()
        for name, field in (("repro_flash_programs_total", "programs"),
                            ("repro_flash_erases_total", "erases")):
            assert snapshot.counters[name].value == sum(
                getattr(chip.counters, field) for chip in chips
            )
        assert snapshot.counters["repro_flash_programs_total"].value >= 4000

    def test_per_shard_pulls_keep_registries_separate(self):
        collector = MetricsCollector()
        collector.pull_hot_counters({
            0: _FakeHotSource(reads=3, max_erases=2),
            1: _FakeHotSource(reads=7, max_erases=6),
        })
        assert collector.shards == (0, 1)
        shard0 = collector.shard_snapshot(0)
        shard1 = collector.shard_snapshot(1)
        assert shard0.counters["repro_flash_reads_total"].value == 3
        assert shard1.counters["repro_flash_reads_total"].value == 7
        merged = collector.snapshot()
        assert merged.counters["repro_flash_reads_total"].value == 10
        assert merged.gauges["repro_flash_max_block_erases"].value == 6


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlTraceExporter(path)
        bus = EventBus(clock=lambda: 1.25)
        bus.subscribe(exporter)
        bus.emit(Erase(block=2, count=9))
        bus.for_shard(3).emit(Read(block=0, page=1))
        exporter.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert exporter.records_written == 2
        assert lines[0] == {"ts": 1.25, "shard": 0, "kind": "erase",
                            "block": 2, "count": 9}
        assert lines[1]["shard"] == 3
        assert lines[1]["kind"] == "read"

    def test_chrome_trace_round_trips_and_pairs_gc(self, tmp_path):
        exporter = ChromeTraceExporter("unit")
        bus = EventBus(clock=lambda: 2.0)
        bus.subscribe(exporter)
        bus.emit(GcStart(reason="free-space", victim=7))
        bus.emit(GcEnd(reason="free-space", victim=7, copies=3, erases=1))
        bus.emit(SwlInvoke(findex=1, unevenness=2.0, ecnt=4, fcnt=2,
                           latency_erases=0))
        path = tmp_path / "trace.chrome.json"
        exporter.dump(path)
        document = json.load(open(path))
        events = document["traceEvents"]
        phases = [e["ph"] for e in events]
        assert "B" in phases and "E" in phases and "i" in phases
        begin = next(e for e in events if e["ph"] == "B")
        # Timestamps are microseconds of simulated time.
        assert begin["ts"] == pytest.approx(2.0 * 1e6)
        assert begin["name"] == "GC free-space"

    def test_log_exporter_routes_channels(self, caplog):
        bus = EventBus()
        bus.subscribe(LogExporter())
        with caplog.at_level(logging.INFO, logger="repro"):
            bus.emit(SwlInvoke(findex=0, unevenness=2.0, ecnt=4, fcnt=2,
                               latency_erases=0))
        assert any(r.name == "repro.leveler" for r in caplog.records)


# ----------------------------------------------------------------------
# Chip instrumentation and listener lifecycle
# ----------------------------------------------------------------------
class TestChipInstrumentation:
    def test_chip_emits_program_read_erase(self):
        flash = NandFlash(MLC2_TINY)
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        flash.attach_bus(bus)
        flash.program(0, 0, lba=5)
        flash.read(0, 0)
        flash.erase(0)
        kinds = [r.event.kind for r in records]
        assert kinds == ["program", "read", "erase"]
        assert records[0].event.payload() == {"block": 0, "page": 0, "lba": 5}
        assert records[2].event.payload() == {"block": 0, "count": 1}

    def test_erase_event_precedes_listener_work(self):
        """SWL work an erase listener triggers must trace causally after."""
        flash = NandFlash(MLC2_TINY)
        bus = EventBus()
        order = []
        bus.subscribe(lambda record: order.append(record.event.kind))
        flash.attach_bus(bus)
        flash.add_erase_listener(lambda block: order.append("listener"))
        flash.erase(0)
        assert order == ["erase", "listener"]

    def test_null_bus_normalises_to_none(self):
        flash = NandFlash(MLC2_TINY)
        flash.attach_bus(NULL_BUS)
        assert flash._obs is None
        flash.attach_bus(EventBus())
        assert flash._obs is not None
        flash.attach_bus(None)
        assert flash._obs is None


class TestEraseListenerLifecycle:
    def test_remove_is_idempotent(self):
        flash = NandFlash(MLC2_TINY)
        calls = []
        listener = calls.append
        flash.add_erase_listener(listener)
        flash.remove_erase_listener(listener)
        flash.remove_erase_listener(listener)  # double detach: no-op
        flash.erase(0)
        assert calls == []

    def test_remove_absent_listener_is_noop(self):
        flash = NandFlash(MLC2_TINY)
        flash.remove_erase_listener(lambda block: None)

    def test_removal_during_dispatch_keeps_snapshot(self):
        flash = NandFlash(MLC2_TINY)
        fired = []

        def second(block):
            fired.append("second")

        def first(block):
            fired.append("first")
            flash.remove_erase_listener(second)

        flash.add_erase_listener(first)
        flash.add_erase_listener(second)
        flash.erase(0)
        # In-flight dispatch iterates its pre-removal snapshot.
        assert fired == ["first", "second"]
        flash.erase(1)
        assert fired == ["first", "second", "first"]

    def test_clear_drops_all_listeners(self):
        flash = NandFlash(MLC2_TINY)
        calls = []
        flash.add_erase_listener(lambda block: calls.append(block))
        flash.clear_erase_listeners()
        flash.erase(0)
        assert calls == []


# ----------------------------------------------------------------------
# The off path: disabled telemetry costs nothing
# ----------------------------------------------------------------------
class _CountingEvent:
    """Stands in for an event class; counts every instantiation."""

    instances = 0

    def __init__(self, *args, **kwargs):
        type(self).instances += 1


class TestDisabledPath:
    def test_disabled_stack_emits_and_allocates_nothing(self, monkeypatch):
        # Hot events are built inside the bus module's emit_* fast paths
        # (the chip calls emit_read/... without constructing anything);
        # cold GC/recovery events are still built at their emit sites.
        _CountingEvent.instances = 0
        for module, names in (
            (bus_module, ("Read", "Program", "Erase")),
            (ftl_base_module, ("GcStart", "GcEnd", "Recovery")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, _CountingEvent)
        stack = build_stack(MLC2_TINY, "ftl", SWLConfig(threshold=20, k=0))
        pages = stack.layer.num_logical_pages
        for index in range(3000):
            stack.layer.write(index % pages)
            stack.layer.read(index % pages)
        assert stack.total_erases() > 0  # GC certainly ran...
        assert _CountingEvent.instances == 0  # ...without one event object

    def test_subscriberless_bus_allocates_and_timestamps_nothing(
        self, monkeypatch
    ):
        # A bus with no subscribers must early-return from every emit
        # path: no TraceRecord, no event object, not even a clock read.
        clock_calls = []

        def counting_clock():
            clock_calls.append(1)
            return 0.0

        _CountingEvent.instances = 0
        for name in ("TraceRecord", "Read", "Program", "Erase"):
            monkeypatch.setattr(bus_module, name, _CountingEvent)
        for module, names in (
            (ftl_base_module, ("GcStart", "GcEnd", "Recovery")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, _CountingEvent)
        bus = EventBus(clock=counting_clock)
        stack = build_stack(
            MLC2_TINY, "ftl", SWLConfig(threshold=20, k=0), bus=bus
        )
        pages = stack.layer.num_logical_pages
        for index in range(3000):
            stack.layer.write(index % pages)
            stack.layer.read(index % pages)
        assert stack.total_erases() > 0
        assert _CountingEvent.instances == 0
        assert clock_calls == []

    def test_enabled_stack_does_emit(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        stack = build_stack(
            MLC2_TINY, "ftl", SWLConfig(threshold=20, k=0), bus=bus
        )
        pages = stack.layer.num_logical_pages
        for index in range(3000):
            stack.layer.write(index % pages)
        kinds = {record.event.kind for record in records}
        assert {"program", "erase", "gc_start", "gc_end"} <= kinds
        # Timestamps track the device's simulated busy time.
        assert records[-1].ts == pytest.approx(stack.mtd.busy_time)


# ----------------------------------------------------------------------
# Engine heatmaps and end-to-end equivalence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_run():
    spec = ExperimentSpec(
        "ftl", scaled_mlc2_geometry(24, scale=100),
        SWLConfig(threshold=20, k=2), seed=3,
    )
    params = workload_params_for(spec, duration=1800.0, seed=3)
    return spec, make_base_trace(params)


class TestEngineHeatmaps:
    def test_enabled_run_attaches_at_least_two_heatmaps(self, small_run):
        spec, trace = small_run
        telemetry = Telemetry(heatmap_interval=600.0, heatmap_bins=8)
        result = run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
        assert len(result.heatmaps) >= 2
        assert all(len(h.cells) <= 8 for h in result.heatmaps)
        # Monotonic capture times, final snapshot at end of run.
        times = [h.ts for h in result.heatmaps]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(result.sim_time)
        assert result.heatmaps[-1].total_erases == result.total_erases
        assert "heatmap_snapshots" in result.as_dict()

    def test_disabled_run_attaches_none(self, small_run):
        spec, trace = small_run
        result = run_fixed_horizon(spec, trace, 3600.0)
        assert result.heatmaps == []
        assert "heatmap_snapshots" not in result.as_dict()

    def test_heatmap_decimation_bounds_series(self):
        simulator = Simulator(
            build_stack(MLC2_TINY, "ftl"),
            heatmap_interval=1.0, max_heatmaps=4,
        )
        for _ in range(40):
            simulator.clock += 1.0
            simulator._take_heatmap()
        assert len(simulator.heatmaps) <= 4
        assert simulator.heatmap_interval > 1.0


class TestTelemetryEquivalence:
    def test_single_channel_result_identical_minus_telemetry_keys(
        self, small_run
    ):
        spec, trace = small_run
        plain = run_fixed_horizon(spec, trace, 3600.0)
        telemetry = Telemetry(heatmap_interval=600.0)
        traced = run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
        off, on = plain.as_dict(), traced.as_dict()
        on.pop("heatmap_snapshots")
        assert off == on

    def test_four_channel_result_identical_minus_telemetry_keys(
        self, small_run
    ):
        # The batched dispatcher and pulled hot counters must not change
        # a multi-channel replay: telemetry on vs off, bit-identical
        # results minus the telemetry-only keys.
        spec, trace = small_run
        array_spec = ExperimentSpec(
            spec.driver, spec.geometry, spec.swl, seed=spec.seed,
            channels=4, striping="page", swl_scope="global",
        )
        plain = run_fixed_horizon(array_spec, trace, 3600.0)
        telemetry = Telemetry(heatmap_interval=600.0)
        traced = run_fixed_horizon(
            array_spec, trace, 3600.0, telemetry=telemetry
        )
        off, on = plain.as_dict(), traced.as_dict()
        on.pop("heatmap_snapshots")
        assert off == on

    def test_metrics_agree_with_result_counters(self, small_run):
        spec, trace = small_run
        telemetry = Telemetry()
        result = run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
        snapshot = telemetry.snapshot()
        assert (snapshot.counters["repro_flash_erases_total"].value
                == result.total_erases)
        assert (snapshot.counters["repro_gc_copied_pages_total"].value
                == result.live_page_copies)
        assert snapshot.counters["repro_swl_invocations_total"].value >= 1

    def test_multi_channel_metrics_merge_exactly(self, small_run):
        spec, trace = small_run
        array_spec = ExperimentSpec(
            spec.driver, spec.geometry, spec.swl, seed=spec.seed, channels=2,
        )
        telemetry = Telemetry()
        result = run_fixed_horizon(
            array_spec, trace, 3600.0, telemetry=telemetry
        )
        assert telemetry.collector.shards == (0, 1)
        merged = telemetry.snapshot()
        assert (merged.counters["repro_flash_erases_total"].value
                == result.total_erases)
        per_shard = [
            telemetry.collector.shard_snapshot(shard)
            .counters["repro_flash_erases_total"].value
            for shard in telemetry.collector.shards
        ]
        assert sum(per_shard) == result.total_erases


class TestTelemetryFacade:
    def test_to_directory_writes_artifact_set(self, tmp_path, small_run):
        spec, trace = small_run
        telemetry = Telemetry.to_directory(
            tmp_path / "out", heatmap_interval=600.0
        )
        run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
        files = telemetry.finish()
        assert set(files) == {"jsonl", "chrome", "prometheus"}
        assert telemetry.jsonl.records_written > 0
        first = json.loads(
            files["jsonl"].read_text().splitlines()[0]
        )
        assert {"ts", "shard", "kind"} <= set(first)
        document = json.load(open(files["chrome"]))
        assert document["traceEvents"]
        assert "repro_flash_erases_total" in files["prometheus"].read_text()

    def test_exporter_hot_stream_matches_pulled_erases(
        self, tmp_path, small_run
    ):
        # The JSONL exporter keeps hot events flowing through the batched
        # bus while the collector pulls its totals from the chips: both
        # must agree with the replay's own erase count.
        spec, trace = small_run
        array_spec = ExperimentSpec(
            spec.driver, spec.geometry, spec.swl, seed=spec.seed, channels=2,
        )
        telemetry = Telemetry.to_directory(tmp_path / "out")
        result = run_fixed_horizon(
            array_spec, trace, 3600.0, telemetry=telemetry
        )
        files = telemetry.finish()
        snapshot = telemetry.snapshot()
        assert result.total_erases > 0
        assert (snapshot.counters["repro_flash_erases_total"].value
                == result.total_erases)
        kinds = [json.loads(line)["kind"]
                 for line in files["jsonl"].read_text().splitlines()]
        assert kinds.count("erase") == result.total_erases
