"""Metrics collector: folds the event stream into per-shard registries.

The collector is an ordinary bus subscriber.  It keeps **one registry per
shard** and produces the global view by merging their snapshots — the
same composition discipline as ``DeviceArray`` merging per-shard
``EraseDistribution``s — so array telemetry is exact by construction
rather than approximated by sampling the merged device.

Hot-kind totals (page reads, page programs, block erases and the
per-block erase peak) never come from events: the collector pulls them
from the devices registered as hot sources, so its interest mask leaves
the hot kinds out and every other event kind folds from the stream.

Metric naming follows Prometheus conventions (``*_total`` counters,
base-unit gauge/histogram names) under a single ``repro_`` prefix.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol

from repro.obs.bus import ALL_EVENTS, HOT_KINDS, K_OBJ, BatchOp, TraceRecord
from repro.obs.events import (
    BetReset,
    Event,
    FaultInjected,
    GcEnd,
    GcScan,
    GcStart,
    PowerLoss,
    QueueDepth,
    Recovery,
    SwlInvoke,
)
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

#: SWL trigger latency buckets, in block erases between trigger and run.
LATENCY_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0)


class _OpCountersLike(Protocol):
    """Cumulative per-device operation totals (``NandFlash.counters``)."""

    reads: int
    programs: int
    erases: int


class HotCounterSource(Protocol):
    """A device whose hot-kind facts are readable from state.

    ``NandFlash`` satisfies this structurally; anything exposing the
    same two members can back a pulled shard.
    """

    counters: _OpCountersLike

    def max_erase_count(self) -> int: ...


class MetricsCollector:
    """Subscribe to a bus and aggregate events into mergeable metrics.

    Hot-kind totals come only from :meth:`pull_hot_counters`; hot events
    that still reach the collector (a trace exporter keeps them flowing,
    or a caller emits one by hand) are skipped in both delivery forms.
    Batch-capable: on a buffered bus the collector receives whole batches
    via :meth:`consume_batch`, which folds to the same state as
    per-record delivery (property-tested in ``tests/test_obs.py``).

    The collector never reads timestamps, which it advertises with
    ``needs_timestamps = False`` so a bus whose only subscriber is a
    collector skips the clock call entirely.
    """

    #: Batch consumers ignore record timestamps (lets the bus skip its clock).
    needs_timestamps = False

    #: Every kind but the hot ones, whose totals are pulled from devices.
    interest_mask = ALL_EVENTS & ~HOT_KINDS

    def __init__(self) -> None:
        #: Per shard: the source last pulled and its cumulative totals
        #: then, so each pull applies only the delta since the previous
        #: one.
        self._pull_baselines: dict[
            int, tuple[HotCounterSource, int, int, int]
        ] = {}
        self._registries: dict[int, MetricsRegistry] = {}
        self._handlers: dict[type[Event], Callable[[MetricsRegistry, Event],
                                                   None]] = {
            GcStart: self._on_gc_start,
            GcEnd: self._on_gc_end,
            GcScan: self._on_gc_scan,
            SwlInvoke: self._on_swl_invoke,
            BetReset: self._on_bet_reset,
            FaultInjected: self._on_fault,
            Recovery: self._on_recovery,
            PowerLoss: self._on_power_loss,
            QueueDepth: self._on_queue_depth,
        }

    @property
    def shards(self) -> tuple[int, ...]:
        """Shards seen so far, ascending."""
        return tuple(sorted(self._registries))

    def registry(self, shard: int) -> MetricsRegistry:
        """The (created-on-demand) registry for ``shard``."""
        registry = self._registries.get(shard)
        if registry is None:
            registry = self._registries[shard] = MetricsRegistry()
        return registry

    def __call__(self, record: TraceRecord) -> None:
        event = record.event
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(self.registry(record.shard), event)

    # -- pulled hot counters -----------------------------------------------

    def pull_hot_counters(
        self, sources: Mapping[int, HotCounterSource]
    ) -> None:
        """Sync hot-kind metrics from cumulative device counters.

        Applies the delta since the previous pull, so repeated pulls
        (periodic snapshots plus the final flush) never double-count.  A
        shard whose source was replaced by a different device (a second
        stack built on the same bus) counts the new device from zero,
        keeping what the old one did up to the last pull.  The same
        device with counters moved backwards (a checkpoint restore
        rewound it) re-baselines without applying a negative delta: the
        rewound operations never happened in the restored timeline.
        """
        for shard, source in sources.items():
            counters = source.counters
            reads, programs, erases = (
                counters.reads, counters.programs, counters.erases,
            )
            previous = self._pull_baselines.get(shard)
            self._pull_baselines[shard] = (source, reads, programs, erases)
            if previous is not None and previous[0] is source:
                base_reads, base_programs, base_erases = previous[1:]
            else:
                base_reads = base_programs = base_erases = 0
            registry = self.registry(shard)
            delta = reads - base_reads
            if delta > 0:
                registry.counter("repro_flash_reads_total",
                                 "Page reads completed").inc(delta)
            delta = programs - base_programs
            if delta > 0:
                registry.counter("repro_flash_programs_total",
                                 "Page programs completed").inc(delta)
            delta = erases - base_erases
            if delta > 0:
                registry.counter("repro_flash_erases_total",
                                 "Block erases completed").inc(delta)
            peak = registry.gauge(
                "repro_flash_max_block_erases",
                "Highest per-block erase count observed", agg="max",
            )
            maximum = source.max_erase_count()
            if maximum > peak.value:
                peak.set(maximum)

    # -- per-event folds ---------------------------------------------------

    def _on_gc_start(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, GcStart)
        registry.counter("repro_gc_passes_total",
                         "Garbage-collection passes started").inc()
        reason = event.reason.replace("-", "_")
        registry.counter(f"repro_gc_passes_{reason}_total",
                         f"GC passes attributed to {event.reason}").inc()

    def _on_gc_end(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, GcEnd)
        copies = registry.counter("repro_gc_copied_pages_total",
                                  "Live pages copied by GC")
        erases = registry.counter("repro_gc_erases_total",
                                  "Block erases performed by GC")
        copies.inc(event.copies)
        erases.inc(event.erases)
        if erases.value:
            registry.gauge(
                "repro_gc_copy_amplification",
                "Cumulative live-page copies per GC erase", agg="max",
            ).set(round(copies.value / erases.value, 6))

    def _on_gc_scan(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, GcScan)
        registry.counter("repro_gc_scans_total",
                         "Victim-selection scans").inc()
        registry.counter("repro_gc_scan_probes_total",
                         "Candidates examined during victim scans"
                         ).inc(event.probes)

    def _on_swl_invoke(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, SwlInvoke)
        registry.counter("repro_swl_invocations_total",
                         "SWL-Procedure runs that moved data").inc()
        registry.gauge("repro_swl_unevenness",
                       "ecnt/fcnt at SWL-Procedure entry",
                       agg="max").set(round(event.unevenness, 6))
        registry.histogram(
            "repro_swl_trigger_latency_erases",
            "Erases between SWL trigger and procedure run",
            buckets=LATENCY_BUCKETS,
        ).observe(event.latency_erases)

    def _on_bet_reset(self, registry: MetricsRegistry, event: Event) -> None:
        registry.counter("repro_bet_resets_total",
                         "BET resetting intervals completed").inc()

    def _on_fault(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, FaultInjected)
        registry.counter("repro_faults_injected_total",
                         "Faults delivered by the injector").inc()
        registry.counter(f"repro_faults_{event.fault}_total",
                         f"Injected {event.fault} faults").inc()

    def _on_recovery(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, Recovery)
        registry.counter("repro_recovery_actions_total",
                         "Driver fault-recovery actions").inc()
        registry.counter(f"repro_recovery_{event.action}_total",
                         f"Recovery actions of kind {event.action}").inc()

    def _on_power_loss(self, registry: MetricsRegistry, event: Event) -> None:
        registry.counter("repro_power_loss_total",
                         "Scheduled power losses delivered").inc()

    def _on_queue_depth(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, QueueDepth)
        # Peak occupancy per channel; the global merge takes the worst
        # channel, which is the array's backpressure ceiling.
        peak = registry.gauge("repro_service_queue_depth",
                              "Peak channel queue occupancy sampled",
                              agg="max")
        if event.depth > peak.value:
            peak.set(event.depth)
        # Cumulative per-channel stall count rides as a summed gauge: the
        # event carries the running total, so `set` (not `inc`) keeps
        # repeated samples from double-counting.
        registry.gauge("repro_service_queue_stalls",
                       "Arrivals that waited on queue backpressure",
                       agg="sum").set(event.stalls)

    # -- batched fold ------------------------------------------------------

    def consume_batch(self, batch: list[BatchOp]) -> None:
        """Fold a buffered batch; equivalent to per-record ``__call__``.

        Cold kinds (``K_OBJ`` ops) go through the per-record handlers in
        stream order; flat hot-kind ops are skipped.
        """
        handlers = self._handlers
        for op in batch:
            if op[0] == K_OBJ:
                event = op[3]
                handler = handlers.get(type(event))
                if handler is not None:
                    handler(self.registry(op[2]), event)

    # -- snapshots ---------------------------------------------------------

    def shard_snapshot(self, shard: int) -> MetricsSnapshot:
        """Snapshot of one shard's registry."""
        return self.registry(shard).snapshot()

    def snapshot(self) -> MetricsSnapshot:
        """Global snapshot: exact merge of every shard's snapshot."""
        merged = MetricsSnapshot({}, {}, {})
        for shard in self.shards:
            merged = merged.merge(self._registries[shard].snapshot())
        return merged
