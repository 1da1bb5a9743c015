"""Event bus: fan-out of typed telemetry events to subscribers.

The bus is deliberately tiny.  Instrumented components hold either a live
bus or ``None`` — never a "maybe disabled" object — so the disabled hot
path is a single ``if self._obs is not None:`` test with no attribute
chasing, no event construction, and no call dispatch.  Components
normalise whatever they are handed with ``bus if bus else None``, which
maps :data:`NULL_BUS` (falsy) onto the cheap ``None`` representation.

Three refinements keep the *enabled* path cheap as well (DESIGN.md §5f):

* **Kind masks** — every event kind owns one bit (:data:`M_READ`,
  :data:`M_PROGRAM`, ...), and ``bus.mask`` is the union of what the
  current subscribers want.  Emit sites guard with
  ``if obs is not None and obs.mask & M_READ:`` so an event kind no
  subscriber cares about costs one integer test — no event object, no
  call.  An empty subscriber set has mask 0, so a bus with nobody
  listening never timestamps or allocates anything.
* **Batched emission** — a bus built with a ``capacity`` buffers flat
  tuples instead of dispatching per event, *provided every subscriber is
  batch-capable* (exposes ``consume_batch``).  The hot kinds (read,
  program, erase) have dedicated ``emit_read`` / ``emit_program`` /
  ``emit_erase`` entry points that append ``(kind_id, ts, shard,
  fields...)`` without constructing an :class:`~repro.obs.events.Event`
  or a :class:`TraceRecord` at all; rare kinds ride in the same buffer
  as ``(K_OBJ, ts, shard, event)``, preserving global order.  The buffer
  drains to every subscriber when full, on :meth:`EventBus.flush`, and
  around any subscription change.  If any plain per-record subscriber is
  attached the bus falls back to synchronous :class:`TraceRecord`
  dispatch, so ad-hoc observers see every event as it happens.
* **Pulled hot counters** — the hot kinds carry nothing the device does
  not already know: the chip's cumulative ``OpCounters`` and its wear
  state determine the read/program/erase totals and the per-block erase
  peak exactly.  The factory registers each chip as a *hot source*
  (:meth:`EventBus.register_hot_source`), and the metrics collector
  syncs those totals from device state at flush time instead of
  counting events.  The collector never declares interest in
  :data:`HOT_KINDS`, so with no other subscriber attached the emit-site
  mask test fails and the per-operation cost of metrics collection is
  one integer test.  Trace exporters still declare hot interest and
  stream every event through the batched path.

Timestamps come from an injectable ``clock`` callable rather than wall
time: the factory wires it to the device's accumulated ``busy_time``, so
exported traces are in *simulated* seconds and runs are reproducible.
When no attached subscriber needs timestamps (the metrics collector
declares ``needs_timestamps = False``) the batched paths skip the clock
read entirely.  Multi-channel arrays hand each shard a :class:`ShardBus`
view — same subscribers, shard-specific tag and clock — mirroring how
``DeviceArray`` composes per-shard ``EraseDistribution`` snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.obs.events import Erase, Event, Program, Read

Subscriber = Callable[["TraceRecord"], None]
Clock = Callable[[], float]

#: One buffered emission: ``(kind_id, ts, shard, fields...)`` for the hot
#: kinds, ``(K_OBJ, ts, shard, event)`` for everything else.
BatchOp = Tuple[Any, ...]

# -- batch kind ids ------------------------------------------------------
#: Buffered op carries a full :class:`~repro.obs.events.Event` object.
K_OBJ = 0
#: Buffered op is a flat read: ``(K_READ, ts, shard, block, page)``.
K_READ = 1
#: Flat program: ``(K_PROGRAM, ts, shard, block, page, lba)``.
K_PROGRAM = 2
#: Flat erase: ``(K_ERASE, ts, shard, block, count)``.
K_ERASE = 3

# -- per-kind enable masks ----------------------------------------------
M_READ = 1 << 0
M_PROGRAM = 1 << 1
M_ERASE = 1 << 2
M_GC_START = 1 << 3
M_GC_END = 1 << 4
M_GC_SCAN = 1 << 5
M_SWL_INVOKE = 1 << 6
M_BET_RESET = 1 << 7
M_FAULT_INJECTED = 1 << 8
M_RECOVERY = 1 << 9
M_POWER_LOSS = 1 << 10
M_QUEUE_DEPTH = 1 << 11

#: Every kind bit set — the interest of a subscriber that declares none.
ALL_EVENTS = (1 << 12) - 1

#: The per-operation kinds a device emits on its own hot path.  The
#: metrics collector reconstructs these from device state (see
#: ``register_hot_source``) and leaves them out of its interest, so with
#: no exporter attached the emit sites never fire at all.
HOT_KINDS = M_READ | M_PROGRAM | M_ERASE

#: Kind tag -> mask bit, for subscribers that filter by kind name.
KIND_MASKS: dict[str, int] = {
    "read": M_READ,
    "program": M_PROGRAM,
    "erase": M_ERASE,
    "gc_start": M_GC_START,
    "gc_end": M_GC_END,
    "gc_scan": M_GC_SCAN,
    "swl_invoke": M_SWL_INVOKE,
    "bet_reset": M_BET_RESET,
    "fault_injected": M_FAULT_INJECTED,
    "recovery": M_RECOVERY,
    "power_loss": M_POWER_LOSS,
    "queue_depth": M_QUEUE_DEPTH,
}

#: Default buffered-path capacity (events held before an automatic flush).
DEFAULT_BATCH_CAPACITY = 4096


@dataclass(frozen=True)
class TraceRecord:
    """One event as delivered to subscribers: timestamped and shard-tagged.

    ``ts`` is simulated device time in seconds (monotonic per shard,
    since it tracks that shard's accumulated busy time).
    """

    ts: float
    shard: int
    event: Event


class EventBus:
    """Fan-out of telemetry to subscribers: synchronous or batched.

    ``capacity=None`` (the default) keeps synchronous semantics: every
    emission builds a :class:`TraceRecord` and calls each subscriber
    immediately.  A positive ``capacity`` enables the batched path
    whenever every subscriber is batch-capable (see the module
    docstring); :class:`~repro.obs.telemetry.Telemetry` builds its bus
    this way.

    Synchronous dispatch snapshots the subscriber tuple, so a subscriber
    may subscribe/unsubscribe others (or itself) mid-dispatch without
    corrupting iteration.
    """

    def __init__(self, clock: Optional[Clock] = None,
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._subscribers: tuple[Subscriber, ...] = ()
        #: Returns current simulated time; ``None`` until the factory
        #: wires it to the backing device.
        self.clock: Optional[Clock] = clock
        #: Union of the subscribers' kind interests; emit sites test
        #: their kind bit against this before building anything.
        self.mask: int = 0
        self._capacity = capacity
        self._buffer: list[BatchOp] = []
        self._buffered = False
        self._need_ts = False
        #: Shard views handed out by :meth:`for_shard`, kept so a
        #: subscription change can update their ``mask`` mirrors.
        self._views: list[ShardBus] = []
        #: Per-shard devices whose cumulative hot counters can be read
        #: directly (see :meth:`register_hot_source`).
        self.hot_sources: dict[int, Any] = {}

    def __bool__(self) -> bool:
        return True

    # -- subscription ----------------------------------------------------
    def _rewire(self) -> None:
        """Recompute mask and dispatch mode after a subscription change."""
        subs = self._subscribers
        mask = 0
        for subscriber in subs:
            mask |= getattr(subscriber, "interest_mask", ALL_EVENTS)
        self.mask = mask
        self._need_ts = any(
            getattr(subscriber, "needs_timestamps", True) for subscriber in subs
        )
        self._buffered = bool(subs) and self._capacity is not None and all(
            hasattr(subscriber, "consume_batch") for subscriber in subs
        )
        for view in self._views:
            view.mask = mask

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register ``subscriber``; duplicates are allowed and fire twice."""
        self.flush()
        self._subscribers = self._subscribers + (subscriber,)
        self._rewire()

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove one registration of ``subscriber``; absent is a no-op."""
        self.flush()
        subs = list(self._subscribers)
        if subscriber in subs:
            subs.remove(subscriber)
            self._subscribers = tuple(subs)
            self._rewire()

    # -- hot counter sources ---------------------------------------------
    def register_hot_source(self, source: Any, shard: int = 0) -> None:
        """Register a device whose hot counters can be read from state.

        ``source`` must expose cumulative ``counters`` (with ``reads``,
        ``programs``, ``erases``) and ``max_erase_count()`` — the exact
        facts the hot event kinds carry.  The metrics collector pulls
        those totals at flush time instead of counting hot events.  The
        factory registers every chip it wires to a bus; re-registering a
        shard replaces its source.
        """
        self.hot_sources[shard] = source

    # -- time ------------------------------------------------------------
    def now(self) -> float:
        """Current simulated time, 0.0 before a clock is wired."""
        clock = self.clock
        return clock() if clock is not None else 0.0

    # -- emission --------------------------------------------------------
    def emit(self, event: Event, shard: int = 0) -> None:
        """Timestamp ``event`` and deliver (or buffer) it.

        With no subscribers this returns before touching the clock or
        allocating anything — the subscriber-free path is free.
        """
        if not self._subscribers:
            return
        if self._buffered:
            buffer = self._buffer
            buffer.append(
                (K_OBJ, self.now() if self._need_ts else 0.0, shard, event)
            )
            if len(buffer) >= self._capacity:  # type: ignore[operator]
                self.flush()
            return
        record = TraceRecord(self.now(), shard, event)
        for subscriber in self._subscribers:
            subscriber(record)

    def _emit_hot(self, now: Clock, shard: int, kind: int,
                  event_type: Callable[..., Event],
                  fields: Tuple[int, ...]) -> None:
        """Shared body of every ``emit_read``/``emit_program``/``emit_erase``.

        Batched: append the flat ``(kind, ts, shard, *fields)`` op.
        Synchronous: build ``event_type(*fields)`` and dispatch it.
        ``now`` is the emitting view's clock reader.
        """
        if self._buffered:
            buffer = self._buffer
            buffer.append(
                (kind, now() if self._need_ts else 0.0, shard) + fields
            )
            if len(buffer) >= self._capacity:  # type: ignore[operator]
                self.flush()
        elif self._subscribers:
            record = TraceRecord(now(), shard, event_type(*fields))
            for subscriber in self._subscribers:
                subscriber(record)

    def emit_read(self, block: int, page: int, shard: int = 0) -> None:
        """Hot-path read emission: no Event/TraceRecord when batched."""
        self._emit_hot(self.now, shard, K_READ, Read, (block, page))

    def emit_program(self, block: int, page: int, lba: int,
                     shard: int = 0) -> None:
        """Hot-path program emission: no Event/TraceRecord when batched."""
        self._emit_hot(self.now, shard, K_PROGRAM, Program,
                       (block, page, lba))

    def emit_erase(self, block: int, count: int, shard: int = 0) -> None:
        """Hot-path erase emission: no Event/TraceRecord when batched."""
        self._emit_hot(self.now, shard, K_ERASE, Erase, (block, count))

    def flush(self) -> None:
        """Drain buffered emissions to every subscriber.

        Consumers receive the batch for the duration of the call only and
        must not retain it.  A no-op when nothing is buffered (in
        particular, always a no-op in synchronous mode).
        """
        batch = self._buffer
        if not batch:
            return
        self._buffer = []
        for subscriber in self._subscribers:
            subscriber.consume_batch(batch)  # type: ignore[attr-defined]

    def for_shard(self, shard: int, clock: Optional[Clock] = None) -> "ShardBus":
        """A view of this bus that tags emissions with ``shard``.

        ``clock`` overrides the timestamp source for that shard (each
        array channel accumulates its own busy time).
        """
        return ShardBus(self, shard, clock)


class ShardBus:
    """Shard-tagged view over a parent :class:`EventBus`.

    Presents the same ``emit``/``emit_*``/``mask``/``clock`` surface as
    :class:`EventBus` so instrumented components are topology-blind.
    Registers itself with the parent so its ``mask`` mirror stays
    current across subscription changes.
    """

    def __init__(self, parent: EventBus, shard: int,
                 clock: Optional[Clock] = None) -> None:
        self.parent = parent
        self.shard = shard
        self.clock: Optional[Clock] = clock
        #: Mirror of ``parent.mask`` as a plain attribute — emit-site
        #: guards test it per event, so a property would put a descriptor
        #: call on the hot path.  The parent updates it in ``_rewire`` on
        #: every subscription change.
        self.mask: int = parent.mask
        parent._views.append(self)

    def __bool__(self) -> bool:
        return True

    def now(self) -> float:
        clock = self.clock
        if clock is not None:
            return clock()
        return self.parent.now()

    def emit(self, event: Event, shard: Optional[int] = None) -> None:
        parent = self.parent
        if not parent._subscribers:
            return
        tag = self.shard if shard is None else shard
        if parent._buffered:
            buffer = parent._buffer
            buffer.append(
                (K_OBJ, self.now() if parent._need_ts else 0.0, tag, event)
            )
            if len(buffer) >= parent._capacity:  # type: ignore[operator]
                parent.flush()
            return
        record = TraceRecord(self.now(), tag, event)
        for subscriber in parent._subscribers:
            subscriber(record)

    def emit_read(self, block: int, page: int) -> None:
        self.parent._emit_hot(self.now, self.shard, K_READ, Read,
                              (block, page))

    def emit_program(self, block: int, page: int, lba: int) -> None:
        self.parent._emit_hot(self.now, self.shard, K_PROGRAM, Program,
                              (block, page, lba))

    def emit_erase(self, block: int, count: int) -> None:
        self.parent._emit_hot(self.now, self.shard, K_ERASE, Erase,
                              (block, count))

    def flush(self) -> None:
        self.parent.flush()

    def register_hot_source(self, source: Any, shard: Optional[int] = None) -> None:
        self.parent.register_hot_source(
            source, self.shard if shard is None else shard
        )

    def for_shard(self, shard: int, clock: Optional[Clock] = None) -> "ShardBus":
        return ShardBus(self.parent, shard, clock)


class NullEventBus:
    """Falsy do-nothing bus: ``bus if bus else None`` maps it to ``None``.

    Exists so call sites can accept "a bus" unconditionally while the
    hot path stays a bare ``None`` check.  Its ``emit`` is still safe to
    call (it discards the event) for code outside any hot path.
    """

    #: No kind is ever enabled on the null bus.
    mask: int = 0

    def __bool__(self) -> bool:
        return False

    def subscribe(self, subscriber: Subscriber) -> None:
        pass

    def unsubscribe(self, subscriber: Subscriber) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def emit(self, event: Event, shard: int = 0) -> None:
        pass

    def emit_read(self, block: int, page: int, shard: int = 0) -> None:
        pass

    def emit_program(self, block: int, page: int, lba: int,
                     shard: int = 0) -> None:
        pass

    def emit_erase(self, block: int, count: int, shard: int = 0) -> None:
        pass

    def flush(self) -> None:
        pass

    def register_hot_source(self, source: Any, shard: int = 0) -> None:
        pass

    def for_shard(self, shard: int,
                  clock: Optional[Clock] = None) -> "NullEventBus":
        return self


#: Shared falsy bus instance for call sites that want a default object.
NULL_BUS = NullEventBus()

#: A live bus an instrumented component may hold after normalisation.
BusLike = EventBus | ShardBus
