"""Per-layer accounting from the benchmark's side: spans and call counts.

The program keeps no tracing of its own.  :class:`Tracer` wraps the
public entry points of every layer *on the built instances* and records a
span around each call: name, start, end, parent span and request id.  A
layer's self time is its spans' time minus the time of their direct child
spans, so the self times of all layers sum exactly to the time spent
inside top-level spans; the rest of the traced wall time is the untraced
remainder (the benchmark's own loop).

:func:`py_calls_by_layer` attributes the Python calls a cProfile pass saw
to layers by source file.  Both counts repeat exactly from run to run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.array.device import DeviceArray
from repro.ftl.factory import _count_power_loss_pages
from repro.service.engine import ServiceEngine

from workloads import Hooks, Instance

#: Layers in request order, each named after its module.
LAYERS = (
    "feed", "sim.core", "service", "array", "ftl", "cleaner", "allocator",
    "leveler", "mtd", "chip", "obs",
)

#: Public entry points wrapped per layer (attribute of the stack part).
_ENTRY_POINTS = {
    "ftl": ("write", "read", "recycle_block_range"),
    "cleaner": ("find_least_worn", "find_best_fallback"),
    "allocator": ("allocate", "release", "promote"),
    "leveler": ("on_request", "run_procedure"),
    "mtd": ("read_page", "write_page", "erase_block", "copy_page"),
    "chip": ("read", "program", "erase"),
}

#: Source files (relative to ``src/repro``) whose Python calls count
#: toward each layer in the profiled pass; exact files win over
#: directories.  ``geometry`` is reported on its own because every layer
#: from the FTL down calls it; unmatched files land in ``other``.
_LAYER_FILES = {
    "service/arrival.py": "feed",
    "sim/metrics.py": "chip",
    "array/coordinator.py": "leveler",
    "util/bitarray.py": "leveler",
    "ftl/factory.py": "array",
    "ftl/cleaner.py": "cleaner",
    "ftl/allocator.py": "allocator",
    "flash/mtd.py": "mtd",
    "flash/timing.py": "mtd",
    "flash/chip.py": "chip",
    "flash/geometry.py": "geometry",
}
_LAYER_DIRS = {
    "traces": "feed",
    "workloads": "feed",
    "sim": "sim.core",
    "service": "service",
    "array": "array",
    "ftl": "ftl",
    "core": "leveler",
    "obs": "obs",
}
PY_CALL_LAYERS = LAYERS + ("geometry", "other")


class Tracer(Hooks):
    """Records nested spans around wrapped calls, kept in memory."""

    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent index or -1, request id)``.
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.top_ns = 0
        self.request = 0
        self.events = 0
        self._stack: list[list[int]] = []

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        spans = self.spans
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        label = f"{layer}:{name}"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            calls[layer] += 1
            request = self.request
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                if parent is None:
                    self.top_ns += duration
                else:
                    parent[1] += duration
                spans[index] = (
                    label, start, end,
                    parent[0] if parent is not None else -1, request,
                )

        return traced

    def wrap_methods(self, target: object, layer: str,
                     names: Iterable[str]) -> None:
        for name in names:
            setattr(target, name, self.wrap(getattr(target, name), layer, name))

    def traced_feed(self, requests: Iterator, *, outer: bool) -> Iterator:
        """Span every ``next`` of ``requests``; ``outer`` numbers requests."""
        fetch = self.wrap(requests.__next__, "feed", "next")

        def feed():
            while True:
                if outer:
                    self.request += 1
                try:
                    yield fetch()
                except StopIteration:
                    return

        return feed()

    # -- Hooks -----------------------------------------------------------
    def driver(self, core) -> None:
        self.wrap_methods(core, "sim.core", ("apply",))
        if isinstance(core, ServiceEngine):
            self.wrap_methods(core, "service", ("serve",))

    def feed(self, requests: Iterator) -> Iterator:
        return self.traced_feed(requests, outer=True)

    # -- instrumentation -------------------------------------------------
    def instrument(self, inst: Instance, *, closed_loop: bool) -> None:
        """Wrap every layer of a set-up instance (before its pass)."""
        backend = inst.backend
        for stack in inst.stacks:
            layer = stack.layer
            for target, name in (
                (layer, "ftl"), (layer.scanner, "cleaner"),
                (layer.allocator, "allocator"), (stack.mtd, "mtd"),
                (stack.flash, "chip"),
            ):
                self.wrap_methods(target, name, _ENTRY_POINTS[name])
            leveler = stack.leveler
            if leveler is not None:
                # The erase listener was bound when the leveler attached,
                # so the wrapped one replaces it in the chip's list.
                listener = leveler.on_block_erased
                stack.flash.remove_erase_listener(listener)
                stack.flash.add_erase_listener(
                    self.wrap(listener, "leveler", "on_block_erased")
                )
                self.wrap_methods(leveler, "leveler", _ENTRY_POINTS["leveler"])
        if isinstance(backend, DeviceArray):
            _recompile_dispatch(backend)
        self.wrap_methods(backend, "array", ("write_pages", "read_pages"))
        if inst.resampler is not None:
            self.wrap_methods(inst.resampler, "feed", ("next_segment",))
        if not closed_loop:
            # Arrival generators are the outer feed; the stream they
            # re-time is the inner one.
            inst.stream = self.traced_feed(inst.stream, outer=False)
        if inst.telemetry is not None:
            self._instrument_obs(inst.telemetry)

    def _instrument_obs(self, telemetry) -> None:
        collector = telemetry.collector
        consume = self.wrap(collector.consume_batch, "obs", "consume_batch")

        def consume_batch(batch):
            self.events += len(batch)
            return consume(batch)

        collector.consume_batch = consume_batch
        self.wrap_methods(collector, "obs", ("pull_hot_counters",))
        self.wrap_methods(telemetry.bus, "obs", ("emit",))
        self.wrap_methods(telemetry, "obs", ("flush",))

    # -- output ----------------------------------------------------------
    def check_nesting(self) -> bool:
        """Self times sum to the top-level span time; every span closed."""
        return (
            not self._stack
            and sum(self.self_ns.values()) == self.top_ns
            and all(span is not None for span in self.spans)
        )

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "id": index, "name": name,
                    "start_ns": start - origin, "end_ns": end - origin,
                    "parent": parent if parent >= 0 else None,
                    "request": request,
                }) + "\n")


def _recompile_dispatch(array: DeviceArray) -> None:
    """Rebuild an array's fused dispatchers over the wrapped FTL methods.

    ``DeviceArray`` compiles its striping closures around each shard's
    ``layer.write``/``layer.read`` bound at build time; compiling them
    again the way its constructor does makes them call the wrapped ones.
    """
    for shard in array.shards:
        if shard._intercept is not None:
            raise ValueError("write-intercepting levelers are not traced")
    array._writers = [shard.layer.write for shard in array.shards]
    array._readers = [shard.layer.read for shard in array.shards]
    for name, ops in (("write_pages", array._writers),
                      ("read_pages", array._readers)):
        generic = getattr(DeviceArray, name).__get__(array)
        compiled = array.striping.compile_pages_dispatch(
            ops, _count_power_loss_pages, generic
        )
        setattr(array, name, compiled or generic)


def layer_of_file(path: str) -> str | None:
    """Layer of a ``repro`` source file, or ``None`` outside the package."""
    marker = "/repro/"
    position = path.replace("\\", "/").rfind(marker)
    if position < 0:
        return None
    relative = path[position + len(marker):]
    if relative in _LAYER_FILES:
        return _LAYER_FILES[relative]
    return _LAYER_DIRS.get(relative.split("/", 1)[0], "other")


def py_calls_by_layer(stats: dict) -> Counter[str]:
    """Python calls per layer from ``pstats.Stats(...).stats``."""
    calls: Counter[str] = Counter()
    for (filename, _line, _func), (_cc, count, *_rest) in stats.items():
        layer = layer_of_file(filename)
        if layer is not None:
            calls[layer] += count
    return calls
