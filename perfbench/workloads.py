"""The benchmark's three workloads: set-up, deterministic pass, timed window.

Every workload follows one protocol:

* :meth:`Workload.setup` generates the requests from the seed, builds the
  backend with :meth:`~repro.sim.experiment.ExperimentSpec.build` and
  preconditions the device.  It is never timed into ``req_per_s``; its
  own duration is ``setup_s``.
* :meth:`Workload.sim_pass` applies a fixed number of requests.  Given
  the seed it is fully deterministic, so every simulated metric and the
  SHA-256 of the produced ``SimResult.as_dict()`` repeat exactly.
* :meth:`Workload.timed_window` keeps applying requests for a host-time
  budget, in fixed-size chunks, and returns the per-chunk request rates.

The sim pass takes *hooks* (see :class:`Hooks`), which is how the traced
run wraps the drivers and the request feed it creates.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.core.config import SWLConfig
from repro.endurance import project_endurance
from repro.obs.telemetry import Telemetry
from repro.service.arrival import poisson_arrivals
from repro.service.engine import ServiceEngine
from repro.service.latency import LatencyHistogram, LatencySummary
from repro.sim.core import RequestCore, SimResult
from repro.sim.experiment import (
    ExperimentSpec,
    make_workload,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.extend import SegmentResampler
from repro.traces.model import Op, Request
from repro.util.rng import make_rng, spawn_rng
from repro.workloads import ShapeParams, make_shape

from hostspeed import NOMINAL_S, reference_seconds

#: Per-channel chip of every workload: the paper's MLC x2 organization
#: (128 x 2 KB pages per block) with 48 blocks and endurance compressed
#: 100x (100 P/E cycles), the sizes ``benchmarks/perf_trajectory.py``
#: has always used.
GEOMETRY = scaled_mlc2_geometry(48, scale=100)
SWL_T100 = SWLConfig(threshold=100, k=0)

#: The mobile-PC base trace stands in for the paper's one recorded trace:
#: a day of requests generated once from a fixed seed, which the
#: resampler draws random 10-minute segments from.  ``--seed`` picks the
#: segments, the arrival times and the leveler's randomness.  A base
#: trace per seed would also redraw the disk layout (which extents are
#: hot, cold or static); on ``serve-nftl-4ch`` that alone moved the wear
#: skew by 50% and the p99 by 70% between seeds (interquartile range
#: over five seeds), far beyond any bound worth gating on.
TRACE_SECONDS = 86_400.0
TRACE_SEED = 2

#: Open-loop service model of ``serve-nftl-4ch``.
QUEUE_DEPTH = 32
RATE_GRID = (400, 600, 700, 800)
#: The latency limit and the backlog tolerance behind ``sim_max_rps``.
P99_LIMIT_S = 0.300
BACKLOG_TOLERANCE = 0.01
#: The timed window serves at the lowest grid rate, where no backlog
#: grows, so host time measures steady service.
TIMED_RATE = RATE_GRID[0]


class Hooks:
    """Pass-level instrumentation points; the defaults change nothing."""

    def driver(self, core: RequestCore) -> None:
        """Called on every driver a pass creates, before it runs."""

    def feed(self, requests: Iterator[Request]) -> Iterator[Request]:
        """Wraps the outermost request iterator a pass consumes."""
        return requests

    def begin(self) -> None:
        """Called right before a pass applies its first request."""

    def end(self) -> None:
        """Called right after a pass applied its last request."""


NO_HOOKS = Hooks()


@dataclass
class Instance:
    """One set-up workload: a preconditioned backend and its request feed."""

    spec: ExperimentSpec
    backend: object
    telemetry: Telemetry | None
    #: Endless request stream, positioned after preconditioning.
    stream: Iterator[Request]
    resampler: SegmentResampler | None
    #: Every driver built over the backend, in order of creation.
    cores: list[RequestCore]
    setup_s: float = 0.0

    @property
    def stacks(self) -> list:
        """The per-channel stacks (one for a single-channel backend)."""
        return list(getattr(self.backend, "shards", [self.backend]))

    def host_pages(self) -> int:
        return sum(core.pages_written for core in self.cores)

    def requests(self) -> int:
        return sum(core.requests_done for core in self.cores)

    def sim_seconds(self) -> float:
        return sum(core.clock for core in self.cores)


@dataclass
class Counters:
    """Cumulative device and driver counters at one instant."""

    host_pages: int
    requests: int
    programs: int
    erases: int
    reads: int
    busy: list[float]
    layer: dict[str, int]
    swl: dict[str, int]

    @classmethod
    def of(cls, inst: Instance) -> "Counters":
        backend = inst.backend
        return cls(
            host_pages=inst.host_pages(),
            requests=inst.requests(),
            programs=backend.total_programs(),
            erases=backend.total_erases(),
            reads=sum(stack.flash.counters.reads for stack in inst.stacks),
            busy=list(backend.shard_busy_times()),
            layer=dict(backend.layer_stats()),
            swl=dict(backend.swl_stats()),
        )


@dataclass
class PassResult:
    """What one deterministic pass did, with counters on both sides."""

    requests: int                 #: requests the drivers applied
    generated: int                #: requests the feed yielded
    device_requests: int          #: requests that reached the device
    wall_s: float
    before: Counters
    after: Counters
    #: Simulated latency: ``""`` for a closed loop (host writes: reads
    #: are skipped or, at 50% of a uniform mix, would pin the median to
    #: the read/write boundary), else one per rate (every request).
    latency: dict[str, LatencySummary]
    #: Latency-histogram count per population, to check against the
    #: number of requests served.
    latency_counts: dict[str, tuple[int, int]]
    results: list[SimResult]
    #: Open-loop only: completion time over the last arrival, per rate.
    completion_ratio: dict[str, float] = field(default_factory=dict)
    stalls: int = 0
    stall_s: float = 0.0
    #: Per-channel arrivals (a request counts once per channel it used).
    channel_arrivals: int = 0
    peak_depth: int = 0

    def digest(self) -> str:
        """SHA-256 of every ``SimResult.as_dict()`` the pass produced."""
        payload = json.dumps(
            [result.as_dict() for result in self.results],
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Window:
    """Timed-window chunks, each bracketed by host-speed probes."""

    chunk: int
    seconds: list[float] = field(default_factory=list)
    #: One probe before the first chunk, then one after every chunk, so
    #: chunk ``i`` ran between probes ``i`` and ``i + 1``.
    probes: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.probes.append(reference_seconds())

    def record(self, seconds: float) -> None:
        self.seconds.append(seconds)
        # Probed right after the chunk, outside its timed interval.
        self.probes.append(reference_seconds())

    @property
    def requests(self) -> int:
        return self.chunk * len(self.seconds)

    def raw_rate(self) -> float:
        """Median chunk rate in requests per host second."""
        return statistics.median(self.chunk / s for s in self.seconds)

    def rate(self) -> float:
        """Median chunk rate scaled to the nominal host speed: a chunk
        run while the reference loop took twice its nominal time counts
        at twice its measured rate."""
        probes = self.probes
        return statistics.median(
            self.chunk / s * (probes[i] + probes[i + 1]) / (2 * NOMINAL_S)
            for i, s in enumerate(self.seconds)
        )


class Workload:
    """Base protocol; subclasses fill in the configuration."""

    name = "abstract"
    why = ""
    closed_loop = True
    #: Whether set-up attaches in-memory ``Telemetry`` (unless disabled
    #: for the telemetry-off twin).
    telemetry = False
    #: Requests in the deterministic pass, and in the short check passes.
    sim_requests = 0
    check_requests = 0
    #: Requests per timed chunk.
    chunk = 0

    def spec(self, seed: int) -> ExperimentSpec:
        raise NotImplementedError

    def setup(self, seed: int, *, telemetry: bool = True) -> Instance:
        start = time.perf_counter()
        inst = self._setup(seed, telemetry and self.telemetry)
        inst.setup_s = time.perf_counter() - start
        return inst

    def _setup(self, seed: int, telemetry: bool) -> Instance:
        raise NotImplementedError

    def sim_pass(
        self, inst: Instance, requests: int, hooks: Hooks = NO_HOOKS
    ) -> PassResult:
        """Closed loop: apply ``requests`` requests, one outstanding."""
        core = inst.cores[-1]
        hooks.driver(core)
        apply = core.apply
        mtds = [stack.mtd for stack in inst.stacks]
        skip_reads = core.skip_reads
        stream = hooks.feed(inst.stream)
        # Write latencies are collected raw and binned after the loop, so
        # the loop calls into the program only through the feed and
        # ``apply`` (the profiled pass counts every call it makes).
        samples: list[float] = []
        reads = 0
        before = Counters.of(inst)
        hooks.begin()
        start = time.perf_counter()
        previous = [mtd.busy_time for mtd in mtds]
        for _ in range(requests):
            request = next(stream)
            apply(request)
            now = [mtd.busy_time for mtd in mtds]
            if request.op is Op.READ:
                reads += 1
            else:
                # One request outstanding: it completes when its slowest
                # channel has worked off what it triggered.
                samples.append(max([b - a for a, b in zip(previous, now)]))
            previous = now
        wall = time.perf_counter() - start
        hooks.end()
        histogram = LatencyHistogram()
        for service in samples:
            histogram.observe(service)
        after = Counters.of(inst)
        applied = after.requests - before.requests
        return PassResult(
            requests=applied,
            generated=requests,
            device_requests=applied - reads if skip_reads else applied,
            wall_s=wall,
            before=before,
            after=after,
            latency={"": histogram.summary()},
            latency_counts={"": (histogram.count, applied - reads)},
            results=[core.result(label=inst.spec.label())],
        )

    def timed_window(self, inst: Instance, seconds: float) -> Window:
        """Apply requests for ``seconds`` of host time, chunk by chunk."""
        core = inst.cores[-1]
        apply = core.apply
        stream = inst.stream
        chunk = self.chunk
        window = Window(chunk)
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            for request in itertools.islice(stream, chunk):
                apply(request)
            end = time.perf_counter()
            window.record(end - start)
            if end >= deadline:
                return window

    def projection_input(self, inst: Instance, result: PassResult) -> SimResult:
        """The device-lifetime ``SimResult`` for ``project_endurance``."""
        return result.results[-1]

    def sim_metrics(self, inst: Instance, result: PassResult) -> dict[str, float]:
        """End-to-end simulated metrics of a deterministic pass."""
        before, after = result.before, result.after
        host_pages = after.host_pages - before.host_pages
        busy = [b - a for a, b in zip(before.busy, after.busy)]
        projection = project_endurance(
            self.projection_input(inst, result), GEOMETRY
        )
        latency = result.latency[self.latency_key()]
        metrics = {
            "sim_waf": (after.programs - before.programs) / host_pages,
            "sim_wear_skew": projection.wear_skew,
            "sim_tbw_gb": projection.tbw_bytes / 1e9,
            "sim_busy_us_per_req": sum(busy) / result.requests * 1e6,
            "sim_p50_ms": latency.p50 * 1e3,
            "sim_p99_ms": latency.p99 * 1e3,
        }
        metrics.update(self.load_metrics(result, busy))
        return metrics

    def latency_key(self) -> str:
        return ""

    def load_metrics(
        self, result: PassResult, busy: list[float]
    ) -> dict[str, float]:
        # A closed loop keeps one request outstanding, so no queue forms
        # at any offered rate: near saturation the p99 is the service
        # p99, and the highest sustainable rate is the loop's own
        # simulated throughput, limited by its busiest channel.
        return {
            "sim_p99_ms.r700": result.latency[""].p99 * 1e3,
            "sim_max_rps": result.device_requests / max(busy),
        }


class MobileFtl(Workload):
    name = "mobile-ftl"
    why = ("the paper's own setup: mobile-PC trace on FTL+SWL (T=100, "
           "k=0), 1 channel, closed loop, reads skipped; host page writes "
           "dominate")
    sim_requests = 200_000
    check_requests = 20_000
    chunk = 5_000

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec("ftl", GEOMETRY, SWL_T100, seed=seed)

    def _setup(self, seed: int, telemetry: bool) -> Instance:
        spec = self.spec(seed)
        trace, prefill = mobile_trace(spec)
        core = RequestCore(spec.build(), skip_reads=True)
        for request in prefill:
            core.apply(request)
        resampler = SegmentResampler(
            trace, rng=spawn_rng(make_rng(spec.seed), "resampler")
        )
        stream = resampler.iter_requests()
        inst = Instance(spec, core.stack, None, stream, resampler, [core])
        precondition(inst, host_pages=2 * GEOMETRY.total_pages)
        return inst


class MixedFtl4ch(Workload):
    name = "mixed-ftl-4ch"
    why = ("uniform 50% reads on FTL+SWL, 4 page-striped channels, global "
           "SWL scope: Cleaner-bound at WAF ~9, reads go through the array")
    sim_requests = 40_000
    check_requests = 4_000
    chunk = 1_000

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            "ftl", GEOMETRY, SWL_T100, seed=seed,
            channels=4, striping="page", swl_scope="global",
        )

    def _setup(self, seed: int, telemetry: bool) -> Instance:
        spec = self.spec(seed)
        backend = spec.build()
        core = RequestCore(backend, skip_reads=False)
        sectors = backend.num_logical_pages * backend.sectors_per_page
        # Fill the whole logical space sequentially, then overwrite at
        # random: greedy GC reaches its steady-state WAF within about
        # one logical capacity of random writes, where an empty device
        # takes several.
        for lba in range(0, sectors, FILL_SECTORS):
            core.apply(
                Request(0.0, Op.WRITE, lba, min(FILL_SECTORS, sectors - lba))
            )
        shape = make_shape(
            "mixed", ShapeParams(total_sectors=sectors, seed=seed)
        )
        inst = Instance(spec, backend, None, shape.iter_requests(), None,
                        [core])
        precondition(inst, host_pages=2 * backend.num_logical_pages)
        return inst


class ServeNftl4ch(Workload):
    name = "serve-nftl-4ch"
    why = ("mobile-PC trace on NFTL+SWL, 4 channels, open-loop Poisson "
           "arrivals at 400-800 req/s, queue depth 32, telemetry on: "
           "folds, queues, obs")
    closed_loop = False
    telemetry = True
    #: Requests per grid rate; the pass serves the grid in order.
    sim_requests = 100_000
    check_requests = 2_500
    chunk = 2_000

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec("nftl", GEOMETRY, SWL_T100, seed=seed,
                              channels=4)

    def _setup(self, seed: int, telemetry: bool) -> Instance:
        spec = self.spec(seed)
        trace, prefill = mobile_trace(spec)
        facade = Telemetry() if telemetry else None
        backend = spec.build(telemetry=facade)
        core = RequestCore(backend)
        for request in prefill:
            core.apply(request)
        resampler = SegmentResampler(
            trace, rng=spawn_rng(make_rng(spec.seed), "resampler")
        )
        inst = Instance(spec, backend, facade, resampler.iter_requests(),
                        resampler, [core])
        precondition(inst, host_pages=2 * GEOMETRY.total_pages * 4)
        return inst

    def _engine(self, inst: Instance) -> ServiceEngine:
        engine = ServiceEngine(inst.backend, queue_depth=QUEUE_DEPTH,
                               telemetry=inst.telemetry)
        inst.cores.append(engine)
        return engine

    def _arrivals(self, inst: Instance, rate: int, salt: str) -> Iterator[Request]:
        rng = spawn_rng(make_rng(inst.spec.seed), f"arrivals:{salt}")
        return poisson_arrivals(inst.stream, rate, rng)

    def sim_pass(
        self, inst: Instance, requests: int, hooks: Hooks = NO_HOOKS
    ) -> PassResult:
        """Serve ``requests`` requests at every grid rate, in order.

        The rates share one backend, so each one starts from the wear
        and mapping state the previous one left; each gets a fresh
        engine, so its queues start empty.
        """
        before = Counters.of(inst)
        latency: dict[str, LatencySummary] = {}
        counts: dict[str, tuple[int, int]] = {}
        ratios: dict[str, float] = {}
        results: list[SimResult] = []
        generated = stalls = channel_arrivals = peak = 0
        stall_s = 0.0
        hooks.begin()
        start = time.perf_counter()
        for rate in RATE_GRID:
            engine = self._engine(inst)
            hooks.driver(engine)
            arrivals = _Counted(self._arrivals(inst, rate, str(rate)))
            served = engine.serve(hooks.feed(arrivals), max_requests=requests,
                                  label=inst.spec.label())
            generated += arrivals.count
            key = f"r{rate}"
            latency[key] = served.latency
            counts[key] = (served.latency.count, engine.requests_done)
            ratios[key] = served.completion_time / engine.clock
            results.append(served.replay)
            stalls += served.stalls
            stall_s += sum(stats.stall_time for stats in served.channel_stats)
            channel_arrivals += sum(s.served for s in served.channel_stats)
            peak = max([peak] + [s.peak_depth for s in served.channel_stats])
        wall = time.perf_counter() - start
        hooks.end()
        after = Counters.of(inst)
        applied = after.requests - before.requests
        return PassResult(
            requests=applied,
            generated=generated,
            device_requests=applied,
            wall_s=wall,
            before=before,
            after=after,
            latency=latency,
            latency_counts=counts,
            results=results,
            completion_ratio=ratios,
            stalls=stalls,
            stall_s=stall_s,
            channel_arrivals=channel_arrivals,
            peak_depth=peak,
        )

    def timed_window(self, inst: Instance, seconds: float) -> Window:
        engine = self._engine(inst)
        arrivals = self._arrivals(inst, TIMED_RATE, "timed")
        chunk = self.chunk
        window = Window(chunk)
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            engine.serve(arrivals, max_requests=chunk)
            end = time.perf_counter()
            window.record(end - start)
            if end >= deadline:
                return window

    def projection_input(self, inst: Instance, result: PassResult) -> SimResult:
        # Each engine counts only its own requests; the projection needs
        # the device's whole life since it was built.
        return replace(
            result.results[-1],
            requests=inst.requests(),
            pages_written=inst.host_pages(),
            sim_time=inst.sim_seconds(),
        )

    def latency_key(self) -> str:
        return f"r{RATE_GRID[0]}"

    def load_metrics(
        self, result: PassResult, busy: list[float]
    ) -> dict[str, float]:
        return {
            "sim_p99_ms.r700": result.latency["r700"].p99 * 1e3,
            "sim_max_rps": max_sustained_rate(result),
        }


def max_sustained_rate(result: PassResult) -> float:
    """Highest rate with p99 within the limit and no growing backlog.

    Starts from the highest grid rate that meets both and moves toward
    the next grid rate by where the p99 reaches the limit between them,
    interpolated in log p99.  On the grid alone a small latency shift
    makes the figure jump a whole grid step or not move at all.
    """
    def p99(rate: int) -> float:
        return result.latency[f"r{rate}"].p99

    sustained = [
        rate for rate in RATE_GRID
        if p99(rate) <= P99_LIMIT_S
        and result.completion_ratio[f"r{rate}"] <= 1 + BACKLOG_TOLERANCE
    ]
    if not sustained:
        return 0.0
    low = max(sustained)
    if low == RATE_GRID[-1]:
        return float(low)
    high = RATE_GRID[RATE_GRID.index(low) + 1]
    if p99(high) <= P99_LIMIT_S:
        # The next rate fails on its backlog alone.
        return float(low)
    share = math.log(P99_LIMIT_S / p99(low)) / math.log(p99(high) / p99(low))
    return low + (high - low) * share


#: Request size of the sequential fill (the mobile trace's size cap).
FILL_SECTORS = 256


class _Counted:
    """Iterator proxy that counts the requests it yields."""

    def __init__(self, requests: Iterator[Request]) -> None:
        self._requests = requests
        self.count = 0

    def __iter__(self) -> "_Counted":
        return self

    def __next__(self) -> Request:
        request = next(self._requests)
        self.count += 1
        return request


def mobile_trace(spec: ExperimentSpec) -> tuple[list[Request], list[Request]]:
    """The mobile-PC base trace and its disk-image prefill, sized to ``spec``."""
    params = workload_params_for(spec, duration=TRACE_SECONDS, seed=TRACE_SEED)
    workload = make_workload(params)
    return workload.requests(), workload.prefill_requests()


def precondition(inst: Instance, *, host_pages: int) -> None:
    """Replay the feed until ``host_pages`` pages were written in all."""
    core = inst.cores[-1]
    stream = inst.stream
    while inst.host_pages() < host_pages:
        core.apply(next(stream))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (MobileFtl(), MixedFtl4ch(), ServeNftl4ch())
}
