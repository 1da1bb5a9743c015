"""Repository benchmark: paper replay, GC-bound mixed I/O, open-loop NFTL.

Run from the repository root::

    python3 perfbench/run.py                              # all workloads
    python3 perfbench/run.py --workload mobile-ftl --seed 3 --seconds 10
    python3 perfbench/run.py --workload serve-nftl-4ch --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each workload's full record (revision, host, seed, checks) is printed
above it and written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import socket
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

from repro.flash.timing import timing_for  # noqa: E402

from hostspeed import NOMINAL_S  # noqa: E402
from layers import (  # noqa: E402
    LAYERS,
    PY_CALL_LAYERS,
    Tracer,
    py_calls_by_layer,
)
from workloads import (  # noqa: E402
    GEOMETRY,
    NO_HOOKS,
    WORKLOADS,
    Hooks,
    Instance,
    PassResult,
    Workload,
)

#: End-to-end metrics: name -> (unit, better).  ``error_rate`` is printed
#: and recorded too, but it is 0 on a correct run, so the result line
#: carries it as ``failed``/``attempted`` instead of a bounded metric.
END_TO_END = {
    "req_per_s": ("req/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_waf": ("ratio", "lower"),
    "sim_wear_skew": ("ratio", "lower"),
    "sim_tbw_gb": ("GB", "higher"),
    "sim_busy_us_per_req": ("us/req", "lower"),
    "sim_p50_ms": ("ms", "lower"),
    "sim_p99_ms": ("ms", "lower"),
    "sim_p99_ms.r700": ("ms", "lower"),
    "sim_max_rps": ("req/s", "higher"),
}


def _per_layer_table() -> dict[str, tuple[str, str]]:
    table: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        table[f"{layer}.self_us_per_req"] = ("us/req", "lower")
        table[f"{layer}.calls_per_req"] = ("calls/req", "lower")
    for layer in PY_CALL_LAYERS:
        table[f"{layer}.py_calls_per_req"] = ("calls/req", "lower")
    table.update({
        "ftl.copies_per_host_page": ("copies/page", "lower"),
        "ftl.gc_runs_per_kpage": ("runs/kpage", "lower"),
        "ftl.folds_per_kpage": ("folds/kpage", "lower"),
        "leveler.procedure_runs": ("count", "lower"),
        "leveler.swl_erases": ("count", "lower"),
        "leveler.swl_copies": ("count", "lower"),
        "leveler.useful_frac": ("fraction", "higher"),
        "service.stalled_frac": ("fraction", "lower"),
        "service.stall_s_per_kreq": ("s/kreq", "lower"),
        "service.peak_depth": ("count", "lower"),
        "array.busy_imbalance": ("ratio", "lower"),
        "mtd.sim_busy_share.read": ("fraction", "lower"),
        "mtd.sim_busy_share.program": ("fraction", "lower"),
        "mtd.sim_busy_share.erase": ("fraction", "lower"),
        "chip.programs_per_req": ("pages/req", "lower"),
        "chip.reads_per_req": ("pages/req", "lower"),
        "chip.erases_per_kreq": ("erases/kreq", "lower"),
        "obs.events_per_req": ("events/req", "lower"),
        "obs.overhead_pct": ("%", "lower"),
        "trace.overhead_pct": ("%", "lower"),
        "trace.unattributed_us_per_req": ("us/req", "lower"),
    })
    return table


PER_LAYER = _per_layer_table()


class Checks:
    """Output checks of one run; every failure counts toward error_rate."""

    def __init__(self) -> None:
        self.passed: list[str] = []
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        (self.passed if ok else self.failed).append(what)

    def sim_pass(self, label: str, inst: Instance, result: PassResult) -> None:
        backend = inst.backend
        copies = backend.layer_stats()["live_page_copies"]
        self.expect(
            backend.total_programs() == inst.host_pages() + copies,
            f"{label}: total_programs == pages_written + live_page_copies",
        )
        self.expect(result.requests == result.generated,
                    f"{label}: requests applied == requests generated")
        for key, (count, served) in sorted(result.latency_counts.items()):
            self.expect(count == served,
                        f"{label}: latency count == requests served {key}".rstrip())
        shard_total = sum(sum(counts) for counts in backend.shard_erase_counts())
        self.expect(shard_total == backend.total_erases(),
                    f"{label}: shard erase totals == total_erases")


class Profiling(Hooks):
    """Profiles exactly the request loop of a pass."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()

    def begin(self) -> None:
        self.profiler.enable()

    def end(self) -> None:
        self.profiler.disable()


class ProcedureCount:
    """Counts SWL-Procedure runs that did work, and those that erased."""

    def __init__(self) -> None:
        self.worked = 0
        self.erased = 0

    def attach(self, inst: Instance) -> None:
        total_erases = inst.backend.total_erases
        for stack in inst.stacks:
            leveler = stack.leveler
            run = leveler.run_procedure

            def counted(run=run):
                before = total_erases()
                did_work = run()
                if did_work:
                    self.worked += 1
                    self.erased += total_erases() > before
                return did_work

            leveler.run_procedure = counted


def fresh_pass(
    workload: Workload,
    seed: int,
    requests: int,
    checks: Checks,
    label: str,
    hooks: Hooks = NO_HOOKS,
    *,
    prepare: Callable[[Instance], None] | None = None,
    telemetry: bool = True,
) -> tuple[float, PassResult]:
    """Set up, optionally ``prepare``, run one checked pass; the instance
    is dropped on return so the next set-up starts from a clean heap."""
    inst = workload.setup(seed, telemetry=telemetry)
    if prepare is not None:
        prepare(inst)
    result = workload.sim_pass(inst, requests, hooks)
    checks.sim_pass(label, inst, result)
    return inst.setup_s, result


#: A workload's metrics, the extra record fields, and requests attempted.
Outcome = tuple[dict[str, float], dict[str, object], int]


def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   checks: Checks) -> Outcome:
    inst = workload.setup(seed)
    setup_times = [inst.setup_s]
    result = workload.sim_pass(inst, workload.sim_requests)
    checks.sim_pass("sim pass", inst, result)
    metrics = workload.sim_metrics(inst, result)
    before = inst.requests()
    window = workload.timed_window(inst, seconds)
    timed = window.requests
    checks.expect(inst.requests() - before == timed,
                  "timed window: requests applied == requests generated")
    metrics["req_per_s"] = window.rate()
    details = {
        "req_per_s_unscaled": window.raw_rate(),
        "sim_pass_sha256": result.digest(),
        # Simulated latency per population ("writes" on a closed loop,
        # one per grid rate open-loop), with its sample count.
        "latency": {
            key or "writes": {
                **summary.as_dict(),
                "completion_ratio": result.completion_ratio.get(key),
            }
            for key, summary in result.latency.items()
        },
    }
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    attempted = result.generated + timed
    del inst
    gc.collect()
    # The same short pass, traced and untraced, must produce the same
    # results: wrapping the layers may cost time, never change state.
    tracer = Tracer()
    setup_s, traced = fresh_pass(
        workload, seed, workload.check_requests, checks, "traced check pass",
        tracer, prepare=partial(tracer.instrument,
                                closed_loop=workload.closed_loop),
    )
    setup_times.append(setup_s)
    del tracer
    gc.collect()
    setup_s, plain = fresh_pass(workload, seed, workload.check_requests,
                                checks, "untraced check pass")
    setup_times.append(setup_s)
    checks.expect(traced.digest() == plain.digest(),
                  "SHA-256 of SimResult.as_dict(): traced == untraced")
    attempted += traced.generated + plain.generated
    metrics["setup_s"] = statistics.median(setup_times)
    details["check_pass_sha256"] = plain.digest()
    return metrics, details, attempted


def run_per_layer(workload: Workload, seed: int, checks: Checks) -> Outcome:
    # The full deterministic pass: simulated per-layer counts.
    procedures = ProcedureCount()
    _, full = fresh_pass(workload, seed, workload.sim_requests, checks,
                         "sim pass", prepare=procedures.attach)
    metrics = simulated_layer_metrics(full, procedures)
    attempted = full.generated

    small = workload.check_requests
    tracer = Tracer()
    _, traced = fresh_pass(
        workload, seed, small, checks, "traced pass", tracer,
        prepare=partial(tracer.instrument, closed_loop=workload.closed_loop),
    )
    checks.expect(tracer.check_nesting(),
                  "spans nest: self times sum to top-level span time")
    tracer.write_spans(OUT / f"{workload.name}.spans.jsonl")
    _, plain = fresh_pass(workload, seed, small, checks, "untraced pass")
    checks.expect(traced.digest() == plain.digest(),
                  "SHA-256 of SimResult.as_dict(): traced == untraced")
    requests = traced.requests
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_req"] = (
            tracer.self_ns[layer] / requests / 1e3
        )
        metrics[f"{layer}.calls_per_req"] = tracer.calls[layer] / requests
    metrics["obs.events_per_req"] = tracer.events / requests
    metrics["trace.overhead_pct"] = 100 * (traced.wall_s / plain.wall_s - 1)
    metrics["trace.unattributed_us_per_req"] = (
        (traced.wall_s * 1e9 - tracer.top_ns) / requests / 1e3
    )
    attempted += traced.generated + plain.generated
    del tracer
    gc.collect()

    profiling = Profiling()
    _, profiled = fresh_pass(workload, seed, small, checks, "profiled pass",
                             profiling)
    checks.expect(profiled.digest() == plain.digest(),
                  "SHA-256 of SimResult.as_dict(): profiled == untraced")
    py_calls = py_calls_by_layer(pstats.Stats(profiling.profiler).stats)
    for layer in PY_CALL_LAYERS:
        metrics[f"{layer}.py_calls_per_req"] = py_calls[layer] / profiled.requests
    attempted += profiled.generated

    metrics["obs.overhead_pct"] = 0.0
    if workload.telemetry:
        # Telemetry-off twin of the full pass: what in-memory telemetry
        # costs the service workload, tracing off on both sides.
        _, off = fresh_pass(workload, seed, workload.sim_requests, checks,
                            "telemetry-off pass", telemetry=False)
        metrics["obs.overhead_pct"] = 100 * (full.wall_s / off.wall_s - 1)
        attempted += off.generated
    details = {
        "sim_pass_sha256": full.digest(),
        "check_pass_sha256": plain.digest(),
    }
    return metrics, details, attempted


def simulated_layer_metrics(result: PassResult,
                            procedures: ProcedureCount) -> dict[str, float]:
    """Per-layer counts of the deterministic pass (simulated, exact)."""
    before, after = result.before, result.after
    requests = result.requests
    host_pages = after.host_pages - before.host_pages

    def delta(table: str, key: str) -> int:
        return getattr(after, table).get(key, 0) - getattr(before, table).get(key, 0)

    busy = [b - a for a, b in zip(before.busy, after.busy)]
    reads = after.reads - before.reads
    programs = after.programs - before.programs
    erases = after.erases - before.erases
    timing = timing_for(GEOMETRY)
    busy_by_op = {
        "read": reads * timing.read_page,
        "program": programs * timing.program_page,
        "erase": erases * timing.erase_block,
    }
    total_busy = sum(busy_by_op.values())
    return {
        "ftl.copies_per_host_page": delta("layer", "live_page_copies") / host_pages,
        "ftl.gc_runs_per_kpage": 1e3 * delta("layer", "gc_runs") / host_pages,
        "ftl.folds_per_kpage": 1e3 * delta("layer", "folds") / host_pages,
        "leveler.procedure_runs": delta("swl", "procedure_runs"),
        "leveler.swl_erases": delta("swl", "swl_erases"),
        "leveler.swl_copies": delta("swl", "swl_copies"),
        "leveler.useful_frac": (
            procedures.erased / procedures.worked if procedures.worked else 0.0
        ),
        "service.stalled_frac": (
            result.stalls / result.channel_arrivals
            if result.channel_arrivals else 0.0
        ),
        "service.stall_s_per_kreq": 1e3 * result.stall_s / requests,
        "service.peak_depth": result.peak_depth,
        "array.busy_imbalance": max(busy) / (sum(busy) / len(busy)),
        **{
            f"mtd.sim_busy_share.{op}": value / total_busy
            for op, value in busy_by_op.items()
        },
        "chip.programs_per_req": programs / requests,
        "chip.reads_per_req": reads / requests,
        "chip.erases_per_kreq": 1e3 * erases / requests,
    }


def git_revision() -> str:
    """Commit of a git checkout, else a digest of the ``src/`` tree."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return f"src-sha256:{digest.hexdigest()[:16]}"


def declared_metrics() -> dict[str, dict[str, tuple[str, str]]]:
    """Metric names, units and directions declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; pick an unused one to verify "
                             "a claim on held-out inputs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    declared = declared_metrics()
    table = PER_LAYER if args.trace else END_TO_END
    section = "per_layer" if args.trace else "end_to_end"
    if declared[section] != table:
        raise SystemExit(f"BENCHMARK.json {section} does not match the "
                         f"metrics this benchmark reports")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    host = {
        "revision": git_revision(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
    }
    combined: dict[str, dict[str, object]] = {}
    attempted_total = failed_total = 0
    for name in names:
        workload = WORKLOADS[name]
        checks = Checks()
        start = time.perf_counter()
        if args.trace:
            metrics, details, attempted = run_per_layer(
                workload, args.seed, checks
            )
        else:
            metrics, details, attempted = run_end_to_end(
                workload, args.seed, args.seconds, checks
            )
        failed = len(checks.failed)
        record = {
            **host,
            "workload": name,
            "why": workload.why,
            "trace": args.trace,
            "seconds": args.seconds,
            "geometry": GEOMETRY.name,
            "wall_s": time.perf_counter() - start,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "nominal_reference_s": NOMINAL_S,
            **details,
            "checks_passed": checks.passed,
            "checks_failed": checks.failed,
            "metrics": {
                metric: {"value": metrics[metric], "unit": unit,
                         "better": better}
                for metric, (unit, better) in table.items()
            },
        }
        print(f"== {name} (seed {args.seed}, trace {args.trace}) ==")
        for metric, entry in record["metrics"].items():
            print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']:<12s}"
                  f" {entry['better']} is better")
        print(f"  {'error_rate':34s} {record['error_rate']:>16.6g} "
              f"{'fraction':<12s} lower is better "
              f"({failed} failed of {attempted} attempted)")
        for what in checks.failed:
            print(f"  CHECK FAILED: {what}")
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}.trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
        print("RECORD " + json.dumps(record, sort_keys=True))
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, entry in record["metrics"].items():
            combined[prefix + metric] = {"value": entry["value"],
                                         "unit": entry["unit"]}
        attempted_total += attempted
        failed_total += failed
    print(json.dumps({
        "correct": failed_total == 0,
        "attempted": attempted_total,
        "failed": failed_total,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
