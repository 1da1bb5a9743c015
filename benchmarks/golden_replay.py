"""Fixed-seed golden replay check.

Replays a tiny fixed-seed trace on both drivers and hashes the full
``SimResult.as_dict()`` (plus the sampled timeline and heatmaps).  The
default action fails when the hash drifts from the committed
``benchmarks/golden_hotpath.json``; the CI bench-smoke job runs it so any
change to the accounting hot path that alters replayed results is caught
at review time, not in a downstream experiment.

Usage::

    PYTHONPATH=src python benchmarks/golden_replay.py                  # check
    PYTHONPATH=src python benchmarks/golden_replay.py --update-golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.core.config import SWLConfig
from repro.sim.engine import Simulator, StopCondition
from repro.sim.experiment import (
    ExperimentSpec,
    make_workload,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.extend import SegmentResampler
from repro.util.rng import make_rng, spawn_rng

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_hotpath.json"

#: Golden replay knobs: tiny geometry, ~seconds of wall clock.
GOLDEN_BLOCKS = 24
GOLDEN_SCALE = 200
GOLDEN_HORIZON = 0.05 * 86_400.0
GOLDEN_SEED = 7


def _golden_replay(driver: str, swl=None):
    geometry = scaled_mlc2_geometry(GOLDEN_BLOCKS, scale=GOLDEN_SCALE)
    if swl is None:
        swl = SWLConfig(threshold=100, k=0)
    spec = ExperimentSpec(driver, geometry, swl, seed=GOLDEN_SEED)
    params = workload_params_for(
        spec, duration=GOLDEN_HORIZON, seed=GOLDEN_SEED + 1
    )
    workload = make_workload(params)
    simulator = Simulator(
        spec.build(),
        skip_reads=True,
        sample_interval=GOLDEN_HORIZON / 8,
        heatmap_interval=GOLDEN_HORIZON / 4,
        heatmap_bins=8,
    )
    for request in workload.prefill_requests():
        simulator.apply(request)
    rng = spawn_rng(make_rng(spec.seed), "resampler")
    endless = SegmentResampler(workload.requests(), rng=rng)
    return simulator.run(
        endless.iter_requests(),
        StopCondition(max_time=GOLDEN_HORIZON, max_requests=10_000_000),
        label=spec.label(),
    )


def golden_digest(swl=None) -> dict[str, object]:
    """Replay both drivers and hash everything the engine reports.

    ``swl`` substitutes the leveler configuration (default: the classic
    ``SWLConfig``); the scale gate passes ``LevelerSpec(kind="swl")`` to
    prove the registry path replays the very same digest.
    """
    payload: dict[str, object] = {}
    for driver in ("ftl", "nftl"):
        result = _golden_replay(driver, swl=swl)
        payload[driver] = {
            "as_dict": result.as_dict(),
            "timeline": [
                [s.time, s.average, s.deviation, s.maximum, s.total_erases]
                for s in result.timeline
            ],
            "heatmaps": [h.as_dict() for h in result.heatmaps],
        }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "schema": 1,
        "config": {
            "blocks": GOLDEN_BLOCKS,
            "scale": GOLDEN_SCALE,
            "horizon_s": GOLDEN_HORIZON,
            "seed": GOLDEN_SEED,
        },
        "result_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def check_golden() -> int:
    if not GOLDEN_PATH.exists():
        print(f"no golden at {GOLDEN_PATH}; run --update-golden first")
        return 2
    committed = json.loads(GOLDEN_PATH.read_text())
    current = golden_digest()
    if current["config"] != committed.get("config"):
        print("golden config mismatch; regenerate with --update-golden")
        print(f"  committed: {committed.get('config')}")
        print(f"  current:   {current['config']}")
        return 2
    if current["result_sha256"] != committed.get("result_sha256"):
        print("FAIL: replayed results drifted from the committed golden")
        print(f"  committed: {committed.get('result_sha256')}")
        print(f"  current:   {current['result_sha256']}")
        print(
            "If the drift is intentional (a documented behaviour change), "
            "refresh with --update-golden and explain it in the PR."
        )
        return 1
    print(f"golden OK ({current['result_sha256'][:16]}…)")
    return 0


def update_golden() -> int:
    digest = golden_digest()
    GOLDEN_PATH.write_text(json.dumps(digest, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH} ({digest['result_sha256'][:16]}…)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-golden", action="store_true",
        help="regenerate benchmarks/golden_hotpath.json instead of checking it",
    )
    args = parser.parse_args(argv[1:])
    return update_golden() if args.update_golden else check_golden()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
