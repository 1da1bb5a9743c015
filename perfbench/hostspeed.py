"""Host-speed calibration for the benchmark's host-time metrics.

On a shared host the same single-threaded replay runs 15% faster or
slower from one run to the next (same seed, same requests; process CPU
time moves with wall time, so the process is not descheduled: the core
itself changes speed).  A fixed reference loop timed around each
measured interval slows and speeds up with it, so the benchmark reports
host times scaled to the reference loop's nominal duration:
``scaled = measured * NOMINAL_S / reference``.  Both the raw and the
scaled figures go into the run record.
"""

from __future__ import annotations

import time

#: Median duration of :func:`reference_seconds` on the 2-CPU host the
#: benchmark was defined on; scaled figures are in that host's units.
NOMINAL_S = 0.006


class _Probe:
    """A small stateful object, as the simulator's layers are."""

    def __init__(self) -> None:
        self.table = [0] * 4096
        self.index: dict[int, tuple[int, int]] = {}
        self.total = 0

    def step(self, key: int) -> None:
        count = self.table[key] + 1
        self.table[key] = count
        self.index[key] = (key, count)
        previous = self.index.get(key ^ 1)
        if previous is not None:
            self.total += previous[1]


def reference_seconds() -> float:
    """Time a fixed loop of method calls, list, dict and tuple work."""
    probe = _Probe()
    step = probe.step
    start = time.perf_counter()
    for i in range(12_000):
        step((i * 7919) & 4095)
    return time.perf_counter() - start
