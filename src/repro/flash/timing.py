"""Datasheet timing models for NAND operations.

Paper Section 4.2 quotes a block erase time of "about 1.5 ms over a 1GB
MLC×2 flash memory", citing the STMicroelectronics NAND08Gx3C2A datasheet
[8].  This module encodes per-operation latencies: the MTD layer selects a
model and the chip charges it to its device-busy time.  The simulation
engine uses trace timestamps for wall-clock (first-failure) time, and
device-busy time is reported as an auxiliary overhead metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.geometry import CellType, FlashGeometry


@dataclass(frozen=True)
class TimingModel:
    """Per-operation latencies in seconds.

    ``read_page`` covers array-to-register sensing plus bus transfer;
    ``program_page`` covers bus transfer plus cell programming;
    ``erase_block`` is the block-erase pulse.
    """

    read_page: float
    program_page: float
    erase_block: float

    def __post_init__(self) -> None:
        for field_name in ("read_page", "program_page", "erase_block"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative, got {value}")

    def copy_page_time(self) -> float:
        """Time for one live-page copy (read + program, no copy-back)."""
        return self.read_page + self.program_page

    def time_for(self, op: str) -> float:
        """Per-operation latency by primitive name.

        ``op`` is one of ``"read"``, ``"program"``, ``"erase"`` — the
        three MTD primitives of paper Figure 1.  A convenience for
        reasoning about one operation's service time; the simulator
        itself only charges the fields directly, accumulating the chip's
        ``busy_time``.
        """
        if op == "read":
            return self.read_page
        if op == "program":
            return self.program_page
        if op == "erase":
            return self.erase_block
        raise ValueError(
            f"unknown operation {op!r}; expected 'read', 'program', or 'erase'"
        )


#: Large-block SLC figures (typical 2005-era datasheet values).
SLC_TIMING = TimingModel(
    read_page=25e-6 + 60e-6,     # 25 us sense + ~60 us bus at 2 KB
    program_page=200e-6 + 60e-6,
    erase_block=1.5e-3,
)

#: MLC×2 figures per the NAND08Gx3C2A datasheet the paper cites: slower
#: program, ~1.5 ms erase (Section 4.2).
MLC2_TIMING = TimingModel(
    read_page=60e-6 + 60e-6,
    program_page=800e-6 + 60e-6,
    erase_block=1.5e-3,
)


def timing_for(geometry: FlashGeometry) -> TimingModel:
    """Pick the default timing model for a geometry's cell type."""
    if geometry.cell_type is CellType.MLC2:
        return MLC2_TIMING
    return SLC_TIMING
