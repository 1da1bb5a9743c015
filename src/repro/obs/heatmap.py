"""Wear heatmaps: periodic binned snapshots of per-block erase counts.

The paper's Figures 5–7 are exactly this view — the *spatial* erase
distribution at points in time — so the simulator can attach a bounded
series of :class:`WearHeatmap` snapshots to ``SimResult`` instead of only
the end-of-run distribution.  Blocks are binned into a fixed-width grid
(``ceil(num_blocks / bins)`` blocks per cell) so the memory footprint is
independent of device size; each cell records the mean erase count of
its blocks, and the snapshot keeps global min/max for colour scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class WearHeatmap:
    """One binned snapshot of per-block wear at simulated time ``ts``."""

    ts: float                   #: simulated seconds at capture
    num_blocks: int             #: blocks summarised by the grid
    bin_width: int              #: blocks per cell (last cell may be short)
    cells: tuple[float, ...]    #: mean erase count per cell
    min_count: int              #: least-worn block's erase count
    max_count: int              #: most-worn block's erase count
    total_erases: int           #: sum over all blocks

    @classmethod
    def from_counts(cls, ts: float, counts: Sequence[int],
                    bins: int = 64) -> "WearHeatmap":
        """Bin ``counts`` (per-block erase counts) into at most ``bins`` cells."""
        if bins <= 0:
            raise ValueError("bins must be positive")
        num_blocks = len(counts)
        if num_blocks == 0:
            return cls(ts, 0, 1, (), 0, 0, 0)
        width = max(1, -(-num_blocks // bins))
        cells = tuple(
            round(sum(chunk) / len(chunk), 3)
            for chunk in (counts[i:i + width]
                          for i in range(0, num_blocks, width))
        )
        return cls(ts, num_blocks, width, cells,
                   min(counts), max(counts), sum(counts))

    @classmethod
    def from_bin_sums(
        cls,
        ts: float,
        *,
        num_blocks: int,
        bin_width: int,
        bin_sums: Sequence[int],
        min_count: int,
        max_count: int,
        total_erases: int,
    ) -> "WearHeatmap":
        """Build a snapshot from pre-aggregated per-bin erase-count sums.

        The O(bins) companion of :meth:`from_counts` for callers that
        keep the bin sums up to date per erase (see
        :class:`~repro.sim.metrics.WearAccumulator`).  Cell values are
        the same ``round(sum / size, 3)`` means — the sums are exact
        integers either way, so both constructors produce identical
        cells; the last cell covers the short tail
        ``num_blocks - (len(bin_sums) - 1) * bin_width``.
        """
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if num_blocks == 0:
            return cls(ts, 0, 1, (), 0, 0, 0)
        expected = -(-num_blocks // bin_width)
        if len(bin_sums) != expected:
            raise ValueError(
                f"expected {expected} bin sums for {num_blocks} blocks at "
                f"width {bin_width}, got {len(bin_sums)}"
            )
        tail = num_blocks - (len(bin_sums) - 1) * bin_width
        cells = tuple(
            round(total / (bin_width if i < len(bin_sums) - 1 else tail), 3)
            for i, total in enumerate(bin_sums)
        )
        return cls(ts, num_blocks, bin_width, cells,
                   min_count, max_count, total_erases)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form used by ``SimResult.as_dict``."""
        return {
            "ts": self.ts,
            "num_blocks": self.num_blocks,
            "bin_width": self.bin_width,
            "cells": list(self.cells),
            "min_count": self.min_count,
            "max_count": self.max_count,
            "total_erases": self.total_erases,
        }
