"""Worst-case overhead analysis — paper Sections 4.2-4.3, Tables 2-3.

The worst case for static wear leveling (Figure 4): a chip of ``H + C``
blocks where ``H - 1`` blocks hold hot data, ``C`` blocks hold cold
(static) data, one block is free, and hot updates land only on the hot
blocks and the free block (k = 0).  In one resetting interval the hot
traffic causes ``T * (H + C) - C`` regular erases while SWL-Procedure
recycles each cold block exactly once, giving:

* increased block-erase ratio  ``C / (T*(H+C) - C)``            (Table 2)
* increased live-copy ratio    ``C*N / ((T*(H+C) - C) * L)``    (Table 3)

with ``N`` pages per block and ``L`` average live pages copied per
regular hot-block erase.  Both tables are reproduced exactly, including
the paper's ``~`` approximations when ``T*(H+C) >> C``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorstCaseConfig:
    """One row of the worst-case scenario of paper Figure 4.

    ``hot_blocks`` is the paper's ``H`` (``H - 1`` hot blocks plus the one
    free block); ``cold_blocks`` is ``C``; ``threshold`` is ``T``.
    """

    hot_blocks: int
    cold_blocks: int
    threshold: float

    def __post_init__(self) -> None:
        if self.hot_blocks < 1:
            raise ValueError(f"H must be >= 1, got {self.hot_blocks}")
        if self.cold_blocks < 1:
            raise ValueError(f"C must be >= 1, got {self.cold_blocks}")
        if self.threshold <= 0:
            raise ValueError(f"T must be positive, got {self.threshold}")

    @property
    def total_blocks(self) -> int:
        return self.hot_blocks + self.cold_blocks

    # ------------------------------------------------------------------
    # Section 4.2: extra block erases
    # ------------------------------------------------------------------
    def erases_per_interval(self) -> float:
        """Total block erases in one resetting interval: ``T * (H + C)``."""
        return self.threshold * self.total_blocks

    def extra_erase_ratio(self) -> float:
        """Exact increased ratio of block erases: ``C / (T*(H+C) - C)``."""
        return self.cold_blocks / (
            self.erases_per_interval() - self.cold_blocks
        )

    def extra_erase_ratio_approx(self) -> float:
        """Paper's approximation ``C / (T*(H+C))`` for ``T*(H+C) >> C``."""
        return self.cold_blocks / self.erases_per_interval()

    # ------------------------------------------------------------------
    # Section 4.3: extra live-page copyings
    # ------------------------------------------------------------------
    def extra_copy_ratio(self, pages_per_block: int, live_pages_per_erase: float) -> float:
        """Exact increased ratio of live-page copyings.

        ``C*N`` pages are copied by SWL per interval against
        ``(T*(H+C) - C) * L`` regular copies.
        """
        if pages_per_block <= 0:
            raise ValueError(f"N must be positive, got {pages_per_block}")
        if live_pages_per_erase <= 0:
            raise ValueError(f"L must be positive, got {live_pages_per_erase}")
        regular = (self.erases_per_interval() - self.cold_blocks) * live_pages_per_erase
        return (self.cold_blocks * pages_per_block) / regular


#: The (H, C, T) rows of paper Table 2 (1 GB MLC×2 = 4,096 blocks).
TABLE2_CONFIGS = (
    WorstCaseConfig(256, 3840, 100),
    WorstCaseConfig(2048, 2048, 100),
    WorstCaseConfig(256, 3840, 1000),
    WorstCaseConfig(2048, 2048, 1000),
)

#: Pages per block of the paper's MLC×2 part (N = 128 in Table 3).
TABLE3_PAGES_PER_BLOCK = 128

#: The (H, C, T, L) rows of paper Table 3.
TABLE3_CONFIGS = (
    (WorstCaseConfig(256, 3840, 100), 16),
    (WorstCaseConfig(2048, 2048, 100), 16),
    (WorstCaseConfig(256, 3840, 100), 32),
    (WorstCaseConfig(2048, 2048, 100), 32),
    (WorstCaseConfig(256, 3840, 1000), 16),
    (WorstCaseConfig(2048, 2048, 1000), 16),
    (WorstCaseConfig(256, 3840, 1000), 32),
    (WorstCaseConfig(2048, 2048, 1000), 32),
)


def table2() -> list[list[object]]:
    """Regenerate paper Table 2 (increased ratio of block erases)."""
    rows: list[list[object]] = []
    for config in TABLE2_CONFIGS:
        ratio_h_c = f"1:{config.cold_blocks // config.hot_blocks}"
        rows.append(
            [
                config.hot_blocks,
                config.cold_blocks,
                ratio_h_c,
                int(config.threshold),
                f"{100 * config.extra_erase_ratio():.3f}%",
            ]
        )
    return rows


def table3() -> list[list[object]]:
    """Regenerate paper Table 3 (increased ratio of live-page copyings)."""
    rows: list[list[object]] = []
    n = TABLE3_PAGES_PER_BLOCK
    for config, live in TABLE3_CONFIGS:
        rows.append(
            [
                config.hot_blocks,
                config.cold_blocks,
                f"1:{config.cold_blocks // config.hot_blocks}",
                int(config.threshold),
                live,
                round(n / (config.threshold * live), 4),
                f"{100 * config.extra_copy_ratio(n, live):.3f}%",
            ]
        )
    return rows
