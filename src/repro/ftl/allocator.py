"""Free-block allocation policies.

The paper fixes the Cleaner's victim-selection policy (Section 5.1) but
not the free-block *allocation* policy.  Two policies are provided:

* ``"lifo"`` (default) — released blocks are reused most-recently-freed
  first, the common firmware free-list behaviour of the era.  Blocks the
  workload never needs stay buried: exactly the baseline the paper's
  Table 4 shows, where roughly two thirds of all blocks end a ten-year
  run with near-zero erase counts.  The SW Leveler is what pulls those
  blocks into rotation (via :meth:`BlockAllocator.promote`).
* ``"min-wear"`` — every allocation takes the least-worn free block, a
  stronger allocation-side dynamic wear leveling found in modern FTLs.
  It narrows (but does not close) the gap the SW Leveler addresses; the
  ``bench_ablation_allocator`` benchmark quantifies the difference.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.flash.errors import OutOfSpaceError

ALLOCATION_POLICIES = ("lifo", "min-wear")


class BlockAllocator:
    """Free-block pool with a pluggable allocation order.

    Parameters
    ----------
    erase_counts:
        Live per-block erase-count list (shared with the chip; read-only
        here).  Used by the ``min-wear`` policy.
    initial_free:
        Blocks that start in the pool (every block on a fresh chip).
    policy:
        ``"lifo"`` (default) or ``"min-wear"``.
    """

    def __init__(
        self,
        erase_counts: list[int],
        initial_free: list[int],
        *,
        policy: str = "lifo",
    ) -> None:
        if policy not in ALLOCATION_POLICIES:
            raise ValueError(
                f"unknown allocation policy {policy!r}; "
                f"choose from {ALLOCATION_POLICIES}"
            )
        self.policy = policy
        self._erase_counts = erase_counts
        self._free: set[int] = set()
        #: ``contains(block)``: ``True`` when ``block`` is in the free
        #: pool.  It is the pool set's own membership test, so the
        #: Cleaner's per-block victim scans pay no Python frame for it;
        #: the set is therefore only ever mutated in place.
        self.contains: Callable[[int], bool] = self._free.__contains__
        self._heap: list[tuple[int, int]] = []
        self._stack: list[int] = []
        for block in initial_free:
            self.release(block)

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Number of blocks currently available."""
        return len(self._free)

    def allocate(self) -> int:
        """Remove and return the next free block per the policy.

        Raises :class:`~repro.flash.errors.OutOfSpaceError` when empty —
        callers must garbage collect *before* the pool drains.
        """
        if self.policy == "lifo":
            return self._allocate_lifo()
        return self._allocate_min_wear()

    def _allocate_lifo(self) -> int:
        while self._stack:
            block = self._stack.pop()
            if block in self._free:
                self._free.discard(block)
                return block
        raise OutOfSpaceError("free-block pool is empty")

    def _allocate_min_wear(self) -> int:
        while self._heap:
            wear_at_release, block = heapq.heappop(self._heap)
            if block not in self._free:
                continue  # stale entry from an earlier release
            if wear_at_release != self._erase_counts[block]:
                # Re-key: the block aged while pooled; push back with the
                # current wear.
                heapq.heappush(self._heap, (self._erase_counts[block], block))
                continue
            self._free.discard(block)
            return block
        raise OutOfSpaceError("free-block pool is empty")

    def release(self, block: int) -> None:
        """Return an erased block to the pool."""
        if block in self._free:
            raise ValueError(f"block {block} is already free")
        self._free.add(block)
        if self.policy == "lifo":
            self._stack.append(block)
        else:
            heapq.heappush(self._heap, (self._erase_counts[block], block))

    def promote(self, block: int) -> None:
        """Make a pooled block the next allocation candidate.

        The SW Leveler calls this when EraseBlockSet selects a block set
        that is already free: instead of erasing an empty block for
        nothing, the block is pulled to the head of the free order so it
        joins the write rotation immediately.  Under ``min-wear`` the
        pool already prefers unworn blocks, so this is a no-op.
        """
        if block not in self._free:
            raise ValueError(f"block {block} is not free")
        if self.policy == "lifo":
            self._stack.append(block)  # newest entry wins; older are stale

    def reclaim(self, block: int) -> None:
        """Remove a specific block from the pool (repurposing a pooled
        block, e.g. when rebuilding driver state at attach time)."""
        if block not in self._free:
            raise ValueError(f"block {block} is not free")
        self._free.discard(block)

    def free_blocks(self) -> set[int]:
        """Snapshot of the pooled block numbers."""
        return set(self._free)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """JSON-friendly snapshot of the pool.

        The LIFO stack and the min-wear heap are serialized in their
        exact list order — both legitimately contain stale entries (from
        :meth:`promote` and re-keying), and allocation order is part of
        the replay-determinism contract.
        """
        return {
            "policy": self.policy,
            "free": sorted(self._free),
            "stack": list(self._stack),
            "heap": [[wear, block] for wear, block in self._heap],
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Overwrite the pool in place from :meth:`snapshot_state`.

        ``_erase_counts`` stays untouched: it is the live list shared
        with the chip, which the caller restores separately.
        """
        if state["policy"] != self.policy:
            raise ValueError(
                f"allocator snapshot policy {state['policy']!r} does not "
                f"match {self.policy!r}"
            )
        self._free.clear()
        self._free.update(state["free"])  # type: ignore[arg-type]
        self._stack = list(state["stack"])  # type: ignore[arg-type]
        self._heap = [(wear, block) for wear, block in state["heap"]]  # type: ignore[union-attr]

    def __repr__(self) -> str:
        return f"BlockAllocator(policy={self.policy!r}, free={self.free_count})"
