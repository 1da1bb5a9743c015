"""FTL — the page-level mapping Flash Translation Layer (paper Section 2.2).

"FTL adopts a page-level address translation mechanism for fine-grained
address translation" (Figure 2(a)): a RAM table maps each logical page to
the physical (block, page) holding its current data.  Updates are
out-place: the new content goes to a free page and the old page is marked
invalid.  When free space runs low, the Cleaner reclaims blocks with the
greedy cost-benefit policy of Section 5.1, copying live pages out first.

Implementation notes
--------------------
* Three write frontiers are kept — host writes, Cleaner copies, and
  SW-Leveler cold moves — so hot, reclaimed, and cold data never share a
  destination block (see DESIGN.md, cold-data destination separation).
* Per-block valid/invalid page counts are kept current on every page-state
  change, making victim scoring O(1) per probe.
* Dynamic wear leveling (which the paper's baseline Cleaner already has,
  Section 1) selects the least-worn block among qualifying GC victims and
  among fully-invalid blocks reclaimed on demand.
* Free blocks are reused most-recently-freed first by default (see
  :mod:`repro.ftl.allocator` for the policy choice and its rationale).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.flash.chip import PAGE_FREE, PAGE_VALID
from repro.flash.errors import OutOfSpaceError, ProgramFaultError
from repro.flash.mtd import MtdDevice
from repro.ftl.allocator import BlockAllocator
from repro.ftl.base import DEFAULT_OP_RATIO, GC_FREE_FRACTION, TranslationLayer
from repro.ftl.cleaner import CyclicScanner, GreedyScore
from repro.obs.bus import M_RECOVERY
from repro.obs.events import Recovery
from repro.util.diagnostics import fault_log

_UNMAPPED = -1


def _frontier_copy(frontier: list[int] | None) -> list[int] | None:
    """A detached ``[block, next page]`` (frontiers advance in place)."""
    if frontier is None:
        return None
    block, page = frontier
    return [block, page]


class PageMappingFTL(TranslationLayer):
    """Fine-grained (page-level) translation layer.

    Parameters are those of :class:`~repro.ftl.base.TranslationLayer`.
    The logical space is the physical space minus the reserved blocks
    (``op_ratio`` of the chip, floored at the Cleaner's working minimum).
    """

    name = "FTL"

    def __init__(
        self,
        mtd: MtdDevice,
        *,
        op_ratio: float = DEFAULT_OP_RATIO,
        gc_free_fraction: float = GC_FREE_FRACTION,
        alloc_policy: str = "lifo",
        retire_worn: bool = False,
    ) -> None:
        super().__init__(
            mtd,
            op_ratio=op_ratio,
            gc_free_fraction=gc_free_fraction,
            alloc_policy=alloc_policy,
            retire_worn=retire_worn,
        )
        geometry = self.geometry
        self._num_logical_pages = (
            geometry.num_blocks - self._reserve_blocks()
        ) * geometry.pages_per_block

        # Address translation table (Figure 2(a)) and its inverse.
        self._l2p = [_UNMAPPED] * self._num_logical_pages
        self._p2l = [_UNMAPPED] * geometry.total_pages
        # Incremental per-block page-state counts for O(1) victim scoring.
        self._valid = [0] * geometry.num_blocks
        self._invalid = [0] * geometry.num_blocks

        self.allocator = BlockAllocator(
            mtd.erase_counts, list(range(geometry.num_blocks)),
            policy=alloc_policy,
        )
        self.scanner = CyclicScanner(geometry.num_blocks)
        # Write frontiers: [block, next free page] or None when closed,
        # advanced in place by the page path.  Host writes, Cleaner
        # copies, and SW-Leveler cold moves each get their own frontier
        # so hot, reclaimed, and cold data never share a block — mixing
        # cold pages into the Cleaner's destination would make every
        # later collection re-copy them.
        self._host_frontier: list[int] | None = None
        self._copy_frontier: list[int] | None = None
        self._cold_frontier: list[int] | None = None
        # Blocks that suffered a program fault, awaiting relocation and
        # retirement at the next safe point (end of the host write).
        self._pending_retire: list[int] = []
        self._retiring = False

    # ------------------------------------------------------------------
    # Logical space
    # ------------------------------------------------------------------
    @property
    def num_logical_pages(self) -> int:
        return self._num_logical_pages

    def mapping_of(self, lpn: int) -> tuple[int, int] | None:
        """Physical (block, page) of ``lpn``, or ``None`` when unmapped."""
        self.check_lpn(lpn)
        index = self._l2p[lpn]
        if index == _UNMAPPED:
            return None
        return self.geometry.page_address(index)

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------
    # Host reads and writes are the page path's straight-line code: the
    # range check, the open-frontier program and the invalidation of the
    # old copy run inline, one chip frame per page operation.  A full or
    # faulted frontier falls into :meth:`_write_with_recovery`.
    def read(self, lpn: int) -> bytes | None:
        if not 0 <= lpn < self._num_logical_pages:
            raise self._lpn_error(lpn)
        self.stats.host_reads += 1
        index = self._l2p[lpn]
        if index == _UNMAPPED:
            return None
        _, payload = self.mtd.read_page(*divmod(index, self._ppb))
        return payload

    def write(self, lpn: int, data: bytes | None = None) -> None:
        """Out-place update: program a free page, invalidate the old copy."""
        if not 0 <= lpn < self._num_logical_pages:
            raise self._lpn_error(lpn)
        self.stats.host_writes += 1
        ppb = self._ppb
        frontier = self._host_frontier
        if frontier is not None and frontier[1] < ppb:
            block, page = frontier
            frontier[1] = page + 1
            try:
                self.mtd.write_page(block, page, lba=lpn, data=data)
            except ProgramFaultError:
                self._on_program_fault(block, "host")
                block, page = self._write_with_recovery(
                    self._next_host_page, "host", lpn, data
                )
        else:
            block, page = self._write_with_recovery(
                self._next_host_page, "host", lpn, data
            )
        # Read the old location only *after* the program landed: garbage
        # collection inside the frontier advance may have relocated it.
        l2p, p2l = self._l2p, self._p2l
        old = l2p[lpn]
        self._valid[block] += 1
        index = block * ppb + page
        p2l[index] = lpn
        l2p[lpn] = index
        if old != _UNMAPPED:
            old_block, old_page = divmod(old, ppb)
            self.mtd.invalidate_page(old_block, old_page)
            p2l[old] = _UNMAPPED
            self._valid[old_block] -= 1
            self._invalid[old_block] += 1
        if self._pending_retire:
            self._process_pending_retirements()

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------
    def _write_with_recovery(
        self,
        next_page: Callable[[], tuple[int, int]],
        kind: str,
        lba: int,
        data: bytes | None,
    ) -> tuple[int, int]:
        """Program ``(lba, data)`` on the ``kind`` frontier, surviving faults.

        ``next_page`` is that frontier's advance (it opens a fresh block
        when the frontier is closed or full).  A
        :class:`ProgramFaultError` leaves the attempted page invalid on
        the chip; the faulted block's frontier is closed, the block is
        queued for retirement, and the write re-issues on a fresh page —
        the paper-era firmware response to a grown-bad block.
        """
        for _ in range(self.geometry.total_pages):
            block, page = next_page()
            try:
                self.mtd.write_page(block, page, lba=lba, data=data)
            except ProgramFaultError:
                self._on_program_fault(block, kind)
                continue
            return block, page
        raise OutOfSpaceError(
            "every candidate destination page failed to program"
        )

    def _on_program_fault(self, block: int, kind: str) -> None:
        """Bookkeeping after a failed program: the chip already marked the
        attempted page invalid and counted the program."""
        self.stats.program_faults += 1
        self._invalid[block] += 1
        if kind == "host":
            self._host_frontier = None
        elif kind == "copy":
            self._copy_frontier = None
        else:
            self._cold_frontier = None
        if block not in self._failed_blocks and block not in self.retired_blocks:
            self._failed_blocks.add(block)
            self._pending_retire.append(block)
            fault_log.info(
                "FTL: program fault on block %d (%s frontier); "
                "block scheduled for retirement", block, kind,
            )
        if self._obs is not None and self._obs.mask & M_RECOVERY:
            self._obs.emit(Recovery("reissue", block))

    def _process_pending_retirements(self) -> None:
        """Relocate and retire program-faulted blocks.

        Deferred to the end of the host write — a safe point where no
        relocation is in flight — so recovery never recurses into itself.
        A block the Cleaner already swept up in the meantime is skipped.
        """
        if self._retiring or not self._pending_retire:
            return
        self._retiring = True
        try:
            while self._pending_retire:
                block = self._pending_retire.pop()
                if block in self.retired_blocks:
                    continue
                for attr in ("_host_frontier", "_copy_frontier",
                             "_cold_frontier"):
                    frontier = getattr(self, attr)
                    if frontier is not None and frontier[0] == block:
                        setattr(self, attr, None)
                copies_before = self.stats.live_page_copies
                with self._leveler_suspended(), \
                        self._gc_traced("recovery", block):
                    self._relocate_and_erase(block)
                self.stats.recovery_copies += (
                    self.stats.live_page_copies - copies_before
                )
        finally:
            self._retiring = False

    def _next_host_page(self) -> tuple[int, int]:
        """Next free page on the host frontier, opening a new block if full."""
        frontier = self._host_frontier
        if frontier is None or frontier[1] == self._ppb:
            self._reclaim_space()
            self._recycle_dead_block()
            frontier = self._host_frontier = [self.allocator.allocate(), 0]
        block, page = frontier
        frontier[1] = page + 1
        return block, page

    def _recycle_dead_block(self) -> None:
        """Erase-on-demand: reclaim one fully-invalid block, if any.

        Firmware of the paper's era erases reclaimable units lazily when a
        new block is needed, so steady-state churn reuses its own dead
        blocks instead of consuming untouched ones — which is what leaves
        the cold majority of the chip at near-zero erase counts in the
        paper's baselines (Table 4).  The least-worn dead block is chosen
        (the dynamic wear leveling of Section 1); copy-based garbage
        collection still engages at the Section 5.1 free-space trigger.
        Under LIFO allocation the reclaimed block is allocated next.
        """
        frontiers = self._frontier_blocks()
        ppb = self._ppb
        # Everything the score reads is loop-invariant across one scan
        # revolution; bind it locally so the per-probe work is membership
        # tests and two list reads.
        in_free = self.allocator.contains
        valid, invalid = self._valid, self._invalid

        def dead_score(block: int) -> GreedyScore | None:
            if in_free(block) or block in frontiers:
                return None
            if valid[block] or invalid[block] != ppb:
                return None
            return GreedyScore(benefit=ppb, cost=0)

        victim = self.scanner.find_least_worn(
            dead_score, self.mtd.erase_counts.__getitem__
        )
        if victim is not None:
            self.stats.dead_recycles += 1
            with self._leveler_suspended(), self._gc_traced("dead", victim):
                self._relocate_and_erase(victim)

    def _next_copy_page(self) -> tuple[int, int]:
        """Next free page on the copy frontier (no recursive GC here:
        the Cleaner's trigger threshold guarantees a free block exists)."""
        frontier = self._copy_frontier
        if frontier is None or frontier[1] == self._ppb:
            frontier = self._copy_frontier = [self.allocator.allocate(), 0]
        block, page = frontier
        frontier[1] = page + 1
        return block, page

    def _next_cold_page(self) -> tuple[int, int]:
        """Next free page on the cold frontier (SW-Leveler relocations)."""
        frontier = self._cold_frontier
        if frontier is None or frontier[1] == self._ppb:
            frontier = self._cold_frontier = [self.allocator.allocate(), 0]
        block, page = frontier
        frontier[1] = page + 1
        return block, page

    def _frontier_blocks(self) -> set[int]:
        blocks = set()
        for frontier in (self._host_frontier, self._copy_frontier,
                         self._cold_frontier):
            if frontier is not None:
                blocks.add(frontier[0])
        return blocks

    def _reclaim_space(self) -> None:
        """Run the Cleaner until the free pool is above the trigger level.

        Paper Section 5.1: "The Cleaners in FTL and NFTL were triggered for
        garbage collection when the percentage of free blocks was under
        0.2% of the entire flash-memory capacity."
        """
        if self.allocator.free_count > self.gc_free_blocks:
            return
        with self._leveler_suspended():
            while self.allocator.free_count <= self.gc_free_blocks:
                self._gc_once()

    def _score_block(self, block: int) -> GreedyScore | None:
        if (
            self.allocator.contains(block)
            or block in self.retired_blocks
            or block in self._frontier_blocks()
        ):
            return None
        return GreedyScore(benefit=self._invalid[block], cost=self._valid[block])

    def _gc_once(self) -> None:
        """One Cleaner pass: recycle the least-worn qualifying victim.

        Victims qualify by the greedy cost-benefit rule; among them the
        block with the smallest erase count wins — the baseline dynamic
        wear leveling of paper Section 5.1.

        The score closure below is :meth:`_score_block` with the
        loop-invariant lookups (frontier set, pool membership, page
        tallies) hoisted out of the per-probe path — the scanner calls it
        once per block per revolution.
        """
        frontiers = self._frontier_blocks()
        retired = self.retired_blocks
        in_free = self.allocator.contains
        valid, invalid = self._valid, self._invalid

        def score(block: int) -> GreedyScore | None:
            if in_free(block) or block in retired or block in frontiers:
                return None
            return GreedyScore(benefit=invalid[block], cost=valid[block])

        victim = self.scanner.find_least_worn(
            score, self.mtd.erase_counts.__getitem__
        )
        if victim is None:
            victim = self.scanner.find_best_fallback(score)
        if victim is None:
            raise OutOfSpaceError(
                "garbage collection found no block with reclaimable pages; "
                "the logical space is too large for the physical space"
            )
        self.stats.gc_runs += 1
        with self._gc_traced("free-space", victim):
            self._relocate_and_erase(victim)

    def _relocate_and_erase(self, block: int, *, cold: bool = False) -> None:
        """Copy every live page out of ``block``, erase it, pool it.

        ``cold=True`` routes the copies to the dedicated cold frontier
        (SW-Leveler moves), keeping relocated cold data out of the
        Cleaner's destination blocks.

        The copy loop is page-path code like :meth:`write`: a copy is one
        chip read and, while the destination frontier is open, one chip
        program; a full or faulted frontier falls into
        :meth:`_write_with_recovery`.
        """
        kind = "cold" if cold else "copy"
        next_page = self._next_cold_page if cold else self._next_copy_page
        mtd = self.mtd
        ppb = self._ppb
        p2l, l2p, valid = self._p2l, self._l2p, self._valid
        base = block * ppb
        for page in range(ppb):
            lpn = p2l[base + page]
            if lpn == _UNMAPPED:
                continue
            lba, payload = mtd.read_page(block, page)
            frontier = self._cold_frontier if cold else self._copy_frontier
            if frontier is not None and frontier[1] < ppb:
                dest_block, dest_page = frontier
                frontier[1] = dest_page + 1
                try:
                    mtd.write_page(dest_block, dest_page, lba=lba, data=payload)
                except ProgramFaultError:
                    self._on_program_fault(dest_block, kind)
                    dest_block, dest_page = self._write_with_recovery(
                        next_page, kind, lba, payload
                    )
            else:
                dest_block, dest_page = self._write_with_recovery(
                    next_page, kind, lba, payload
                )
            self.stats.live_page_copies += 1
            dest_index = dest_block * ppb + dest_page
            p2l[base + page] = _UNMAPPED
            p2l[dest_index] = lpn
            l2p[lpn] = dest_index
            valid[dest_block] += 1
            valid[block] -= 1
        self._erase_with_recovery(block)
        self._valid[block] = 0
        self._invalid[block] = 0
        self._release_or_retire(block)

    # ------------------------------------------------------------------
    # SW Leveler host interface (EraseBlockSet)
    # ------------------------------------------------------------------
    def recycle_block_range(self, blocks: range) -> int:
        """Force-recycle the selected block set so cold data moves.

        Free blocks are skipped (nothing cold lives there); a frontier
        block is closed first so its live pages relocate like any other.
        Address translation updates happen exactly as in normal garbage
        collection, per paper Section 3.1.
        """
        recycled = 0
        with self._leveler_suspended():
            for block in blocks:
                if block in self.retired_blocks:
                    continue  # out of service; the leveler flags the set
                if self.allocator.contains(block):
                    # Nothing cold to move, but pull the (possibly virgin)
                    # block to the head of the free order so it joins the
                    # write rotation; the leveler flags the set directly.
                    self.allocator.promote(block)
                    continue
                if self._host_frontier is not None and block == self._host_frontier[0]:
                    self._host_frontier = None
                if self._copy_frontier is not None and block == self._copy_frontier[0]:
                    self._copy_frontier = None
                if self._cold_frontier is not None and block == self._cold_frontier[0]:
                    self._cold_frontier = None
                with self._gc_traced("swl", block):
                    self._relocate_and_erase(block, cold=True)
                self.stats.forced_recycles += 1
                recycled += 1
        return recycled

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Driver-common state plus the page-level mapping tables."""
        state = super().snapshot_state()
        state.update({
            "num_logical_pages": self._num_logical_pages,
            "l2p": list(self._l2p),
            "p2l": list(self._p2l),
            "valid": list(self._valid),
            "invalid": list(self._invalid),
            "scanner": self.scanner.snapshot_state(),
            "host_frontier": _frontier_copy(self._host_frontier),
            "copy_frontier": _frontier_copy(self._copy_frontier),
            "cold_frontier": _frontier_copy(self._cold_frontier),
            "pending_retire": list(self._pending_retire),
        })
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        if state["num_logical_pages"] != self._num_logical_pages:
            raise ValueError(
                f"FTL snapshot exports {state['num_logical_pages']} logical "
                f"pages, driver exports {self._num_logical_pages}"
            )
        super().restore_state(state)
        self._l2p = list(state["l2p"])  # type: ignore[arg-type]
        self._p2l = list(state["p2l"])  # type: ignore[arg-type]
        self._valid = list(state["valid"])  # type: ignore[arg-type]
        self._invalid = list(state["invalid"])  # type: ignore[arg-type]
        self.scanner.restore_state(state["scanner"])  # type: ignore[arg-type]
        self._host_frontier = _frontier_copy(state["host_frontier"])  # type: ignore[arg-type]
        self._copy_frontier = _frontier_copy(state["copy_frontier"])  # type: ignore[arg-type]
        self._cold_frontier = _frontier_copy(state["cold_frontier"])  # type: ignore[arg-type]
        self._pending_retire = list(state["pending_retire"])  # type: ignore[arg-type]
        self._retiring = False

    # ------------------------------------------------------------------
    # Attach-time recovery (Figure 2(a): the table lives in RAM)
    # ------------------------------------------------------------------
    def rebuild_mapping(self) -> int:
        """Reconstruct the translation table from spare-area tags.

        Scans every page's spare LBA tag and state — what a real FTL does
        when the device is attached and its RAM table is gone.  Returns the
        number of mappings recovered.  Frontiers are closed; free blocks
        are re-pooled.

        Crash hardening: blocks in the chip's bad-block table are excluded
        from service, and a logical page found on two physical pages — a
        power loss between a Cleaner copy and the source-block erase — is
        resolved by invalidating the earlier-seen copy (both hold identical
        content, so either is correct).
        """
        geometry = self.geometry
        flash = self.mtd.flash
        self._l2p = [_UNMAPPED] * self._num_logical_pages
        self._p2l = [_UNMAPPED] * geometry.total_pages
        self._valid = [0] * geometry.num_blocks
        self._invalid = [0] * geometry.num_blocks
        self.retired_blocks = set(flash.bad_blocks)
        self._failed_blocks = set()
        self._pending_retire = []
        free_blocks: list[int] = []
        recovered = 0
        for block in range(geometry.num_blocks):
            if block in self.retired_blocks:
                continue
            states = flash.block_page_states(block)
            if states.count(PAGE_FREE) == len(states):
                free_blocks.append(block)
                continue
            for page, state in enumerate(states):
                if state != PAGE_VALID:
                    if state != PAGE_FREE:
                        self._invalid[block] += 1
                    continue
                lpn = flash.page_lba(block, page)
                index = geometry.page_index(block, page)
                if 0 <= lpn < self._num_logical_pages:
                    prev = self._l2p[lpn]
                    if prev != _UNMAPPED:
                        prev_block, prev_page = geometry.page_address(prev)
                        self.mtd.invalidate_page(prev_block, prev_page)
                        self._p2l[prev] = _UNMAPPED
                        self._valid[prev_block] -= 1
                        self._invalid[prev_block] += 1
                        recovered -= 1
                        fault_log.debug(
                            "rebuild: duplicate copy of lpn %d at "
                            "(%d, %d) superseded", lpn, prev_block, prev_page,
                        )
                    self._l2p[lpn] = index
                    self._p2l[index] = lpn
                    self._valid[block] += 1
                    recovered += 1
        self.allocator = BlockAllocator(
            self.mtd.erase_counts, free_blocks, policy=self.alloc_policy
        )
        self._host_frontier = None
        self._copy_frontier = None
        self._cold_frontier = None
        return recovered

    # ------------------------------------------------------------------
    # Invariants (crash-consistency harness)
    # ------------------------------------------------------------------
    def assert_internal_consistency(self) -> None:
        """Cross-check the RAM tables against the chip's page states.

        Raises :class:`AssertionError` on the first discrepancy.  Used by
        the crash-consistency harness after every simulated reboot.
        """
        geometry = self.geometry
        flash = self.mtd.flash
        free = set(self.allocator.free_blocks())
        overlap = free & self.retired_blocks
        if overlap:
            raise AssertionError(
                f"retired blocks present in the free pool: {sorted(overlap)}"
            )
        for lpn, index in enumerate(self._l2p):
            if index == _UNMAPPED:
                continue
            if self._p2l[index] != lpn:
                raise AssertionError(
                    f"l2p/p2l disagree for lpn {lpn}: p2l[{index}] = "
                    f"{self._p2l[index]}"
                )
            block, page = geometry.page_address(index)
            if flash.block_page_states(block)[page] != PAGE_VALID:
                raise AssertionError(
                    f"lpn {lpn} maps to non-valid page ({block}, {page})"
                )
        for block in range(geometry.num_blocks):
            if block in self.retired_blocks:
                continue
            valid = flash.block_page_states(block).count(PAGE_VALID)
            if valid != self._valid[block]:
                raise AssertionError(
                    f"block {block}: chip holds {valid} valid pages, "
                    f"driver believes {self._valid[block]}"
                )
