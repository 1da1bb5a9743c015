"""Tests for the page-mapping FTL (paper Section 2.2, Figure 2(a))."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.chip import PAGE_INVALID, PAGE_VALID, NandFlash
from repro.flash.errors import TranslationError
from repro.flash.geometry import FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.page_mapping import PageMappingFTL


def make_ftl(geometry, **kwargs):
    chip = NandFlash(geometry, store_data=True)
    return PageMappingFTL(MtdDevice(chip), **kwargs), chip


class TestAddressTranslation:
    def test_unwritten_reads_none(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        assert ftl.read(0) is None
        assert ftl.mapping_of(0) is None

    def test_write_then_read(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        ftl.write(5, data=b"five")
        assert ftl.read(5) == b"five"
        assert ftl.mapping_of(5) is not None

    def test_out_place_update(self, small_geometry):
        # Figure 2(a): updated data goes to a new page; the old one turns
        # invalid and the table entry moves.
        ftl, chip = make_ftl(small_geometry)
        ftl.write(5, data=b"v1")
        first = ftl.mapping_of(5)
        ftl.write(5, data=b"v2")
        second = ftl.mapping_of(5)
        assert first != second
        assert ftl.read(5) == b"v2"
        assert chip.page_state(*first) == PAGE_INVALID
        assert chip.page_state(*second) == PAGE_VALID

    def test_lpn_range_checked(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        with pytest.raises(TranslationError):
            ftl.write(ftl.num_logical_pages)
        with pytest.raises(TranslationError):
            ftl.read(-1)

    def test_range_check_runs_before_any_device_work(self, small_geometry):
        # The inlined host-path check rejects both ends of the range and
        # touches neither the chip nor the host-write counter.
        ftl, chip = make_ftl(small_geometry)
        with pytest.raises(TranslationError, match="out of range"):
            ftl.write(-1)
        with pytest.raises(TranslationError, match="out of range"):
            ftl.read(ftl.num_logical_pages)
        assert ftl.stats.host_writes == 0
        assert ftl.stats.host_reads == 0
        assert chip.counters.programs == 0
        assert ftl.mtd.busy_time == 0.0

    def test_logical_space_reserves_blocks(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        assert ftl.num_logical_pages < small_geometry.total_pages
        assert ftl.num_logical_pages % small_geometry.pages_per_block == 0


class TestGarbageCollection:
    def test_space_reclaimed_under_pressure(self, small_geometry):
        ftl, chip = make_ftl(small_geometry)
        rng = random.Random(1)
        hot = list(range(16))
        for _ in range(2000):
            ftl.write(rng.choice(hot))
        assert chip.counters.erases > 0
        # A pure overwrite workload reclaims via erase-on-demand of fully
        # invalid blocks; copy-based GC stays idle.
        assert ftl.stats.dead_recycles + ftl.stats.gc_runs > 0
        assert ftl.allocator.free_count >= 1

    def test_copy_gc_engages_when_no_dead_blocks(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        rng = random.Random(7)
        # Scatter writes over the whole space so blocks stay mixed
        # valid/invalid and only copy-based GC can reclaim.
        for _ in range(4000):
            ftl.write(rng.randrange(ftl.num_logical_pages))
        assert ftl.stats.gc_runs > 0
        assert ftl.stats.live_page_copies > 0

    def test_gc_preserves_all_data(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        rng = random.Random(2)
        expected = {}
        for step in range(3000):
            lpn = rng.randrange(ftl.num_logical_pages // 2)
            payload = step.to_bytes(4, "little")
            ftl.write(lpn, data=payload)
            expected[lpn] = payload
        for lpn, payload in expected.items():
            assert ftl.read(lpn) == payload

    def test_stats_track_copies(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        rng = random.Random(3)
        # Mixed hot/cold so victims carry live pages.
        for step in range(4000):
            if rng.random() < 0.3:
                ftl.write(rng.randrange(ftl.num_logical_pages))
            else:
                ftl.write(rng.randrange(8))
        assert ftl.stats.live_page_copies > 0
        assert ftl.stats.host_writes == 4000


class TestForcedRecycle:
    def test_moves_cold_data(self, small_geometry):
        ftl, chip = make_ftl(small_geometry)
        # Lay down cold data.
        for lpn in range(small_geometry.pages_per_block):
            ftl.write(lpn, data=lpn.to_bytes(2, "little"))
        cold_block = ftl.mapping_of(0)[0]
        recycled = ftl.recycle_block_range(range(cold_block, cold_block + 1))
        assert recycled == 1
        # Data survived and moved to a different block.
        assert ftl.read(0) == (0).to_bytes(2, "little")
        assert ftl.mapping_of(0)[0] != cold_block
        assert chip.erase_counts[cold_block] == 1

    def test_skips_free_blocks(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        free_block = next(iter(ftl.allocator.free_blocks()))
        assert ftl.recycle_block_range(range(free_block, free_block + 1)) == 0

    def test_recycles_host_frontier(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        ftl.write(0, data=b"x")
        frontier_block = ftl.mapping_of(0)[0]
        recycled = ftl.recycle_block_range(range(frontier_block, frontier_block + 1))
        assert recycled == 1
        assert ftl.read(0) == b"x"
        # Next write must still work (a fresh frontier opens).
        ftl.write(1, data=b"y")
        assert ftl.read(1) == b"y"

    def test_forced_recycle_counted(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        ftl.write(0)
        block = ftl.mapping_of(0)[0]
        ftl.recycle_block_range(range(block, block + 1))
        assert ftl.stats.forced_recycles == 1


class TestRebuildMapping:
    def test_rebuild_recovers_all_valid_mappings(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        rng = random.Random(4)
        expected = {}
        for step in range(1500):
            lpn = rng.randrange(ftl.num_logical_pages)
            payload = step.to_bytes(4, "little")
            ftl.write(lpn, data=payload)
            expected[lpn] = payload
        recovered = ftl.rebuild_mapping()
        assert recovered == len(expected)
        for lpn, payload in expected.items():
            assert ftl.read(lpn) == payload

    def test_writes_work_after_rebuild(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        for lpn in range(20):
            ftl.write(lpn, data=b"a")
        ftl.rebuild_mapping()
        for lpn in range(20):
            ftl.write(lpn, data=b"b")
        assert all(ftl.read(lpn) == b"b" for lpn in range(20))


class TestInternalConsistency:
    def assert_counts_match_chip(self, ftl, chip):
        for block in range(chip.geometry.num_blocks):
            assert ftl._valid[block] == chip.count_pages(block, PAGE_VALID)
            assert ftl._invalid[block] == chip.count_pages(block, PAGE_INVALID)

    def test_counters_match_chip_after_churn(self, small_geometry):
        ftl, chip = make_ftl(small_geometry)
        rng = random.Random(5)
        for _ in range(3000):
            ftl.write(rng.randrange(ftl.num_logical_pages // 3))
        self.assert_counts_match_chip(ftl, chip)

    def test_single_valid_copy_per_lpn(self, small_geometry):
        ftl, chip = make_ftl(small_geometry)
        rng = random.Random(6)
        for _ in range(2500):
            ftl.write(rng.randrange(24))
        seen = set()
        for block in range(chip.geometry.num_blocks):
            for page in range(chip.geometry.pages_per_block):
                if chip.page_state(block, page) == PAGE_VALID:
                    lpn = chip.page_lba(block, page)
                    assert lpn not in seen, f"duplicate valid copy of {lpn}"
                    seen.add(lpn)


@settings(max_examples=20, deadline=None)
@given(
    writes=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                    max_size=400),
)
def test_read_your_writes_property(writes):
    geometry = FlashGeometry(16, 4, 512, 10_000)
    ftl, _ = make_ftl(geometry)
    expected = {}
    for raw_lpn, value in writes:
        lpn = raw_lpn % ftl.num_logical_pages
        ftl.write(lpn, data=bytes([value]))
        expected[lpn] = bytes([value])
    for lpn in range(ftl.num_logical_pages):
        assert ftl.read(lpn) == expected.get(lpn)
