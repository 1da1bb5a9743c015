"""Property tests pinning the word-level hot path to its O(n) references.

The hot-path rewrite (word-level :class:`~repro.util.bitarray.BitArray`,
incremental :class:`~repro.sim.metrics.WearAccumulator`, O(bins) heatmap
snapshots) must be observationally identical to the straightforward
implementations it replaced.  Each property here drives a random workload
through both the new code and a reference derivation — the historical
bit-by-bit ``bytearray`` bit array, ``EraseDistribution.from_counts``,
``WearHeatmap.from_counts`` — and asserts exact equality, including the
floating-point fields (the accounting is designed to be bit-identical,
not merely close; see DESIGN.md, hot-path accounting invariants).

The fault-path goldens at the end pin the page path's recovery code the
same way: faulted replays on FTL and NFTL, at 1 and 4 channels, must
hash to committed ``SimResult.as_dict()`` digests.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt import run_resumable
from repro.core.bet import BlockErasingTable
from repro.core.config import SWLConfig
from repro.fault.plan import FaultPlan
from repro.obs.heatmap import WearHeatmap
from repro.sim.experiment import (
    ExperimentSpec,
    make_base_trace,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.metrics import EraseDistribution, WearAccumulator
from repro.util.bitarray import BitArray


class ReferenceBitArray:
    """The historical bit-by-bit implementation, kept as the test oracle.

    Mirrors the pre-rewrite ``bytearray`` backing store: bit ``i`` lives
    in byte ``i >> 3`` at position ``i & 7``, every query walks bits in
    Python.  Deliberately naive — its only job is to be obviously
    correct.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._bytes = bytearray((size + 7) // 8)

    def __getitem__(self, index: int) -> bool:
        return bool(self._bytes[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> bool:
        byte, bit = index >> 3, 1 << (index & 7)
        if self._bytes[byte] & bit:
            return False
        self._bytes[byte] |= bit
        return True

    def clear(self, index: int) -> bool:
        byte, bit = index >> 3, 1 << (index & 7)
        if not self._bytes[byte] & bit:
            return False
        self._bytes[byte] &= ~bit
        return True

    def fill(self) -> None:
        for index in range(self.size):
            self.set(index)

    def reset(self) -> None:
        self._bytes = bytearray(len(self._bytes))

    def popcount(self) -> int:
        return sum(1 for i in range(self.size) if self[i])

    def all_set(self) -> bool:
        return self.popcount() == self.size

    def any_set(self) -> bool:
        return any(self._bytes)

    def next_zero(self, start: int) -> int | None:
        for offset in range(self.size):
            index = (start + offset) % self.size
            if not self[index]:
                return index
        return None

    def zero_indices(self) -> list[int]:
        return [i for i in range(self.size) if not self[i]]

    def to_bytes(self) -> bytes:
        return bytes(self._bytes)


# Weighted op alphabet for random sequences: mutations and queries mixed.
_OPS = ("set", "set", "set", "clear", "clear", "fill", "reset",
        "next_zero", "popcount", "zero_indices", "roundtrip")


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 120))
def test_random_op_sequence_matches_reference(size, seed, steps):
    """Every observable of the word-level array equals the bit-by-bit
    oracle after each step of a random operation sequence."""
    rng = random.Random(seed)
    fast = BitArray(size)
    slow = ReferenceBitArray(size)
    for _ in range(steps):
        op = rng.choice(_OPS)
        if op in ("set", "clear"):
            index = rng.randrange(size)
            assert getattr(fast, op)(index) == getattr(slow, op)(index)
        elif op in ("fill", "reset"):
            getattr(fast, op)()
            getattr(slow, op)()
        elif op == "next_zero":
            start = rng.randrange(size)
            assert fast.next_zero(start) == slow.next_zero(start)
        elif op == "popcount":
            assert fast.popcount() == slow.popcount()
        elif op == "zero_indices":
            assert fast.zero_indices() == slow.zero_indices()
        else:  # roundtrip
            assert fast.to_bytes() == slow.to_bytes()
            assert BitArray.from_bytes(fast.to_bytes(), size) == fast
        # Invariants that must hold after every operation.
        assert fast.popcount() == slow.popcount()
        assert fast.all_set() == slow.all_set()
        assert fast.any_set() == slow.any_set()
    assert list(fast) == [slow[i] for i in range(size)]
    assert fast.to_bytes() == slow.to_bytes()


@given(size=st.integers(1, 128))
def test_fill_keeps_tail_byte_masked(size):
    """``fill`` must never set padding bits beyond ``size`` — serialized
    images with dirty padding are rejected as corrupt."""
    bits = BitArray(size)
    bits.fill()
    data = bits.to_bytes()
    assert len(data) == (size + 7) // 8
    tail_bits = size & 7
    if tail_bits:
        assert data[-1] >> tail_bits == 0
    # A filled image must round-trip (its own padding is clean).
    assert BitArray.from_bytes(data, size).all_set()


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 128), seed=st.integers(0, 2**32 - 1))
def test_from_bytes_rejects_any_padding_corruption(size, seed):
    """Flipping any padding bit of a valid image raises; flipping any
    in-range bit yields a valid image with that one bit changed."""
    rng = random.Random(seed)
    bits = BitArray(size)
    for index in range(size):
        if rng.random() < 0.5:
            bits.set(index)
    image = bytearray(bits.to_bytes())
    nbits = len(image) * 8
    flip = rng.randrange(nbits)
    image[flip >> 3] ^= 1 << (flip & 7)
    if flip >= size:
        with pytest.raises(ValueError, match="padding"):
            BitArray.from_bytes(bytes(image), size)
    else:
        restored = BitArray.from_bytes(bytes(image), size)
        assert restored[flip] != bits[flip]
        assert sum(a != b for a, b in zip(restored, bits)) == 1


@given(size=st.integers(1, 64), extra=st.integers(-2, 2).filter(bool))
def test_from_bytes_rejects_wrong_length(size, extra):
    good = BitArray(size).to_bytes()
    bad = good + b"\x00" * extra if extra > 0 else good[:extra]
    with pytest.raises(ValueError, match="expected"):
        BitArray.from_bytes(bad, size)


# ----------------------------------------------------------------------
# Incremental wear accounting vs the one-shot reference
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(blocks=st.integers(1, 96), seed=st.integers(0, 2**32 - 1),
       erases=st.integers(0, 400))
def test_accumulator_matches_from_counts_exactly(blocks, seed, erases):
    """After any erase sequence the O(1) snapshot equals the O(n)
    reference on every field — floats compared with ``==``, not approx."""
    rng = random.Random(seed)
    counts = [0] * blocks
    wear = WearAccumulator(blocks)
    for _ in range(erases):
        block = rng.randrange(blocks)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    incremental = wear.distribution()
    reference = EraseDistribution.from_counts(counts)
    assert incremental == reference
    assert incremental.average == reference.average
    assert incremental.deviation == reference.deviation
    assert incremental.minimum == min(counts)
    assert incremental.maximum == max(counts)


@settings(max_examples=40, deadline=None)
@given(shards=st.integers(2, 5), blocks=st.integers(1, 48),
       seed=st.integers(0, 2**32 - 1))
def test_shard_merge_matches_concatenated_from_counts(shards, blocks, seed):
    """The array path — per-shard accumulators merged — equals a single
    ``from_counts`` over the concatenated counts, bit for bit."""
    rng = random.Random(seed)
    all_counts: list[int] = []
    parts: list[EraseDistribution] = []
    for _ in range(shards):
        counts = [0] * blocks
        wear = WearAccumulator(blocks)
        for _ in range(rng.randrange(200)):
            block = rng.randrange(blocks)
            wear.record_erase(block, counts[block])
            counts[block] += 1
        all_counts.extend(counts)
        parts.append(wear.distribution())
    assert EraseDistribution.merge(parts) == \
        EraseDistribution.from_counts(all_counts)


@settings(max_examples=60, deadline=None)
@given(blocks=st.integers(1, 96), bins=st.integers(1, 32),
       seed=st.integers(0, 2**32 - 1))
def test_bin_sums_heatmap_matches_from_counts(blocks, bins, seed):
    """O(bins) heatmaps from incremental bin sums equal the O(n) scan,
    including the short last cell when bins do not divide blocks."""
    rng = random.Random(seed)
    counts = [0] * blocks
    wear = WearAccumulator(blocks)
    width = max(1, -(-blocks // bins))
    wear.ensure_bins(width, counts)
    for _ in range(rng.randrange(300)):
        block = rng.randrange(blocks)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    fast = WearHeatmap.from_bin_sums(
        1.0,
        num_blocks=blocks,
        bin_width=width,
        bin_sums=wear.bin_sums,
        min_count=wear.minimum,
        max_count=wear.maximum,
        total_erases=wear.total,
    )
    assert fast == WearHeatmap.from_counts(1.0, counts, bins=bins)


def test_ensure_bins_mid_run_rebuild_is_exact():
    """Re-shaping the bins mid-run rebuilds from live counts, so sums
    stay exact across a heatmap-width reconfiguration."""
    counts = [0] * 10
    wear = WearAccumulator(10)
    rng = random.Random(3)
    for _ in range(50):
        block = rng.randrange(10)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    wear.ensure_bins(3, counts)          # first shape: 4 bins, tail of 1
    assert wear.bin_sums == [sum(counts[i:i + 3]) for i in range(0, 10, 3)]
    for _ in range(50):
        block = rng.randrange(10)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    assert wear.bin_sums == [sum(counts[i:i + 3]) for i in range(0, 10, 3)]
    wear.ensure_bins(4, counts)          # reshape: rebuilds exactly
    assert wear.bin_sums == [sum(counts[i:i + 4]) for i in range(0, 10, 4)]


# ----------------------------------------------------------------------
# BET over the word-level array, including k > 0 short-tail sets
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(num_blocks=st.integers(1, 80), k=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_bet_counters_and_scan_with_short_tail_sets(num_blocks, k, seed):
    """BET behaviour over the new bit array for every (num_blocks, k)
    shape, in particular when ``2^k`` does not divide ``num_blocks`` and
    the last flag covers a short tail set."""
    if (1 << k) > num_blocks:
        return  # rejected geometry, covered by test_bet.py
    rng = random.Random(seed)
    bet = BlockErasingTable(num_blocks, k)
    flagged: set[int] = set()
    for _ in range(rng.randrange(150)):
        block = rng.randrange(num_blocks)
        flipped = bet.record_erase(block)
        assert flipped == (block >> k not in flagged)
        flagged.add(block >> k)
    assert bet.fcnt == len(flagged)
    assert bet.ecnt >= bet.fcnt
    assert bet.zero_flags() == [i for i in range(bet.size)
                                if i not in flagged]
    # The tail set never reaches past the device.
    tail = bet.blocks_in_set(bet.size - 1)
    assert tail.stop == num_blocks
    assert len(tail) == num_blocks - ((bet.size - 1) << k)
    # Persistence round-trips the flags exactly (fcnt cross-check runs
    # inside from_bytes against the word-level popcount).
    restored, _ = BlockErasingTable.from_bytes(bet.to_bytes())
    assert restored.fcnt == bet.fcnt
    assert restored.zero_flags() == bet.zero_flags()


# ----------------------------------------------------------------------
# Fault-path golden replays: recovery paths must replay bit for bit
# ----------------------------------------------------------------------
#: Program faults, transient erase failures, corrected read errors and
#: one torn-write power loss.  The loss ordinal is chosen per
#: configuration so it lands on a program late in the replay (shard 0
#: counts its own operations; the other shards never lose power).
FAULT_GOLDEN_BASE = dict(
    seed=3, program_fail_prob=0.0005, erase_fail_prob=0.05, read_ber=1e-5,
    torn_writes=True,
)

#: ``SimResult.as_dict()`` digests of the faulted replays below.
FAULT_GOLDEN = {
    ("ftl", 1, 76_519): (
        "f0933dd6388197d24dfda4b4803c2698f79f23e9a8689ef1208b1efb4cd0a000"
    ),
    ("ftl", 4, 16_507): (
        "69945ea5028b72d074b0c28ef89a30330c5fc07d35e2e13a5ebee886cffd6a1c"
    ),
    ("nftl", 1, 127_454): (
        "dbfe5dc681d549e734c26a72f5f689e8753d42df21b62275cbdf2ad38815ecb2"
    ),
    ("nftl", 4, 23_312): (
        "0a86a6450f42bc79a49cc2cd470648f609c81a9aa3f8be4c17ddd0116f393c34"
    ),
}


def _fault_replay(driver: str, channels: int, loss_at: int):
    spec = ExperimentSpec(
        driver, scaled_mlc2_geometry(64, scale=100),
        SWLConfig(enabled=True, threshold=8, k=0), seed=11,
        channels=channels,
    )
    trace = make_base_trace(workload_params_for(spec, duration=3600.0, seed=5))
    plan = FaultPlan(**FAULT_GOLDEN_BASE, power_loss_at=(loss_at,))
    return run_resumable(
        spec, trace, horizon=3600.0, fault_plan=plan, skip_reads=False
    )


@pytest.mark.parametrize(
    "driver,channels,loss_at", sorted(FAULT_GOLDEN),
    ids=[f"{d}-ch{c}" for d, c, _ in sorted(FAULT_GOLDEN)],
)
def test_fault_path_replay_matches_golden(driver, channels, loss_at):
    """Every recovery path (program-fault re-issue, erase retry, torn
    page at power loss, ECC-corrected reads) replays to the committed
    digest, busy time and fault counters included."""
    result = _fault_replay(driver, channels, loss_at)
    data = result.as_dict()
    assert result.power_lost
    assert data["fault_torn_pages"] == 1
    assert data["fault_program_faults"] > 0
    assert data["fault_erase_faults"] > 0
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        FAULT_GOLDEN[(driver, channels, loss_at)]
