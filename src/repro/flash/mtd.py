"""Memory Technology Device (MTD) layer.

Paper Figure 1 places an MTD driver between the Flash Translation Layer and
the raw flash: it "provide[s] primitive functions, such as read, write, and
erase over flash memory".  :class:`MtdDevice` is that interface for the
simulator, and nothing more than the interface:

* it selects the chip's :class:`~repro.flash.timing.TimingModel` (the
  cell-type default unless one is given);
* its primitives — :attr:`~MtdDevice.read_page`,
  :attr:`~MtdDevice.write_page`, :attr:`~MtdDevice.erase_block` and
  :attr:`~MtdDevice.invalidate_page` — *are* the chip's own bound methods,
  so a page operation costs no MTD frame of its own;
* :attr:`~MtdDevice.busy_time` reads the device-busy clock the chip
  charges on every read, program and erase.

Drivers reach the chip only through these names, looked up on the MTD at
call time, so instrumentation that rebinds them on an instance sees every
page operation.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter

from repro.flash.chip import NandFlash, OpCounters
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import TimingModel, timing_for


class MtdDevice:
    """Primitive read/write/erase interface over one NAND chip.

    Parameters
    ----------
    flash:
        The chip to drive, or ``None`` to create one from ``geometry``.
    geometry:
        Required when ``flash`` is ``None``.
    timing:
        Latency model; defaults to the chip's cell-type defaults.
    """

    def __init__(
        self,
        flash: NandFlash | None = None,
        *,
        geometry: FlashGeometry | None = None,
        timing: TimingModel | None = None,
        **chip_kwargs: bool,
    ) -> None:
        if flash is None:
            if geometry is None:
                raise ValueError("either a flash chip or a geometry is required")
            flash = NandFlash(geometry, **chip_kwargs)
        elif chip_kwargs:
            raise ValueError("chip kwargs are only valid when MTD creates the chip")
        self.flash = flash
        self.geometry = flash.geometry
        flash.timing = timing or timing_for(flash.geometry)
        # Paper Figure 1's primitives: read / write / erase, plus the
        # spare-area status update that marks superseded data.
        self.read_page: Callable[[int, int], tuple[int, bytes | None]] = (
            flash.read
        )
        self.write_page: Callable[..., None] = flash.program
        self.erase_block: Callable[[int], None] = flash.erase
        self.invalidate_page: Callable[[int, int], None] = flash.invalidate

    # Read-only views of chip state.  The getters are C-level
    # ``attrgetter`` objects, so hot readers (per-request latency
    # sampling reads ``busy_time`` once per channel) pay no Python frame.
    busy_time = property(
        attrgetter("flash.busy_time"),
        doc="Accumulated device-busy seconds (the chip's clock).",
    )
    timing = property(
        attrgetter("flash.timing"), doc="The latency model the chip charges."
    )

    def copy_page(
        self, src: tuple[int, int], dst: tuple[int, int]
    ) -> None:
        """Live-page copy: read ``src``, program ``dst``, invalidate ``src``.

        This is the unit the paper counts as one *live-page copying*
        (Section 4.3); callers count copies themselves so that FTL merges
        and SWL moves are attributed to the right cause.
        """
        lba, data = self.read_page(*src)
        self.write_page(*dst, lba=lba, data=data)
        self.invalidate_page(*src)

    # ------------------------------------------------------------------
    # Observation pass-throughs
    # ------------------------------------------------------------------
    def add_erase_listener(self, listener: Callable[[int], None]) -> None:
        """Register a per-erase callback (the SW Leveler's update hook)."""
        self.flash.add_erase_listener(listener)

    def clear_erase_listeners(self) -> None:
        """Drop every erase listener (used when simulating a reboot)."""
        self.flash.clear_erase_listeners()

    def mark_bad(self, block: int) -> None:
        """Record a grown-bad block in the chip's bad-block table."""
        self.flash.mark_bad(block)

    @property
    def bad_blocks(self) -> set[int]:
        """The chip's grown-bad-block table."""
        return self.flash.bad_blocks

    @property
    def counters(self) -> OpCounters:
        return self.flash.counters

    @property
    def erase_counts(self) -> list[int]:
        return self.flash.erase_counts

    def __repr__(self) -> str:
        return f"MtdDevice({self.flash!r}, busy={self.busy_time:.3f}s)"
