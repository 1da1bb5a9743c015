"""The policy arena: a tournament across wear-leveling mechanisms.

The paper (Section 2, Table 1) positions the BET-based SW Leveler
against counter-based prior art on controller RAM at comparable leveling
quality; related work adds two more philosophies — cache-based wear
*avoidance* and software-only cyclic scrubbing.  The arena settles the
comparison empirically: every registered
:class:`~repro.core.policies.LevelerSpec` kind runs through the shared
workload × fault matrix and a leaderboard reports endurance gained,
extra erases paid, exact WAF, controller RAM, and p99 latency under
leveling interference.

* :mod:`repro.arena.tournament` — the runner (:func:`run_arena`) and its
  result records.
* :mod:`repro.arena.report` — the markdown leaderboard.

Run it with ``repro arena``; ``--report`` writes the markdown
leaderboard and ``--json`` the full result.
"""

from repro.arena.report import arena_report
from repro.arena.tournament import (
    DEFAULT_ROSTER,
    ArenaCellResult,
    ArenaEntryResult,
    ArenaResult,
    roster_specs,
    run_arena,
)

__all__ = [
    "ArenaCellResult",
    "ArenaEntryResult",
    "ArenaResult",
    "DEFAULT_ROSTER",
    "arena_report",
    "roster_specs",
    "run_arena",
]
