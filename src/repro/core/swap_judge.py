"""The "swap judge" component (paper Figure 4(c)).

After the toss-up selects ``Addr_choose``, the swap judge compares it with
the requested ``Addr_write``:

* equal — write directly (1 PCM page write);
* different — "swap-then-write" in its optimized two-write form: the data
  resident at ``Addr_choose`` migrates to ``Addr_not_choose`` and the
  incoming data is written to ``Addr_choose`` (the naive form would take
  three writes; §4.1 reduces it to two).

The judge is a pure function from addresses to a :class:`WritePlan`; the
engine executes the plan against the array and the remapping table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

PLAN_DIRECT = "direct"
PLAN_SWAP_THEN_WRITE = "swap_then_write"


@dataclass(frozen=True)
class WritePlan:
    """Physical writes to perform for one toss-up outcome.

    ``writes`` lists the physical frames to program, in order.  For a
    swap-then-write the first entry is the migration target (receiving
    the partner's old data) and the second is the chosen frame (receiving
    the incoming data).
    """

    kind: str
    writes: Tuple[int, ...]
    remap_swapped: bool

    @property
    def physical_writes(self) -> int:
        """Number of PCM page writes the plan costs."""
        return len(self.writes)


class SwapJudge:
    """Builds the write plan for a toss-up decision."""

    def __init__(self):
        self.direct = 0
        self.swapped = 0

    def snapshot(self) -> dict:
        """Decision counters (mid-run persistence)."""
        return {"direct": self.direct, "swapped": self.swapped}

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self.direct = int(state["direct"])
        self.swapped = int(state["swapped"])

    def judge(self, addr_write: int, addr_choose: int, addr_not_choose: int) -> WritePlan:
        """Plan the write given the toss-up's chosen frame.

        ``addr_write`` is the frame currently backing the written logical
        page; ``addr_choose``/``addr_not_choose`` are the pair's frames as
        selected by the toss-up.
        """
        if addr_write == addr_choose:
            self.direct += 1
            return WritePlan(PLAN_DIRECT, (addr_choose,), remap_swapped=False)
        self.swapped += 1
        return WritePlan(
            PLAN_SWAP_THEN_WRITE,
            (addr_not_choose, addr_choose),
            remap_swapped=True,
        )
