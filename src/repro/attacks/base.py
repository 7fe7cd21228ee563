"""Attack workload interface.

An attack is an adaptive request generator: it emits the next logical
address to write and receives the response latency of each request — the
only feedback channel the paper's threat model grants ("the attacker can
use some instructions (e.g. rdtsc()) to measure the memory response
time"; internal wear-leveling state is never exposed).
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError


class AttackWorkload(abc.ABC):
    """Base class for adaptive attack write streams."""

    #: Registry name; subclasses override.
    name = "attack"

    def __init__(self, n_pages: int):
        if n_pages < 1:
            raise ConfigError("attack needs at least one target page")
        self.n_pages = n_pages
        self.writes_emitted = 0

    @abc.abstractmethod
    def next_write(self) -> int:
        """Logical address of the attacker's next write."""

    def next_writes(self, n: int) -> np.ndarray:
        """The next ``n`` write addresses as one array (batched protocol).

        Must emit exactly the sequence ``n`` calls of :meth:`next_write`
        would, including the ``writes_emitted`` side effect.  The base
        implementation draws scalars; attacks whose stream is closed-form
        (scan, repeat) or a jump-ahead RNG draw (random) override it
        with a vector expression.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        next_write = self.next_write
        return np.fromiter(
            (next_write() for _ in range(n)), dtype=np.int64, count=n
        )

    def snapshot(self) -> dict:
        """Full mutable state: base counter plus the subclass hook."""
        return {"attack": self._snapshot_state(), "writes_emitted": self.writes_emitted}

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self.writes_emitted = int(state["writes_emitted"])
        self._restore_state(state["attack"])

    def _snapshot_state(self) -> dict:
        """Subclass hook: attack-specific mutable state (default none)."""
        return {}

    def _restore_state(self, state: dict) -> None:
        """Subclass hook mirroring :meth:`_snapshot_state`."""

    def observe_response(self, latency_cycles: float) -> None:
        """Feed back the measured response time of the last request.

        Non-adaptive attacks ignore it; the inconsistent-write attack
        uses it to detect swap phases.
        """

    @property
    def is_adaptive(self) -> bool:
        """Whether the attack reacts to response-time feedback.

        Detected from whether :meth:`observe_response` is overridden.
        The engine serves an adaptive attack in segments through the
        segment protocol below (:meth:`segment`, :meth:`planned_writes`,
        :meth:`observe_responses`), each segment ending at the first
        response that can change the attack's course; non-adaptive
        streams hand over whole batches through :meth:`next_writes`.
        """
        return type(self).observe_response is not AttackWorkload.observe_response

    # ------------------------------------------------------------------
    # Segment protocol (adaptive attacks)
    # ------------------------------------------------------------------
    def segment(self, unit_latency: float) -> Tuple[int, Optional[int]]:
        """``(horizon, stop_count)`` of the attack's next segment.

        Over the next ``horizon`` writes (at least 1) the addresses are
        fixed in advance, and only a response of at least
        ``stop_count`` × ``unit_latency`` cycles (``None``: none) can
        change the attack's course, and then only after that response.
        The engine serves at most ``horizon`` planned writes and ends
        the step after the first one that costs ``stop_count`` or more
        physical writes.  Adaptive attacks must implement it.
        """
        raise NotImplementedError(
            f"adaptive attack {self.name!r} does not implement the segment protocol"
        )

    def planned_writes(self, limit: int) -> np.ndarray:
        """Up to the next ``limit`` addresses (at least one when
        ``limit`` is), ``limit`` within the current segment's horizon,
        without committing them: the engine may serve only a prefix,
        which :meth:`observe_responses` then commits."""
        raise NotImplementedError(
            f"adaptive attack {self.name!r} does not implement the segment protocol"
        )

    def observe_responses(self, latencies: np.ndarray) -> None:
        """Commit the first ``len(latencies)`` planned writes and feed
        back their response times in order.

        Must leave the attack exactly as ``next_write()`` followed by
        ``observe_response(latency)`` per latency would.
        """
        raise NotImplementedError(
            f"adaptive attack {self.name!r} does not implement the segment protocol"
        )

    def _emit(self, logical: int) -> int:
        self.writes_emitted += 1
        return logical
