"""Attack workload interface.

An attack is an adaptive request generator: it emits the next logical
address to write and receives the response latency of each request — the
only feedback channel the paper's threat model grants ("the attacker can
use some instructions (e.g. rdtsc()) to measure the memory response
time"; internal wear-leveling state is never exposed).
"""

from __future__ import annotations

import abc

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
        (scan, repeat) override it with a vector expression.
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
        Adaptive attacks need the per-request feedback loop, so the
        simulation engine always serves them through its per-write loop;
        non-adaptive streams batch freely.
        """
        return type(self).observe_response is not AttackWorkload.observe_response

    def _emit(self, logical: int) -> int:
        self.writes_emitted += 1
        return logical
