"""Outside-in layer spans for the benchmark's traced runs.

The traced run never edits the package: it replaces public methods of
the live objects it built (``driver.next_batch``, ``scheme.write_batch``,
``array.apply_batch`` ...) with timing wrappers set as *instance*
attributes.  The engine and the schemes look those methods up through
the instance, so every call crosses a wrapper.

Each span records its name, start, end, parent span and run id
(``workload/scheme/round``).  Records live in compact typed arrays in
memory and are written as NDJSON only when :meth:`Tracer.write_ndjson`
is called, at the end of the run.  Self time (a span's duration minus
the time its direct children cover) is accumulated as spans close, so
the per-layer totals need no second pass over the records.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Tuple

_clock = time.perf_counter


class Tracer:
    """Single-threaded span recorder with online self-time totals."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._runs: List[str] = []
        self._run = -1
        # One entry per closed span; parent is the record index of the
        # enclosing span or -1.  Index order is open order.
        self._name = array("i")
        self._parent = array("i")
        self._run_of = array("i")
        self._start = array("d")
        self._end = array("d")
        # Open spans: [record index, start, time covered by children].
        self._stack: List[List[Any]] = []
        #: Self seconds per (run id, span name).
        self.self_seconds: DefaultDict[Tuple[str, str], float] = defaultdict(float)
        #: Closed spans per (run id, span name).
        self.calls: DefaultDict[Tuple[str, str], int] = defaultdict(int)

    def begin_run(self, run_id: str) -> None:
        """Tag every span opened from now on with ``run_id``."""
        self._runs.append(run_id)
        self._run = len(self._runs) - 1

    def _intern(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return index

    def _open(self, name_id: int) -> List[Any]:
        index = len(self._name)
        parent = self._stack[-1][0] if self._stack else -1
        self._name.append(name_id)
        self._parent.append(parent)
        self._run_of.append(self._run)
        self._start.append(0.0)
        self._end.append(0.0)
        frame = [index, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: List[Any]) -> None:
        end = _clock()
        index, start, covered = frame
        self._stack.pop()
        self._start[index] = start
        self._end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        key = (self._runs[self._run_of[index]], self._names[self._name[index]])
        self.self_seconds[key] += duration - covered
        self.calls[key] += 1

    def call(self, name: str, func: Callable[..., Any], *args: Any) -> Any:
        """Run ``func(*args)`` inside one span called ``name``."""
        frame = self._open(self._intern(name))
        try:
            return func(*args)
        finally:
            self._close(frame)

    def wrap(self, obj: Any, method: str, name: str) -> None:
        """Time every call of ``obj.method`` as a span called ``name``."""
        bound = getattr(obj, method)
        name_id = self._intern(name)
        open_span, close_span = self._open, self._close

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = open_span(name_id)
            try:
                return bound(*args, **kwargs)
            finally:
                close_span(frame)

        setattr(obj, method, timed)

    def __len__(self) -> int:
        return len(self._name)

    def write_ndjson(self, path: str) -> None:
        """Write every closed span as one JSON object per line."""
        with open(path, "w") as handle:
            for index in range(len(self._name)):
                record = {
                    "end": self._end[index],
                    "id": index,
                    "name": self._names[self._name[index]],
                    "parent": self._parent[index],
                    "run": self._runs[self._run_of[index]],
                    "start": self._start[index],
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
