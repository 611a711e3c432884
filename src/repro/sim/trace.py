"""Per-run counters.

The deployment bumps one named counter per applied write, completed
resolution and injected fault (``writes.<object>``, ``resolutions.<kind>.
<object>``, ``faults.crash``); reports, fingerprints and the perf ledger read
them back with :meth:`TraceRecorder.count`.
"""

from __future__ import annotations

from collections import Counter


class TraceRecorder:
    """Named monotonically increasing counters of one run."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    def increment(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self._counts[name] += amount

    def count(self, name: str) -> int:
        """The counter's value; 0 for one never incremented."""
        return self._counts[name]
