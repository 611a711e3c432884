"""Unit tests for the trace recorder's counters."""

from __future__ import annotations

import pytest

from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_counters(self):
        trace = TraceRecorder()
        trace.increment("msgs", 3)
        trace.increment("msgs")
        assert trace.count("msgs") == 4
        assert trace.count("missing") == 0

    def test_negative_increment_rejected(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.increment("msgs", -1)
        assert trace.count("msgs") == 0
