"""Unit tests for temperature tracking and the two-layer overlay manager."""

from __future__ import annotations

import pytest

from repro.overlay.temperature import TemperatureConfig, TemperatureTracker
from repro.overlay.two_layer import OverlayConfig, TwoLayerOverlay


class TestTemperatureConfig:
    def test_defaults_valid(self):
        TemperatureConfig()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            TemperatureConfig(max_top_size=0)
        with pytest.raises(ValueError):
            TemperatureConfig(min_top_size=5, max_top_size=2)


class TestTemperatureTracker:
    def test_update_raises_temperature(self):
        tracker = TemperatureTracker("obj")
        tracker.record_update("n0", 0.0)
        assert tracker.temperature("n0", 0.0) == pytest.approx(1.0)

    def test_unknown_node_is_cold(self):
        tracker = TemperatureTracker("obj")
        assert tracker.temperature("ghost", 10.0) == 0.0

    def test_temperature_decays_with_half_life(self):
        tracker = TemperatureTracker("obj", TemperatureConfig(half_life=10.0))
        tracker.record_update("n0", 0.0)
        assert tracker.temperature("n0", 10.0) == pytest.approx(0.5)
        assert tracker.temperature("n0", 20.0) == pytest.approx(0.25)

    def test_repeated_updates_accumulate(self):
        tracker = TemperatureTracker("obj", TemperatureConfig(half_life=10.0))
        tracker.record_update("n0", 0.0)
        tracker.record_update("n0", 10.0)
        assert tracker.temperature("n0", 10.0) == pytest.approx(1.5)

    def test_invalid_weight_rejected(self):
        tracker = TemperatureTracker("obj")
        with pytest.raises(ValueError):
            tracker.record_update("n0", 0.0, weight=0.0)

    def test_select_top_prefers_hottest(self):
        cfg = TemperatureConfig(hot_threshold=0.5, max_top_size=2)
        tracker = TemperatureTracker("obj", cfg)
        tracker.record_update("hot", 0.0)
        tracker.record_update("hot", 1.0)
        tracker.record_update("warm", 1.0)
        tracker.record_update("third", 1.0, weight=0.6)
        top = tracker.select_top(1.0)
        assert top[0] == "hot"
        assert len(top) == 2

    def test_select_top_respects_threshold(self):
        cfg = TemperatureConfig(hot_threshold=0.9, half_life=5.0, min_top_size=0)
        tracker = TemperatureTracker("obj", cfg)
        tracker.record_update("n0", 0.0)
        # After two half-lives the node is below threshold.
        assert tracker.select_top(10.0) == []

    def test_min_top_size_keeps_some_writer(self):
        cfg = TemperatureConfig(hot_threshold=0.9, half_life=5.0, min_top_size=1)
        tracker = TemperatureTracker("obj", cfg)
        tracker.record_update("n0", 0.0)
        assert tracker.select_top(50.0) == ["n0"]

    def test_four_writers_form_top_layer(self):
        """The paper's warm-up: four active writers all become top-layer members."""
        tracker = TemperatureTracker("obj")
        for i in range(4):
            tracker.record_update(f"w{i}", float(i))
        assert set(tracker.select_top(4.0)) == {"w0", "w1", "w2", "w3"}

    def test_is_hot(self):
        tracker = TemperatureTracker("obj")
        tracker.record_update("n0", 0.0)
        assert tracker.is_hot("n0", 0.0)
        assert not tracker.is_hot("n1", 0.0)


class TestTwoLayerOverlay:
    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            TwoLayerOverlay([])

    def test_unknown_writer_rejected(self):
        overlay = TwoLayerOverlay(["n0", "n1"])
        with pytest.raises(KeyError):
            overlay.record_update("obj", "ghost", 0.0)

    def test_top_layer_empty_before_any_write(self):
        overlay = TwoLayerOverlay(["n0", "n1"])
        assert overlay.top_layer("obj") == []
        assert set(overlay.bottom_layer("obj")) == {"n0", "n1"}

    def test_top_layer_without_a_time_is_the_last_selection(self):
        """A write or a query with a time re-ranks; a query without one
        returns the last ranking, whatever time it was made at."""
        overlay = TwoLayerOverlay(["n0", "n1", "n2"])
        overlay.record_update("obj", "n0", 0.0)
        overlay.record_update("obj", "n1", 0.0)
        overlay.record_update("obj", "n1", 0.0)
        assert overlay.top_layer("obj") == ["n1", "n0"]
        # long after, n0 has cooled out; n1 stays as the minimum top layer
        assert overlay.top_layer("obj", 1e4) == ["n1"]
        assert overlay.top_layer("obj") == ["n1"]

    def test_writers_enter_top_layer(self):
        overlay = TwoLayerOverlay([f"n{i}" for i in range(10)])
        for w in ("n0", "n1", "n2", "n3"):
            overlay.record_update("obj", w, 1.0)
        top = overlay.top_layer("obj", 1.0)
        assert set(top) == {"n0", "n1", "n2", "n3"}
        assert len(overlay.bottom_layer("obj", 1.0)) == 6

    def test_top_and_bottom_partition_nodes(self):
        nodes = [f"n{i}" for i in range(8)]
        overlay = TwoLayerOverlay(nodes)
        overlay.record_update("obj", "n0", 0.0)
        top = set(overlay.top_layer("obj", 0.0))
        bottom = set(overlay.bottom_layer("obj", 0.0))
        assert top | bottom == set(nodes)
        assert top & bottom == set()

    def test_objects_have_independent_top_layers(self):
        """Section 4.1: different files may have different top layers."""
        overlay = TwoLayerOverlay(["n0", "n1", "n2"])
        overlay.record_update("board-1", "n0", 0.0)
        overlay.record_update("board-2", "n1", 0.0)
        assert overlay.top_layer("board-1", 0.0) == ["n0"]
        assert overlay.top_layer("board-2", 0.0) == ["n1"]

    def test_inactive_writer_cools_out_of_top_layer(self):
        cfg = OverlayConfig()
        cfg.temperature = TemperatureConfig(half_life=10.0, hot_threshold=0.5,
                                            min_top_size=0)
        overlay = TwoLayerOverlay(["n0", "n1"], config=cfg)
        overlay.record_update("obj", "n0", 0.0)
        assert overlay.is_top("obj", "n0", 5.0)
        assert not overlay.is_top("obj", "n0", 100.0)

    def test_temperature_query(self):
        overlay = TwoLayerOverlay(["n0"])
        overlay.record_update("obj", "n0", 0.0)
        assert overlay.temperature("obj", "n0", 0.0) == pytest.approx(1.0)

    def test_objects_listing(self):
        overlay = TwoLayerOverlay(["n0"])
        overlay.record_update("b", "n0", 0.0)
        overlay.record_update("a", "n0", 0.0)
        assert overlay.objects() == ["a", "b"]
