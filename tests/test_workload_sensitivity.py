"""Tests for the workload-sensitivity experiment harness."""

from __future__ import annotations

import pytest

from repro.experiments import run
from repro.experiments.fig_workload_sensitivity import (
    WorkloadSweepResult,
    fingerprint,
    format_workload_report,
    run_workload_point,
)

#: small-point kwargs so a single cell runs in well under a second
SMALL = dict(num_nodes=6, num_objects=3, num_clients=6, rate=3.0,
             duration=15.0, sample_period=3.0)


class TestWorkloadSensitivity:
    def test_point_collects_all_metrics(self):
        point = run_workload_point(zipf_skew=0.99, read_fraction=0.8,
                                   shape="constant", **SMALL)
        assert point.ops_issued > 0
        assert point.reads_issued < point.ops_issued
        assert point.writes_applied > 0
        assert point.accuracy_samples, "accuracy probe never fired"
        assert 0.0 <= point.detection_accuracy <= 1.0
        assert point.detection_messages > 0
        as_dict = point.as_dict()
        assert as_dict["shape"] == "constant"
        assert as_dict["detection_accuracy"] == point.detection_accuracy

    def test_flash_crowd_issues_more_ops_than_constant(self):
        constant = run_workload_point(shape="constant", **SMALL)
        flash = run_workload_point(shape="flash", **SMALL)
        assert flash.ops_issued > constant.ops_issued

    def test_point_replays_bit_identically(self):
        a = run_workload_point(zipf_skew=0.99, read_fraction=0.9,
                               shape="flash", **SMALL)
        b = run_workload_point(zipf_skew=0.99, read_fraction=0.9,
                               shape="flash", **SMALL)
        assert fingerprint(a) == fingerprint(b)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            run_workload_point(shape="sawtooth", **SMALL)

    def test_sweep_and_report(self):
        result = run("workload", zipf_skews=(0.0, 0.99),
                     read_fractions=(0.6,), shapes=("constant",), **SMALL)
        assert isinstance(result, WorkloadSweepResult)
        assert len(result.points) == 2
        report = format_workload_report(result)
        assert "accuracy" in report
        assert "client ops total" in report
