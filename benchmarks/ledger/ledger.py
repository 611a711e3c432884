"""Workload sizes, the two passes of one workload, and their metrics.

``run_timed`` and ``run_traced`` each run one workload once, in this
interpreter, and return a JSON-ready document: the metrics by name with
their units, the output checks, the run manifest and the raw per-span
samples.  ``run.py`` is the command line around them; ``__main__.py`` runs
all four workloads, each pass in a fresh interpreter.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from typing import Any, Dict, List, Optional, Tuple, Type

from benchmarks.ledger import trace
from benchmarks.ledger.harness import (Calibrator, Check, PassResult, Workload,
                                       benchmark_json,
                                       engine_floor_us_per_event, manifest,
                                       peak_rss_mb, percentile, run_legs, spread)
from benchmarks.ledger.live import LiveUds
from benchmarks.ledger.workloads import SimDetect, SimLongrun, SimWanFaults

WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (SimLongrun, SimDetect, SimWanFaults, LiveUds)}

#: op budgets at ``--seconds`` = ``BENCHMARK.json``'s ``run_seconds``; other
#: values of ``--seconds`` scale the span count of a leg, never the work
#: inside a span, so two commits always do identical work
FULL_SIZES: Dict[str, Dict[str, Any]] = {
    "sim-longrun": {"step_ops": 500, "chunk_s": 0.02, "warmup_steps": 30,
                    "steps_per_span": 10, "spans_per_leg": 12, "legs": 3},
    "sim-detect": {"step_s": 2.4, "warmup_steps": 12, "steps_per_span": 10,
                   "spans_per_leg": 9, "legs": 4},
    "sim-wan-faults": {"step_ops": 150, "chunk_s": 0.05, "warmup_steps": 40,
                       "steps_per_span": 15, "spans_per_leg": 13, "legs": 3},
    "live-uds": {"step_ops": 100, "warmup_steps": 15, "steps_per_span": 4,
                 "spans_per_leg": 17, "legs": 3},
}

#: ``--smoke``: the same shapes at about a fiftieth of the budget
SMOKE_SIZES: Dict[str, Dict[str, Any]] = {
    "sim-longrun": {"step_ops": 500, "chunk_s": 0.02, "warmup_steps": 6,
                    "steps_per_span": 2, "spans_per_leg": 6, "legs": 1},
    "sim-detect": {"step_s": 2.4, "warmup_steps": 3, "steps_per_span": 2,
                   "spans_per_leg": 3, "legs": 2},
    "sim-wan-faults": {"step_ops": 150, "chunk_s": 0.05, "warmup_steps": 8,
                       "steps_per_span": 2, "spans_per_leg": 4, "legs": 1},
    "live-uds": {"step_ops": 50, "warmup_steps": 4, "steps_per_span": 2,
                 "spans_per_leg": 6, "legs": 1},
}

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s", "us_per_op": "us/op",
    "detect_ms_p50": "ms", "detect_ms_p99": "ms",
    "resolve_ms_p50": "ms", "resolve_ms_p90": "ms",
    "msgs_per_op": "msgs/op", "ok_op_frac": "ratio",
    "retained_entries_peak": "entries", "peak_rss_mb": "MB",
}

DROP_REASONS = ("link-loss", "partition", "dst-down", "src-down", "departed",
                "loss")

#: per-layer metrics that are not ``<point>.calls_per_op`` /
#: ``<point>.self_us_per_op``, with their units
LAYER_COUNTER_UNITS: Dict[str, str] = {
    "sim.engine.events_per_op": "events/op",
    "sim.engine.us_per_event": "us/event",
    "sim.engine.floor_us_per_event": "us/event",
    "sim.network.drop_ratio": "ratio",
    **{f"sim.network.drops.{reason}": "count" for reason in DROP_REASONS},
    "transport.endpoint.rpc_timeout_ratio": "ratio",
    "core.detection.conflict_ratio": "ratio",
    "runtime.digest_cache.hit_rate": "ratio",
    "core.resolution.active_rounds_per_kop": "1/kop",
    "core.resolution.background_rounds_per_kop": "1/kop",
    "core.resolution.abort_ratio": "ratio",
    "core.resolution.msgs_per_round": "msgs",
    "store.entries_folded_per_op": "entries/op",
    "overlay.top_layer.size_mean": "nodes",
    "workloads.driver.peak_pending": "count",
    "live.wire.frame_bytes_p50": "bytes",
    "live.wire.frame_bytes_max": "bytes",
    "live.wire.errors": "count",
    "live.transport.frames_per_s": "1/s",
    "live.transport.queue_depth_max": "count",
    "live.transport.drops": "count",
    "live.transport.reconnects": "count",
    "live.transport.shutdown_errors": "count",
    "live.clock.loop_lag_ms_p50": "ms",
    "live.clock.loop_lag_ms_p99": "ms",
    "core.deployment.build_s": "s",
    "worlds.compile.build_s": "s",
    "live.scenario.build_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.host_speed": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for point in trace.POINT_NAMES:
        units[f"{point}.calls_per_op"] = "1/op"
        units[f"{point}.self_us_per_op"] = "us/op"
    units.update(LAYER_COUNTER_UNITS)
    return units


def sizes_for(name: str, *, seconds: float, smoke: bool) -> Dict[str, Any]:
    if smoke:
        return dict(SMOKE_SIZES[name])
    sizes = dict(FULL_SIZES[name])
    scale = seconds / benchmark_json()["run_seconds"]
    sizes["spans_per_leg"] = max(2, round(sizes["spans_per_leg"] * scale))
    return sizes


# ------------------------------------------------------------------ the passes

def _run(name: str, sizes: Dict[str, Any], seed: int, calibrator: Calibrator,
         *, prefix: bool, tracer: Optional[trace.Tracer] = None,
         counter_legs: Optional[int] = None) -> Tuple[Workload, PassResult]:
    """One replay of a workload, under the probe and (if given) the tracer."""
    workload = WORKLOADS[name](seed, sizes, tracer=tracer)
    probe = workload.probe = workload.make_probe().install()
    if tracer is not None:
        tracer.install()  # before the deployment is built
    try:
        return workload, run_legs(workload, calibrator, prefix=prefix,
                                  counter_legs=counter_legs)
    finally:
        if tracer is not None:
            tracer.remove()
        probe.remove()


def run_timed(name: str, *, seed: int, seconds: float,
              smoke: bool = False) -> Dict[str, Any]:
    """The timed pass: no wrapper but the detection probe."""
    sizes = sizes_for(name, seconds=seconds, smoke=smoke)
    workload, result = _run(name, sizes, seed, Calibrator(), prefix=False,
                            counter_legs=-(-sizes["legs"] // 3))
    completed = workload.attempted - workload.refused - workload.failed
    values = {
        "setup_s": statistics.median(result.setup_s),
        "us_per_op": statistics.median(result.us_per_op()),
        "detect_ms_p50": percentile(workload.detect_ms, 50),
        "detect_ms_p99": percentile(workload.detect_ms, 99),
        "resolve_ms_p50": percentile(workload.resolve_ms, 50),
        "resolve_ms_p90": percentile(workload.resolve_ms, 90),
        "msgs_per_op": workload.messages / completed,
        "ok_op_frac": completed / workload.attempted,
        "retained_entries_peak": max(result.retained),
        "peak_rss_mb": peak_rss_mb(),
    }
    return _document(
        workload, result, "timed", seconds, values, END_TO_END_UNITS,
        spreads={"setup_s": spread(result.setup_s),
                 "us_per_op": spread(result.us_per_op()),
                 "detect_ms": {"n": len(workload.detect_ms)},
                 "resolve_ms": {"n": len(workload.resolve_ms)}},
        samples={"setup_s": result.setup_s, "setup_raw_s": result.setup_raw_s,
                 "span_us_per_op": result.us_per_op(),
                 "span_raw_us_per_op": result.us_per_op(raw=True),
                 "span_ops": result.span_ops,
                 "steps_raw_s_yardstick_s_ops": result.steps,
                 "retained_entries": result.retained,
                 "resolve_ms": workload.resolve_ms})


def run_traced(name: str, *, seed: int, seconds: float, smoke: bool = False,
               trace_out: Optional[str] = None) -> Dict[str, Any]:
    """The traced pass: an untraced reference replay, then the same spans
    under the tracer; both must agree on every deterministic counter."""
    sizes = sizes_for(name, seconds=seconds, smoke=smoke)
    calibrator = Calibrator()
    _, reference = _run(name, sizes, seed, calibrator, prefix=True)
    tracer = trace.Tracer(keep_spans=trace_out is not None)
    workload, result = _run(name, sizes, seed, calibrator, prefix=True,
                            tracer=tracer)
    if trace_out is not None:
        tracer.write_spans(trace_out)

    before = calibrator.run()
    floor = engine_floor_us_per_event(events=20_000 if smoke else 200_000)
    floor *= 2 * calibrator.REFERENCE_S / (before + calibrator.run())

    values = _layer_values(workload, reference, result, tracer, floor)
    result.checks.append(Check(
        "passes-agree-on-counters", reference.counters == result.counters,
        "" if reference.counters == result.counters else
        f"untraced={reference.counters} traced={result.counters}"))
    if workload.backend == "sim":
        unattributed = values["trace.unattributed_frac"]
        result.checks.append(Check(
            "trace-attributes-95-percent", unattributed < 0.05,
            f"unattributed share of traced wall time: {unattributed:.4f}"))
    return _document(
        workload, result, "traced", seconds, values, per_layer_units(),
        spreads={"us_per_op_traced": spread(result.us_per_op()),
                 "us_per_op_untraced": spread(reference.us_per_op())},
        samples={"span_us_per_op_traced": result.us_per_op(),
                 "span_us_per_op_untraced": reference.us_per_op(),
                 "span_ops": result.span_ops})


def _layer_values(workload: Workload, reference: PassResult,
                  result: PassResult, tracer: trace.Tracer,
                  floor: float) -> Dict[str, float]:
    ops = sum(result.span_ops)
    to_reference = result.host_speed()
    delta = result.trace_delta
    calls, self_time = delta["calls"], delta["self_time"]
    counts = result.layer_counters
    values = {name: 0.0 for name in per_layer_units()}
    for point in trace.POINT_NAMES:
        values[f"{point}.calls_per_op"] = calls[point] / ops
        values[f"{point}.self_us_per_op"] = (
            self_time[point] * to_reference / ops * 1e6)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    events = counts.get("events", 0)
    values["sim.engine.events_per_op"] = events / ops
    values["sim.engine.us_per_event"] = ratio(sum(reference.span_s) * 1e6, events)
    values["sim.engine.floor_us_per_event"] = floor
    values["sim.network.drop_ratio"] = ratio(
        sum(v for k, v in counts.items() if k.startswith("drop:")),
        counts.get("sent", 0))
    for reason in DROP_REASONS:
        values[f"sim.network.drops.{reason}"] = counts.get(f"drop:{reason}", 0)
    values["transport.endpoint.rpc_timeout_ratio"] = ratio(
        delta["rpc_timeouts"], calls["transport.endpoint.request"])
    values["core.detection.conflict_ratio"] = ratio(
        delta["detect_conflicts"], calls["core.detection.detect"])
    values["runtime.digest_cache.hit_rate"] = ratio(
        counts.get("cache_hits", 0),
        counts.get("cache_hits", 0) + counts.get("cache_misses", 0))
    rounds = counts.get("rounds_active", 0) + counts.get("rounds_background", 0)
    values["core.resolution.active_rounds_per_kop"] = (
        counts.get("rounds_active", 0) / ops * 1e3)
    values["core.resolution.background_rounds_per_kop"] = (
        counts.get("rounds_background", 0) / ops * 1e3)
    values["core.resolution.abort_ratio"] = ratio(
        counts.get("rounds_aborted", 0), rounds)
    values["core.resolution.msgs_per_round"] = ratio(
        counts.get("resolution_msgs", 0), rounds)
    values["store.entries_folded_per_op"] = counts.get("entries_folded", 0) / ops
    values["overlay.top_layer.size_mean"] = ratio(
        delta["top_layer_members"], calls["overlay.top_layer"])
    values["workloads.driver.peak_pending"] = counts.get("peak_pending", 0)
    if isinstance(workload, LiveUds):
        frames = tracer.frame_bytes
        if frames:
            values["live.wire.frame_bytes_p50"] = percentile(frames, 50)
            values["live.wire.frame_bytes_max"] = max(frames)
        values["live.wire.errors"] = tracer.wire_errors
        values["live.transport.frames_per_s"] = (
            calls["live.wire.encode"] / sum(result.span_s))
        values["live.transport.queue_depth_max"] = workload.queue_depth_max
        values["live.transport.drops"] = counts.get("live_drops", 0)
        values["live.transport.reconnects"] = counts.get("live_reconnects", 0)
        values["live.transport.shutdown_errors"] = workload.shutdown_errors
        lag = [ms * to_reference for ms in workload.loop_lag_ms]
        values["live.clock.loop_lag_ms_p50"] = percentile(lag, 50)
        values["live.clock.loop_lag_ms_p99"] = percentile(lag, 99)
    values[workload.build_metric] = statistics.median(
        reference.build_s + result.build_s)
    values["trace.overhead_ratio"] = (
        statistics.median(result.us_per_op())
        / statistics.median(reference.us_per_op()))
    values["trace.unattributed_frac"] = (
        1.0 - sum(self_time.values()) / sum(result.span_raw_s))
    values["trace.host_speed"] = to_reference
    return values


# -------------------------------------------------------------------- document

def _document(workload: Workload, result: PassResult, pass_name: str,
              seconds: float, values: Dict[str, float], units: Dict[str, str],
              *, spreads: Dict[str, Any],
              samples: Dict[str, Any]) -> Dict[str, Any]:
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        result.checks.append(Check("metrics-finite", False, ", ".join(bad)))
    doc = {
        "manifest": manifest(workload, pass_name=pass_name, seconds=seconds,
                             spans=len(result.span_ops),
                             wall_s=result.wall_s),
        "correct": all(check.ok for check in result.checks),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "refused": workload.refused,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "spread": spreads,
        "samples": samples,
        "counters": result.counters,
        "checks": [dataclasses.asdict(check) for check in result.checks],
        "host_speed": result.host_speed(),
    }
    if isinstance(workload, LiveUds):
        doc["live"] = {
            "resolver_late_ms": spread(workload.resolver_late_ms)
            if workload.resolver_late_ms else None,
            "resolver_rounds_failed": workload.resolver_failed,
        }
    return doc


def result_line(doc: Dict[str, Any]) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    return json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": doc["metrics"]})


def format_table(doc: Dict[str, Any]) -> str:
    """Every metric by name with its unit; zero per-layer rows are folded."""
    man = doc["manifest"]
    lines = [f"== {man['workload']} · {man['pass']} pass · seed {man['seed']} · "
             f"{man['spans']} spans · host at {doc['host_speed']:.2f}x reference "
             f"speed · {man['wall_s']:.1f} s"]
    zero: List[str] = []
    for name, metric in doc["metrics"].items():
        if metric["value"] == 0 and man["pass"] == "traced":
            zero.append(name)
            continue
        extra = ""
        detail = doc["spread"].get(name)
        if detail and "p25" in detail:
            extra = (f"   n={detail['n']} p25={detail['p25']:.4g} "
                     f"p75={detail['p75']:.4g}")
        lines.append(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}{extra}")
    if zero:
        lines.append(f"  ({len(zero)} per-layer metrics are 0 on this workload: "
                     f"{_fold(zero)})")
    passed = [check["name"] for check in doc["checks"] if check["ok"]]
    if passed:
        lines.append(f"  [ok] {len(passed)} checks: {', '.join(sorted(set(passed)))}")
    for check in doc["checks"]:
        if not check["ok"]:
            lines.append(f"  [FAIL] {check['name']}  {check['detail'][:200]}")
    return "\n".join(lines)


def _fold(names: List[str]) -> str:
    """``a.b.calls_per_op, a.b.self_us_per_op`` -> ``a.b.*`` for brevity."""
    folded: List[str] = []
    for name in names:
        stem = name.rsplit(".", 1)[0] + ".*"
        if name.endswith(("calls_per_op", "self_us_per_op")):
            if stem not in folded:
                folded.append(stem)
        else:
            folded.append(name)
    return ", ".join(folded)
