"""Span discipline, host-speed calibration, the detection probe, the passes.

A *pass* drives one workload through its legs.  A leg is one fresh
deployment: a set-up (build the deployment / world / live stacks, then an
untimed warm-up), that leg's equal-work spans, and its closing output
checks.  Several legs per run make ``setup_s`` a median, average over the
legs' derived seeds, and keep un-truncatable logs from growing for the
whole run (``sim-detect``, ``sim-wan-faults``).

* the **timed pass** carries no wrapper except the detection probe below
  and yields the end-to-end metrics;
* the **traced pass** replays a fixed prefix twice in one interpreter —
  untraced as the reference, then under :class:`~trace.Tracer` — checks
  that both replays agree on every deterministic counter, and yields the
  per-layer metrics.

Work is issued in *steps* (a fixed op budget, tens of milliseconds).  A
leg's ``n`` spans are interleaved, not contiguous: span ``k`` is steps
``k, k + n, k + 2n, …`` — ``steps_per_span`` of them — so every span
samples the whole leg and a timing metric, the median over spans, is a
robust estimate of the leg's mean.  ``gc`` stays enabled; one
``gc.collect()`` precedes the first span of every leg and one follows its
tear-down.

**Host speed.**  This host's speed moves by up to 2× on a time scale of
seconds to minutes (README, "host noise"), far beyond any regression
bound.  So a fixed yardstick — :class:`Calibrator`, about two milliseconds,
nothing of the program under test in it — runs after every step, and every
host time is reported at the reference speed: ``wall × REFERENCE_S /
calibration`` with the calibrations of the same span.  Raw wall times are
kept beside the normalised ones in the JSON document.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def benchmark_json() -> Dict[str, Any]:
    """``BENCHMARK.json``: the contract's names, bounds and ``run_seconds``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: a digest older than this (clock seconds) cannot still be in flight to a
#: peer, so its detection latency is final (the slowest tiered WAN link
#: delivers in well under a second)
DETECT_FLUSH_HORIZON = 5.0


# ------------------------------------------------------------------ statistics

def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); NaN of an empty sample."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats drifting
    return ordered[int(rank) - 1]


def spread(samples: Sequence[float]) -> Dict[str, float]:
    """``n``, median and quartiles, as the A/A criterion computes them."""
    if len(samples) < 2:
        only = float(samples[0])
        return {"n": len(samples), "median": only, "p25": only, "p75": only}
    p25, _, p75 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": statistics.median(samples),
            "p25": p25, "p75": p75}


# ----------------------------------------------------------------- calibration

class _Message:
    __slots__ = ("src", "dst", "kind", "payload", "sent_at")

    def __init__(self, src: str, dst: str, kind: str,
                 payload: Dict[str, int], sent_at: float) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.sent_at = sent_at


class _Peer:
    def __init__(self, names: List[str]) -> None:
        self.counts = {name: 0 for name in names}
        self.seen: Dict[Tuple[str, str], float] = {}
        self.log: List[Tuple[str, str, float]] = []

    def handle(self, message: _Message, now: float) -> int:
        self.counts[message.src] += 1
        self.seen[(message.src, message.kind)] = now - message.sent_at
        self.log.append((message.src, message.kind, now))
        if len(self.log) > 256:
            del self.log[:128]
        best = 0
        for value in message.payload.values():
            if value > best:
                best = value
        return best


class Calibrator:
    """The host-speed yardstick: a toy event loop, timed after every step.

    A heap of timestamped messages between 96 peers; handling one updates
    string-keyed dicts, appends to a bounded log, scans a small payload and
    schedules a follow-up — the instruction mix of a discrete-event protocol
    simulation (heap traffic, slotted objects, attribute and dict lookups,
    small allocations) without one line of ``src/``, so no optimisation of
    the program can move it.  Of the loops tried it tracks the workloads
    best when the host's speed shifts (paired same-seed replays, README
    "host noise": slope ≈ 1.0, run-to-run spread cut 3–10×).
    """

    #: duration of one :meth:`run` on the host state in which
    #: ``BENCH_longrun``'s shape reads the ROADMAP's ≈ 48 µs/op; normalised
    #: times are "seconds at this speed"
    REFERENCE_S = 0.00147
    PEERS = 96
    EVENTS = 520

    def __init__(self) -> None:
        self._names = [f"node-{i:03d}" for i in range(self.PEERS)]
        self._peers = {name: _Peer(self._names) for name in self._names}
        self._heap: List[Tuple[float, int, _Message]] = []
        self._seq = 0
        self._now = 0.0
        rng = random.Random(7)
        for i in range(200):
            self._schedule(rng.random(), self._names[i % self.PEERS])

    def _schedule(self, delay: float, dst: str) -> None:
        seq = self._seq
        src = self._names[(seq * 31) % self.PEERS]
        self._seq = seq + 1
        heapq.heappush(self._heap, (
            self._now + delay, seq,
            _Message(src, dst, f"digest:{seq % 5}",
                     {src: seq, dst: seq // 2, "meta": seq % 7}, self._now)))

    def run(self) -> float:
        """Handle ``EVENTS`` messages; returns how long that took (seconds)."""
        started = time.perf_counter()
        heap, peers, names = self._heap, self._peers, self._names
        for _ in range(self.EVENTS):
            when, seq, message = heapq.heappop(heap)
            self._now = when
            best = peers[message.dst].handle(message, when)
            self._schedule(0.01 + (best % 13) * 0.003,
                           names[(seq * 7919 + best) % self.PEERS])
        return time.perf_counter() - started


# ------------------------------------------------------------ detection probe

class DetectProbe:
    """The only wrapper a timed pass carries: detection latency per digest.

    Wraps the public ``DetectionService.ingest_digest``; for every digest a
    peer ingests it hands ``receiver clock − digest.issued_at`` to a sink.
    The default sink (simulator workloads) keeps the latest value per
    digest: deliveries of one digest arrive in time order, so what is left
    under its key is the latency to the *last* peer — the paper's
    "detected" instant.  The live workload passes its own sink, which also
    completes the write that announced the digest.  Costs one call and one
    dict store per ingest (≈ 1 % of ``us_per_op``; stated in the README),
    identically in both passes and on every commit compared.
    """

    def __init__(self, sink: Optional[Callable[[Any, Any, float], None]] = None) -> None:
        self._last: Dict[Tuple[str, str, float], float] = {}
        self._sink = sink if sink is not None else self._keep_latest
        self._original: Any = None
        #: finalised latencies, clock seconds
        self.samples: List[float] = []
        #: only digests issued at or after this clock time are sampled
        self.measure_from = float("inf")

    def _keep_latest(self, service: Any, digest: Any, latency: float) -> None:
        self._last[(digest.node_id, digest.object_id, digest.issued_at)] = latency

    def install(self) -> "DetectProbe":
        from repro.core.detection import DetectionService

        original = self._original = DetectionService.__dict__["ingest_digest"]
        sink = self._sink

        def ingest_digest(service, digest):
            original(service, digest)
            sink(service, digest, service.node.clock.now - digest.issued_at)

        DetectionService.ingest_digest = ingest_digest
        return self

    def remove(self) -> None:
        if self._original is not None:
            from repro.core.detection import DetectionService

            DetectionService.ingest_digest = self._original
            self._original = None

    def flush(self, now: float = float("inf")) -> None:
        """Finalise digests issued before ``now − DETECT_FLUSH_HORIZON``."""
        cutoff = now - DETECT_FLUSH_HORIZON
        start = self.measure_from
        done = [key for key in self._last if key[2] < cutoff]
        for key in done:
            latency = self._last.pop(key)
            if key[2] >= start:
                self.samples.append(latency)

    def reset(self) -> None:
        """Forget pending digests (a new leg restarts its clock at 0)."""
        self._last.clear()
        self.measure_from = float("inf")


# ------------------------------------------------------------------- workload

@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def converged(object_id: str, replicas: Dict[str, Any]) -> Check:
    """Do these replicas of ``object_id`` hold identical per-writer counts?"""
    distinct = {tuple(sorted(replica.vector.counts().as_dict().items()))
                for replica in replicas.values()}
    return Check(f"converged:final-round:{object_id}", len(distinct) == 1,
                 f"{len(replicas)} replicas, {len(distinct)} distinct count vectors")


class Workload:
    """What a pass needs from a workload (see ``workloads.py``, ``live.py``).

    ``sizes`` carries ``legs``, ``spans_per_leg``, ``warmup_steps`` and
    ``steps_per_span``; the op budget of a step is the workload's own
    business.  Leg ``i`` builds from :meth:`leg_seed`.
    """

    name = ""
    backend = "sim"
    why = ""
    #: which per-layer metric this workload's build time is reported under
    build_metric = "core.deployment.build_s"

    def __init__(self, seed: int, sizes: Dict[str, Any],
                 tracer: Any = None) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        # accumulated over the timed spans of every leg.  ``refused`` ops
        # are the protocol saying no — a write blocked by a resolution
        # round, an op whose home node is down; ``failed`` ops are the
        # program not doing what it was asked (a write no peer confirmed)
        self.attempted = 0
        self.refused = 0
        self.failed = 0
        self.messages = 0
        #: latency samples in milliseconds (sim clock, or wall clock scaled
        #: to the reference host speed on the live backend)
        self.detect_ms: List[float] = []
        self.resolve_ms: List[float] = []

    def make_probe(self) -> DetectProbe:
        return DetectProbe()

    # -- leg structure
    def legs(self, prefix: bool) -> List[int]:
        """Spans to run after each set-up, one entry per leg; ``prefix``
        asks for the traced pass's plan — the first third of the legs."""
        legs = self.sizes["legs"]
        if prefix:
            legs = -(-legs // 3)
        return [self.sizes["spans_per_leg"]] * legs

    def leg_seed(self, leg: int) -> int:
        return self.seed * 1000 + leg

    def build(self, leg: int) -> None:
        """Build the system under test; the warm-up steps follow."""
        raise NotImplementedError

    def step(self) -> Tuple[int, int]:
        """Do one step of work; returns (ops attempted, ops not completed)."""
        raise NotImplementedError

    def after_step(self, slowdown: float) -> None:
        """The step just done took ``slowdown`` × its reference-speed time."""

    def begin_spans(self) -> None:
        """Called once per leg between the warm-up and the first span."""

    def sample(self) -> int:
        """After each span, outside its timing: retained log entries now."""
        raise NotImplementedError

    def end_spans(self) -> None:
        """Called once per leg right after its last span."""

    def counters(self) -> Dict[str, Any]:
        """Deterministic counters right now ({} on the live backend)."""
        return {}

    def layer_counters(self) -> Dict[str, float]:
        """Raw per-layer counts of the current leg's spans (traced pass)."""
        return {}

    def close(self, check: bool) -> List[Check]:
        """End the leg: run the output checks when asked, then tear down."""
        raise NotImplementedError


# ---------------------------------------------------------------------- passes

@dataclass
class PassResult:
    """Observations of one pass; ``ledger.py`` turns them into metrics.

    Times are at the reference host speed unless the name says ``raw``.
    """

    setup_s: List[float] = field(default_factory=list)
    setup_raw_s: List[float] = field(default_factory=list)
    build_s: List[float] = field(default_factory=list)
    span_s: List[float] = field(default_factory=list)
    span_raw_s: List[float] = field(default_factory=list)
    span_ops: List[int] = field(default_factory=list)
    #: every measured step as (raw seconds, yardstick seconds, ops), in
    #: the order run — enough to regroup the spans any other way
    steps: List[Tuple[float, float, int]] = field(default_factory=list)
    retained: List[int] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    counters: List[Dict[str, Any]] = field(default_factory=list)
    layer_counters: Dict[str, float] = field(default_factory=dict)
    trace_delta: Dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0

    def us_per_op(self, *, raw: bool = False) -> List[float]:
        times = self.span_raw_s if raw else self.span_s
        return [t / ops * 1e6 for t, ops in zip(times, self.span_ops) if ops]

    def host_speed(self) -> float:
        """Host speed over the spans, as a share of the reference speed."""
        return sum(self.span_s) / sum(self.span_raw_s)


def run_legs(workload: Workload, calibrator: Calibrator, *, prefix: bool,
             counter_legs: Optional[int] = None) -> PassResult:
    """Drive ``workload`` through its legs and time the spans.

    ``prefix`` selects the traced pass's leg plan (the first third of the
    timed pass's legs, no closing checks); the spans run under
    ``workload.tracer`` when it has one.  The deterministic counters are
    kept at the end of each leg's spans — of the first ``counter_legs`` legs
    only when given, which is how the timed pass records them at the point
    where the traced pass stops.
    """
    result = PassResult()
    started = time.perf_counter()
    tracer = workload.tracer
    reference = calibrator.REFERENCE_S
    steps_per_span = workload.sizes["steps_per_span"]

    def timed_step() -> Tuple[float, float, int]:
        """One step -> (raw seconds, yardstick seconds, ops completed)."""
        t0 = time.perf_counter()
        attempted, lost = workload.step()
        took = time.perf_counter() - t0
        measured = calibrator.run()
        workload.after_step(measured / reference)
        return took, measured, attempted - lost

    def at_reference(steps: Sequence[Tuple[float, float, int]]) -> float:
        """Seconds the steps would have taken at the reference speed."""
        return (sum(step[0] for step in steps) * len(steps) * reference
                / sum(step[1] for step in steps))

    for leg, spans in enumerate(workload.legs(prefix)):
        before_build = calibrator.run()
        t0 = time.perf_counter()
        workload.build(leg)
        build_raw = time.perf_counter() - t0
        build = build_raw * 2 * reference / (before_build + calibrator.run())
        warmup = [timed_step() for _ in range(workload.sizes["warmup_steps"])]
        result.build_s.append(build)
        result.setup_s.append(build + at_reference(warmup))
        result.setup_raw_s.append(build_raw + sum(step[0] for step in warmup))

        gc.collect()
        before = tracer.snapshot() if tracer is not None else None
        workload.begin_spans()
        steps: List[Tuple[float, float, int]] = []
        for _ in range(spans):
            steps.extend(timed_step() for _ in range(steps_per_span))
            result.retained.append(workload.sample())
        workload.end_spans()
        if tracer is not None:
            _add_delta(result.trace_delta, before, tracer.snapshot())
        result.steps.extend(steps)
        # span k is every ``spans``-th step from the k-th on, so each span
        # samples the whole leg (fault phases, growing logs) and the spans
        # are equal work in expectation, not only in ops
        for k in range(spans):
            mine = steps[k::spans]
            result.span_raw_s.append(sum(step[0] for step in mine))
            result.span_s.append(at_reference(mine))
            result.span_ops.append(sum(step[2] for step in mine))
        if counter_legs is None or leg < counter_legs:
            result.counters.append(workload.counters())
        for key, value in workload.layer_counters().items():
            known = result.layer_counters.get(key, 0.0)
            result.layer_counters[key] = (max(known, value)
                                          if key.startswith("peak_")
                                          else known + value)
        result.checks.extend(workload.close(check=not prefix))
        gc.collect()  # a torn-down deployment is cyclic garbage: free it
        # now, or the next leg's peak RSS depends on when gen-2 happens to run
    result.wall_s = time.perf_counter() - started
    return result


def _add_delta(total: Dict[str, Any], before: Dict[str, Any],
               after: Dict[str, Any]) -> None:
    """Accumulate ``after − before`` of two tracer snapshots into ``total``."""
    for key, value in after.items():
        if isinstance(value, dict):
            bucket = total.setdefault(key, {})
            for name, amount in value.items():
                bucket[name] = bucket.get(name, 0) + amount - before[key][name]
        else:
            total[key] = total.get(key, 0) + value - before[key]


# -------------------------------------------------------------------- manifest

def engine_floor_us_per_event(num_timers: int = 64, events: int = 200_000) -> float:
    """``bench_hotpath``'s bare timer-reschedule loop, in this interpreter.

    No protocol, no network: the cost of one heap pop + callback + push.
    Per-event figures divided by this floor survive a change of host.
    """
    from repro.sim.engine import Simulator

    sim = Simulator(seed=1)

    def make_tick(period: float):
        def tick() -> None:
            sim.call_after(period, tick, recyclable=True)
        return tick

    for i in range(num_timers):
        sim.call_after(0.001 * (i + 1), make_tick(0.5 + 0.001 * i))
    started = time.perf_counter()
    sim.run(max_events=events)
    return (time.perf_counter() - started) / sim.events_processed * 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(workload: Workload, *, pass_name: str, seconds: float,
             spans: int, wall_s: float) -> Dict[str, Any]:
    params = json.dumps(workload.sizes, sort_keys=True)
    return {
        "workload": workload.name,
        "backend": workload.backend,
        "pass": pass_name,
        "seed": workload.seed,
        "seconds": seconds,
        "params": workload.sizes,
        "params_hash": hashlib.sha256(params.encode("utf-8")).hexdigest()[:16],
        "spans": spans,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "wall_s": wall_s,
    }
