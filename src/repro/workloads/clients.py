"""Client models: open-loop arrival streams and closed-loop sessions.

A *stream* is one simulated client.  It owns a seeded RNG (batched into a
:class:`DrawBuffer` so the hot path pops Python floats instead of paying a
numpy call per draw), a popularity model, an op mix, and — for open-loop
clients — a rate schedule.  Streams only answer one question for the
driver: *when is your next operation?*  The driver keeps exactly one
pending simulator event per stream, which is what makes million-operation
runs O(active streams) in schedule memory.

* :class:`OpenLoopClient` — a non-homogeneous Poisson process.  Arrivals are
  generated by thinning (Lewis & Shedler 1979): candidates at the schedule's
  peak rate, accepted with probability λ(t)/λ_peak.  Offered load is
  independent of how the system responds — the model for "heavy traffic
  from millions of users".
* :class:`ClosedLoopClient` — a think-time session: the next op follows the
  previous one after an exponential think time.  Load self-limits to
  (streams / think time), the model for interactive sessions.

A :class:`ClientPopulation` is the declarative description the driver
consumes: how many clients, which model, which popularity/schedule/mix,
which home nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import List, Optional, Sequence

import numpy as np

from repro.bounds import real, whole
from repro.workloads.phases import RateSchedule
from repro.workloads.popularity import PopularityModel


class DrawBuffer:
    """Batched uniform/exponential draws from one seeded generator.

    numpy generator calls cost ~1 µs each; drawing blocks of 256 and popping
    Python floats amortises that to ~10 ns per draw while preserving the
    exact draw sequence of the underlying generator (uniforms and
    exponentials come from the same generator, interleaved block-wise).

    Each block is held reversed, so a draw is one ``list.pop()``.  A hot
    caller pops :attr:`uniforms` / :attr:`exponentials` itself while they
    are non-empty and calls the method, which refills, when they are not:
    ``u = uniforms.pop() if uniforms else draws.uniform()``.  The lists are
    refilled in place, so a reference held across refills stays valid.
    """

    __slots__ = ("_rng", "_block", "uniforms", "exponentials")

    def __init__(self, rng: np.random.Generator, block: int = 256) -> None:
        self._rng = rng
        self._block = block
        #: the current uniform block's undrawn values, next draw last
        self.uniforms: List[float] = []
        #: the current exponential block's undrawn values, next draw last
        self.exponentials: List[float] = []

    def uniform(self) -> float:
        """One draw from U[0, 1)."""
        uniforms = self.uniforms
        if not uniforms:
            uniforms.extend(self._rng.random(self._block)[::-1].tolist())
        return uniforms.pop()

    def exponential(self) -> float:
        """One draw from Exp(1)."""
        exponentials = self.exponentials
        if not exponentials:
            exponentials.extend(
                self._rng.standard_exponential(self._block)[::-1].tolist())
        return exponentials.pop()


class OpMix:
    """Seeded read/write mix: the :class:`~repro.workloads.driver
    .TrafficDriver` issues a read when the op's uniform draw is below
    ``read_fraction``."""

    __slots__ = ("read_fraction",)

    def __init__(self, read_fraction: float = 0.9) -> None:
        self.read_fraction = real("read_fraction", read_fraction, ge=0, le=1)

    def describe(self) -> str:
        return f"{self.read_fraction:.0%}R/{1 - self.read_fraction:.0%}W"


class ClientStream:
    """One simulated client bound to a home node.

    Subclasses implement :meth:`next_time`.  The driver fills in the
    node/middleware bindings when the stream is attached to a deployment.
    """

    __slots__ = ("stream_id", "node_id", "popularity", "mix", "draws",
                 "schedule", "snapshot_reads", "ops_issued", "reads_issued",
                 "writes_issued", "writes_blocked", "skipped_down",
                 "node", "middlewares")

    #: probes per batch while searching forward through a quiet stretch of
    #: the schedule; between batches the stream asks the schedule whether it
    #: is exhausted (zero forever) and only then finishes
    MAX_PROBES = 10_000
    #: hard cap on quiet-search batches per call — a backstop against a
    #: custom schedule that is permanently zero yet never reports
    #: ``exhausted_after``; reaching it finishes the stream
    MAX_PROBE_BATCHES = 1_000

    def __init__(self, stream_id: str, *, popularity: PopularityModel,
                 mix: OpMix, rng: np.random.Generator,
                 schedule: Optional[RateSchedule] = None,
                 snapshot_reads: bool = False) -> None:
        self.stream_id = stream_id
        self.popularity = popularity
        self.mix = mix
        self.schedule = schedule
        self.snapshot_reads = snapshot_reads
        self.draws = DrawBuffer(rng)
        self.ops_issued = 0
        self.reads_issued = 0
        self.writes_issued = 0
        self.writes_blocked = 0
        self.skipped_down = 0
        # Bound by TrafficDriver when attached:
        self.node_id: Optional[str] = None
        self.node = None
        self.middlewares: List = []

    def next_time(self, after: float, until: float = inf) -> Optional[float]:
        """Absolute time of this stream's next op, or None when finished or
        when a quiet stretch of the schedule outlasts ``until``."""
        raise NotImplementedError


class OpenLoopClient(ClientStream):
    """Non-homogeneous Poisson arrivals at the schedule's rate, via thinning."""

    __slots__ = ()

    def __init__(self, stream_id: str, *, popularity: PopularityModel,
                 mix: OpMix, rng: np.random.Generator,
                 schedule: RateSchedule, snapshot_reads: bool = False) -> None:
        if schedule is None:
            raise ValueError("open-loop clients need a rate schedule")
        super().__init__(stream_id, popularity=popularity, mix=mix, rng=rng,
                         schedule=schedule, snapshot_reads=snapshot_reads)

    def next_time(self, after: float, until: float = inf) -> Optional[float]:
        schedule = self.schedule
        peak = schedule.peak_rate()
        if peak <= 0.0:
            return None
        draws = self.draws
        uniforms, exponentials = draws.uniforms, draws.exponentials
        rate = schedule.rate
        inv_peak = 1.0 / peak
        t = after
        for _ in range(self.MAX_PROBE_BATCHES):
            for _ in range(self.MAX_PROBES):
                t += (exponentials.pop() if exponentials
                      else draws.exponential()) * inv_peak
                if (uniforms.pop() if uniforms
                        else draws.uniform()) * peak <= rate(t):
                    return t
            # A long quiet stretch (pre-flash-crowd baseline 0, the off half
            # of a repeating schedule): finish once past ``until`` or when the
            # schedule says it will never produce load again, else search on.
            if not t < until or schedule.exhausted_after(t):
                return None
        return None


class ClosedLoopClient(ClientStream):
    """Think-time session: next op = previous op + Exp(think_time).

    When a schedule is given it acts as an on/off gate — while λ(t) is zero
    the session idles (probing forward one think time at a time), so a
    schedule can switch whole populations on and off.
    """

    __slots__ = ("think_time",)

    def __init__(self, stream_id: str, *, popularity: PopularityModel,
                 mix: OpMix, rng: np.random.Generator, think_time: float,
                 schedule: Optional[RateSchedule] = None,
                 snapshot_reads: bool = False) -> None:
        real("think_time", think_time, gt=0)
        super().__init__(stream_id, popularity=popularity, mix=mix, rng=rng,
                         schedule=schedule, snapshot_reads=snapshot_reads)
        self.think_time = think_time

    def next_time(self, after: float, until: float = inf) -> Optional[float]:
        t = after + self.draws.exponential() * self.think_time
        schedule = self.schedule
        if schedule is None:
            return t
        for _ in range(self.MAX_PROBE_BATCHES):
            for _ in range(self.MAX_PROBES):
                if schedule.rate(t) > 0.0:
                    return t
                t += self.think_time
            if not t < until or schedule.exhausted_after(t):
                return None
        return None


@dataclass
class ClientPopulation:
    """A declarative group of identical clients the driver instantiates.

    ``nodes`` restricts the home nodes clients are assigned to (round-robin);
    by default clients spread over every deployment node.  Stream RNGs are
    derived from the driver's :class:`~repro.sim.random.RandomStreams` keyed
    by ``{name}:{index}``, so the population replays identically regardless
    of how many *other* populations share the driver.
    """

    name: str
    num_clients: int
    popularity: PopularityModel
    mix: OpMix = field(default_factory=OpMix)
    #: "open" (Poisson arrivals at `schedule`) or "closed" (think-time)
    model: str = "open"
    schedule: Optional[RateSchedule] = None
    think_time: float = 1.0
    nodes: Optional[Sequence[str]] = None
    #: reads model fetching a fresh snapshot (triggers the detection
    #: protocol) instead of re-reading the already-open replica
    snapshot_reads: bool = False

    def __post_init__(self) -> None:
        whole("num_clients", self.num_clients, ge=1)
        real("think_time", self.think_time, gt=0)
        if self.model not in ("open", "closed"):
            raise ValueError("model must be 'open' or 'closed'")
        if self.model == "open" and self.schedule is None:
            raise ValueError("open-loop populations need a rate schedule")

    def build_streams(self, random_streams) -> List[ClientStream]:
        """Instantiate this population's client streams (unbound to nodes)."""
        streams: List[ClientStream] = []
        for i in range(self.num_clients):
            stream_id = f"{self.name}:{i:05d}"
            rng = random_streams.stream(f"traffic:{stream_id}")
            if self.model == "open":
                stream: ClientStream = OpenLoopClient(
                    stream_id, popularity=self.popularity, mix=self.mix,
                    rng=rng, schedule=self.schedule,
                    snapshot_reads=self.snapshot_reads)
            else:
                stream = ClosedLoopClient(
                    stream_id, popularity=self.popularity, mix=self.mix,
                    rng=rng, think_time=self.think_time,
                    schedule=self.schedule,
                    snapshot_reads=self.snapshot_reads)
            streams.append(stream)
        return streams

    def describe(self) -> str:
        shape = (self.schedule.describe() if self.schedule is not None
                 else f"think={self.think_time:g}s")
        return (f"{self.name}: {self.num_clients} {self.model}-loop clients, "
                f"{self.popularity.describe()}, {self.mix.describe()}, {shape}")
