"""Multiprocess live deployment: bring-up, barrier, supervision, teardown.

:class:`LiveDeployment` boots one OS process per node (``python -m
repro.live.node_main <spec.json> <node_id>``), each running the per-node
stack from :mod:`repro.live.scenario` over UNIX sockets or localhost TCP.

Bring-up protocol: the parent writes ``spec.json`` (scenario + address book
+ run directory) and spawns the children; each child binds its listening
socket, touches ``ready/<node_id>``, then polls until *every* ready file
exists; only then does it rebase its clock to t=0, record the epoch in
``epoch/<node_id>``, and start the scenario schedule — so all nodes enter
the workload within the barrier's polling jitter.  On completion each child
writes ``out/<node_id>.json`` with its protocol outcomes and exits 0.

The parent is also a **supervisor**: :meth:`poll` reaps exits as they
happen and records each node's full exit history (``exit 0`` / ``SIGKILL``
/ ...).  With an opt-in :class:`RestartPolicy`, a node that dies with a
nonzero status is respawned with ``--recovering`` after a capped jittered
backoff, up to a restart budget; the recovering incarnation re-touches its
ready file, rebases onto the *original* epoch and resumes the schedule
mid-timeline.  The chaos controller (:mod:`repro.live.chaos`) drives the
same machinery explicitly — :meth:`kill_node` holds a node down (no auto
restart) until a plan recovery calls :meth:`restart_node`.

:meth:`wait` returns the per-node outcomes annotated with exit history and
restart counts; :meth:`report` always has a per-node entry with the exit
status (code or signal name) and, for anything that last exited nonzero,
a log tail.  :meth:`terminate` is idempotent.  Per-node stdout/stderr land
in ``log/<node_id>.log`` for post-mortems (the CI jobs upload them).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from repro.live.backoff import BackoffPolicy
from repro.live.control import control_address
from repro.live.scenario import ScenarioSpec, make_addresses
from repro.transport.errors import TransportError

import numpy as np


class DeploymentError(TransportError):
    """A live deployment failed to come up, run, or report outcomes."""


def describe_exit(returncode: int) -> str:
    """Human-readable exit status: ``exit N`` or the killing signal name."""
    if returncode >= 0:
        return f"exit {returncode}"
    try:
        return signal.Signals(-returncode).name
    except ValueError:
        return f"signal {-returncode}"


@dataclass(frozen=True)
class RestartPolicy:
    """Opt-in supervision: how often and how fast crashed nodes respawn.

    ``max_restarts`` is a *per-node* budget for supervisor-initiated
    restarts; chaos-driven restarts (:meth:`LiveDeployment.restart_node`)
    do not consume it — a plan recovery is an order, not a courtesy.
    """

    max_restarts: int = 2
    backoff: BackoffPolicy = BackoffPolicy(base=0.2, cap=5.0,
                                           multiplier=2.0, jitter=0.3,
                                           max_elapsed=None)
    seed: int = 0


class LiveDeployment:
    """Runs a :class:`ScenarioSpec` as one process per node on localhost."""

    def __init__(self, spec: ScenarioSpec, rundir: str, *,
                 kind: str = "uds",
                 restart_policy: Optional[RestartPolicy] = None,
                 heartbeat_period: float = 0.25) -> None:
        if kind not in ("uds", "tcp"):
            raise DeploymentError(f"unknown transport kind {kind!r}")
        self.spec = spec
        self.rundir = os.path.abspath(rundir)
        self.kind = kind
        self.restart_policy = restart_policy
        self.heartbeat_period = float(heartbeat_period)
        self.addresses = None
        self._procs: Dict[str, subprocess.Popen] = {}
        self._logs: List[Any] = []
        self._env: Optional[Dict[str, str]] = None
        # --- supervision state ---
        self._exits: Dict[str, List[str]] = {n: [] for n in spec.nodes}
        self._restarts: Counter = Counter()
        self._reaped: Set[str] = set()      # current proc's exit recorded
        self._done: Set[str] = set()        # exited 0
        self._failed: Dict[str, str] = {}   # terminal nonzero exit
        self._held: Set[str] = set()        # chaos holds these down
        self._pending_restart: Dict[str, float] = {}  # node -> due time
        self._backoffs: Dict[str, Iterator[float]] = {}
        self._terminated = False

    # ------------------------------------------------------------ file layout
    @property
    def spec_path(self) -> str:
        return os.path.join(self.rundir, "spec.json")

    def out_path(self, node_id: str) -> str:
        return os.path.join(self.rundir, "out", f"{node_id}.json")

    def log_path(self, node_id: str) -> str:
        return os.path.join(self.rundir, "log", f"{node_id}.log")

    def control_path(self, node_id: str) -> str:
        return control_address(self.rundir, node_id)

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Write the spec and spawn one node process per node id."""
        for sub in ("ready", "out", "log", "ctl", "epoch"):
            os.makedirs(os.path.join(self.rundir, sub), exist_ok=True)
        self.addresses = make_addresses(self.spec.nodes, self.kind,
                                        self.rundir)
        document = {
            "spec": self.spec.to_dict(),
            "kind": self.kind,
            "rundir": self.rundir,
            "addresses": {n: list(a) if isinstance(a, tuple) else a
                          for n, a in self.addresses.items()},
            "control": {n: self.control_path(n) for n in self.spec.nodes},
            "heartbeat_period": self.heartbeat_period,
        }
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_root if not existing
                             else src_root + os.pathsep + existing)
        self._env = env
        for node_id in self.spec.nodes:
            self._spawn(node_id)

    def _spawn(self, node_id: str, *, recovering: bool = False) -> None:
        args = [sys.executable, "-m", "repro.live.node_main",
                self.spec_path, node_id]
        if recovering:
            args.append("--recovering")
        # append on restart so one log file tells the node's whole story
        log = open(self.log_path(node_id), "a" if recovering else "w",
                   encoding="utf-8")
        self._logs.append(log)
        self._reaped.discard(node_id)
        self._procs[node_id] = subprocess.Popen(
            args, stdout=log, stderr=subprocess.STDOUT, env=self._env)

    # ------------------------------------------------------------- supervision
    def poll(self) -> None:
        """Reap exits, record statuses, launch due restarts.  Idempotent and
        cheap; :meth:`wait` calls it in a loop, chaos controllers call it
        from their tick."""
        if self._terminated:
            return
        now = time.monotonic()
        for node_id, due in list(self._pending_restart.items()):
            if due <= now:
                del self._pending_restart[node_id]
                self._spawn(node_id, recovering=True)
        for node_id, proc in list(self._procs.items()):
            if node_id in self._reaped:
                continue
            returncode = proc.poll()
            if returncode is None:
                continue
            self._reaped.add(node_id)
            status = describe_exit(returncode)
            self._exits[node_id].append(status)
            if returncode == 0:
                self._done.add(node_id)
            elif node_id in self._held:
                pass  # chaos killed it; a plan recovery restarts it
            elif (self.restart_policy is not None
                  and self._restarts[node_id]
                  < self.restart_policy.max_restarts):
                self._restarts[node_id] += 1
                delay = next(self._node_backoff(node_id))
                self._pending_restart[node_id] = now + delay
            else:
                self._failed[node_id] = status

    def _node_backoff(self, node_id: str) -> Iterator[float]:
        assert self.restart_policy is not None
        delays = self._backoffs.get(node_id)
        if delays is None:
            # per-node seeded jitter: deterministic given (policy seed, node)
            rng = np.random.default_rng(
                (self.restart_policy.seed,
                 zlib.crc32(node_id.encode("utf-8"))))
            delays = self.restart_policy.backoff.delays(rng)
            self._backoffs[node_id] = delays
        return delays

    def kill_node(self, node_id: str, *,
                  sig: int = signal.SIGKILL, hold: bool = True) -> None:
        """Deliver a crash to a real process (the chaos CRASH action).

        ``hold=True`` pins the node down — the supervisor will not restart
        it until :meth:`restart_node` — so a plan's downtime window is
        honoured even when a restart policy is active.
        """
        if node_id not in self._procs:
            raise DeploymentError(f"unknown node {node_id!r}")
        if hold:
            self._held.add(node_id)
        self._pending_restart.pop(node_id, None)
        proc = self._procs[node_id]
        if proc.poll() is None:
            proc.send_signal(sig)

    def restart_node(self, node_id: str, *, recovering: bool = True) -> None:
        """Respawn a (held or crashed) node now (the chaos RECOVER action)."""
        if node_id not in self._procs:
            raise DeploymentError(f"unknown node {node_id!r}")
        self.poll()  # make sure the previous incarnation's exit is recorded
        self._held.discard(node_id)
        self._failed.pop(node_id, None)
        self._pending_restart.pop(node_id, None)
        if self._procs[node_id].poll() is None:
            return  # still running; nothing to do
        self._restarts[node_id] += 1
        self._spawn(node_id, recovering=recovering)

    def restarts(self, node_id: str) -> int:
        return self._restarts[node_id]

    def is_running(self, node_id: str) -> bool:
        proc = self._procs.get(node_id)
        return proc is not None and proc.poll() is None

    def _settled(self, node_id: str) -> bool:
        if node_id in self._done or node_id in self._failed:
            return True
        if node_id in self._pending_restart:
            return False
        # a held node whose process is dead stays down by design
        return (node_id in self._held
                and self._procs[node_id].poll() is not None)

    # ------------------------------------------------------------------ wait
    def wait(self, *, grace: float = 30.0,
             on_tick: Optional[Callable[[], None]] = None,
             require_all_outcomes: bool = True) -> Dict[str, Dict[str, Any]]:
        """Supervise until every node settles; return per-node outcomes.

        The deadline is the scenario duration plus barrier/teardown grace.
        ``on_tick`` runs every supervision poll (~50 Hz) — the chaos
        controller's entry point.  A node that misses the deadline, or
        exits nonzero with no restart budget left, fails the deployment
        with its log tail in the error message.  With
        ``require_all_outcomes=False`` (chaos runs where a plan may leave
        nodes dead), nodes without an outcome file are simply absent from
        the result instead of failing the run.
        """
        deadline = time.monotonic() + self.spec.duration + grace
        while True:
            self.poll()
            if on_tick is not None:
                on_tick()
            if all(self._settled(n) for n in self.spec.nodes):
                break
            if time.monotonic() > deadline:
                for node_id in self.spec.nodes:
                    if not self._settled(node_id):
                        self._failed.setdefault(
                            node_id, "still running at deadline")
                break
            time.sleep(0.02)
        if self._failed:
            failures = [f"{n}: {status}\n{self._log_tail(n)}"
                        for n, status in sorted(self._failed.items())]
            self.terminate()
            raise DeploymentError("live deployment failed:\n"
                                  + "\n".join(failures))
        outcomes = {}
        for node_id in self.spec.nodes:
            path = self.out_path(node_id)
            if not os.path.exists(path):
                if require_all_outcomes:
                    raise DeploymentError(
                        f"{node_id} exited 0 without writing {path}")
                continue  # stayed dead under the fault plan
            with open(path, "r", encoding="utf-8") as fh:
                outcome = json.load(fh)
            outcome["exit_status"] = list(self._exits[node_id])
            outcome["restarts"] = self._restarts[node_id]
            outcomes[node_id] = outcome
        return outcomes

    def run(self, *, grace: float = 30.0) -> Dict[str, Dict[str, Any]]:
        """start() + wait() + teardown, returning the collected outcomes."""
        self.start()
        try:
            return self.wait(grace=grace)
        finally:
            self.terminate()

    # ---------------------------------------------------------------- report
    def report(self) -> Dict[str, Dict[str, Any]]:
        """Always-available per-node status: exit history (code or signal
        name), restart count, current state, and a log tail for any node
        whose last exit was nonzero."""
        self.poll()
        report: Dict[str, Dict[str, Any]] = {}
        for node_id in self.spec.nodes:
            proc = self._procs.get(node_id)
            if node_id in self._failed:
                state = "failed"
            elif node_id in self._done:
                state = "done"
            elif node_id in self._pending_restart:
                state = "restart-pending"
            elif node_id in self._held and (proc is None
                                            or proc.poll() is not None):
                state = "held-down"
            elif proc is not None and proc.poll() is None:
                state = "running"
            else:
                state = "exited"
            exits = list(self._exits[node_id])
            entry: Dict[str, Any] = {
                "exits": exits,
                "exit_status": exits[-1] if exits else None,
                "restarts": self._restarts[node_id],
                "state": state,
            }
            if exits and exits[-1] != "exit 0":
                entry["log_tail"] = self._log_tail(node_id)
            report[node_id] = entry
        return report

    # ------------------------------------------------------------- teardown
    def terminate(self) -> None:
        """Stop any still-running node processes (TERM, then KILL).

        Idempotent: safe to call from ``finally`` blocks after an explicit
        call, and it cancels pending restarts so nothing respawns under a
        teardown.
        """
        self._terminated = True
        self._pending_restart.clear()
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 5.0
        for proc in self._procs.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        # record the final exits ourselves — poll() is a no-op once
        # terminated, but report() must still show every node's last status
        for node_id, proc in self._procs.items():
            if node_id not in self._reaped and proc.poll() is not None:
                self._reaped.add(node_id)
                self._exits[node_id].append(describe_exit(proc.returncode))
        for log in self._logs:
            try:
                log.close()
            except OSError:
                pass
        self._logs.clear()

    def _log_tail(self, node_id: str, lines: int = 20) -> str:
        try:
            with open(self.log_path(node_id), "r", encoding="utf-8") as fh:
                return "".join(fh.readlines()[-lines:])
        except OSError:
            return "<no log>"
