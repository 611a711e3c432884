"""Multiprocess live deployment: bring-up, barrier, respawn, teardown.

:class:`LiveDeployment` boots one OS process per node (``python -m
repro.live.node_main <spec.json> <node_id>``), each running the per-node
stack from :mod:`repro.live.scenario` over UNIX sockets or localhost TCP.

Bring-up protocol: the parent writes ``spec.json`` (scenario + address book
+ run directory + the fault plan, which every node arms on its own clock)
and spawns the children; each child binds its listening socket, touches
``ready/<node_id>``, then polls until *every* ready file exists; only then
does it rebase its clock to t=0, record the epoch in ``epoch/<node_id>``,
and start the scenario schedule — so all nodes enter the workload within
the barrier's polling jitter.  On completion each child writes
``out/<node_id>.json`` with its protocol outcomes and exits 0.

A node dies only by its own plan crash (a SIGKILL it sends itself), and
the parent only reaps and respawns: :meth:`poll` records each exit
(``exit 0`` / ``SIGKILL`` / ...), and on a node's k-th ``SIGKILL`` it
respawns the node at once with ``--recovering`` if the plan recovers it
after its k-th crash — the new incarnation replays its journal
(``state/<node_id>``), rebases onto the *original* epoch and rejoins at
the planned instant — or settles it as down if the plan never does.  Any
other nonzero exit, or a ``SIGKILL`` beyond the plan's crashes of the
node, fails the run with a :class:`DeploymentError` naming the node, its
exit status and its log tail.  :meth:`terminate` is idempotent.  Per-node
stdout/stderr land in ``log/<node_id>.log`` for post-mortems (the CI jobs
upload them).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Set

from repro.live.scenario import ScenarioSpec, make_addresses
from repro.scenarios.plan import FaultPlan
from repro.transport.errors import TransportError

#: how long past the scenario's duration :meth:`LiveDeployment.wait` lets
#: the nodes pass the barrier, finish and write their outcomes
WAIT_GRACE = 30.0


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


class LiveDeployment:
    """Runs a :class:`ScenarioSpec` as one process per node on localhost.

    ``plan`` (a :class:`FaultPlan` over the spec's nodes, else
    ``ValueError``) is the run's fault plan: it travels in ``spec.json``,
    and its crashes and recoveries decide which exits respawn a node."""

    def __init__(self, spec: ScenarioSpec, rundir: str, *,
                 kind: str = "uds", plan: Optional[FaultPlan] = None) -> None:
        if kind not in ("uds", "tcp"):
            raise DeploymentError(f"unknown transport kind {kind!r}")
        self.plan = plan or FaultPlan()
        self.plan.validate(spec.nodes)
        self.spec = spec
        self.rundir = os.path.abspath(rundir)
        self.kind = kind
        self.addresses = None
        self._procs: Dict[str, subprocess.Popen] = {}
        self._logs: List[Any] = []
        self._env: Optional[Dict[str, str]] = None
        self._exits: Dict[str, List[str]] = {n: [] for n in spec.nodes}
        self._reaped: Set[str] = set()      # current proc's exit recorded
        self._done: Set[str] = set()        # exited 0
        self._failed: Dict[str, str] = {}   # nonzero exit nobody ordered
        self._down: Set[str] = set()        # killed; the plan keeps it down

    # ------------------------------------------------------------ file layout
    @property
    def spec_path(self) -> str:
        return os.path.join(self.rundir, "spec.json")

    def out_path(self, node_id: str) -> str:
        return os.path.join(self.rundir, "out", f"{node_id}.json")

    def log_path(self, node_id: str) -> str:
        return os.path.join(self.rundir, "log", f"{node_id}.log")

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Write the spec and spawn one node process per node id."""
        for sub in ("ready", "out", "log", "epoch", "state"):
            os.makedirs(os.path.join(self.rundir, sub), exist_ok=True)
        self.addresses = make_addresses(self.spec.nodes, self.kind,
                                        self.rundir)
        document = {
            "spec": self.spec.to_dict(),
            "kind": self.kind,
            "rundir": self.rundir,
            "addresses": {n: list(a) if isinstance(a, tuple) else a
                          for n, a in self.addresses.items()},
            "plan": self.plan.to_dict(),
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

    def poll(self) -> None:
        """Reap exits, record statuses and respawn what the plan recovers.
        Cheap; :meth:`wait` calls it in a loop."""
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
                continue
            # the k-th SIGKILL is the node's k-th planned crash, or nobody's
            downtimes = self.plan.downtimes(node_id)
            kills = self._exits[node_id].count("SIGKILL")
            if returncode != -signal.SIGKILL or kills > len(downtimes):
                self._failed[node_id] = status
            elif downtimes[kills - 1][1] is None:
                self._down.add(node_id)
            else:
                self._spawn(node_id, recovering=True)

    def is_running(self, node_id: str) -> bool:
        proc = self._procs.get(node_id)
        return proc is not None and proc.poll() is None

    # ------------------------------------------------------------------ wait
    def wait(self) -> Dict[str, Dict[str, Any]]:
        """Poll until every node has exited 0 or is down for good; return
        the per-node outcomes, each annotated with its ``exit_status``
        history.

        A nonzero exit nobody ordered, or a node still running past the
        scenario duration plus :data:`WAIT_GRACE`, fails the deployment
        with the node's log tail in the error message.  Only a node the
        plan leaves down may lack an outcome file; it is absent from the
        result.
        """
        deadline = time.monotonic() + self.spec.duration + WAIT_GRACE
        while True:
            self.poll()
            if self._failed:
                break
            settled = self._done | self._down
            if settled.issuperset(self.spec.nodes):
                break
            if time.monotonic() > deadline:
                for node_id in self.spec.nodes:
                    if node_id not in settled:
                        self._failed[node_id] = "still running at deadline"
                break
            time.sleep(0.02)
        if self._failed:
            failures = [f"{n}: {status}; log tail:\n{self._log_tail(n)}"
                        for n, status in sorted(self._failed.items())]
            self.terminate()
            raise DeploymentError("live deployment failed:\n"
                                  + "\n".join(failures))
        outcomes = {}
        for node_id in self.spec.nodes:
            path = self.out_path(node_id)
            if not os.path.exists(path):
                if node_id in self._down:
                    continue  # the plan left it dead
                raise DeploymentError(
                    f"{node_id} exited 0 without writing {path}")
            with open(path, "r", encoding="utf-8") as fh:
                outcome = json.load(fh)
            outcome["exit_status"] = list(self._exits[node_id])
            outcomes[node_id] = outcome
        return outcomes

    # ------------------------------------------------------------- teardown
    def terminate(self) -> None:
        """Stop any still-running node processes (TERM, then KILL).
        Idempotent: safe to call from ``finally`` blocks after an explicit
        call."""
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
        for log in self._logs:
            try:
                log.close()
            except OSError:
                pass
        self._logs.clear()

    def _log_tail(self, node_id: str, lines: int = 20) -> str:
        try:
            with open(self.log_path(node_id), "r", encoding="utf-8") as fh:
                return "".join(fh.readlines()[-lines:]) or "<empty log>"
        except OSError:
            return "<no log>"
