"""Transport-seam guarantees: import boundary and RPC lifecycle hygiene.

Three families of checks:

* The protocol layers (``core``, ``overlay``, ``runtime``, ``store``,
  ``scenarios``) must speak only the :mod:`repro.transport` interfaces —
  no direct imports of the simulation backend.  ``core/deployment.py`` is
  the one documented exception: it *is* the sim-backend composition root
  (it constructs the Simulator, Network, topology and latency models).
* Both transport backends subclass the seam's ``Transport`` base and
  restate nothing it owns.
* ``ProtocolEndpoint``'s ``_PendingRequest`` lifecycle: an RPC that
  completes exceptionally must always cancel its armed timeout timer, so
  no timeout handle leaks into the clock's queue (PR 8 satellite fix).
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.live.transport import LiveTransport
from repro.sim.network import Network
from repro.sim.node import Node
from repro.transport import (Clock, PeriodicTimer, ProtocolEndpoint, RPCError,
                             Transport)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: layers that must not import the simulation backend directly
BOUNDARY_PACKAGES = ("core", "overlay", "runtime", "store", "scenarios")

#: sim modules that are backend implementation detail, not seam surface
FORBIDDEN_MODULES = ("repro.sim.engine", "repro.sim.network", "repro.sim.node",
                     "repro.sim")

#: the sim composition root: builds Simulator/Network/topology by design
ALLOWED_EXCEPTIONS = {SRC / "core" / "deployment.py"}

#: the deployment and the classes its node stacks are made of, and the one
#: file under src/repro that may construct them: the assembly
STACK_CLASSES = {"IdeaDeployment", "ReplicatedStore", "NodeRuntime",
                 "IdeaMiddleware", "GossipService", "RanSubService",
                 "TwoLayerOverlay"}
STACK_ASSEMBLERS = {"core/deployment.py": STACK_CLASSES}

#: the two transport backends: each adds to the ``Transport`` base only how
#: a message moves
TRANSPORT_BACKENDS = {"sim/network.py": "Network",
                      "live/transport.py": "LiveTransport"}


def _class_members(relative: str, name: str):
    """Class ``name``'s bases in ``src/repro/<relative>``, and ``{member:
    body}`` for each method (its statements), class attribute and ``self.``
    attribute it assigns (``None``)."""
    tree = ast.parse((SRC / relative).read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == name]
    members = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef) and node in cls.body:
            members[node.name] = node.body
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name) and node in cls.body:
                members.setdefault(target.id, None)
            elif (isinstance(target, ast.Attribute)
                    and ast.unparse(target.value) == "self"):
                members.setdefault(target.attr, None)
    return [ast.unparse(base) for base in cls.bases], members


def _calls(path: pathlib.Path):
    """``(line, name)`` of every call in ``path`` to a bare or dotted name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            callee = node.func
            yield node.lineno, (callee.id if isinstance(callee, ast.Name)
                                else getattr(callee, "attr", None))


def _imported_modules(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


class TestImportBoundary:
    def test_protocol_layers_do_not_import_sim_backend(self):
        violations = []
        for package in BOUNDARY_PACKAGES:
            for path in sorted((SRC / package).rglob("*.py")):
                if path in ALLOWED_EXCEPTIONS:
                    continue
                for module in _imported_modules(path):
                    if (module in FORBIDDEN_MODULES
                            or module.startswith("repro.sim.")):
                        violations.append(f"{path.relative_to(SRC)}: {module}")
        assert violations == []

    def test_deployment_is_the_only_exception(self):
        # The exception list stays honest: deployment.py really does import
        # the backend (otherwise the exclusion is dead weight).
        modules = set(_imported_modules(SRC / "core" / "deployment.py"))
        assert any(m.startswith("repro.sim") for m in modules)

    def test_node_stacks_are_assembled_in_one_place(self):
        """Sim and live both build through DeploymentBuilder: nothing
        else wires a store, runtime, middleware, gossip/RanSub service or
        overlay, and nothing outside the builder constructs a deployment —
        the examples and the tests included."""
        violations = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            forbidden = STACK_CLASSES - STACK_ASSEMBLERS.get(relative, set())
            violations += [f"{relative}:{line}: {name}(...)"
                           for line, name in _calls(path) if name in forbidden]
        root = SRC.parent.parent
        scripts = [*root.glob("examples/*.py"), *root.glob("tests/*.py")]
        assert len(scripts) > 3
        for path in sorted(scripts):
            violations += [f"{path.relative_to(root)}:{line}: {name}(...)"
                           for line, name in _calls(path)
                           if name == "IdeaDeployment"]
        assert violations == []
        # ...and the live oracle runs the builder's simulator host, not a
        # private Simulator/Network/Node look-alike.
        modules = set(_imported_modules(SRC / "live" / "scenario.py"))
        assert not modules & {"repro.sim.engine", "repro.sim.network",
                              "repro.sim.node"}

    def test_tier1_and_src_stay_clear_of_the_benchmark_scripts(self):
        """One benchmark gate: determinism is literals in these tests and
        performance is the ledger (``BENCHMARK.json``), so nothing here reads
        a regenerable benchmark JSON or imports a benchmark script."""
        root = SRC.parent.parent
        needle = "BENCH" + "_"  # assembled so this file does not match itself
        violations = []
        for tree in (root / "src", root / "tests"):
            for path in sorted(tree.rglob("*")):
                if not path.is_file() or "__pycache__" in path.parts:
                    continue
                if needle.encode() in path.read_bytes():
                    violations.append(f"{path.relative_to(root)}: {needle}")
                if path.suffix != ".py":
                    continue
                violations += [
                    f"{path.relative_to(root)}: imports {module}"
                    for module in _imported_modules(path)
                    if any(part == "benchmarks" or part.startswith("bench_")
                           for part in module.split("."))]
        assert violations == []
        assert sorted(p.name for p in root.glob(needle + "*.json")) == []

    def test_simulator_satisfies_clock_protocol(self):
        assert isinstance(Simulator(seed=0), Clock)

    def test_backends_state_the_transport_base_once(self):
        """Membership, the partition rule, the loss bound and the drop
        ledger live in ``Transport``: a backend assigns no member the base
        owns and defines one only to extend it (opening with
        ``super().<name>(...)``), so the copies cannot grow back."""
        assert issubclass(Network, Transport)
        assert issubclass(LiveTransport, Transport)
        _, base = _class_members("transport/api.py", "Transport")
        owned = {name for name, body in base.items() if name != "__init__" and
                 not (body and ast.unparse(body[-1]) == "raise NotImplementedError")}
        assert {"register", "unregister", "node_ids", "node", "has_node",
                "_known", "_nodes", "stats", "_group_of", "_loss_bound", "_drop",
                "_count_drop", "messages_sent", "bytes_sent",
                "DEFAULT_MESSAGE_BYTES"} <= owned
        for relative, name in TRANSPORT_BACKENDS.items():
            bases, members = _class_members(relative, name)
            assert bases == ["Transport"]
            restated = [member for member in sorted(owned & members.keys())
                        if not (members[member] and ast.unparse(members[member][0])
                                .startswith(f"super().{member}("))]
            assert restated == [], relative


class _ExplodingLatency(LatencyModel):
    """Latency model that can be armed to fail the next send."""

    explode = False

    def delay(self, src: str, dst: str) -> float:
        if self.explode:
            raise RuntimeError("injected transport failure")
        return super().delay(src, dst)


def _pair(processing_delay: float = 0.0):
    sim = Simulator(seed=1)
    latency = _ExplodingLatency.fixed(0.01)
    network = Network(sim, latency)
    a = Node(sim, network, "a", processing_delay=processing_delay)
    b = Node(sim, network, "b", processing_delay=processing_delay)
    return sim, latency, network, a, b


class TestPendingRequestLifecycle:
    def test_unexpected_send_failure_cancels_timeout(self):
        """Regression: a send that raises mid-request must not leave the
        armed timeout event in the queue (it used to fire a phantom
        ("timeout", None) seconds later) nor leak the pending entry."""
        sim, latency, network, a, b = _pair()
        latency.explode = True
        with pytest.raises(RuntimeError, match="injected transport failure"):
            a.request("b", "echo", protocol="test", timeout=5.0)
        assert a._pending == {}
        # The timeout handle was cancelled: nothing is left to run.
        assert len(sim._queue) == 0
        assert sim.run_until_idle() == 0.0

    def test_unexpected_send_failure_settles_waiter(self):
        sim, latency, network, a, b = _pair()
        latency.explode = True
        try:
            a.request("b", "echo", protocol="test", timeout=5.0)
        except RuntimeError:
            pass
        # A fresh request after the failure still works end to end.
        latency.explode = False
        b.register_rpc("echo", lambda args: args)
        waiter = a.request("b", "echo", {"x": 1}, protocol="test", timeout=5.0)
        sim.run_until_idle()
        assert waiter.value == ("ok", {"x": 1})
        assert a._pending == {}

    def test_crash_cancels_outstanding_timeout(self):
        sim, latency, network, a, b = _pair(processing_delay=1.0)
        b.register_rpc("slow", lambda args: "done")
        waiter = a.request("b", "slow", protocol="test", timeout=5.0)
        sim.run(until=0.05)  # request delivered, response still pending
        a.fail()
        assert waiter.triggered
        assert waiter.value == ("error", "a crashed")
        assert a._pending == {}
        sim.run(until=10.0)  # past the timeout: no phantom second trigger
        assert waiter.value == ("error", "a crashed")

    def test_never_registered_destination_cancels_timeout(self):
        sim, latency, network, a, b = _pair()
        waiter = a.request("ghost", "echo", protocol="test", timeout=5.0)
        assert waiter.value == ("error", "destination 'ghost' is unreachable")
        assert a._pending == {}
        assert len(sim._queue) == 0

    def test_remote_error_cancels_timeout(self):
        sim, latency, network, a, b = _pair()

        def boom(args):
            raise ValueError("nope")

        b.register_rpc("boom", boom)
        waiter = a.request("b", "boom", protocol="test", timeout=5.0)
        sim.run(until=1.0)
        assert waiter.triggered
        status, detail = waiter.value
        assert status == "error" and "nope" in detail
        # Exceptional completion cancelled the armed timeout.
        assert a._pending == {}
        assert len(sim._queue) == 0

    def test_timeout_path_still_fires(self):
        sim, latency, network, a, b = _pair(processing_delay=10.0)
        b.register_rpc("slow", lambda args: "done")
        waiter = a.request("b", "slow", protocol="test", timeout=2.0)
        sim.run(until=3.0)
        assert waiter.value == ("timeout", None)
        assert a._pending == {}


class TestSeamPortability:
    def test_periodic_timer_only_needs_call_after(self):
        """The timer contract the live backend relies on: any object with
        ``call_after`` returning a cancellable handle can drive it."""

        class MiniClock:
            def __init__(self):
                self.sim = Simulator(seed=0)

            def call_after(self, delay, callback, **kwargs):
                return self.sim.call_after(delay, callback)

        clock = MiniClock()
        ticks = []
        timer = PeriodicTimer(clock, lambda: ticks.append(1), period=1.0)
        timer.start()
        clock.sim.run(until=3.5)
        assert len(ticks) == 3
        timer.cancel()
        clock.sim.run(until=5.5)
        assert len(ticks) == 3

    def test_endpoint_is_backend_neutral(self):
        assert issubclass(Node, ProtocolEndpoint)
        sim = Simulator(seed=3)
        network = Network(sim, LatencyModel.fixed(0.01))
        node = Node(sim, network, "n0")
        assert node.clock is sim
        assert node.transport is network

    def test_rpc_error_is_transport_error(self):
        from repro.transport import TransportError
        assert issubclass(RPCError, TransportError)
