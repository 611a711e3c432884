"""The three schedules the point functions share.

Each helper issues its ``call_at`` calls in the order, at the times and
under the labels (``warmup``, ``sample``, ``wl:<object>``) the loops it
replaced did, so event sequence numbers — and every pinned trace — hold.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.core.deployment import IdeaDeployment
from repro.transport.timers import PeriodicTimer


def schedule_warmup(deployment: IdeaDeployment, nodes: Sequence[str],
                    act: Callable[[int, str], object], *, first: float = 1.0,
                    gap: float = 0.5) -> None:
    """``act(i, node)`` once per node, ``gap`` apart from ``first``: one
    update each, so the temperature overlay promotes them all to the top
    layer before the measured window."""
    for i, node in enumerate(nodes):
        deployment.sim.call_at(first + gap * i,
                               lambda i=i, node=node: act(i, node),
                               label="warmup")


def run_sampled(deployment: IdeaDeployment,
                read: Callable[[], Tuple[float, float]], *, start: float,
                duration: float, sample_period: float, lag: float
                ) -> Tuple[List[float], List[float], List[float]]:
    """Run the measured window, reading ``(worst, average)`` every period.

    The paper samples every five seconds and its curves show the dips the
    updates cause before IDEA resolves them; ``lag`` puts each sample just
    after the update burst on the same period.  Returns ``(sample times
    since start, worst levels, average levels)``.
    """
    times: List[float] = []
    worst: List[float] = []
    average: List[float] = []

    def sample() -> None:
        low, mean = read()
        times.append(deployment.sim.now - start)
        worst.append(low)
        average.append(mean)

    for k in range(1, int(duration // sample_period) + 1):
        deployment.sim.call_at(start + k * sample_period + lag, sample,
                               label="sample")
    deployment.run(until=start + duration + sample_period)
    return times, worst, average


def start_object_writers(deployment: IdeaDeployment, object_id: str,
                         index: int, *, writers_per_object: int,
                         write_period: float, offset: float) -> None:
    """Periodic writers for the ``index``-th object, staggered over a period.

    Writer ``w`` (of at most one per node) is node ``(index + w) mod N`` and
    first writes at ``0.05 + write_period · w / writers_per_object + offset``
    so digest exchanges do not all collide; a crashed writer skips its rounds.
    """
    node_ids = deployment.node_ids
    writers_per_object = min(writers_per_object, len(node_ids))
    for w in range(writers_per_object):
        node_id = node_ids[(index + w) % len(node_ids)]
        middleware = deployment.middleware(object_id, node_id)
        node = deployment.nodes[node_id]

        def write(m=middleware, n=node) -> None:
            if n.alive:
                m.write(metadata_delta=1.0)

        timer = PeriodicTimer(deployment.sim, write, period=write_period,
                              label=f"wl:{object_id}")
        deployment.sim.call_at(
            0.05 + write_period * (w / writers_per_object) + offset,
            timer.start)
