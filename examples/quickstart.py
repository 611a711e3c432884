#!/usr/bin/env python3
"""Quickstart: a minimal IDEA deployment in ~40 lines.

Builds an 8-node simulated wide-area deployment, registers one shared object
managed by IDEA in hint-based mode, lets two far-apart nodes issue
conflicting writes, and shows how the consistency level each node perceives
drops and is restored when a resolution is demanded.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import AdaptationMode, DeploymentBuilder, IdeaAPI, IdeaConfig


def main() -> None:
    # 1. A simulated deployment: 8 nodes spread over a continental topology.
    deployment = DeploymentBuilder(num_nodes=8, seed=1).build()

    # 2. Register a shared object with IDEA (hint-based mode, hint 90%).
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.90,
                        background_period=None)
    deployment.register_object("notes", config, start_background=False)

    # 3. Configure IDEA through the Table-1 developer API.
    api = IdeaAPI(deployment, "notes", node_id="n00")
    api.set_consistency_metric(60, 60, 60)   # maxima for numerical/order/staleness
    api.set_weight(0.2, 0.6, 0.2)            # order preservation matters most
    api.set_resolution(2)                    # user-ID based conflict policy

    # 4. Two nodes write concurrently — replicas diverge.
    alpha = deployment.middleware("notes", "n00")
    beta = deployment.middleware("notes", "n03")
    alpha.write("alpha's paragraph", metadata_delta=1.0)
    deployment.run(until=2.0)
    beta.write("beta's paragraph", metadata_delta=1.0)
    deployment.run(until=4.0)

    print("perceived consistency after divergence:")
    for node in ("n00", "n03"):
        level = deployment.middleware("notes", node).current_level()
        print(f"  {node}: {level:.1%}")

    # 5. The user at n00 is not satisfied and demands an active resolution.
    alpha.demand_active_resolution()
    deployment.run(until=10.0)

    print("\nperceived consistency after active resolution:")
    for node in ("n00", "n03"):
        level = deployment.middleware("notes", node).current_level()
        print(f"  {node}: {level:.1%}")

    print("\ncontent now visible at n03:", deployment.middleware("notes", "n03").content())
    print("IDEA protocol messages exchanged:", deployment.idea_messages())


if __name__ == "__main__":
    main()
