"""Figure 9: scalability of active resolution with the top-layer size.

Paper reference: Formula 2 (Delay(n) = 0.468 ms + 104.747 ms·(n−1))
extrapolated to n = 10 stays below one second.  The reproduction measures the
delay for top layers of 2..10 writers
(``repro.experiments.run("fig9", …)``), fits the same linear model and checks
the paper's qualitative claims: linear growth, background resolution no more
expensive than active, and sub-second delay at ten simultaneous writers.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import get, run


def bench_fig9_scalability(benchmark):
    result = benchmark.pedantic(
        lambda: run("fig9", max_top_layer=10, num_nodes=40, seed=19),
        rounds=1, iterations=1)
    print()
    print(get("fig9").report(result))

    # Delay grows with the top-layer size and the growth is roughly linear:
    # the fitted line explains the measurements well.
    assert result.active_delays[-1] > result.active_delays[0]
    predictions = np.array([result.fitted.predict(n) for n in result.sizes])
    measured = np.array(result.active_delays)
    correlation = np.corrcoef(predictions, measured)[0, 1]
    assert correlation > 0.9

    # The paper's headline: even ten simultaneous writers resolve in < 1 s.
    assert max(result.active_delays) < 1.0
    assert result.fitted.predict(10) < 1.0

    # Background resolution (Formula 3) has no phase-1 cost and is not slower.
    mean_active = float(np.mean(result.active_delays))
    mean_background = float(np.mean(result.background_delays))
    assert mean_background <= mean_active * 1.2
