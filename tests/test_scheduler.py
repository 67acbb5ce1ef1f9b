"""The engine's trial loop, on every execution mode.

One loop runs fixed and adaptive policies, in-process or on a fork pool
(``ps``/``ps-vec`` with ``workers > 1``), or sharded (``ps-dist``, where
``workers`` sizes the shard pool and trials run in-process).  The
sequential estimator ``estimate_matches`` is the independent reference:
whatever the mode, the colorful counts must be its first
``trials_used`` counts under the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counting.estimator import estimate_matches
from repro.engine import CountingEngine, PrecisionSpec
from repro.graph.generators import erdos_renyi
from repro.query.library import paper_query

SEED = 3

POLICIES = {
    "fixed": PrecisionSpec.fixed(5),
    # stops after about 8 trials on this graph, well inside the cap
    "adaptive": PrecisionSpec(rel_error=0.3, min_trials=3, max_trials=40),
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, np.random.default_rng(7), name="er60")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("method", ["ps", "ps-vec", "ps-dist"])
def test_trial_loop_matches_reference(graph, method, policy, workers):
    q = paper_query("glet1")
    spec = POLICIES[policy]
    snapshots = []
    with CountingEngine(graph) as engine:
        run = engine.count(
            q, precision=spec, seed=SEED, method=method, workers=workers,
            on_progress=snapshots.append,
        )

    ref = estimate_matches(graph, q, trials=run.trials_used, seed=SEED, method="ps")
    assert run.colorful_counts == ref.colorful_counts
    assert run.trials == run.trials_used == len(run.colorful_counts)
    if spec.is_adaptive:
        assert spec.min_trials <= run.trials_used < spec.max_trials
        assert run.stopped_early
    else:
        assert run.trials_used == spec.max_trials
        assert not run.stopped_early

    in_process = workers == 1 or method == "ps-dist"
    assert run.workers == workers
    if in_process:
        assert run.trial_times is not None
        assert len(run.trial_times) == run.trials_used
        assert all(t > 0 for t in run.trial_times)
        # a snapshot after every trial, before the next one starts
        assert [s["trials_done"] for s in snapshots] == list(
            range(1, run.trials_used + 1)
        )
    else:
        assert run.trial_times is None
        assert snapshots[-1]["trials_done"] == run.trials_used
