"""Inputs of the three workloads, generated from the run seed.

Each workload is a closed loop from one caller that replays a *pass*: a
fixed list of requests.  The in-process workloads repeat the same pass
(the engine keeps no results between requests, so a repeat costs what
the first run did); the service workload draws fresh requests for every
pass so its cache sees both reads and writes.  A pass always does the
same work, so the exact counts of every pass in a run must agree.

Why these inputs (measured on a 2-core x86 host, Python 3.11, NumPy 2.4):

* ``skew-vec`` — Chung-Lu graph over a Zipf degree sequence (n=6000,
  gamma=2.1, mean degree 5, hub cap 300), reduced to its largest
  component: n~5.3k, m~14.6k, max/mean degree ~52x, sum of squared
  degrees ~1.55M.  A trial takes 0.3-1 s and stays under 200 MB.  Hubs
  make the DP tables grow with the squared degrees, so the kernel's
  expand and group-sum steps and the adaptive scheduler do nearly all
  the work.
* ``road-dist`` — ``grid_road_network(250, 250)`` (m~127k, max degree 7)
  sharded over 2 worker processes: many cheap rows, so the superstep
  exchange through the master carries its largest share here.  It is
  the low-skew control where a kernel change for hubs must not lose.
* ``service-mixed`` — two small graphs (one skewed, one grid) behind
  ``repro-serve``: kernels are small, so parsing, fingerprinting, the
  cache, the queue, JSON and the socket carry the hits.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .common import sub_seed

WORKLOADS = ("skew-vec", "road-dist", "service-mixed")

#: per-layer metrics (name prefixes) of layers a workload does not run in
#: the benchmark process; they read 0, and any other missing metric fails
#: the traced run
UNMEASURED = {
    "skew-vec": ("dist.", "service."),
    # the kernels run inside the shard workers
    "road-dist": ("kernel.", "service."),
    # the engine runs inside the server process
    "service-mixed": ("decomposition.", "colorings.", "kernel.", "dist.",
                      "engine.self_ms_per_trial", "engine.early_stop_frac"),
}

# -- skew-vec ---------------------------------------------------------------
SKEW_N, SKEW_GAMMA, SKEW_AVG, SKEW_CAP = 6000, 2.1, 5.0, 300
SKEW_QUERIES = ("glet1", "youtube", "wiki")
#: adaptive precision of every skew-vec request
SKEW_PRECISION = dict(rel_error=0.25, confidence=0.9, min_trials=4, max_trials=16)

# -- road-dist --------------------------------------------------------------
ROAD_ROWS = ROAD_COLS = 250
ROAD_QUERIES = ("wiki", "ecoli1")
ROAD_TRIALS = 2
ROAD_SHARDS = 2

# -- service-mixed ----------------------------------------------------------
SVC_SKEW = (1000, 2.1, 4.0, 60)  # n, gamma, mean degree, hub cap
SVC_GRID = (50, 50)
#: (dataset, query) pairs of the fresh requests, chosen close in cost
SVC_MIX = (("skew", "glet1"), ("skew", "youtube"), ("grid", "wiki"), ("grid", "glet1"))
SVC_TRIALS = 2
#: cached reads replayed after each fresh request
SVC_HITS_PER_FRESH = 10


def skew_graph(seed: int):
    import numpy as np

    from repro.graph.degree import zipf_degree_sequence
    from repro.graph.generators import chung_lu
    from repro.graph.properties import largest_component_subgraph

    rng = np.random.default_rng(sub_seed(seed, 1))
    degrees = zipf_degree_sequence(SKEW_N, SKEW_GAMMA, SKEW_AVG, max_degree=SKEW_CAP, rng=rng)
    return largest_component_subgraph(chung_lu(degrees, rng, name="skew"))


def road_graph(seed: int):
    import numpy as np

    from repro.graph.generators import grid_road_network

    rng = np.random.default_rng(sub_seed(seed, 2))
    return grid_road_network(ROAD_ROWS, ROAD_COLS, rng, name="road")


def service_graphs(seed: int):
    import numpy as np

    from repro.graph.degree import zipf_degree_sequence
    from repro.graph.generators import chung_lu, grid_road_network
    from repro.graph.properties import largest_component_subgraph

    n, gamma, avg, cap = SVC_SKEW
    rng = np.random.default_rng(sub_seed(seed, 3))
    skew = largest_component_subgraph(
        chung_lu(zipf_degree_sequence(n, gamma, avg, max_degree=cap, rng=rng), rng, name="skew")
    )
    grid = grid_road_network(*SVC_GRID, rng, name="grid")
    return {"skew": skew, "grid": grid}


def engine_pass(workload: str, seed: int) -> List[Tuple[str, int]]:
    """The (query, request seed) list one in-process pass replays."""
    queries = SKEW_QUERIES if workload == "skew-vec" else ROAD_QUERIES
    return [(q, sub_seed(seed, 10, i)) for i, q in enumerate(queries)]


def warm_seed(seed: int) -> int:
    return sub_seed(seed, 99)


SvcKey = Tuple[str, str, int]


class ServicePlan:
    """Deterministic request sequence of the service workload.

    Pass ``p`` sends ``len(SVC_MIX)`` fresh requests, each followed by
    ``SVC_HITS_PER_FRESH`` repeats of requests already answered, so every
    pass has the same number of cache writes and reads.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.known: List[SvcKey] = []

    def fresh(self, p: int) -> List[SvcKey]:
        return [(ds, q, sub_seed(self.seed, 20, p, i)) for i, (ds, q) in enumerate(SVC_MIX)]

    def pass_requests(self, p: int) -> List[Tuple[SvcKey, bool]]:
        """``[(key, expect_hit)]`` for pass ``p`` (passes run in order)."""
        rng = random.Random(sub_seed(self.seed, 21, p))
        out: List[Tuple[SvcKey, bool]] = []
        for key in self.fresh(p):
            out.append((key, False))
            self.known.append(key)
            for _ in range(SVC_HITS_PER_FRESH):
                out.append((self.known[rng.randrange(len(self.known))], True))
        return out


def service_body(key: SvcKey) -> Dict[str, object]:
    ds, q, s = key
    return {"dataset": ds, "query": q, "method": "ps-vec", "trials": SVC_TRIALS, "seed": s}
