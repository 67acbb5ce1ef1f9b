"""Regenerate ``references.json``: reference counts for the committed seeds.

    python3 ccbench/make_refs.py

For every seed in ``refs.REF_SEEDS``, every request of the workloads
(for ``service-mixed``, the fresh requests of ``refs.REF_PASSES`` passes)
is counted three ways — in-process ``ps-vec``, in-process ``ps-dist`` and
through a ``repro-serve`` process — and the file is written only if all
three agree.  It also records the exact counts of one pass (trials per
request, early stops, kernel rows, exchanged rows and supersteps) that
every run of that seed must repeat.  Takes about an hour on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _service_counts(server_url: str, bodies: List[Dict[str, Any]]) -> List[List[int]]:
    from ccbench.service_workload import Client

    client = Client(server_url)
    out = []
    try:
        for body in bodies:
            status, data = client.call("POST", "/count", json.dumps(body).encode())
            if status != 200:
                raise RuntimeError(f"{body}: HTTP {status} {data[:200]!r}")
            out.append([int(c) for c in json.loads(data)["result"]["colorful_counts"]])
    finally:
        client.close()
    return out


def _agree(label: str, keys: List[Any], **paths: List[List[int]]) -> None:
    names = list(paths)
    for i, key in enumerate(keys):
        values = {n: paths[n][i] for n in names}
        if len({json.dumps(v) for v in values.values()}) != 1:
            raise SystemExit(f"{label} {key}: paths disagree: {values}")
    print(f"{label}: {len(keys)} requests agree across {', '.join(names)}", flush=True)


def engine_refs(name: str, seed: int, work: str) -> Dict[str, Any]:
    from ccbench import refs
    from ccbench.engine_workload import EngineWorkload, _dist_counters
    from ccbench.service_workload import Server
    from ccbench.tracing import LayerHooks, Tracer
    from ccbench.workloads import ROAD_SHARDS, ROAD_TRIALS, SKEW_PRECISION
    from repro.graph.io import write_edge_list

    wl = EngineWorkload(name, seed)
    wl.setup()
    keys = refs.committed_keys(name, seed)
    hooks = LayerHooks(Tracer()).install()
    if hooks.missing:
        raise SystemExit(f"hook targets missing: {hooks.missing}")
    counters0 = _dist_counters()
    measured = [wl.count(q, s) for q, s in keys]
    counters1 = _dist_counters()
    hooks.remove()
    wl.close()
    exact: Dict[str, Any] = {
        "trials": [int(r.trials_used) for r in measured],
        "stopped_early": [bool(r.stopped_early) for r in measured],
    }
    if wl.dist:
        exact["dist_rows"] = counters1[0] - counters0[0]
        exact["dist_supersteps"] = counters1[1] - counters0[1]
    else:
        exact["kernel_rows"] = sum(t[0] for t in hooks.solver_tables)
    here = [[int(c) for c in r.colorful_counts] for r in measured]
    other_method = "ps-vec" if wl.dist else "ps-dist"
    other = refs.derive_engine(name, wl.graph, wl.queries, keys, other_method)

    path = os.path.join(work, f"{name}.edges")
    write_edge_list(wl.graph, path)
    server = Server(ROOT, {"g": path}, os.path.join(work, f"{name}-server.log"))
    try:
        bodies = []
        for q, s in keys:
            body: Dict[str, Any] = {"dataset": "g", "query": q, "seed": s}
            if wl.dist:
                body.update(method="ps-dist", workers=ROAD_SHARDS, trials=ROAD_TRIALS)
            else:
                body.update(method="ps-vec", precision=SKEW_PRECISION)
            bodies.append(body)
        served = _service_counts(server.url, bodies)
    finally:
        server.stop()
    measured_method = "ps-dist" if wl.dist else "ps-vec"
    _agree(f"{name} seed {seed}", keys, **{measured_method: here,
                                            other_method: [other[k] for k in keys],
                                            "service": served})
    return {"counts": here, "exact": exact}


def service_refs(seed: int, work: str) -> Dict[str, Any]:
    from ccbench import refs
    from ccbench.service_workload import Server
    from ccbench.workloads import SVC_TRIALS, service_body, service_graphs
    from repro.engine import CountingEngine
    from repro.graph.io import write_edge_list
    from repro.query.library import paper_query

    keys = refs.committed_keys("service-mixed", seed)
    graphs = service_graphs(seed)
    paths = {}
    for ds, g in graphs.items():
        paths[ds] = os.path.join(work, f"{ds}.edges")
        write_edge_list(g, paths[ds])
    server = Server(ROOT, paths, os.path.join(work, "service-server.log"))
    try:
        served = _service_counts(server.url, [service_body(k) for k in keys])
    finally:
        server.stop()
    results: Dict[str, List[List[int]]] = {}
    for method in ("ps-vec", "ps-dist"):
        engines = {ds: CountingEngine(g, method=method, workers=2 if method == "ps-dist" else 1)
                   for ds, g in graphs.items()}
        try:
            results[method] = [
                [int(c) for c in engines[ds].count(paper_query(q), trials=SVC_TRIALS,
                                                   seed=s).colorful_counts]
                for ds, q, s in keys
            ]
        finally:
            for e in engines.values():
                e.close()
    _agree(f"service-mixed seed {seed}", keys, service=served, **results)
    return {"counts": served}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from ccbench import refs

    work = os.path.join(ROOT, ".ccbench", f"make-refs-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    doc: Dict[str, Dict[str, Any]] = {
        name: {"config": refs.workload_config(name), "seeds": {}}
        for name in ("skew-vec", "road-dist", "service-mixed")
    }
    try:
        for seed in refs.REF_SEEDS:
            for name in ("skew-vec", "road-dist"):
                doc[name]["seeds"][str(seed)] = engine_refs(name, seed, work)
            doc["service-mixed"]["seeds"][str(seed)] = service_refs(seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {refs.write(doc)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
