"""Reference colorful counts behind ``ok_frac``.

For the seeds in :data:`REF_SEEDS` the references are committed in
``references.json``, written by ``make_refs.py`` only where in-process
``ps-vec``, in-process ``ps-dist`` and the service response agree.  A run
with one of these seeds is checked against counts taken when the file
was made, so a later program that miscounts fails it.

For any other seed — or a service pass beyond :data:`REF_PASSES` — the
references are derived in an untimed phase after measuring, by the
program under test through another path than the measured one
(``ps-dist`` for ``skew-vec``, ``ps-vec`` for ``road-dist``, in-process
``ps-vec`` engines for ``service-mixed``).  Those paths share the
vectorized kernel, so derived references check determinism and the
engine, executor and service layers, not the kernel itself; the run's
notes say how many references were derived.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence, Tuple

from . import workloads as W

REF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

#: seeds whose references are committed
REF_SEEDS = tuple(range(24))
#: service-mixed passes covered per committed seed (a run makes ~100)
REF_PASSES = 150

#: processes that derive references (the development host has 2 cores)
REF_WORKERS = 2

DERIVED_NOTE = ("derived references come from the program under test and do not "
                "check its kernel independently")


def workload_config(name: str) -> Dict[str, Any]:
    """The parameters a workload's references depend on (a stale file is
    ignored when they change)."""
    if name == "skew-vec":
        return {"graph": [W.SKEW_N, W.SKEW_GAMMA, W.SKEW_AVG, W.SKEW_CAP],
                "queries": list(W.SKEW_QUERIES), "precision": W.SKEW_PRECISION}
    if name == "road-dist":
        return {"graph": [W.ROAD_ROWS, W.ROAD_COLS], "queries": list(W.ROAD_QUERIES),
                "trials": W.ROAD_TRIALS}
    return {"skew": list(W.SVC_SKEW), "grid": list(W.SVC_GRID),
            "mix": [list(x) for x in W.SVC_MIX], "trials": W.SVC_TRIALS,
            "hits_per_fresh": W.SVC_HITS_PER_FRESH}


def committed_keys(name: str, seed: int) -> List[Any]:
    """The requests whose counts are committed for ``seed``, in file order."""
    if name == "service-mixed":
        plan = W.ServicePlan(seed)
        return [k for p in range(REF_PASSES) for k in plan.fresh(p)]
    return W.engine_pass(name, seed)


def _committed(name: str, seed: int) -> Dict[str, Any]:
    if seed not in REF_SEEDS or not os.path.exists(REF_PATH):
        return {}
    with open(REF_PATH, encoding="utf-8") as fh:
        entry = json.load(fh).get(name) or {}
    if entry.get("config") != workload_config(name):
        return {}
    return entry.get("seeds", {}).get(str(seed), {})


def committed_exact(name: str, seed: int) -> Dict[str, Any]:
    """Exact counts of one pass committed for ``seed`` (or {})."""
    return dict(_committed(name, seed).get("exact", {}))


def committed_counts(name: str, seed: int) -> Dict[Any, List[int]]:
    """Committed colorful counts of ``seed``'s requests (or {})."""
    counts = _committed(name, seed).get("counts")
    if not counts:
        return {}
    return dict(zip(committed_keys(name, seed), counts))


def key_str(key: Sequence[Any]) -> str:
    return "/".join(str(k) for k in key)


def _source(n_committed: int, n_derived: int, method: str) -> str:
    text = f"{n_committed} committed, {n_derived} derived via {method}"
    return f"{text}; {DERIVED_NOTE}" if n_derived else text


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

def derive_engine(name: str, graph: Any, queries: Dict[str, Any],
                  wanted: Sequence[Tuple[str, int]], method: str) -> Dict[Tuple[str, int], List[int]]:
    """Colorful counts of ``wanted`` requests through ``method``."""
    from repro.engine import CountingEngine, PrecisionSpec

    out: Dict[Tuple[str, int], List[int]] = {}
    with CountingEngine(graph, method=method, workers=REF_WORKERS) as engine:
        for query, seed in wanted:
            if name == "skew-vec":
                r = engine.count(queries[query], precision=PrecisionSpec(**W.SKEW_PRECISION),
                                 seed=seed)
            else:
                r = engine.count(queries[query], trials=W.ROAD_TRIALS, seed=seed)
            out[(query, seed)] = [int(c) for c in r.colorful_counts]
    return out


def engine_references(name: str, seed: int, wanted: Sequence[Tuple[str, int]], graph: Any,
                      queries: Dict[str, Any]) -> Tuple[Dict[Tuple[str, int], List[int]], str]:
    committed = committed_counts(name, seed)
    out = {k: committed[k] for k in wanted if k in committed}
    missing = [k for k in wanted if k not in out]
    method = "ps-dist" if name == "skew-vec" else "ps-vec"
    if missing:
        out.update(derive_engine(name, graph, queries, missing, method))
    return out, _source(len(wanted) - len(missing), len(missing), method)


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------

#: per-process engines of the spawned reference workers
_SVC_ENGINES: Dict[str, Any] = {}


def _svc_init(seed: int) -> None:
    from repro.engine import CountingEngine

    for ds, graph in W.service_graphs(seed).items():
        _SVC_ENGINES[ds] = CountingEngine(graph, method="ps-vec")


def _svc_count(key: Tuple[str, str, int]) -> List[int]:
    from repro.query.library import paper_query

    ds, query, seed = key
    r = _SVC_ENGINES[ds].count(paper_query(query), trials=W.SVC_TRIALS, seed=seed)
    return [int(c) for c in r.colorful_counts]


def service_references(seed: int, keys: Sequence[Tuple[str, str, int]]
                       ) -> Tuple[Dict[Tuple[str, str, int], List[int]], str]:
    """References for service requests: committed, then derived in
    spawned processes with in-process ``ps-vec`` engines."""
    committed = committed_counts("service-mixed", seed)
    out = {k: committed[k] for k in keys if k in committed}
    missing = [k for k in keys if k not in out]
    if missing:
        import multiprocessing as mp

        with mp.get_context("spawn").Pool(REF_WORKERS, initializer=_svc_init,
                                          initargs=(seed,)) as pool:
            counts = pool.map(_svc_count, missing,
                              chunksize=max(1, len(missing) // (4 * REF_WORKERS)))
            pool.close()
            pool.join()
        out.update(zip(missing, counts))
    return out, _source(len(keys) - len(missing), len(missing), "in-process ps-vec")


def write(doc: Dict[str, Dict[str, Any]]) -> str:
    """Write ``{workload: {"config": ..., "seeds": {seed: entry}}}`` with
    one line per seed, so a regenerated file diffs line by line."""
    lines = ["{"]
    for wi, name in enumerate(sorted(doc)):
        entry = doc[name]
        lines.append(f" {json.dumps(name)}: {{")
        lines.append(f'  "config": {json.dumps(entry["config"], sort_keys=True)},')
        lines.append('  "seeds": {')
        seeds = sorted(entry["seeds"], key=int)
        for si, seed in enumerate(seeds):
            body = json.dumps(entry["seeds"][seed], sort_keys=True, separators=(",", ":"))
            lines.append(f"   {json.dumps(str(seed))}: {body}{',' if si < len(seeds) - 1 else ''}")
        lines.append("  }")
        lines.append(" }" + ("," if wi < len(doc) - 1 else ""))
    lines.append("}")
    with open(REF_PATH, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return REF_PATH

