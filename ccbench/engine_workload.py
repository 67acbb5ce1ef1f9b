"""``skew-vec`` and ``road-dist``: one caller driving an in-process engine.

``skew-vec`` sends adaptive-precision requests to a ``ps-vec`` engine
with one worker; ``road-dist`` sends fixed-trial requests to a
``ps-dist`` engine whose trials are sharded over two worker processes.
Both replay the same pass of requests until the measuring time is up.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from . import refs
from .common import SETUP_REPEATS, PeakRss, Report, describe_passes, median
from .tracing import SETUP_TARGETS, LayerHooks, Tracer, finish_trace
from .workloads import (
    ROAD_QUERIES,
    ROAD_SHARDS,
    ROAD_TRIALS,
    SKEW_PRECISION,
    SKEW_QUERIES,
    engine_pass,
    road_graph,
    skew_graph,
    warm_seed,
)


class Request:
    __slots__ = ("query", "seed", "counts", "trials", "stopped_early", "error")

    def __init__(self, query: str, seed: int, result: Any, error: Optional[str] = None) -> None:
        self.query = query
        self.seed = seed
        self.counts = [int(c) for c in result.colorful_counts] if result is not None else None
        self.trials = int(result.trials_used) if result is not None else 0
        self.stopped_early = bool(result.stopped_early) if result is not None else False
        self.error = error


class Pass:
    def __init__(self, requests: List[Request], seconds: float, exact: Dict[str, Any]) -> None:
        self.requests = requests
        self.seconds = seconds
        self.exact = exact


def _dist_counters() -> Optional[Tuple[int, int]]:
    """(exchanged rows, supersteps) from the program's metrics registry."""
    try:
        from repro.obs import catalogue
    except ImportError:
        return None
    return (
        int(catalogue.dist_exchanged_rows().value()),
        int(catalogue.dist_supersteps().value()),
    )


class EngineWorkload:
    def __init__(self, name: str, seed: int) -> None:
        from repro.query.library import paper_query

        self.name = name
        self.seed = seed
        self.dist = name == "road-dist"
        queries = ROAD_QUERIES if self.dist else SKEW_QUERIES
        self.queries = {q: paper_query(q) for q in queries}
        self.requests = engine_pass(name, seed)
        self.graph: Any = None
        self.engine: Any = None
        self.setup_times: List[Dict[str, float]] = []
        self.engine_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def setup(self, hooks: Optional[LayerHooks] = None) -> None:
        """Build graph and engine, start shards, plan and warm each query.

        ``hooks`` trace the planner during the warm-up; they are installed
        after the shard workers fork, so the workers run unpatched code.
        """
        from repro.engine import CountingEngine

        if self.engine is not None:
            self.engine.close()
        t0 = perf_counter()
        graph = skew_graph(self.seed) if not self.dist else road_graph(self.seed)
        graph.to_csr()
        t1 = perf_counter()
        if self.dist:
            engine = CountingEngine(graph, method="ps-dist", workers=ROAD_SHARDS)
            engine.executor_for(ROAD_SHARDS)
        else:
            engine = CountingEngine(graph, method="ps-vec", workers=1)
        t2 = perf_counter()
        if hooks is not None:
            hooks.install(only=SETUP_TARGETS)
        try:
            for q in self.queries.values():
                engine.count(q, trials=1, seed=warm_seed(self.seed))
        finally:
            if hooks is not None:
                hooks.remove()
        t3 = perf_counter()
        self.graph, self.engine = graph, engine
        self.setup_times.append(
            {"total": t3 - t0, "graph": t1 - t0, "pool": t2 - t1, "warm": t3 - t2}
        )

    def count(self, query: str, seed: int) -> Any:
        q = self.queries[query]
        if self.dist:
            return self.engine.count(q, trials=ROAD_TRIALS, seed=seed)
        from repro.engine import PrecisionSpec

        return self.engine.count(q, precision=PrecisionSpec(**SKEW_PRECISION), seed=seed)

    def run_passes(self, seconds: float, tracer: Optional[Tracer] = None,
                   hooks: Optional[LayerHooks] = None) -> List[Pass]:
        """Replay the pass until ``seconds`` have elapsed (whole passes)."""
        passes: List[Pass] = []
        start = perf_counter()
        while True:
            p0 = perf_counter()
            counters0 = _dist_counters() if self.dist else None
            tallies0 = len(hooks.solver_tables) if hooks else 0
            walls0 = len(hooks.wall_stats) if hooks else 0
            done: List[Request] = []
            for query, seed in self.requests:
                if tracer is not None:
                    tracer.request = f"{self.name}/{query}/{seed}/pass{len(passes)}"
                span = tracer.span("engine.count", query=query) if tracer else nullcontext()
                result, error = None, None
                with span:
                    try:
                        result = self.count(query, seed)
                    except Exception as exc:  # a failed request, not a failed run
                        error = f"{type(exc).__name__}: {exc}"
                done.append(Request(query, seed, result, error))
            p1 = perf_counter()
            exact: Dict[str, Any] = {
                "trials": [r.trials for r in done],
                "stopped_early": [r.stopped_early for r in done],
            }
            if counters0 is not None:
                counters1 = _dist_counters()
                exact["dist_rows"] = counters1[0] - counters0[0]
                exact["dist_supersteps"] = counters1[1] - counters0[1]
            if hooks is not None and not self.dist:
                exact["kernel_rows"] = sum(t[0] for t in hooks.solver_tables[tallies0:])
            if hooks is not None and self.dist:
                walls = hooks.wall_stats[walls0:]
                exact["dist_rows_traced"] = sum(w.exchanged_rows() for w in walls)
            passes.append(Pass(done, p1 - p0, exact))
            if p1 - start >= seconds:
                return passes

    def close(self) -> None:
        if self.engine is not None:
            self.engine_stats = self.engine.stats.snapshot()
            self.engine.close()
            self.engine = None


# ----------------------------------------------------------------------
def _check_exact(report: Report, label: str, passes: List[Pass]) -> Dict[str, Any]:
    """Every pass must report identical exact counts; returns pass 0's."""
    first = passes[0].exact
    for i, p in enumerate(passes[1:], start=1):
        for k in first:
            if p.exact.get(k) != first[k]:
                report.problem(f"{label}: exact count {k!r} differs in pass {i}: "
                               f"{p.exact.get(k)} != {first[k]}")
    return first


def _check_refs(report: Report, wl: EngineWorkload, passes: List[Pass]) -> None:
    """Compare every request's colorful counts with the references."""
    wanted = sorted({(r.query, r.seed) for p in passes for r in p.requests})
    ref, source = refs.engine_references(wl.name, wl.seed, wanted, wl.graph, wl.queries)
    report.notes.append(f"references: {source}")
    for p in passes:
        for r in p.requests:
            report.attempted += 1
            if r.error is not None:
                report.failed += 1
                report.problem(f"{r.query} seed {r.seed}: {r.error}")
            elif ref.get((r.query, r.seed)) != r.counts:
                report.failed += 1
                report.problem(
                    f"{r.query} seed {r.seed}: counts {r.counts[:4]}... differ from "
                    f"reference {ref.get((r.query, r.seed), 'missing')}"
                )
    committed = refs.committed_exact(wl.name, wl.seed)
    for k, v in committed.items():
        seen = {repr(p.exact[k]) for p in passes if k in p.exact}
        if seen - {repr(v)}:
            report.problem(f"exact count {k!r} = {sorted(seen)} differs from the "
                           f"committed reference {v}")


def run(name: str, seed: int, seconds: float, trace: bool, report: Report,
        out_dir: str) -> None:
    wl = EngineWorkload(name, seed)
    rss = PeakRss()
    tracer = Tracer() if trace else None
    hooks = LayerHooks(tracer) if tracer else None
    try:
        for i in range(SETUP_REPEATS):
            ctx = tracer.span("bench.setup", repeat=i) if tracer else nullcontext()
            with ctx:
                wl.setup(hooks)
        setup_s = median(t["total"] for t in wl.setup_times)

        if not trace:
            passes = wl.run_passes(seconds)
            rss.sample_tree("bench", os.getpid())
            untraced, traced = passes, []
        else:
            untraced = wl.run_passes(seconds / 2)
            hooks.install()
            with tracer.span("bench.measure") as root:
                traced = wl.run_passes(seconds / 2, tracer, hooks)
            hooks.remove()
            rss.sample_tree("bench", os.getpid())
            passes = untraced + traced
        wl.close()

        t_refs = perf_counter()
        first = _check_exact(report, "untraced", untraced)
        report.notes.append(f"untraced {describe_passes([p.seconds for p in untraced])}; "
                            f"exact counts of one pass: {first}")
        if traced:
            tfirst = _check_exact(report, "traced", traced)
            for k, v in first.items():
                if tfirst.get(k) != v:
                    report.problem(f"exact count {k!r}: traced {tfirst.get(k)} != untraced {v}")
            if wl.dist and tfirst.get("dist_rows_traced") != first.get("dist_rows"):
                report.problem("dist rows: WallStats and metrics registry disagree")
        _check_refs(report, wl, passes)
        report.notes.append(f"reference check took {perf_counter() - t_refs:.1f} s")

        trials = sum(r.trials for p in untraced for r in p.requests)
        nreq = sum(len(p.requests) for p in untraced)
        elapsed = sum(p.seconds for p in untraced)
        peak, who = rss.peak()
        report.notes.append(f"peak RSS {peak:.1f} MB in process '{who}'")
        if not trace:
            report.put("setup_s", setup_s, len(wl.setup_times))
            report.put("ok_frac", (report.attempted - report.failed) / max(report.attempted, 1),
                       report.attempted)
            report.put("peak_rss_mb", peak, len(rss.by_process))
            report.put("trials_per_s", trials / elapsed, trials)
            report.put("requests_per_s", nreq / elapsed, nreq)
            return
        _layer_metrics(report, wl, tracer, hooks, root, untraced, traced, first, out_dir)
    finally:
        if hooks:
            hooks.remove()
        wl.close()


def _layer_metrics(report: Report, wl: EngineWorkload, tracer: Tracer, hooks: LayerHooks,
                   root: Any, untraced: List[Pass], traced: List[Pass],
                   exact: Dict[str, Any], out_dir: str) -> None:
    spans = tracer.within(root)
    selfs = tracer.self_times(spans)
    trials = sum(r.trials for p in traced for r in p.requests)
    pass_trials = sum(exact["trials"])
    nsetup = len(wl.setup_times)

    def self_sum(prefix: str) -> float:
        return sum(selfs[s.sid] for s in spans if s.name.startswith(prefix))

    plans = [s for s in tracer.spans if s.name == "decomposition.plan"]
    stats = wl.engine_stats
    lookups = stats["plan_builds"] + stats["plan_cache_hits"]
    m: Dict[str, Tuple[float, int]] = {
        "graph.build_s": (median(t["graph"] for t in wl.setup_times), nsetup),
        "decomposition.plan_ms": (
            1000 * sum(s.dur for s in plans) / max(len(plans), 1), len(plans)),
        "engine.trials_per_estimate": (pass_trials / len(exact["trials"]), len(exact["trials"])),
        "engine.early_stop_frac": (
            sum(exact["stopped_early"]) / len(exact["stopped_early"]),
            len(exact["stopped_early"])),
        "engine.plan_cache_hit_frac": (stats["plan_cache_hits"] / max(lookups, 1), lookups),
        "engine.self_ms_per_trial": (1000 * self_sum("engine.count") / trials, trials),
        "colorings.ms_per_trial": (
            1000 * sum(s.dur for s in spans if s.name.startswith("colorings.")) / trials,
            trials),
    }
    if not wl.dist:
        tallies = hooks.solver_tables
        m["kernel.leaf_s_per_trial"] = (self_sum("kernel.leaf") / trials, trials)
        m["kernel.cycle_s_per_trial"] = (self_sum("kernel.cycle") / trials, trials)
        m["kernel.rows_per_trial"] = (traced[0].exact["kernel_rows"] / pass_trials, pass_trials)
        # the largest table a trial materialises: a pre-aggregation input
        # of the group-sum, or a solved block's table if that is larger
        peak = max([hooks.peak_group_bytes] + [t[1] for t in tallies])
        m["kernel.peak_table_mb"] = (peak / 2**20, len(tallies))
    else:
        walls = hooks.wall_stats
        n = max(len(walls), 1)
        m["dist.pool_start_s"] = (median(t["pool"] for t in wl.setup_times), nsetup)
        # critical path: each superstep's slowest rank (CPU seconds)
        m["dist.critical_cpu_s_per_trial"] = (
            sum(float(s.cpu.max()) for w in walls for s in w.stages) / n, len(walls))
        # what the ranks' own work does not cover: pack, pipe, combine, broadcast
        m["dist.exchange_s_per_trial"] = (
            sum(w.wall_seconds - sum(float(s.wall.max()) for s in w.stages) for w in walls) / n,
            len(walls))
        m["dist.exchanged_rows_per_trial"] = (exact["dist_rows"] / pass_trials, pass_trials)
        m["dist.supersteps_per_trial"] = (exact["dist_supersteps"] / pass_trials, pass_trials)
        m["dist.imbalance"] = (median(w.imbalance() for w in walls) if walls else 0.0, len(walls))
    untraced_pass = median(p.seconds for p in untraced)
    traced_pass = median(p.seconds for p in traced)
    m["bench.trace_overhead_frac"] = (
        (traced_pass - untraced_pass) / untraced_pass, len(untraced) + len(traced))
    finish_trace(report, m, tracer, root, spans, selfs, "engine.count", hooks, out_dir, wl.name,
                 wl.seed)
