"""Spans recorded by the benchmark around calls into the program's layers.

A :class:`Tracer` keeps spans in memory (name, start, end, parent span,
request id, attributes) and writes them out once, as Chrome trace-event
JSON that ``python -m repro.obs.view`` renders.  :class:`LayerHooks`
wraps public entry points of each module for the traced phase only and
restores them afterwards; set-up patches only the planner, and only after
any shard worker has forked, so the untraced phase and every worker
process execute the program as is.

Self time of a span is its duration minus the time its direct children
cover.  The benchmark is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "LayerHooks", "SETUP_TARGETS", "finish_trace"]


class SpanRecord:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "request", "args")

    def __init__(self, sid: int, parent: int, name: str, t0: float,
                 request: Optional[str], args: Dict[str, Any]) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.request = request
        self.args = args

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory span recorder for the benchmark process."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._next = 1
        self.request: Optional[str] = None

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[SpanRecord]:
        parent = self._stack[-1].sid if self._stack else 0
        rec = SpanRecord(self._next, parent, name, perf_counter(), self.request, args)
        self._next += 1
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.t1 = perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def within(self, root: SpanRecord) -> List[SpanRecord]:
        """Every span recorded inside ``root`` (excluding ``root``)."""
        inside = {root.sid}
        out: List[SpanRecord] = []
        # children close before parents, so walk in reverse close order
        for rec in reversed(self.spans):
            if rec.parent in inside:
                inside.add(rec.sid)
                out.append(rec)
        return out

    def self_times(self, spans: List[SpanRecord]) -> Dict[int, float]:
        """Self time of each span: its duration minus its children's."""
        child_total: Dict[int, float] = {}
        for rec in spans:
            child_total[rec.parent] = child_total.get(rec.parent, 0.0) + rec.dur
        return {rec.sid: rec.dur - child_total.get(rec.sid, 0.0) for rec in spans}

    def chrome_document(self, trace_id: str) -> Dict[str, Any]:
        pid = os.getpid()
        tid = threading.get_ident()
        events = []
        for rec in sorted(self.spans, key=lambda r: r.t0):
            args = {k: _json_safe(v) for k, v in rec.args.items()}
            args.update(span_id=rec.sid, parent=rec.parent, trace_id=trace_id)
            if rec.request is not None:
                args["request_id"] = rec.request
            events.append({
                "name": rec.name, "ph": "X", "pid": pid, "tid": tid,
                "ts": rec.t0 * 1e6, "dur": rec.dur * 1e6, "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"trace_id": trace_id, "tool": "ccbench"},
        }

    def write_chrome(self, path: str, trace_id: str) -> Dict[str, Any]:
        doc = self.chrome_document(trace_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        return doc


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: the only hook set-up installs: it starts no process while patched code
#: is live, so forked shard workers run the program as is
SETUP_TARGETS = ("repro.engine.engine.heuristic_plan",)


class LayerHooks:
    """Wrap module entry points with spans; :meth:`remove` restores them.

    Targets are looked up by name.  A target the program no longer has is
    listed in :attr:`missing`; the traced run reports it as a problem, so
    a renamed layer fails the run instead of reading 0.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: one [rows, table bytes, blocks seen] tally per kernel trial
        self.solver_tables: List[List[Any]] = []
        #: largest table (bytes) handed to the kernel's group-sum
        self.peak_group_bytes = 0
        #: WallStats of every sharded trial seen
        self.wall_stats: List[object] = []

    # -- patching ---------------------------------------------------------
    def install(self, only: Optional[Sequence[str]] = None) -> "LayerHooks":
        """Patch every target, or only the dotted names in ``only``."""
        import importlib

        targets = (
            ("repro.engine.engine", None, "heuristic_plan", self._span_call("decomposition.plan")),
            ("repro.engine.engine", None, "coloring_batch", self._span_call("colorings.batch")),
            ("repro.engine.engine", None, "coloring_stream", self._span_stream("colorings.draw")),
            ("repro.counting.vectorized", "VectorizedSolver", "solve", self._span_solve),
            # every DP table passes through the group-sum before it is
            # aggregated: its inputs are the largest arrays a trial holds
            ("repro.counting.vectorized", None, "_group_sum", self._tally_group_sum),
            ("repro.distributed.executor", "ShardedExecutor", "count", self._span_shard_trial),
        )
        for module, cls, attr, make in targets:
            name = ".".join(x for x in (module, cls, attr) if x)
            if only is not None and name not in only:
                continue
            try:
                owner: Any = importlib.import_module(module)
            except ImportError:
                owner = None
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------
    def _span_call(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        tracer = self.tracer

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return wrapped
        return make

    def _span_stream(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        tracer = self.tracer

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapped(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = fn(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            return wrapped
        return make

    def _span_solve(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self.tracer
        trials = self.solver_tables

        def solve(solver: Any, block: Any) -> Any:
            with tracer.span(f"kernel.{block.kind}") as rec:
                result = fn(solver, block)
            # one solver instance runs one trial; its tally outlives it
            acc = solver.__dict__.get("_ccbench_tally")
            if acc is None:
                acc = solver.__dict__["_ccbench_tally"] = [0, 0, set()]
                trials.append(acc)
            if id(block) not in acc[2]:
                # count each block's table once, however many parents read it
                acc[2].add(id(block))
                cnt = getattr(result, "cnt", None)
                rows = len(cnt) if cnt is not None else 0
                nbytes = sum(
                    int(getattr(getattr(result, col, None), "nbytes", 0))
                    for col in ("u", "v", "sig", "cnt")
                )
                acc[0] += rows
                acc[1] += nbytes
                rec.args.update(rows=rows, bytes=nbytes)
            return result
        return solve

    def _tally_group_sum(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def group_sum(cols: Any, cnt: Any, *args: Any, **kwargs: Any) -> Any:
            nbytes = int(getattr(cnt, "nbytes", 0)) + sum(
                int(getattr(c, "nbytes", 0)) for c in cols)
            if nbytes > self.peak_group_bytes:
                self.peak_group_bytes = nbytes
            return fn(cols, cnt, *args, **kwargs)
        return group_sum

    def _span_shard_trial(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self.tracer
        stats_out = self.wall_stats

        def count(executor: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("dist.trial") as rec:
                result = fn(executor, *args, **kwargs)
            stats = getattr(result, "stats", None)
            if stats is not None:
                stats_out.append(stats)
                rec.args.update(stages=len(stats.stages))
            return result
        return count


#: ``bench.span_coverage`` must reach this: the program's layers below the
#: per-request wrapper must account for 90% of the traced phase.  The rest
#: is the wrapper's own time (engine bookkeeping between kernel calls, or
#: the client's JSON handling) and the benchmark loop; a hook that no
#: longer fires moves its layer's time there and fails the check.
COVERAGE_MIN = 0.90


def finish_trace(report: Any, metrics: Dict[str, Tuple[float, int]], tracer: Tracer,
                 root: SpanRecord, spans: List[SpanRecord], selfs: Dict[int, float],
                 wrapper: str, hooks: Optional[LayerHooks], out_dir: str, workload: str,
                 seed: int) -> None:
    """Span coverage, the per-layer self-time table and the trace file.

    ``wrapper`` names the span the benchmark puts around each request;
    coverage is the self time of every other span over the phase's wall
    time.
    """
    by_layer: Dict[str, float] = {}
    for rec in spans:
        layer = rec.name if rec.name == wrapper else rec.name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[rec.sid]
    covered = sum(secs for layer, secs in by_layer.items() if layer != wrapper)
    coverage = covered / root.dur if root.dur > 0 else 0.0
    metrics["bench.span_coverage"] = (coverage, len(spans))
    report.notes.append(f"traced phase {root.dur:.3f} s; self time by layer "
                        f"({wrapper} is the per-request wrapper):")
    for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        report.notes.append(f"  {layer:16s} {secs:9.3f} s  {secs / root.dur:7.2%}")
    if not COVERAGE_MIN <= coverage <= 1.0 + 1e-9:
        report.problem(f"span coverage {coverage:.4f} outside [{COVERAGE_MIN}, 1]")
    if hooks is not None and hooks.missing:
        report.problem(f"hook targets missing from the program: {hooks.missing}")
    path = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
    doc = tracer.write_chrome(path, trace_id=f"{workload}-{seed}")
    try:
        from repro.obs.view import chrome_summary
    except ImportError:
        report.notes.append(f"trace written to {path} (repro.obs.view not importable)")
    else:
        summary = chrome_summary(doc)
        report.notes.append(f"trace written to {path}; python -m repro.obs.view renders "
                            f"{summary.splitlines()[0]}")
    for name, (value, samples) in metrics.items():
        report.put(name, value, samples)
