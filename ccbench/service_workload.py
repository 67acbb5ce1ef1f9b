"""``service-mixed``: one HTTP client against ``repro-serve`` in its own process.

The client keeps one keep-alive connection and replays passes of fresh
requests (engine runs plus cache writes) each followed by repeats of
earlier requests (cache reads).  ``/stats`` and ``/metrics`` are read at
the edges of each phase, never inside the timed loop.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
from contextlib import nullcontext
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Tuple

from . import refs
from .common import SETUP_REPEATS, PeakRss, Report, describe_passes, median, percentile
from .tracing import Tracer, finish_trace
from .workloads import (
    SVC_HITS_PER_FRESH,
    SVC_MIX,
    SVC_TRIALS,
    ServicePlan,
    SvcKey,
    service_body,
    service_graphs,
    warm_seed,
)

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: cached reads replayed in the traced run's hit-only phase
HIT_ONLY_REQUESTS = 300


class Server:
    """``python -m repro.service`` on an ephemeral port, stopped by SIGTERM."""

    def __init__(self, root: str, datasets: Dict[str, str], log_path: str) -> None:
        cmd = [sys.executable, "-u", "-m", "repro.service", "--port", "0",
               "--method", "ps-vec", "--trials", str(SVC_TRIALS),
               "--workers", "1", "--queue-depth", "64", "--cache-size", "1000000"]
        for name, path in datasets.items():
            cmd += ["--dataset", f"{name}={path}"]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log,
                                     env=env, cwd=root)
        self.url = self._wait_listening()

    def _wait_listening(self) -> str:
        deadline = monotonic() + BOOT_TIMEOUT_S
        buf = b""
        fd = self.proc.stdout.fileno()
        while monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.decode("utf-8", "replace").splitlines():
                    if "listening on " in line:
                        return line.split("listening on ", 1)[1].split()[0]
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"repro-serve did not come up: {buf.decode('utf-8', 'replace')!r}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> Optional[int]:
        """SIGTERM, wait, SIGKILL as a last resort; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Client:
    """One keep-alive connection; counts reconnects."""

    def __init__(self, url: str) -> None:
        host, port = url.split("//", 1)[1].rstrip("/").rsplit(":", 1)
        self.host, self.port = host, int(port)
        self.connections = 0
        self.conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port,
                                                   timeout=REQUEST_TIMEOUT_S)
            self.connections += 1
        return self.conn

    def call(self, method: str, path: str, body: Optional[bytes] = None
             ) -> Tuple[int, bytes]:
        conn = self._connection()
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            if resp.getheader("Connection", "").lower() == "close":
                self.close()
            return resp.status, data
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def json(self, path: str) -> Dict[str, Any]:
        status, data = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(data)

    def metrics(self) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
        from repro.obs import parse_prometheus_text

        status, data = self.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics: HTTP {status}")
        return parse_prometheus_text(data.decode("utf-8"))

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Reply:
    __slots__ = ("key", "expect_hit", "status", "cached", "counts", "latency")

    def __init__(self, key: SvcKey, expect_hit: bool) -> None:
        self.key = key
        self.expect_hit = expect_hit
        self.status = 0
        self.cached: Optional[bool] = None
        self.counts: Optional[List[int]] = None
        self.latency = 0.0


class Snapshot:
    """Server-side counters at one instant (from ``/stats`` and ``/metrics``)."""

    def __init__(self, client: Client) -> None:
        stats = client.json("/stats")
        self.cache_hits = int(stats["cache"]["hits"])
        self.cache_misses = int(stats["cache"]["misses"])
        engines = [d.get("engine", {}) for d in stats.get("datasets", [])]
        self.trials = sum(int(e.get("trials", 0)) for e in engines)
        self.plan_builds = sum(int(e.get("plan_builds", 0)) for e in engines)
        self.plan_hits = sum(int(e.get("plan_cache_hits", 0)) for e in engines)
        m = client.metrics()

        def hist(name: str, **labels: str) -> Tuple[float, float]:
            want = tuple(sorted(labels.items()))
            total = count = 0.0
            for key, v in m.get(f"{name}_sum", {}).items():
                if all(kv in key for kv in want):
                    total += v
            for key, v in m.get(f"{name}_count", {}).items():
                if all(kv in key for kv in want):
                    count += v
            return total, count

        self.count_latency = hist("repro_http_request_seconds", endpoint="/count")
        self.job_wait = hist("repro_service_job_wait_seconds")
        self.job_run = hist("repro_service_job_run_seconds")
        self.rejected = sum(
            v for key, v in m.get("repro_http_requests_total", {}).items()
            if ("endpoint", "/count") in key and ("status", "429") in key
        )


def _mean_delta(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    count = b[1] - a[1]
    return (b[0] - a[0]) / count if count > 0 else 0.0


class ServiceWorkload:
    def __init__(self, root: str, seed: int, work_dir: str) -> None:
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.plan = ServicePlan(seed)
        self.next_pass = 0
        self.server: Optional[Server] = None
        self.client: Optional[Client] = None
        self.setup_times: List[Dict[str, float]] = []
        self.exit_codes: List[Optional[int]] = []

    def setup(self) -> None:
        """Generate and write the graphs, boot the server, warm each pair."""
        from repro.graph.io import write_edge_list

        self.close()
        t0 = perf_counter()
        graphs = service_graphs(self.seed)
        t1 = perf_counter()
        os.makedirs(self.work_dir, exist_ok=True)
        paths = {}
        for name, g in graphs.items():
            paths[name] = os.path.join(self.work_dir, f"{name}.edges")
            write_edge_list(g, paths[name])
        self.server = Server(self.root, paths, os.path.join(self.work_dir, "server.log"))
        self.client = Client(self.server.url)
        for ds, query in SVC_MIX:
            body = dict(service_body((ds, query, warm_seed(self.seed))), trials=1)
            status, _ = self.client.call("POST", "/count", json.dumps(body).encode())
            if status != 200:
                raise RuntimeError(f"warm-up {ds}/{query}: HTTP {status}")
        t2 = perf_counter()
        self.setup_times.append({"total": t2 - t0, "graph": t1 - t0})

    def run_phase(self, seconds: float, tracer: Optional[Tracer] = None, min_misses: int = 0
                  ) -> Tuple[List[Reply], float, int, List[float]]:
        """Whole passes until ``seconds`` elapse and ``min_misses`` fresh
        requests were sent: (replies, elapsed, passes, pass times)."""
        client = self.client
        replies: List[Reply] = []
        pass_times: List[float] = []
        start = perf_counter()
        while True:
            p0 = perf_counter()
            p = self.next_pass
            self.next_pass += 1
            for key, expect_hit in self.plan.pass_requests(p):
                rep = Reply(key, expect_hit)
                if tracer is not None:
                    tracer.request = f"{refs.key_str(key)}/pass{p}"
                span = tracer.span("service.request") if tracer else nullcontext()
                t = perf_counter()
                with span as rec:
                    body = json.dumps(service_body(key)).encode()
                    # the round trip through the server: its parse, cache,
                    # queue, engine and JSON, and the socket both ways
                    call = tracer.span("http.roundtrip") if tracer else nullcontext()
                    try:
                        with call:
                            rep.status, data = client.call("POST", "/count", body)
                    except (OSError, http.client.HTTPException):
                        data = b""
                    if rep.status == 200:
                        doc = json.loads(data)
                        rep.cached = bool(doc.get("cached"))
                        rep.counts = [int(c) for c in doc["result"]["colorful_counts"]]
                rep.latency = perf_counter() - t
                if rec is not None:
                    rec.args.update(status=rep.status, cached=rep.cached)
                replies.append(rep)
            p1 = perf_counter()
            pass_times.append(p1 - p0)
            misses = len(pass_times) * len(SVC_MIX)
            if p1 - start >= seconds and misses >= min_misses:
                return replies, p1 - start, len(pass_times), pass_times

    def hit_only(self, n: int) -> Tuple[List[float], List[int], Snapshot, Snapshot]:
        """Replay ``n`` cached reads; client latencies and sizes plus the
        server counters around them."""
        import random

        from .common import sub_seed

        rng = random.Random(sub_seed(self.seed, 30))
        keys = [self.plan.known[rng.randrange(len(self.plan.known))] for _ in range(n)]
        before = Snapshot(self.client)
        lat: List[float] = []
        sizes: List[int] = []
        for key in keys:
            body = json.dumps(service_body(key)).encode()
            t = perf_counter()
            status, data = self.client.call("POST", "/count", body)
            lat.append(perf_counter() - t)
            sizes.append(len(data))
            if status != 200 or not json.loads(data).get("cached"):
                raise RuntimeError(f"hit-only phase: {key} was not a cache hit")
        after = Snapshot(self.client)
        return lat, sizes, before, after

    def sample_rss(self, rss: PeakRss) -> None:
        rss.sample_tree("bench", os.getpid())
        if self.server is not None:
            rss.sample_tree("server", self.server.pid)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.exit_codes.append(self.server.stop())
            self.server = None


# ----------------------------------------------------------------------
def _check_phase(report: Report, label: str, replies: List[Reply], before: Snapshot,
                 after: Snapshot) -> Tuple[int, int]:
    """Client tallies against server counters; returns (hits, misses)."""
    hits = sum(1 for r in replies if r.cached is True)
    misses = sum(1 for r in replies if r.cached is False)
    wrong = [r for r in replies if r.status == 200 and r.cached != r.expect_hit]
    if wrong:
        report.problem(f"{label}: {len(wrong)} replies classed against the plan, "
                       f"first {wrong[0].key} cached={wrong[0].cached}")
    if after.cache_hits - before.cache_hits != hits:
        report.problem(f"{label}: server cache hits {after.cache_hits - before.cache_hits} "
                       f"!= client hits {hits}")
    if after.cache_misses - before.cache_misses != misses:
        report.problem(f"{label}: server cache misses "
                       f"{after.cache_misses - before.cache_misses} != client misses {misses}")
    # a hit must run no engine trials: every trial belongs to a miss
    if after.trials - before.trials != misses * SVC_TRIALS:
        report.problem(f"{label}: engine ran {after.trials - before.trials} trials for "
                       f"{misses} misses of {SVC_TRIALS} trials (hits ran trials?)")
    return hits, misses


def _check_refs(report: Report, seed: int, replies: List[Reply]) -> None:
    keys = sorted({r.key for r in replies})
    ref, source = refs.service_references(seed, keys)
    report.notes.append(f"references: {source}")
    for r in replies:
        report.attempted += 1
        if r.status != 200:
            report.failed += 1
            report.problem(f"{r.key}: HTTP {r.status or 'no reply'}")
        elif ref.get(r.key) != r.counts:
            report.failed += 1
            report.problem(f"{r.key}: counts {r.counts} differ from reference {ref.get(r.key)}")


def _latency_table(report: Report, replies: List[Reply]) -> Dict[str, Tuple[float, int]]:
    """Hit and miss percentiles, each only with ten samples beyond it."""
    hit = [r.latency for r in replies if r.cached is True]
    miss = [r.latency for r in replies if r.cached is False]
    out: Dict[str, Tuple[float, int]] = {}
    for name, values, q, scale in (("service.hit_p50_ms", hit, 0.5, 1000.0),
                                   ("service.hit_p90_ms", hit, 0.9, 1000.0),
                                   ("service.miss_p50_s", miss, 0.5, 1.0),
                                   ("service.miss_p90_s", miss, 0.9, 1.0)):
        v = percentile(values, q)
        if v is None:
            report.notes.append(f"{name}: too few samples ({len(values)}) to report")
            continue
        out[name] = (v * scale, len(values))
    return out


def run(root: str, seed: int, seconds: float, trace: bool, report: Report,
        out_dir: str) -> None:
    work_dir = os.path.join(out_dir, f"service-{seed}-{os.getpid()}")
    wl = ServiceWorkload(root, seed, work_dir)
    rss = PeakRss()
    tracer = Tracer() if trace else None
    try:
        for i in range(SETUP_REPEATS):
            with (tracer.span("bench.setup", repeat=i) if tracer else nullcontext()):
                wl.setup()
        setup_s = median(t["total"] for t in wl.setup_times)
        before = Snapshot(wl.client)
        phase_s = seconds / 2 if trace else seconds
        replies, elapsed, npass, pass_times = wl.run_phase(phase_s)
        after = Snapshot(wl.client)
        hits, misses = _check_phase(report, "untraced", replies, before, after)
        if trace:
            with tracer.span("bench.measure") as root_span:
                # enough misses for a p90 with ten samples beyond it
                t_replies, _, t_npass, t_pass_times = wl.run_phase(phase_s, tracer,
                                                                   min_misses=100)
            t_after = Snapshot(wl.client)
            t_hits, t_misses = _check_phase(report, "traced", t_replies, after, t_after)
            if (t_hits * npass, t_misses * npass) != (hits * t_npass, misses * t_npass):
                report.problem(f"hit/miss per pass: traced {t_hits}/{t_misses} over "
                               f"{t_npass} passes, untraced {hits}/{misses} over {npass}")
            hit_lat, hit_sizes, h0, h1 = wl.hit_only(HIT_ONLY_REQUESTS)
        wl.sample_rss(rss)
        connections = wl.client.connections
        wl.close()
        if any(code != 0 for code in wl.exit_codes):
            report.problem(f"server exit codes {wl.exit_codes}")
        if connections != 1:
            report.problem(f"client opened {connections} connections to the last server")
        per_pass = (SVC_HITS_PER_FRESH * len(SVC_MIX), len(SVC_MIX))
        if (hits, misses) != (per_pass[0] * npass, per_pass[1] * npass):
            report.problem(f"hits/misses {hits}/{misses} over {npass} passes, "
                           f"expected {per_pass} per pass")
        t_refs = perf_counter()
        _check_refs(report, seed, replies + (t_replies if trace else []))
        report.notes.append(f"reference check took {perf_counter() - t_refs:.1f} s")
        peak, who = rss.peak()
        report.notes.append(f"peak RSS {peak:.1f} MB in process '{who}'; "
                            f"{npass} passes, {hits} hits, {misses} misses")
        report.notes.append(f"untraced {describe_passes(pass_times)}")
        if not trace:
            for name, (v, n) in _latency_table(report, replies).items():
                report.notes.append(f"{name:30s} {v:14.6g} (samples {n})")
            report.put("setup_s", setup_s, len(wl.setup_times))
            report.put("ok_frac", (report.attempted - report.failed) / max(report.attempted, 1),
                       report.attempted)
            report.put("peak_rss_mb", peak, len(rss.by_process))
            trials = after.trials - before.trials
            report.put("trials_per_s", trials / elapsed, trials)
            report.put("requests_per_s", len(replies) / elapsed, len(replies))
            return

        spans = tracer.within(root_span)
        selfs = tracer.self_times(spans)
        m = dict(_latency_table(report, t_replies))
        lookups = t_after.plan_builds + t_after.plan_hits
        m["graph.build_s"] = (median(t["graph"] for t in wl.setup_times), len(wl.setup_times))
        m["engine.trials_per_estimate"] = (
            (t_after.trials - after.trials) / max(t_misses, 1), t_misses)
        m["engine.plan_cache_hit_frac"] = (t_after.plan_hits / max(lookups, 1), lookups)
        m["service.cache_hit_frac"] = (t_hits / max(t_hits + t_misses, 1), t_hits + t_misses)
        server_hit = _mean_delta(h0.count_latency, h1.count_latency)
        client_hit = sum(hit_lat) / len(hit_lat)
        m["service.server_hit_ms"] = (1000 * server_hit, len(hit_lat))
        m["service.wire_hit_ms"] = (1000 * (client_hit - server_hit), len(hit_lat))
        m["service.hit_response_kb"] = (sum(hit_sizes) / len(hit_sizes) / 1024, len(hit_sizes))
        m["service.queue_wait_ms"] = (1000 * _mean_delta(after.job_wait, t_after.job_wait),
                                      t_misses)
        m["service.job_run_s"] = (_mean_delta(after.job_run, t_after.job_run), t_misses)
        m["service.rejected"] = (h1.rejected - before.rejected, len(replies) + len(t_replies))
        untraced_pass, traced_pass = median(pass_times), median(t_pass_times)
        m["bench.trace_overhead_frac"] = (
            (traced_pass - untraced_pass) / untraced_pass, npass + t_npass)
        finish_trace(report, m, tracer, root_span, spans, selfs, "service.request", None, out_dir,
                     "service-mixed", seed)
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
