"""Shared helpers: seeds, timing statistics, process hygiene, reporting.

Everything here is program-agnostic: it reads ``/proc`` and ``/dev/shm``
and does arithmetic, so it keeps working when the counting stack under
``src/`` is refactored.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: how many times a run repeats the whole set-up; ``setup_s`` is the median
SETUP_REPEATS = 5


def sub_seed(seed: int, *parts: int) -> int:
    """A 31-bit seed derived from the run seed and a path of integers.

    Every input of a workload (graph, request seeds, request order) comes
    from one of these, so one ``--seed`` fixes the whole run.
    """
    h = 0x9E3779B1 ^ (seed & 0xFFFFFFFF)
    for p in parts:
        h = (h * 0x01000193 ^ (p & 0xFFFFFFFF)) & 0xFFFFFFFF
        h ^= h >> 15
    return h & 0x7FFFFFFF


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The q-quantile (0..1) by linear interpolation, or None when fewer
    than ten samples lie beyond it (too few to report)."""
    n = len(values)
    # rounded, so that 100 samples do carry a p90 (100 * (1 - 0.9) < 10)
    if n == 0 or round(n * (1.0 - q), 6) < 10:
        return None
    xs = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def describe_passes(seconds: Sequence[float]) -> str:
    """One-line summary of per-pass times (for the run's notes)."""
    return (f"{len(seconds)} passes, seconds median {median(seconds):.4f}, "
            f"min {min(seconds):.4f}, max {max(seconds):.4f}")


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------

def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (from ``/proc/<pid>/task/*/children``)."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                out.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, breadth first."""
    out: List[int] = []
    frontier = [pid]
    while frontier:
        nxt: List[int] = []
        for p in frontier:
            nxt.extend(child_pids(p))
        out.extend(nxt)
        frontier = nxt
    return out


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class PeakRss:
    """Largest VmHWM seen across the processes a run starts, by role."""

    def __init__(self) -> None:
        self.by_process: Dict[str, float] = {}

    def sample(self, role: str, pid: int) -> None:
        mb = vm_hwm_mb(pid)
        if mb > self.by_process.get(role, 0.0):
            self.by_process[role] = mb

    def sample_tree(self, role: str, pid: int) -> None:
        """Sample ``pid`` as ``role`` and each descendant as ``role-child``."""
        self.sample(role, pid)
        for child in descendants(pid):
            self.sample(f"{role}-child", child)

    def peak(self) -> Tuple[float, str]:
        if not self.by_process:
            return 0.0, "none"
        role = max(self.by_process, key=self.by_process.__getitem__)
        return self.by_process[role], role


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class CleanExitCheck:
    """Records ``/dev/shm`` at start; at the end, reports segments and
    child processes this run left behind."""

    def __init__(self) -> None:
        self.shm_before = shm_segments()

    def leftovers(self, timeout: float = 5.0) -> List[str]:
        deadline = time.monotonic() + timeout
        while True:
            problems: List[str] = []
            new_shm = sorted(shm_segments() - self.shm_before)
            if new_shm:
                problems.append(f"shared-memory segments left: {new_shm}")
            alive = [p for p in descendants(os.getpid()) if not is_zombie(p)]
            if alive and not new_shm:
                # the stdlib's shared-memory resource tracker would live
                # until this process exits; stop it now (after the segment
                # check, because it unlinks leaked segments when it stops)
                _stop_resource_tracker()
                alive = [p for p in descendants(os.getpid()) if not is_zombie(p)]
            if alive:
                problems.append(f"child processes left: "
                                f"{[(p, cmdline(p)[:80]) for p in alive]}")
            if not problems or time.monotonic() >= deadline:
                return problems
            time.sleep(0.1)


def _stop_resource_tracker() -> None:
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def environment(seed: int) -> Dict[str, object]:
    """Host facts recorded with every run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

class Report:
    """Metric values with sample counts, plus pass/fail state."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, int]] = {}
        self.notes: List[str] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def emit(self, spec: Sequence[Tuple[str, str]]) -> None:
        """Print notes and the metric table, then the one-line JSON result.

        ``spec`` lists the (name, unit) pairs the result must carry; a
        metric the run did not measure fails the run.
        """
        missing = [n for n, _ in spec if n not in self.metrics]
        if missing:
            self.problem(f"metrics not measured: {missing}")
        for note in self.notes:
            print(note)
        for problem in self.problems:
            print(f"PROBLEM: {problem}")
        units = dict(spec)
        print(f"{'metric':30s} {'value':>14s} {'unit':>8s} {'samples':>8s}")
        for name, (value, samples) in self.metrics.items():
            print(f"{name:30s} {value:14.6g} {units.get(name, ''):>8s} {samples:8d}")
        result = {
            "correct": not self.problems and self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": {
                n: {"value": self.metrics[n][0], "unit": u}
                for n, u in spec
                if n in self.metrics
            },
        }
        print(json.dumps(result), flush=True)
