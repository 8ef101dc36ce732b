"""Shared plumbing: environment, statistics, spans and the result line.

Nothing here imports the program under test; ``run.py`` puts ``src/`` on
the path and pins the BLAS thread count before numpy is first imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# One BLAS thread: with two on a two-core host, hybrid step times swung by
# about 10% between runs (any other activity stalls the threads' barriers);
# with one, about 5%.
BLAS_THREADS = "1"
BACKEND = "fast"
# How often set-up is repeated in one run; setup_s is the median.
SETUP_REPEATS = 3

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(env: dict) -> dict:
    """Fix the BLAS thread count and the tensor backend."""
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["REPRO_BACKEND"] = BACKEND
    return env


def child_env() -> dict:
    """Environment for a child process that imports the program from ``src/``."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "backend": BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default); 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Spans:
    """In-memory span recorder: name, start, end, parent and ids.

    Spans nest by call order (a stack), so ``parent`` is the index of the
    enclosing open span.  Times are ``perf_counter`` seconds relative to
    the recorder's creation.
    """

    def __init__(self, enabled: bool = True, limit: int = 200_000):
        self.enabled = enabled
        self.limit = limit
        self.dropped = 0
        self.items: list[dict] = []
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    def _full(self) -> bool:
        if len(self.items) < self.limit:
            return False
        self.dropped += 1
        return True

    def open(self, name: str, **ids) -> int:
        if not self.enabled or self._full():
            return -1
        idx = len(self.items)
        parent = self._stack[-1] if self._stack else None
        self.items.append(
            {"name": name, "start": time.perf_counter() - self.t0, "end": None,
             "parent": parent, **ids}
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if idx < 0:
            return
        self.items[idx]["end"] = time.perf_counter() - self.t0
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        elif idx in self._stack:
            self._stack.remove(idx)

    @contextmanager
    def span(self, name: str, **ids):
        idx = self.open(name, **ids)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, name: str, start: float, end: float, **ids) -> None:
        """Record a finished span measured elsewhere (``perf_counter`` times)."""
        if self.enabled and not self._full():
            self.items.append(
                {"name": name, "start": start - self.t0, "end": end - self.t0,
                 "parent": self._stack[-1] if self._stack else None, **ids}
            )


# ----------------------------------------------------------------------
# result
# ----------------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


class Run:
    """One benchmark run: its checks, metrics and the files it leaves."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.spans = Spans(enabled=trace)
        self.notes: dict = {}
        # Per-layer metric prefixes of layers this workload never enters;
        # they read 0 in a traced run.
        self.not_entered: tuple[str, ...] = ()
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.dir = OUT / tag
        self.dir.mkdir(parents=True, exist_ok=True)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def set(self, **values: float) -> None:
        self.metrics.update(values)

    def finish(self) -> dict:
        """Validate against BENCHMARK.json, write the run record, return the result."""
        spec = load_spec()
        group = spec["per_layer"] if self.trace else spec["end_to_end"]
        if self.trace:
            for m in group:
                if m["name"].startswith(self.not_entered):
                    self.metrics.setdefault(m["name"], 0.0)
        missing = [m["name"] for m in group if m["name"] not in self.metrics]
        if missing:
            raise RuntimeError(f"workload {self.workload} did not measure {missing}")
        metrics = {
            m["name"]: {"value": float(self.metrics[m["name"]]), "unit": m["unit"]}
            for m in group
        }
        result = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": metrics,
        }
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(),
            "failed_frac": result["failed"] / result["attempted"],
            "failures": self.failures,
            "notes": self.notes,
            "result": result,
        }
        with open(self.dir / "result.json", "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        if self.trace:
            with open(self.dir / "spans.json", "w") as f:
                json.dump(self.spans.items, f)
        return record


def emit(record: dict) -> None:
    """Human summary on stderr-free stdout, then the result as the last line."""
    result = record["result"]
    print(json.dumps({"environment": record["environment"],
                      "failed_frac": record["failed_frac"],
                      "failures": record["failures"]}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
