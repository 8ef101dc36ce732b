"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the numeric side of :mod:`repro.observability` — the span
tracer answers "where did the time go", the registry answers "how much work
was done": MACs executed, GEMM/conv kernel launches, bytes moved over the
simulated wire, allreduce calls, cache hits.

Design constraints, in order:

1. **Zero overhead when disabled.**  Hot paths guard every update with the
   module-level :data:`COLLECT` flag (a plain attribute load — no function
   call, no allocation).  The instrumented kernels in :mod:`repro.tensor`
   check it directly.
2. **Thread-safe when enabled.**  The simulator and future data-loading
   workers may update counters concurrently; every mutation takes the
   metric's lock (plain ``+=`` is not atomic across bytecode boundaries).
3. **Prometheus-flavoured API.**  ``registry.counter("bytes_moved")``,
   ``counter.labels(phase="warmup").inc(n)``, ``histogram.observe(v)`` —
   familiar shapes, no external dependency.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "COLLECT",
    "get_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "diff_counters",
]

# Module-level collection switch.  Instrumented code reads this attribute
# directly (``if metrics.COLLECT: ...``) so the disabled path costs one
# dict lookup and a branch.
COLLECT = False


def enable_metrics() -> None:
    """Turn on metric collection process-wide."""
    global COLLECT
    COLLECT = True


def disable_metrics() -> None:
    global COLLECT
    COLLECT = False


def metrics_enabled() -> bool:
    return COLLECT


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _label_suffix(key: tuple) -> str:
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class _Metric:
    """Shared plumbing: a name, a lock, and labelled children of same type."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._children: dict[tuple, _Metric] = {}

    def labels(self, **labels) -> "_Metric":
        """Child metric for a label combination (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = type(self)(self.name + _label_suffix(key))
                    self._children[key] = child
        return child

    def _iter_children(self):
        return list(self._children.values())


class Counter(_Metric):
    """Monotonically increasing count."""

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        """Own count plus all labelled children (the family total)."""
        return self._value + sum(c._value for c in self._iter_children())

    def collect(self, out: dict) -> None:
        out[self.name] = self._value
        for child in self._iter_children():
            child.collect(out)


class Gauge(_Metric):
    """A value that can go up and down (e.g. current LR, live parameters)."""

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._value = 0.0

    def set(self, v: float) -> None:
        with self._lock:
            self._value = v

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        return self._value

    def collect(self, out: dict) -> None:
        out[self.name] = self._value
        for child in self._iter_children():
            child.collect(out)


class Histogram(_Metric):
    """Streaming distribution; keeps raw observations for exact quantiles.

    The workloads this library profiles observe at most a few thousand
    values per run (per-epoch seconds, per-iteration bytes), so storing
    raw samples is both exact and cheap.
    """

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._values: list[float] = []

    def observe(self, v: float) -> None:
        with self._lock:
            self._values.append(float(v))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return float(sum(self._values))

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile (numpy's default method)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            xs = sorted(self._values)
        if not xs:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return _sorted_quantile(xs, q)

    def collect(self, out: dict) -> None:
        with self._lock:
            values = list(self._values)
        if values:
            xs = sorted(values)  # one sort serves min, max and every quantile
            out[self.name] = {
                "count": len(values),
                "sum": float(sum(values)),
                "min": xs[0],
                "max": xs[-1],
                "p50": _sorted_quantile(xs, 0.5),
                "p90": _sorted_quantile(xs, 0.9),
                "p99": _sorted_quantile(xs, 0.99),
            }
        else:
            out[self.name] = {"count": 0, "sum": 0.0}
        for child in self._iter_children():
            child.collect(out)


def _sorted_quantile(xs: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already sorted, non-empty list."""
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


class MetricsRegistry:
    """Name → metric store with get-or-create accessors and snapshots."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- accessors ------------------------------------------------------

    def _get_or_create(self, name: str, cls, description: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, description)
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(name, Counter, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, description)

    def histogram(self, name: str, description: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, description)

    # -- export ---------------------------------------------------------

    def counters(self) -> dict:
        """Flat ``name -> value`` map of every counter (incl. labelled)."""
        out: dict = {}
        for m in list(self._metrics.values()):
            if isinstance(m, Counter):
                m.collect(out)
        return out

    def snapshot(self) -> dict:
        """Full structured snapshot, JSON-serializable."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for m in list(self._metrics.values()):
            if isinstance(m, Counter):
                m.collect(counters)
            elif isinstance(m, Gauge):
                m.collect(gauges)
            elif isinstance(m, Histogram):
                m.collect(histograms)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        """Drop every registered metric (used between profiled runs)."""
        with self._lock:
            self._metrics.clear()


def diff_counters(after: dict, before: dict) -> dict:
    """Counter deltas between two :meth:`MetricsRegistry.counters` maps,
    keeping only counters that actually moved."""
    out = {}
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            out[name] = delta
    return out


# The process-global default registry.  Instrumented library code records
# here; tests and the CLI can swap in a fresh one via ``reset()``.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
