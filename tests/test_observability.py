"""The observability layer: span tracer, metrics registry, kernel hooks.

Covers the contracts the rest of the library leans on: exclusive-time
math, exact quantiles, thread-safe counters, the zero-overhead disabled
path, ``count_macs`` back-compat through the registry, and the
re-entrancy/exception-safety fix in :mod:`repro.tensor.profiler`.
"""

import json
import threading

import numpy as np
import pytest

from repro import nn, observability as obs
from repro.observability import metrics as metrics_mod
from repro.observability import trace as trace_mod
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_counters,
)
from repro.observability.trace import Tracer, _NULL_SPAN
from repro.tensor import Tensor
from repro.tensor.profiler import add_macs, count_macs, macs_active, profiling_active


@pytest.fixture(autouse=True)
def _observability_off():
    """Every test starts and ends with the global flags down and state clean."""
    obs.disable()
    obs.get_tracer().clear()
    obs.get_registry().reset()
    yield
    obs.disable()
    obs.get_tracer().clear()
    obs.get_registry().reset()


class FakeClock:
    """Deterministic monotonic clock: advance() by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ---------------------------------------------------------------------------
# Span tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_exclusive_time(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("outer"):
            clock.advance(1.0)  # exclusive outer work
            with tr.span("child_a"):
                clock.advance(2.0)
            clock.advance(0.5)  # more exclusive outer work
            with tr.span("child_b"):
                clock.advance(3.0)
        (outer,) = tr.spans("outer")
        (a,) = tr.spans("child_a")
        (b,) = tr.spans("child_b")
        assert outer.duration == pytest.approx(6.5)
        assert a.duration == pytest.approx(2.0)
        assert b.duration == pytest.approx(3.0)
        # exclusive = wall minus direct children
        assert outer.exclusive == pytest.approx(1.5)
        assert outer.child_time == pytest.approx(5.0)
        assert a.exclusive == pytest.approx(2.0)

    def test_exclusive_only_subtracts_direct_children(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    clock.advance(4.0)
        (a,) = tr.spans("a")
        (b,) = tr.spans("b")
        # c's time is charged to b, and b's (which includes c) to a — once.
        assert a.child_time == pytest.approx(4.0)
        assert a.exclusive == pytest.approx(0.0)
        assert b.exclusive == pytest.approx(0.0)

    def test_depth_and_attrs(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("outer", phase="warmup"):
            with tr.span("inner", epoch=3):
                pass
        (outer,) = tr.spans("outer")
        (inner,) = tr.spans("inner")
        assert outer.depth == 0 and inner.depth == 1
        assert outer.attrs == {"phase": "warmup"}
        assert inner.attrs == {"epoch": 3}

    def test_sibling_spans_same_name_accumulate(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        for _ in range(3):
            with tr.span("step"):
                clock.advance(1.0)
        assert len(tr.spans("step")) == 3
        assert tr.total("step") == pytest.approx(3.0)
        summary = tr.summary()
        assert summary["step"]["count"] == 3
        assert summary["step"]["total"] == pytest.approx(3.0)
        assert summary["step"]["exclusive"] == pytest.approx(3.0)

    def test_name_is_positional_only(self):
        # span attrs may legitimately be called "name" (phase spans do this).
        tr = Tracer(clock=FakeClock())
        with tr.span("phase", name="warmup"):
            pass
        (s,) = tr.spans("phase")
        assert s.attrs == {"name": "warmup"}

    def test_threads_get_independent_stacks(self):
        clock = FakeClock()  # shared but only read concurrently
        tr = Tracer(clock=clock)
        errors = []

        def worker(i):
            try:
                with tr.span(f"w{i}"):
                    pass
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        with tr.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        spans = tr.spans()
        assert len(spans) == 9
        # worker spans are top-level on their own threads, not children of main
        (main,) = tr.spans("main")
        assert main.child_time == pytest.approx(0.0)
        # worker spans open at depth 0 on their own threads (not nested
        # under main); thread idents may be recycled after join, so don't
        # assert 9 distinct ids.
        for i in range(8):
            (w,) = tr.spans(f"w{i}")
            assert w.depth == 0

    def test_chrome_trace_format(self, tmp_path):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        clock.advance(0.25)
        with tr.span("work", kind="test"):
            clock.advance(0.5)
        path = tr.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path) as f:
            doc = json.load(f)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        (ev,) = doc["traceEvents"]
        assert ev["ph"] == "X"
        assert ev["name"] == "work"
        assert ev["ts"] == pytest.approx(0.25e6)  # µs since tracer epoch
        assert ev["dur"] == pytest.approx(0.5e6)
        assert ev["args"] == {"kind": "test"}

    def test_clear_resets_epoch(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        clock.advance(10.0)
        tr.clear()
        with tr.span("s"):
            clock.advance(1.0)
        (s,) = tr.spans("s")
        assert s.start == pytest.approx(0.0)

    def test_span_survives_exceptions(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                clock.advance(1.0)
                raise RuntimeError("x")
        (s,) = tr.spans("boom")
        assert s.duration == pytest.approx(1.0)
        # stack unwound: the next span is top-level again
        with tr.span("after"):
            pass
        (after,) = tr.spans("after")
        assert after.depth == 0

    def test_traced_decorator_checks_flag_per_call(self):
        calls = []

        @trace_mod.traced("decorated")
        def fn():
            calls.append(1)
            return 42

        assert fn() == 42  # disabled: no span recorded
        assert obs.get_tracer().spans("decorated") == []
        obs.enable_tracing()
        assert fn() == 42
        assert len(obs.get_tracer().spans("decorated")) == 1
        assert calls == [1, 1]


class TestDisabledPath:
    def test_module_span_returns_shared_null_singleton(self):
        a = trace_mod.span("anything", attr=1)
        b = trace_mod.span("else")
        assert a is _NULL_SPAN and b is _NULL_SPAN  # no allocation
        with a:
            pass
        assert obs.get_tracer().spans() == []

    def test_enabled_module_span_records(self):
        obs.enable_tracing()
        with trace_mod.span("live"):
            pass
        assert len(obs.get_tracer().spans("live")) == 1

    def test_kernels_record_nothing_when_disabled(self):
        lin = nn.Linear(8, 8, bias=False)
        lin(Tensor(np.zeros((4, 8), dtype=np.float32)))
        assert obs.get_registry().counters() == {}
        assert not profiling_active()

    def test_observe_restores_prior_flags(self):
        assert not trace_mod.ENABLED and not metrics_mod.COLLECT
        with obs.observe() as (tracer, registry):
            assert trace_mod.ENABLED and metrics_mod.COLLECT
            assert tracer is obs.get_tracer()
            assert registry is obs.get_registry()
        assert not trace_mod.ENABLED and not metrics_mod.COLLECT


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_labels_children_roll_up(self):
        c = Counter("bytes")
        c.labels(phase="warmup").inc(10)
        c.labels(phase="lowrank").inc(5)
        c.labels(phase="warmup").inc(1)  # same child again
        c.inc(2)
        assert c.value == 18  # family total
        out = {}
        c.collect(out)
        assert out == {
            "bytes": 2,
            "bytes{phase=warmup}": 11,
            "bytes{phase=lowrank}": 5,
        }

    def test_thread_safety(self):
        c = Counter("c")

        def worker():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == pytest.approx(4.0)


class TestHistogram:
    def test_quantiles_match_numpy(self, rng):
        h = Histogram("h")
        xs = rng.standard_normal(257)
        for x in xs:
            h.observe(float(x))
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(float(np.quantile(xs, q)))

    def test_count_sum_collect(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        out = {}
        h.collect(out)
        rec = out["h"]
        assert rec["count"] == 4
        assert rec["sum"] == pytest.approx(10.0)
        assert rec["min"] == 1.0 and rec["max"] == 4.0
        assert rec["p50"] == pytest.approx(2.5)

    def test_collect_sorts_once_and_matches_the_per_field_formula(self, rng, monkeypatch):
        h = Histogram("h")
        child = h.labels(route="a")
        for x in rng.lognormal(size=1001):
            h.observe(float(x))
            child.observe(float(x) * 3)
        expected = {
            m.name: {
                "count": m.count,
                "sum": m.sum,
                "min": min(m._values),
                "max": max(m._values),
                "p50": m.quantile(0.5),
                "p90": m.quantile(0.9),
                "p99": m.quantile(0.99),
            }
            for m in (h, child)
        }
        sorts = []
        real_sorted = sorted
        monkeypatch.setattr(
            metrics_mod, "sorted", lambda xs: sorts.append(1) or real_sorted(xs), raising=False
        )
        out = {}
        h.collect(out)
        assert out == expected
        assert len(sorts) == 2  # one per metric, not one per quantile

    def test_empty_histogram(self):
        h = Histogram("h")
        out = {}
        h.collect(out)
        assert out["h"] == {"count": 0, "sum": 0.0}
        with pytest.raises(ValueError):
            h.quantile(0.5)

    def test_quantile_bounds(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")

    def test_type_collision_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_snapshot_structure(self):
        r = MetricsRegistry()
        r.counter("c").inc(3)
        r.gauge("g").set(1.5)
        r.histogram("h").observe(2.0)
        snap = r.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)  # JSON-serializable end to end

    def test_diff_counters_keeps_only_moved(self):
        before = {"a": 1, "b": 5}
        after = {"a": 4, "b": 5, "c": 2}
        assert diff_counters(after, before) == {"a": 3, "c": 2}

    def test_reset(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.reset()
        assert r.counters() == {}


# ---------------------------------------------------------------------------
# Kernel profiling bridge (count_macs back-compat + registry)
# ---------------------------------------------------------------------------

class TestKernelProfiling:
    def test_count_macs_matches_registry(self):
        """Same forward pass: scoped counter and registry agree exactly."""
        lin = nn.Linear(16, 8, bias=False)
        x = Tensor(np.zeros((4, 16), dtype=np.float32))
        obs.enable_metrics()
        with count_macs() as c:
            lin(x)
        assert c.total == 4 * 8 * 16
        assert obs.get_registry().counters()["macs"] == c.total
        assert obs.get_registry().counters()["gemm_calls"] == 1

    def test_macs_counted_once_despite_nesting(self):
        """Nested count_macs frames must not double-count into the registry."""
        obs.enable_metrics()
        with count_macs() as outer:
            with count_macs() as inner:
                add_macs(7)
        assert inner.total == 7
        assert outer.total == 0  # inner context shadows (pinned semantics)
        assert obs.get_registry().counters()["macs"] == 7

    def test_conv_records_conv_calls(self):
        conv = nn.Conv2d(3, 4, 3, padding=1, bias=False)
        obs.enable_metrics()
        conv(Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32)))
        counters = obs.get_registry().counters()
        assert counters["conv_calls"] == 1
        assert counters["macs"] > 0

    def test_reentrancy_regression(self):
        """Re-entering one count_macs instance must not leak an active frame.

        The historical ``_prev``-chain implementation restored a stale
        pointer here, leaving ``macs_active()`` stuck on forever.
        """
        c = count_macs()
        with c:
            with c:
                add_macs(3)
            assert c.total == 3
            add_macs(2)
        assert c.total == 2
        assert not macs_active()
        add_macs(100)  # must be dropped — nothing is active
        assert not macs_active()

    def test_exception_safety(self):
        with pytest.raises(RuntimeError):
            with count_macs():
                raise RuntimeError("x")
        assert not macs_active()

    def test_leaked_inner_frame_is_discarded(self):
        """Exiting an outer frame discards frames leaked above it."""
        outer, inner = count_macs(), count_macs()
        outer.__enter__()
        inner.__enter__()  # never exited (abandoned generator scenario)
        add_macs(5)
        outer.__exit__(None, None, None)
        assert outer.total == 0  # the 5 went to the (leaked) inner frame
        assert not macs_active()


# ---------------------------------------------------------------------------
# End-to-end: trainer + CLI
# ---------------------------------------------------------------------------

def _tiny_loader(rng):
    from repro.data import DataLoader

    x = rng.standard_normal((32, 6)).astype(np.float32)
    y = rng.integers(0, 3, 32)
    return DataLoader(x, y, 16, shuffle=True)


class TestTrainerIntegration:
    def test_epoch_spans_reconcile_with_history(self, rng):
        from repro.core import Trainer
        from repro.nn import Linear
        from repro.optim import SGD

        model = Linear(6, 3)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        loader = _tiny_loader(rng)
        with obs.observe():
            trainer.fit(loader, loader, epochs=2)
        epoch_spans = obs.get_tracer().spans("epoch")
        assert len(epoch_spans) == 2
        history_secs = sum(s.seconds for s in trainer.history)
        span_secs = sum(s.duration for s in epoch_spans)
        # the span brackets exactly the region EpochStats.seconds times
        assert span_secs == pytest.approx(history_secs, rel=0.10)

    def test_epoch_stats_carry_metrics(self, rng):
        from repro.core import Trainer
        from repro.nn import Linear
        from repro.optim import SGD

        model = Linear(6, 3)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        loader = _tiny_loader(rng)
        with obs.observe():
            trainer.fit(loader, loader, epochs=1)
        (stats,) = trainer.history
        assert stats.metrics and stats.metrics["gemm_calls"] > 0

    def test_trainer_epoch_metrics_in_registry(self, rng):
        from repro.core import Trainer
        from repro.nn import Linear
        from repro.optim import SGD

        model = Linear(6, 3)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        loader = _tiny_loader(rng)
        with obs.observe():
            trainer.fit(loader, loader, epochs=2)
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["trainer.epochs"] == 2
        assert snap["histograms"]["trainer.train_loss"]["count"] == 2
        assert snap["histograms"]["trainer.val_loss"]["count"] == 2
        assert snap["gauges"]["trainer.lr"] == pytest.approx(0.1)

    def test_ddp_overlap_gauges_and_spans(self, rng):
        from repro.data import DataLoader
        from repro.distributed import ClusterSpec, DistributedTrainer
        from repro.models import MLP
        from repro.optim import SGD

        model = MLP(6, [8], 3)
        x = rng.standard_normal((32, 6)).astype(np.float32)
        y = rng.integers(0, 3, 32)
        loaders = [DataLoader(x[i::2], y[i::2], 16) for i in range(2)]
        trainer = DistributedTrainer(
            model, SGD(model.parameters(), lr=0.1), ClusterSpec(2),
            overlap=True, bucket_mb=0.0001,
        )
        with obs.observe():
            timeline = trainer.train_epoch(loaders)
        gauges = obs.get_registry().snapshot()["gauges"]
        assert 0.0 <= gauges["ddp.overlap_fraction"] <= 1.0
        assert gauges["ddp.n_buckets"] == len(trainer._buckets) > 1
        assert gauges["ddp.comm_fraction"] >= 0.0
        bucket_spans = obs.get_tracer().spans("ddp.bucket")
        assert len(bucket_spans) == len(trainer._buckets) * timeline.iterations
        assert all("nbytes" in s.attrs for s in bucket_spans)

    def test_ddp_timeline_metrics(self, rng):
        from repro.data import DataLoader
        from repro.distributed import ClusterSpec, DistributedTrainer
        from repro.models import MLP
        from repro.optim import SGD

        model = MLP(6, [8], 3)
        x = rng.standard_normal((32, 6)).astype(np.float32)
        y = rng.integers(0, 3, 32)
        loaders = [DataLoader(x[i::2], y[i::2], 16) for i in range(2)]
        trainer = DistributedTrainer(
            model, SGD(model.parameters(), lr=0.1), ClusterSpec(2)
        )
        with obs.observe():
            timeline = trainer.train_epoch(loaders)
        assert timeline.metrics.get("allreduce_calls", 0) > 0
        assert timeline.metrics.get("ddp.wire_bytes", 0) > 0
        assert "metrics" in timeline.as_dict()


class TestProfileCli:
    def test_profile_quickstart_emits_valid_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main([
            "profile", "quickstart",
            "--out", str(out),
            "--epochs", "2", "--warmup-epochs", "1",
            "--samples", "32", "--batch-size", "16", "--classes", "2",
        ])
        assert rc == 0
        with open(out) as f:
            doc = json.load(f)
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert {"epoch", "forward", "backward", "optimizer_step"} <= names
        assert all(ev["ph"] == "X" for ev in doc["traceEvents"])
        captured = capsys.readouterr().out
        assert "macs" in captured
        # flags are restored by the CLI's finally block
        assert not trace_mod.ENABLED and not metrics_mod.COLLECT

    def test_profile_simulate_runs(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main([
            "profile", "simulate",
            "--out", str(out),
            "--nodes", "2", "--iterations", "1", "--compressor", "topk",
        ])
        assert rc == 0
        with open(out) as f:
            doc = json.load(f)
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert "ddp.compute" in names
