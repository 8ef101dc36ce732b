"""Gateway workload: the factorized ResNet-18 behind ``repro gateway serve``.

The server runs in a child process (``python -m repro gateway serve
--executor model``, metrics on as the CLI leaves them, batch <= 2).  This
process drives it closed loop over 2 keep-alive connections with
requests from a seeded ``build_trace``; connection 1 also sends
``GET /metrics`` after every ``SCRAPE_EVERY`` of its requests, so the run
never holds more than 2 connections.  Throughput is completed requests
over this process's own elapsed clock.

Checks, each counted in ``attempted``/``failed``: every response is a 200
with the echoed rid, status ``completed`` and a class id in range; every
``/metrics`` body parses; and for a sample of served batches the class
ids equal an in-process forward of the same model on the same inputs.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    ROOT, SETUP_REPEATS, Run, child_env, mean, median, proc_peak_rss_mb, quantile,
)
from probes import STAGES, kernel_metrics

HOST = "127.0.0.1"
CLASSES = 10
WIDTH = 0.25
RANK_RATIO = 0.25
MAX_BATCH = 2
CONNECTIONS = 2
SCRAPE_EVERY = 20
WARMUP_REQUESTS = 10
TRACE_RPS = 600  # offered-trace density; the closed loop ignores arrival times
EVAL_SAMPLES = 64  # labelled samples behind loss_end
VERIFY_BATCHES = 16
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
# The traced run's accounting check: p50 queue wait + p50 service + p50
# HTTP overhead must reconcile with the client's p50 latency.
ACCOUNTING_TOLERANCE = 0.25
HERE = Path(__file__).resolve().parent


class Server:
    """One gateway child process, booted and warmed up."""

    def __init__(self, run: Run, seed: int, index: int, traced: bool):
        self.ready = run.dir / f"server{index}.ready"
        self.report = run.dir / f"server{index}.report.json"
        self.probe_out = run.dir / f"server{index}.probes.json"
        for f in (self.ready, self.report, self.probe_out):
            f.unlink(missing_ok=True)
        args = [
            "gateway", "serve", "--executor", "model", "--model", "resnet18",
            "--variant", "factorized", "--width", str(WIDTH), "--rank-ratio",
            str(RANK_RATIO), "--classes", str(CLASSES), "--seed", str(seed),
            "--backend", "fast", "--host", HOST, "--port", "0",
            "--max-batch", str(MAX_BATCH), "--ready-file", str(self.ready),
            "--report", str(self.report),
        ]
        if traced:
            cmd = [sys.executable, str(HERE / "gw_server.py"), str(self.probe_out), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self.log = open(run.dir / f"server{index}.log", "w")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited with {self.proc.returncode} during boot")
            text = self.ready.read_text() if self.ready.exists() else ""
            if text.strip():
                self.port = int(text)
                return
            time.sleep(0.02)
        raise RuntimeError("gateway did not become ready")

    def stop(self) -> None:
        """SIGTERM (graceful drain, report written), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        self.ready.unlink(missing_ok=True)

    def read_report(self) -> dict:
        """The server's final report, written when it drains."""
        return json.loads(self.report.read_text())


# ----------------------------------------------------------------------
# closed-loop client
# ----------------------------------------------------------------------


class Phase:
    """Everything the client saw in one measured phase."""

    def __init__(self):
        self.requests: dict[int, dict] = {}  # rid -> client record
        self.scrape_ms: list[float] = []
        self.last_scrape: bytes = b""
        self.elapsed = 0.0

    @property
    def completed(self) -> int:
        return sum(1 for r in self.requests.values() if r["ok"])


async def _connection(run: Run, port: int, trace_iter, deadline: float, phase: Phase,
                      scrape_every: int, conn: int) -> None:
    from repro.gateway import http

    reader, writer = await asyncio.open_connection(HOST, port)
    n = 0
    try:
        for req in trace_iter:
            if time.perf_counter() >= deadline:
                break
            body = {"id": req.rid, "payload": req.payload, "steps": 1}
            t0 = time.perf_counter()
            writer.write(http.render_request("POST", "/v1/infer", body, host=HOST))
            await writer.drain()
            resp = await http.read_response(reader)
            t1 = time.perf_counter()
            run.spans.add("request", t0, t1, rid=req.rid, conn=conn)
            phase.requests[req.rid] = _check_infer(run, req, resp, t1 - t0)
            n += 1
            if scrape_every and n % scrape_every == 0:
                await _scrape(run, reader, writer, phase, conn)
        if scrape_every:
            await _scrape(run, reader, writer, phase, conn)  # final snapshot
    finally:
        writer.close()
        await writer.wait_closed()


def _check_infer(run: Run, req, resp, latency_s: float) -> dict:
    record = {"payload": req.payload, "latency_s": latency_s, "ok": False, "klass": None}
    try:
        body = resp.json()
    except json.JSONDecodeError:
        body = {}
    result = body.get("result") or {}
    klass = result.get("class")
    ok = (
        resp.status == 200
        and body.get("rid") == req.rid
        and body.get("status") == "completed"
        and isinstance(klass, int)
        and 0 <= klass < CLASSES
    )
    if run.check(ok, f"rid {req.rid}: http {resp.status} body {body}"):
        record.update(ok=True, klass=klass)
    return record


async def _scrape(run: Run, reader, writer, phase: Phase, conn: int) -> None:
    from repro.gateway import http

    t0 = time.perf_counter()
    writer.write(http.render_request("GET", "/metrics", host=HOST))
    await writer.drain()
    resp = await http.read_response(reader)
    t1 = time.perf_counter()
    run.spans.add("scrape", t0, t1, conn=conn)
    try:
        snap = resp.json()
        ok = resp.status == 200 and {"counters", "gauges", "histograms"} <= snap.keys()
    except (json.JSONDecodeError, AttributeError):
        ok = False
    if run.check(ok, f"/metrics: http {resp.status}"):
        phase.scrape_ms.append((t1 - t0) * 1e3)
        phase.last_scrape = resp.body


def drive(run: Run, port: int, trace_iter, seconds: float, scrape: bool) -> Phase:
    """Closed loop on ``CONNECTIONS`` keep-alive connections for ``seconds``."""
    phase = Phase()

    async def main():
        start = time.perf_counter()
        await asyncio.gather(*(
            _connection(run, port, trace_iter, start + seconds, phase,
                        SCRAPE_EVERY if scrape and c == 1 else 0, c)
            for c in range(CONNECTIONS)
        ))
        phase.elapsed = time.perf_counter() - start

    asyncio.run(main())
    return phase


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------


def _trace(seed: int, seconds: float, rid_offset: int = 0):
    from repro.gateway import build_trace
    from repro.serve.loadgen import ArrivalSpec

    spec = ArrivalSpec(rate_rps=TRACE_RPS, duration_s=seconds + 2.0, seed=seed)
    return build_trace(spec, rid_offset=rid_offset)


def _boot(run: Run, index: int, traced: bool, warmup: int) -> tuple[Server, float]:
    t0 = time.perf_counter()
    server = Server(run, run.seed, index, traced)
    try:
        server.wait_ready()
        warm = iter(_trace(run.seed + 1, 1.0, rid_offset=10**7)[:warmup])
        drive(run, server.port, warm, BOOT_TIMEOUT_S, scrape=False)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def _served_model(seed: int):
    from repro.serve import default_registry

    return default_registry().materialize(
        "resnet18", "factorized", num_classes=CLASSES, width=WIDTH,
        rank_ratio=RANK_RATIO, seed=seed,
    )


def _loss_end(served, seed: int) -> float:
    """Mean cross-entropy of the served model on seeded labelled samples,
    evaluated under ``no_grad`` at the server's batch size."""
    from repro.data.synthetic import make_cifar_like
    from repro.nn import CrossEntropyLoss
    from repro.tensor import Tensor, no_grad

    data = make_cifar_like(n=EVAL_SAMPLES, num_classes=CLASSES,
                           rng=np.random.default_rng(seed))
    loss_fn = CrossEntropyLoss()
    losses = []
    with no_grad():
        for i in range(0, EVAL_SAMPLES, MAX_BATCH):
            logits = served.model(Tensor(data.images[i:i + MAX_BATCH]))
            losses.append(float(loss_fn(logits, data.labels[i:i + MAX_BATCH]).data))
    return mean(losses)


def _verify_classes(run: Run, served, phase: Phase, report: dict) -> None:
    """Recompute a sample of served batches in-process; classes must agree."""
    from repro.tensor import no_grad

    members: dict[int, list] = {}
    for o in report["timeline"]:
        if o["rid"] in phase.requests and o["status"] == "completed":
            members.setdefault(o["batch"], []).append(o)
    for batch in sorted(members)[:VERIFY_BATCHES]:
        # The batcher cuts FIFO, so arrival order is the executor's order.
        outcomes = sorted(members[batch], key=lambda o: o["arrival_s"])
        records = [phase.requests[o["rid"]] for o in outcomes]
        rng = np.random.default_rng([int(r["payload"]) for r in records] + [0])
        with no_grad():
            out = served.model(*served.input_spec.example_batch(len(records), rng))
        pred = np.argmax(out.data, axis=-1)
        for o, r, p in zip(outcomes, records, pred):
            run.check(r["klass"] == int(p),
                      f"rid {o['rid']}: served class {r['klass']}, reference {int(p)}")


def _serving_metrics(phase: Phase, report: dict) -> dict:
    """Split each request's client latency into queue wait, service and HTTP."""
    batches = {b["index"]: b for b in report["batches"]}
    outcomes = [o for o in report["timeline"] if o["rid"] in phase.requests]
    done = [o for o in outcomes if o["status"] == "completed"]
    queue_ms = [(batches[o["batch"]]["dispatch_s"] - o["arrival_s"]) * 1e3 for o in done]
    service_ms = [batches[o["batch"]]["service_s"] * 1e3 for o in done]
    http_ms = [
        (phase.requests[o["rid"]]["latency_s"] - o["latency_s"]) * 1e3 for o in done
    ]
    used = {o["batch"] for o in done}
    return {
        "serve.queue_wait_ms_p50": median(queue_ms),
        "serve.service_ms_p50": median(service_ms),
        "serve.batch_size_mean": mean(batches[b]["size"] for b in used),
        "serve.shed_frac": 1.0 - len(done) / len(outcomes),
        "gateway.http_ms_p50": median(http_ms),
    }


def _latencies_ms(phase: Phase) -> list[float]:
    return [r["latency_s"] * 1e3 for r in phase.requests.values() if r["ok"]]


def run_gateway(run: Run) -> None:
    # Serving runs no backward, optimizer, data loader or collective.
    run.not_entered = ("tensor.backward_ms", "nn.backward_ms.", "optim.", "data.",
                       "step.", "distributed.")
    served = _served_model(run.seed)
    warmup = 2 if run.tiny else WARMUP_REQUESTS
    repeats = 1 if run.tiny else SETUP_REPEATS
    trace_iter = iter(_trace(run.seed, run.seconds))
    servers: list[Server] = []
    try:
        setup_s = []
        for i in range(repeats):
            # In a traced run the last server runs the probes.
            server, seconds = _boot(run, i, traced=run.trace and i == repeats - 1,
                                    warmup=warmup)
            servers.append(server)
            setup_s.append(seconds)
        if run.trace:
            _run_traced(run, served, servers[-2:], trace_iter)
        else:
            _run_untraced(run, served, servers, trace_iter, setup_s)
    finally:
        for server in servers:
            server.stop()
            server.report.unlink(missing_ok=True)


def _run_untraced(run: Run, served, servers: list, trace_iter, setup_s: list) -> None:
    """Measure each booted server for an equal share of the run and pool the
    requests: server processes differ in speed by more than one server's
    run-to-run drift, so pooling them steadies the figures."""
    phases, rss = [], []
    for server in servers:
        phase = drive(run, server.port, trace_iter, run.seconds / len(servers), scrape=True)
        rss.append(proc_peak_rss_mb(server.proc.pid))
        server.stop()
        _verify_classes(run, served, phase, server.read_report())
        phases.append(phase)
    lat = [x for phase in phases for x in _latencies_ms(phase)]
    run.notes.update(requests=sum(len(p.requests) for p in phases),
                     scrapes=sum(len(p.scrape_ms) for p in phases))
    run.set(
        samples_per_s=sum(p.completed for p in phases) / sum(p.elapsed for p in phases),
        latency_ms_p50=median(lat),
        latency_ms_p90=quantile(lat, 0.9),
        loss_end=_loss_end(served, run.seed),
        setup_s=median(setup_s),
        peak_rss_mb=max(rss),
    )


def _run_traced(run: Run, served, servers: list, trace_iter) -> None:
    """Untraced half on a plain server, traced half on the probed one."""
    plain_server, server = servers[0], servers[-1]
    half = run.seconds / 2
    plain = drive(run, plain_server.port, trace_iter, half, scrape=False)
    server.proc.send_signal(signal.SIGUSR1)  # zero the server's probes
    time.sleep(0.05)
    phase = drive(run, server.port, trace_iter, half, scrape=True)
    server.stop()
    report = server.read_report()
    probes = json.loads(server.probe_out.read_text())
    server.probe_out.unlink()
    _verify_classes(run, served, phase, report)
    run.set(**_traced_metrics(run, served, phase, plain, report, probes))


def _traced_metrics(run, served, phase, plain, report, probes) -> dict:
    from training import forward_macs

    n = phase.completed
    lat = _latencies_ms(phase)
    m = kernel_metrics(probes["kernels"], per=n)
    sample = served.input_spec.example_batch(1, np.random.default_rng(0))[0].data
    macs, stage_macs = forward_macs(served.model, sample)
    for s in STAGES:
        m[f"nn.forward_ms.{s}"] = probes["forward_ms"][s] / n
        m[f"nn.macs.{s}"] = stage_macs[s]
    serving = _serving_metrics(phase, report)
    req_p50 = median(lat)
    parts = (serving["serve.queue_wait_ms_p50"] + serving["serve.service_ms_p50"]
             + serving["gateway.http_ms_p50"])
    residual = (req_p50 - parts) / req_p50
    run.check(abs(residual) <= ACCOUNTING_TOLERANCE,
              f"accounting: p50 parts miss request p50 by {residual:.1%}")
    shift = probes["spans_t0"] - run.spans.t0
    for s in probes["spans"]:
        run.spans.items.append({**s, "start": s["start"] + shift,
                                "end": s["end"] and s["end"] + shift, "process": "server"})
    run.notes["server_spans_dropped"] = probes["spans_dropped"]
    snapshot = json.loads(phase.last_scrape)
    m.update(serving)
    m.update({
        "tensor.macs_fwd": macs,
        "tensor.graph_nodes": probes["graph_nodes"] / n,
        "core.build_hybrid_s": _build_hybrid_s(run.seed),
        "gateway.request_ms_p99": quantile(lat, 0.99),
        "observability.metrics_bytes": len(phase.last_scrape),
        "observability.histogram_samples": sum(
            h.get("count", 0) for h in snapshot["histograms"].values()
        ),
        "observability.scrape_ms_p50": median(phase.scrape_ms),
        "observability.scrape_ms_p90": quantile(phase.scrape_ms, 0.9),
        "trace.overhead_ratio": (phase.completed / phase.elapsed)
        / (plain.completed / plain.elapsed),
        "trace.accounting_residual_frac": residual,
    })
    return m


def _build_hybrid_s(seed: int) -> float:
    """The SVD factorization the server runs at boot, timed in-process."""
    from repro.core import build_hybrid
    from repro.models.resnet import resnet18, resnet18_hybrid_config
    from repro.utils import set_seed

    set_seed(seed)
    vanilla = resnet18(num_classes=CLASSES, width_mult=WIDTH)
    _, report = build_hybrid(vanilla, resnet18_hybrid_config(vanilla, RANK_RATIO))
    return report.svd_seconds

