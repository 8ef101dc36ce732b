"""Training workloads: single-node hybrid fine-tune and simulated DDP.

``train-hybrid-b128``: low-rank fine-tune steps of the Pufferfish hybrid
ResNet-18 (width 0.25, ``resnet18_hybrid_config``, rank ratio 0.25) at
batch 128 with ``FusedSGD`` + momentum on synthetic CIFAR-like data.

``ddp-vanilla-b32x4``: ``DistributedTrainer`` over 4 simulated workers of
vanilla ResNet-18 (width 0.25), 32 samples per worker, bucketed overlap
with a 0.5 MB bucket cap, plain allreduce, ``FusedSGD``, 0.1 Gbps links.

Each step's wall time is one measured operation; its loss must be finite.
At set-up, one batch's loss and parameter gradients under the ``fast``
backend must match the ``numpy`` reference within the parity tolerances.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from common import SETUP_REPEATS, Run, mean, median, quantile, self_peak_rss_mb
from probes import STAGES, KernelProbe, StageProbe, kernel_metrics

WIDTH = 0.25
RANK_RATIO = 0.25
CLASSES = 10
LR = 0.02
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
PARITY_BATCH = 16
WORKERS = 4
LINK_GBPS = 0.1
BUCKET_MB = 0.5
# Steps every run makes whatever the clock says; loss_end is the mean loss
# of the last LOSS_WINDOW of them, so it is a pure function of the seed.
MIN_STEPS = 8
LOSS_WINDOW = 4
# The traced run's accounting check: forward + backward stages + optimizer
# + data must explain the measured step to within this share of it.
ACCOUNTING_TOLERANCE = 0.25


def _parity_failure(model, x, y) -> str | None:
    """Compare one batch's loss and gradients across backends."""
    from repro.nn import CrossEntropyLoss
    from repro.tensor import Tensor, backend

    out = {}
    for name in ("numpy", backend.active().name):
        m = copy.deepcopy(model)
        with backend.use(name):
            loss = CrossEntropyLoss()(m(Tensor(x)), y)
            loss.backward()
        out[name] = [loss.data] + [p.grad for p in m.parameters()]
    ref, got = out.values()
    for i, (r, g) in enumerate(zip(ref, got)):
        if g is None or not np.allclose(
            g, r, rtol=backend.TOLERANCE_RTOL, atol=backend.TOLERANCE_ATOL
        ):
            return f"backend parity: tensor {i} outside tolerance"
    return None


def _batches(x, y, batch: int, seed: int):
    """Endless seeded shuffle + crop/flip augmentation over the data."""
    from repro.data import DataLoader
    from repro.data.synthetic import random_crop_flip

    loader = DataLoader(x, y, batch, shuffle=True, transform=random_crop_flip,
                        drop_last=True, rng=np.random.default_rng(seed))
    while True:
        yield from loader


class HybridTraining:
    def __init__(self, seed: int, batch: int, n_samples: int):
        from repro.core import build_hybrid
        from repro.data.synthetic import make_cifar_like
        from repro.models.resnet import resnet18, resnet18_hybrid_config
        from repro.nn import CrossEntropyLoss
        from repro.optim import FusedSGD
        from repro.utils import set_seed

        set_seed(seed)
        vanilla = resnet18(num_classes=CLASSES, width_mult=WIDTH)
        self.model, report = build_hybrid(vanilla, resnet18_hybrid_config(vanilla, RANK_RATIO))
        self.build_hybrid_s = report.svd_seconds
        data = make_cifar_like(n=n_samples, num_classes=CLASSES,
                               rng=np.random.default_rng(seed))
        self.sample = data.images[:1]
        self.optimizer = FusedSGD(self.model.parameters(), lr=LR, momentum=MOMENTUM,
                                  weight_decay=WEIGHT_DECAY)
        self.loss_fn = CrossEntropyLoss()
        self.parity = _parity_failure(
            self.model, data.images[:PARITY_BATCH], data.labels[:PARITY_BATCH]
        )
        self.batches = [_batches(data.images, data.labels, batch, seed + 1)]
        self.samples_per_step = batch
        self.model.train()

    def step(self, batches) -> float:
        from repro.tensor import Tensor

        (x, y), = batches
        self.optimizer.zero_grad()
        loss = self.loss_fn(self.model(Tensor(x)), y)
        loss.backward()
        self.optimizer.step()
        return float(loss.data)


class DDPTraining:
    def __init__(self, seed: int, batch: int, n_samples: int):
        from repro.core.trainer import classification_batch
        from repro.data import shard_dataset
        from repro.data.synthetic import make_cifar_like
        from repro.distributed import ClusterSpec, DistributedTrainer
        from repro.models.resnet import resnet18
        from repro.nn import CrossEntropyLoss
        from repro.optim import FusedSGD
        from repro.utils import set_seed

        set_seed(seed)
        self.model = resnet18(num_classes=CLASSES, width_mult=WIDTH)
        self.build_hybrid_s = 0.0  # vanilla: nothing is factorized
        data = make_cifar_like(n=n_samples * WORKERS, num_classes=CLASSES,
                               rng=np.random.default_rng(seed))
        self.sample = data.images[:1]
        self.optimizer = FusedSGD(self.model.parameters(), lr=LR, momentum=MOMENTUM,
                                  weight_decay=WEIGHT_DECAY)
        loss_fn = CrossEntropyLoss()
        self.worker_losses: list[float] = []

        def batch_fn(model, b):
            loss, correct, count = classification_batch(model, b, loss_fn)
            self.worker_losses.append(float(loss.data))
            return loss, correct, count

        self.trainer = DistributedTrainer(
            self.model, self.optimizer, ClusterSpec(WORKERS, bandwidth_gbps=LINK_GBPS),
            batch_fn=batch_fn, overlap=True, bucket_mb=BUCKET_MB,
        )
        self.parity = _parity_failure(
            self.model, data.images[:PARITY_BATCH], data.labels[:PARITY_BATCH]
        )
        self.batches = [
            _batches(x, y, batch, seed + 1 + w)
            for w, (x, y) in enumerate(shard_dataset(data.images, data.labels, WORKERS))
        ]
        self.samples_per_step = batch * WORKERS
        self.timelines: list = []

    def step(self, batches) -> float:
        self.worker_losses.clear()
        timeline = self.trainer.train_epoch([[b] for b in batches])
        self.timelines.append(timeline)
        return mean(self.worker_losses)


WORKLOADS = {
    # name: (class, batch, tiny batch, samples generated per worker)
    "train-hybrid-b128": (HybridTraining, 128, 8, 1024),
    "ddp-vanilla-b32x4": (DDPTraining, 32, 4, 256),
}


class Loop:
    """Timed step loop; ``phase`` collects one phase's per-step figures."""

    def __init__(self, run: Run, job):
        self.run = run
        self.job = job
        self.index = 0

    def phase(self, seconds: float, min_steps: int) -> dict:
        times, losses = [], []
        data_s = 0.0
        start = time.perf_counter()
        while len(times) < min_steps or time.perf_counter() - start < seconds:
            with self.run.spans.span("step", step=self.index):
                t0 = time.perf_counter()
                with self.run.spans.span("data"):
                    batches = [next(it) for it in self.job.batches]
                t1 = time.perf_counter()
                loss = self.job.step(batches)
                t2 = time.perf_counter()
            data_s += t1 - t0
            times.append(t2 - t0)
            losses.append(loss)
            self.run.check(bool(np.isfinite(loss)), f"step {self.index}: loss {loss}")
            self.index += 1
        elapsed = time.perf_counter() - start
        return {
            "times": times,
            "losses": losses,
            "elapsed": elapsed,
            "data_s": data_s,
            "samples_per_s": len(times) * self.job.samples_per_step / elapsed,
        }


def _set_up(run: Run, cls, batch: int, n_samples: int, repeats: int):
    """Set up ``repeats`` times; keep the last job, return it and the times."""
    setup_s, build_s = [], []
    job = None
    for _ in range(repeats):
        job = None  # release the previous copy before building the next
        t0 = time.perf_counter()
        job = cls(run.seed, batch, n_samples)
        job.step([next(it) for it in job.batches])  # warm-up, not measured
        setup_s.append(time.perf_counter() - t0)
        build_s.append(job.build_hybrid_s)
        run.check(job.parity is None, job.parity or "")
    return job, setup_s, build_s


def forward_macs(model, x) -> tuple[int, dict]:
    """Exact forward MACs of one sample (``count_macs``), total and per stage."""
    from probes import _STAGE_OF_CHILD
    from repro.tensor import Tensor, count_macs, no_grad

    per_stage = dict.fromkeys(STAGES, 0)
    wrapped = []
    for name, child in model._modules.items():
        def forward(*args, _inner=child.forward, _stage=_STAGE_OF_CHILD[name], **kw):
            with count_macs() as c:
                out = _inner(*args, **kw)
            per_stage[_stage] += c.total
            return out

        child.forward = forward
        wrapped.append(child)
    was_training = model.training
    model.eval()
    try:
        with no_grad(), count_macs() as outer:
            model(Tensor(x))
    finally:
        for child in wrapped:
            del child.forward
        model.train(was_training)
    return outer.total + sum(per_stage.values()), per_stage


def run_training(run: Run) -> None:
    from repro.tensor import backend, graph_nodes_created

    cls, batch, tiny_batch, n_samples = WORKLOADS[run.workload]
    # Training runs no server, HTTP or /metrics; single-node runs no collective.
    run.not_entered = ("serve.", "gateway.", "observability.")
    if cls is HybridTraining:
        run.not_entered += ("distributed.",)
    min_steps = 2 if run.tiny else MIN_STEPS
    window = 1 if run.tiny else LOSS_WINDOW
    job, setup_s, build_s = _set_up(
        run, cls, tiny_batch if run.tiny else batch, n_samples, 1 if run.tiny else SETUP_REPEATS
    )
    loop = Loop(run, job)

    if not run.trace:
        ph = loop.phase(run.seconds, min_steps)
        times_ms = [t * 1e3 for t in ph["times"]]
        run.notes["steps"] = len(times_ms)
        run.set(
            samples_per_s=ph["samples_per_s"],
            latency_ms_p50=median(times_ms),
            latency_ms_p90=quantile(times_ms, 0.9),
            loss_end=mean(ph["losses"][min_steps - window:min_steps]),
            setup_s=median(setup_s),
            peak_rss_mb=self_peak_rss_mb(),
        )
        return

    # Traced run: an untraced half for the overhead baseline (and the
    # program's own timeline figures), then a traced half with probes.
    half = run.seconds / 2
    steps_half = max(min_steps // 2, 1)
    timelines = getattr(job, "timelines", [])
    timelines.clear()  # drop the warm-up iterations
    plain = loop.phase(half, steps_half)
    timelines = list(timelines)

    kernels = KernelProbe(run.spans)
    stages = StageProbe(job.model, run.spans)
    optim_s = [0.0]
    step_name = "step_flat" if isinstance(job, DDPTraining) else "step"
    inner_step = getattr(job.optimizer, step_name)

    def timed_step(*args):
        with run.spans.span("optim"):
            t0 = time.perf_counter()
            out = inner_step(*args)
            optim_s[0] += time.perf_counter() - t0
        return out

    allreduce_s = [0.0]
    import repro.distributed.ddp as ddp_mod

    inner_allreduce = ddp_mod.allreduce_mean

    def timed_allreduce(*args, **kwargs):
        with run.spans.span("allreduce"):
            t0 = time.perf_counter()
            out = inner_allreduce(*args, **kwargs)
            allreduce_s[0] += time.perf_counter() - t0
        return out

    be = backend.active()
    nodes0 = graph_nodes_created()
    kernels.install(be, job.model)
    stages.install()
    setattr(job.optimizer, step_name, timed_step)
    ddp_mod.allreduce_mean = timed_allreduce
    try:
        traced = loop.phase(half, steps_half)
    finally:
        ddp_mod.allreduce_mean = inner_allreduce
        delattr(job.optimizer, step_name)
        stages.remove()
        kernels.remove()
    n = len(traced["times"])
    nodes = (graph_nodes_created() - nodes0) / n

    macs, stage_macs = forward_macs(job.model, job.sample)
    m = kernel_metrics(kernels.totals(), per=n)
    step_ms = mean(traced["times"]) * 1e3
    fwd = {s: stages.forward_s[s] * 1e3 / n for s in STAGES}
    bwd = {s: stages.backward_s[s] * 1e3 / n for s in STAGES}
    optim_ms = optim_s[0] * 1e3 / n
    data_ms = traced["data_s"] * 1e3 / n
    other_ms = step_ms - sum(fwd.values()) - sum(bwd.values()) - optim_ms - data_ms
    residual = other_ms / step_ms
    run.check(0 <= residual <= ACCOUNTING_TOLERANCE,
              f"accounting: step.other_ms is {residual:.1%} of the step")
    for s in STAGES:
        m[f"nn.forward_ms.{s}"] = fwd[s]
        m[f"nn.backward_ms.{s}"] = bwd[s]
        m[f"nn.macs.{s}"] = stage_macs[s]
    m.update({
        "tensor.macs_fwd": macs,
        "tensor.backward_ms": stages.backward_total_s * 1e3 / n,
        "tensor.graph_nodes": nodes,
        "core.build_hybrid_s": median(build_s),
        "optim.step_ms": optim_ms,
        "data.batch_ms": data_ms,
        "step.other_ms": other_ms,
        "trace.accounting_residual_frac": residual,
        "trace.overhead_ratio": traced["samples_per_s"] / plain["samples_per_s"],
    })
    if timelines:
        m.update(_distributed_metrics(timelines, allreduce_s[0] * 1e3 / n))
    run.set(**m)


def _distributed_metrics(timelines: list, allreduce_ms: float) -> dict:
    """``distributed.*`` from the untraced half's ``TimelineBreakdown``s."""
    k = len(timelines)
    comm_total = sum(t.overlap["comm_total_s"] for t in timelines)
    exposed = sum(t.overlap["comm_exposed_s"] for t in timelines)
    return {
        "distributed.compute_ms": sum(t.compute for t in timelines) * 1e3 / k,
        "distributed.comm_total_ms": comm_total * 1e3 / k,
        "distributed.comm_exposed_ms": exposed * 1e3 / k,
        "distributed.overlap_fraction": (comm_total - exposed) / comm_total,
        "distributed.wire_bytes": mean(t.bytes_per_iteration for t in timelines),
        "distributed.n_buckets": timelines[-1].overlap["n_buckets"],
        "distributed.allreduce_ms": allreduce_ms,
        "distributed.modeled_iter_ms":
            sum(t.compute + t.encode + t.comm for t in timelines) * 1e3 / k,
    }
