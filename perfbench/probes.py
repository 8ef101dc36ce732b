"""Per-layer probes: timers wrapped around the program's public calls.

Everything is installed on live objects for the traced phase only and
removed afterwards; no probe turns on the program's own tracer, module
spans or metrics registry.

* :class:`KernelProbe` wraps the methods of the active
  ``repro.tensor.backend`` instance.  Autograd backward closures capture
  that instance, so backward kernels are counted too.  Each conv call is
  classified by the module that issued it: ``lowrank`` for a
  ``LowRankConv2d``'s ``conv_u``/``conv_v``, ``full`` for a plain ``Conv2d``.
* :class:`StageProbe` wraps the forward of a model's top-level children
  (``stem``, ``layer1``..``layer4``; ``pool`` and ``fc`` form ``head``) and
  charges backward time to stages from gradient-arrival times
  (``GRAD_ARRIVAL_HOOK``): the interval between consecutive stages' last
  gradient arrivals goes to the later-arriving stage.
"""

from __future__ import annotations

import time

KERNEL_OPS = (
    "conv2d_forward",
    "conv2d_backward",
    "im2col",
    "col2im",
    "matmul",
    "relu",
    "bias_relu",
    "sgd_update",
)
CONV_KINDS = ("full", "lowrank")
STAGES = ("stem", "layer1", "layer2", "layer3", "layer4", "head")
_STAGE_OF_CHILD = {"stem": "stem", "layer1": "layer1", "layer2": "layer2",
                   "layer3": "layer3", "layer4": "layer4", "pool": "head", "fc": "head"}


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


class KernelProbe:
    """Time and count backend kernel calls; split conv work by module kind."""

    def __init__(self, spans):
        self.spans = spans
        self.kind = "full"  # set by the conv-module wrappers
        self._ctx_kind: dict[int, str] = {}
        self._backend = None
        self._modules: list = []
        self.reset()

    def reset(self) -> None:
        """Zero every total (the wrappers stay installed)."""
        self.ms = dict.fromkeys(KERNEL_OPS, 0.0)
        self.calls = dict.fromkeys(KERNEL_OPS, 0)
        self.conv_fwd_s = dict.fromkeys(CONV_KINDS, 0.0)
        self.conv_fwd_macs = dict.fromkeys(CONV_KINDS, 0)
        self.conv_bwd_s = dict.fromkeys(CONV_KINDS, 0.0)
        self.im2col_bytes = dict.fromkeys(CONV_KINDS, 0)

    # -- install / remove ------------------------------------------------

    def install(self, backend, model=None) -> None:
        self._backend = backend
        for op in KERNEL_OPS:
            setattr(backend, op, self._wrap(op, getattr(backend, op)))
        if model is not None:
            self._tag_convs(model)

    def remove(self) -> None:
        for op in KERNEL_OPS:
            if op in vars(self._backend):
                delattr(self._backend, op)
        for mod in self._modules:
            del mod.forward
        self._modules = []

    def _tag_convs(self, model) -> None:
        from repro.core.layers import LowRankConv2d
        from repro.nn.conv import Conv2d

        lowrank = set()
        for _, mod in model.named_modules():
            if isinstance(mod, LowRankConv2d):
                lowrank.update((id(mod.conv_u), id(mod.conv_v)))
        for _, mod in model.named_modules():
            if isinstance(mod, Conv2d):
                self._tag(mod, "lowrank" if id(mod) in lowrank else "full")

    def _tag(self, mod, kind: str) -> None:
        inner = mod.forward
        probe = self

        def forward(x):
            prev, probe.kind = probe.kind, kind
            try:
                return inner(x)
            finally:
                probe.kind = prev

        mod.forward = forward
        self._modules.append(mod)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, op: str, fn):
        probe = self
        spans = self.spans

        if op == "conv2d_forward":
            def wrapped(x, weight, bias, stride, ph, pw, want_ctx):
                n, c_in, h, w = x.shape
                c_out, _, kh, kw = weight.shape
                pixels = n * _out_size(h, kh, stride, ph) * _out_size(w, kw, stride, pw)
                kind = probe.kind
                idx = spans.open(op, kind=kind)
                t0 = time.perf_counter()
                out, ctx = fn(x, weight, bias, stride, ph, pw, want_ctx)
                dt = time.perf_counter() - t0
                spans.close(idx)
                probe.ms[op] += dt * 1e3
                probe.calls[op] += 1
                probe.conv_fwd_s[kind] += dt
                probe.conv_fwd_macs[kind] += pixels * c_in * kh * kw * c_out
                if (kh, kw, stride, ph, pw) != (1, 1, 1, 0, 0):
                    # 1x1 convs run as a GEMM over NCHW with no column matrix.
                    probe.im2col_bytes[kind] += pixels * c_in * kh * kw * x.itemsize
                if ctx is not None:
                    probe._ctx_kind[id(ctx)] = kind
                return out, ctx
            return wrapped

        if op == "conv2d_backward":
            def wrapped(g, ctx, need_gw, need_gb, need_gx):
                kind = probe._ctx_kind.pop(id(ctx), "full")
                idx = spans.open(op, kind=kind)
                t0 = time.perf_counter()
                out = fn(g, ctx, need_gw, need_gb, need_gx)
                dt = time.perf_counter() - t0
                spans.close(idx)
                probe.ms[op] += dt * 1e3
                probe.calls[op] += 1
                probe.conv_bwd_s[kind] += dt
                return out
            return wrapped

        def wrapped(*args, **kwargs):
            idx = spans.open(op)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            probe.ms[op] += (time.perf_counter() - t0) * 1e3
            probe.calls[op] += 1
            spans.close(idx)
            return out
        return wrapped

    # -- report ----------------------------------------------------------

    def totals(self) -> dict:
        """Raw sums, JSON-serializable (the traced server ships these)."""
        return {k: dict(getattr(self, k)) for k in (
            "ms", "calls", "conv_fwd_s", "conv_fwd_macs", "conv_bwd_s", "im2col_bytes")}


def kernel_metrics(totals: dict, per: float) -> dict:
    """Per-layer ``tensor.*`` metrics from :meth:`KernelProbe.totals`,
    normalized per step or per request."""
    out = {}
    for op in KERNEL_OPS:
        out[f"tensor.kernel_ms.{op}"] = totals["ms"][op] / per
        out[f"tensor.kernel_calls.{op}"] = totals["calls"][op] / per
    for kind in CONV_KINDS:
        s = totals["conv_fwd_s"][kind]
        out[f"tensor.conv_fwd_gmacs_per_s.{kind}"] = (
            totals["conv_fwd_macs"][kind] / s / 1e9 if s > 0 else 0.0
        )
        out[f"tensor.conv_bwd_ms.{kind}"] = totals["conv_bwd_s"][kind] * 1e3 / per
        out[f"tensor.im2col_mb.{kind}"] = totals["im2col_bytes"][kind] / 1e6 / per
    return out


class StageProbe:
    """Per-stage forward time, and backward time from gradient arrivals."""

    def __init__(self, model, spans):
        self.model = model
        self.spans = spans
        self.reset()
        self._stage_of_param: dict[int, str] = {}
        for path, p in model.named_parameters():
            self._stage_of_param[id(p)] = _STAGE_OF_CHILD[path.split(".", 1)[0]]
        self._last_arrival: dict[str, float] = {}
        self._children: list = []
        self._prev_hook = None
        self._tensor_mod = None
        self._orig_backward = None

    def reset(self) -> None:
        """Zero every total (the wrappers stay installed)."""
        self.forward_s = dict.fromkeys(STAGES, 0.0)
        self.backward_s = dict.fromkeys(STAGES, 0.0)
        self.backward_total_s = 0.0

    def install(self) -> None:
        import repro.tensor.tensor as tensor_mod

        for name, child in self.model._modules.items():
            self._wrap_child(child, _STAGE_OF_CHILD[name])
        self._tensor_mod = tensor_mod
        self._prev_hook = tensor_mod.GRAD_ARRIVAL_HOOK
        tensor_mod.GRAD_ARRIVAL_HOOK = self._hook
        inner = self._orig_backward = tensor_mod.Tensor.backward
        probe = self

        def backward(tensor, grad=None):
            probe._last_arrival = {}
            idx = probe.spans.open("backward")
            t0 = time.perf_counter()
            try:
                return inner(tensor, grad)
            finally:
                t1 = time.perf_counter()
                probe.spans.close(idx)
                probe._charge(t0, t1)

        tensor_mod.Tensor.backward = backward

    def remove(self) -> None:
        for child in self._children:
            del child.forward
        self._children = []
        # The probe hook chains to whatever was installed before it, and
        # the DDP trainer restores its own recorder's predecessor (this
        # hook) on exit, so removal simply reinstates the original.
        self._tensor_mod.GRAD_ARRIVAL_HOOK = self._prev_hook
        self._tensor_mod.Tensor.backward = self._orig_backward

    def _wrap_child(self, child, stage: str) -> None:
        inner = child.forward
        probe = self

        def forward(*args, **kwargs):
            idx = probe.spans.open(f"forward.{stage}")
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                probe.forward_s[stage] += time.perf_counter() - t0
                probe.spans.close(idx)

        child.forward = forward
        self._children.append(child)

    def _hook(self, t) -> None:
        stage = self._stage_of_param.get(id(t))
        if stage is not None:
            self._last_arrival[stage] = time.perf_counter()
        if self._prev_hook is not None:
            self._prev_hook(t)

    def _charge(self, t0: float, t1: float) -> None:
        self.backward_total_s += t1 - t0
        boundary = t0
        for stage, t in sorted(self._last_arrival.items(), key=lambda kv: kv[1]):
            self.backward_s[stage] += t - boundary
            self.spans.add(f"backward.{stage}", boundary, t)
            boundary = t
