"""Per-op backend kernel benchmark: ``numpy`` reference vs ``fast``.

Times every dispatched op under both backends at CPU-scaled widths,
re-checks the parity contract from :data:`repro.tensor.backend.PARITY`,
and writes ``BENCH_kernels.json`` (speedup table + parity summary).
``check_kernels_regression.py`` gates the artifact against the committed
baseline: structure exactly, parity booleans, and per-op speedup floors
(the headlines: ≥1.5× on the batched im2col-matmul conv forward, and
≥3× on the backward of the thin-output conv a Pufferfish ``conv_u`` runs).

Wall-clock speedups are machine-dependent; the committed baseline's
numbers document the reference machine and only the floors are enforced.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from harness import print_table, scaled_vgg19
from repro.optim import LAMB, Adam, FusedAdam, FusedLAMB
from repro.tensor import backend
from repro.tensor.backend import PARITY, TOLERANCE_ATOL, TOLERANCE_RTOL
from repro.utils import set_seed

KERNELS_FILE = "BENCH_kernels.json"
REPEATS = 5

# Per-op enforced speedup floor (None = parity-coverage op, no perf claim:
# either sub-millisecond, memory-bound, or running the identical kernel).
MIN_SPEEDUP = {
    "conv2d_forward": 1.5,
    "conv2d_backward": 1.0,
    # Thin-output conv (c_out = c_in/4, the hybrid ResNet-18 layer2
    # conv_u): the fast backend's thin branch.  Its forward is the same
    # column GEMM as conv2d_forward; its input gradient is one GEMM over
    # shifted output-gradient slabs, with no column gradient or col2im.
    "conv2d_forward_thin": 1.5,
    "conv2d_backward_thin": 3.0,
    # Square conv (the hybrid and vanilla ResNet-18 layer1 convs): the same
    # kn2row input gradient as the thin row, at c_out = c_in.
    "conv2d_backward_square": 1.2,
    # BatchNorm2d training step on a layer1 activation: the fast forward is
    # bit-identical in two full-size buffers, the backward two reductions
    # and an in-place chain.
    "batch_norm_forward": 1.1,
    "batch_norm_backward": 1.3,
    "im2col": 1.0,
    "matmul": None,
    "relu": None,
    "bias_relu": None,
    "sgd_update": None,
    # The fused-optimizer arena chains: adam_update's fast win is
    # allocation elimination on one big slab; lamb_update's is dispatch
    # amortization across many segments (reduceat norms instead of a
    # per-segment loop). The headline fused-vs-loop claim lives in the
    # fused_step section.
    "adam_update": 1.0,
    "lamb_update": 1.0,
}

# Fused optimizer step vs the in-place per-tensor loop at CPU-scaled
# wide-model widths (VGG-19: ~54 tensors, dispatch-bound loop).
FUSED_STEP_FLOOR = 2.0

_RESULTS: dict[str, dict] = {}
_FUSED: dict[str, dict] = {}


def best_ms(call, setup=None, repeats=REPEATS) -> float:
    """Best-of-N wall time in milliseconds (min is the noise-robust stat)."""
    best = float("inf")
    for _ in range(repeats):
        args = setup() if setup is not None else ()
        t0 = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def check_parity(op: str, ref, got) -> tuple[bool, float]:
    """(parity_ok, max_abs_err) under the op's published tag."""
    ref, got = np.asarray(ref), np.asarray(got)
    err = float(np.max(np.abs(ref - got))) if ref.size else 0.0
    if PARITY[op] == "bit-exact":
        return bool(np.array_equal(ref, got)), err
    ok = bool(
        np.allclose(got, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)
    )
    return ok, err


def record(op: str, shape: str, numpy_ms: float, fast_ms: float, parity_ok: bool,
           max_abs_err: float, suffix: str = "") -> None:
    """Store the row ``op + suffix``; it carries ``op``'s parity tag."""
    row = op + suffix
    _RESULTS[row] = {
        "tag": PARITY[op],
        "shape": shape,
        "numpy_ms": round(numpy_ms, 4),
        "fast_ms": round(fast_ms, 4),
        "speedup": round(numpy_ms / fast_ms, 3) if fast_ms > 0 else None,
        "parity_ok": parity_ok,
        "max_abs_err": max_abs_err,
        "min_speedup": MIN_SPEEDUP[row],
    }


def conv_inputs(rng, n=32, c=16, hw=32, co=32, k=3):
    x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
    w = (rng.standard_normal((co, c, k, k)) * 0.1).astype(np.float32)
    b = rng.standard_normal((co,)).astype(np.float32)
    return x, w, b


# (row suffix, conv_inputs kwargs, shape label)
CONV_CASES = [
    ("", dict(n=32, c=16, hw=32, co=32), "N32 C16 32x32 k3 s1 p1 -> C32"),
    # Hybrid ResNet-18 (width 0.25, rank ratio 0.25) layer2 conv_u at batch 128.
    ("_thin", dict(n=128, c=32, hw=16, co=8), "N128 C32 16x16 k3 s1 p1 -> C8"),
]
CONV_BACKWARD_CASES = [
    *CONV_CASES,
    # Hybrid/vanilla ResNet-18 (width 0.25) layer1 square conv at batch 128.
    ("_square", dict(n=128, c=16, hw=32, co=16), "N128 C16 32x32 k3 s1 p1 -> C16"),
]


@pytest.mark.parametrize("suffix,dims,label", CONV_CASES)
def test_conv2d_forward_speedup(rng, suffix, dims, label):
    """Headline: batched im2col matmul at CPU-scaled conv widths, and at a
    thin-output factorized conv."""
    x, w, b = conv_inputs(rng, **dims)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ref_out, _ = ref_be.conv2d_forward(x, w, b, 1, 1, 1, False)
    got_out, _ = fast_be.conv2d_forward(x, w, b, 1, 1, 1, False)
    ok, err = check_parity("conv2d_forward", ref_out, got_out)
    n_ms = best_ms(lambda: ref_be.conv2d_forward(x, w, b, 1, 1, 1, False))
    f_ms = best_ms(lambda: fast_be.conv2d_forward(x, w, b, 1, 1, 1, False))
    record("conv2d_forward", label, n_ms, f_ms, ok, err, suffix)
    assert ok


@pytest.mark.parametrize("suffix,dims,label", CONV_BACKWARD_CASES)
def test_conv2d_backward_speedup(rng, suffix, dims, label):
    x, w, b = conv_inputs(rng, **dims)
    g = rng.standard_normal((dims["n"], dims["co"], dims["hw"], dims["hw"])).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    _, ref_ctx = ref_be.conv2d_forward(x, w, b, 1, 1, 1, True)
    _, fast_ctx = fast_be.conv2d_forward(x, w, b, 1, 1, 1, True)
    ref_g = ref_be.conv2d_backward(g, ref_ctx, True, True, True)
    got_g = fast_be.conv2d_backward(g, fast_ctx, True, True, True)
    oks, errs = zip(*(check_parity("conv2d_backward", r, o) for r, o in zip(ref_g, got_g)))
    n_ms = best_ms(lambda: ref_be.conv2d_backward(g, ref_ctx, True, True, True))
    f_ms = best_ms(lambda: fast_be.conv2d_backward(g, fast_ctx, True, True, True))
    record("conv2d_backward", label, n_ms, f_ms, all(oks), max(errs), suffix)
    assert all(oks)


def test_batch_norm_parity_speed(rng):
    x = (rng.standard_normal((128, 16, 32, 32)) * 2 + 0.5).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    gamma, beta = rng.standard_normal((2, 16)).astype(np.float32)
    args = (gamma, beta, (0, 2, 3), 1e-5, None)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ref_fwd, got_fwd = ref_be.batch_norm_forward(x, *args), fast_be.batch_norm_forward(x, *args)
    oks, errs = zip(
        *(check_parity("batch_norm_forward", r, o) for r, o in zip(ref_fwd[:3], got_fwd[:3]))
    )
    n_ms = best_ms(lambda: ref_be.batch_norm_forward(x, *args))
    f_ms = best_ms(lambda: fast_be.batch_norm_forward(x, *args))
    label = "N128 C16 32x32, training"
    record("batch_norm_forward", label, n_ms, f_ms, all(oks), max(errs))
    assert all(oks)

    ref_ctx, fast_ctx = ref_fwd[3], got_fwd[3]
    ref_g = ref_be.batch_norm_backward(g, gamma, ref_ctx, True, True, True)
    got_g = fast_be.batch_norm_backward(g, gamma, fast_ctx, True, True, True)
    oks, errs = zip(*(check_parity("batch_norm_backward", r, o) for r, o in zip(ref_g, got_g)))
    n_ms = best_ms(lambda: ref_be.batch_norm_backward(g, gamma, ref_ctx, True, True, True))
    f_ms = best_ms(lambda: fast_be.batch_norm_backward(g, gamma, fast_ctx, True, True, True))
    record("batch_norm_backward", label, n_ms, f_ms, all(oks), max(errs))
    assert all(oks)


def test_im2col_speedup(rng):
    x = rng.standard_normal((32, 16, 32, 32)).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ok, err = check_parity("im2col", ref_be.im2col(x, 3, 3, 1, 1, 1),
                           fast_be.im2col(x, 3, 3, 1, 1, 1))
    n_ms = best_ms(lambda: ref_be.im2col(x, 3, 3, 1, 1, 1))
    f_ms = best_ms(lambda: fast_be.im2col(x, 3, 3, 1, 1, 1))
    record("im2col", "N32 C16 32x32 k3 s1 p1", n_ms, f_ms, ok, err)
    assert ok


def test_matmul_parity_speed(rng):
    a = rng.standard_normal((512, 256)).astype(np.float32)
    b = rng.standard_normal((256, 512)).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ok, err = check_parity("matmul", ref_be.matmul(a, b), fast_be.matmul(a, b))
    n_ms = best_ms(lambda: ref_be.matmul(a, b))
    f_ms = best_ms(lambda: fast_be.matmul(a, b))
    record("matmul", "512x256 @ 256x512", n_ms, f_ms, ok, err)
    assert ok


def test_relu_parity_speed(rng):
    x = rng.standard_normal((1 << 21,)).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ok, err = check_parity("relu", ref_be.relu(x)[0], fast_be.relu(x)[0])
    n_ms = best_ms(lambda: ref_be.relu(x))
    f_ms = best_ms(lambda: fast_be.relu(x))
    record("relu", "2M elements", n_ms, f_ms, ok, err)
    assert ok


def test_bias_relu_parity_speed(rng):
    x = rng.standard_normal((8192, 256)).astype(np.float32)
    b = rng.standard_normal((256,)).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ok, err = check_parity("bias_relu", ref_be.bias_relu(x, b)[0],
                           fast_be.bias_relu(x, b)[0])
    n_ms = best_ms(lambda: ref_be.bias_relu(x, b))
    f_ms = best_ms(lambda: fast_be.bias_relu(x, b))
    record("bias_relu", "8192x256 + (256,)", n_ms, f_ms, ok, err)
    assert ok


def test_sgd_update_parity_speed(rng):
    size = 2_000_000
    flat0 = rng.standard_normal(size).astype(np.float32)
    g0 = rng.standard_normal(size).astype(np.float32)
    buf0 = rng.standard_normal(size).astype(np.float32)
    mask = (rng.random(size) > 0.3).astype(np.float32) * 5e-4
    tmp = np.empty(size, dtype=np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")

    states = {}
    for name, be in (("numpy", ref_be), ("fast", fast_be)):
        flat, g, buf = flat0.copy(), g0.copy(), buf0.copy()
        buf = be.sgd_update(flat, g, tmp, mask, buf, 0.05, 0.9, True)
        states[name] = (flat, buf)
    ok_f, err_f = check_parity("sgd_update", states["numpy"][0], states["fast"][0])
    ok_b, err_b = check_parity("sgd_update", states["numpy"][1], states["fast"][1])

    def setup():
        return flat0.copy(), g0.copy(), buf0.copy()

    n_ms = best_ms(lambda f, g_, b_: ref_be.sgd_update(f, g_, tmp, mask, b_, 0.05, 0.9, True),
                   setup=setup)
    f_ms = best_ms(lambda f, g_, b_: fast_be.sgd_update(f, g_, tmp, mask, b_, 0.05, 0.9, True),
                   setup=setup)
    record("sgd_update", "2M-param arena, momentum+nesterov+decay", n_ms, f_ms,
           ok_f and ok_b, max(err_f, err_b))
    assert ok_f and ok_b


def test_adam_update_parity_speed(rng):
    size = 2_000_000
    flat0 = rng.standard_normal(size).astype(np.float32)
    g0 = rng.standard_normal(size).astype(np.float32)
    m0 = (rng.standard_normal(size) * 0.1).astype(np.float32)
    v0 = (rng.random(size) * 0.01).astype(np.float32)
    mask = (rng.random(size) > 0.3).astype(np.float32) * 1e-2
    tmp = np.empty(size, dtype=np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")

    states = {}
    for name, be in (("numpy", ref_be), ("fast", fast_be)):
        flat, g, m, v = flat0.copy(), g0.copy(), m0.copy(), v0.copy()
        be.adam_update(flat, g, m, v, tmp, mask, 1e-3, 0.9, 0.999, 1e-8, 7)
        states[name] = (flat, m, v)
    oks, errs = zip(*(
        check_parity("adam_update", r, o)
        for r, o in zip(states["numpy"], states["fast"])
    ))

    def setup():
        return flat0.copy(), g0.copy(), m0.copy(), v0.copy()

    n_ms = best_ms(
        lambda f, g_, m, v: ref_be.adam_update(f, g_, m, v, tmp, mask, 1e-3, 0.9, 0.999, 1e-8, 7),
        setup=setup,
    )
    f_ms = best_ms(
        lambda f, g_, m, v: fast_be.adam_update(f, g_, m, v, tmp, mask, 1e-3, 0.9, 0.999, 1e-8, 7),
        setup=setup,
    )
    record("adam_update", "2M-param arena, decay mask, step 7", n_ms, f_ms,
           all(oks), max(errs))
    assert all(oks)


def test_lamb_update_parity_speed(rng):
    # CPU-scaled wide-model tiling: per block a conv/attention slab, its
    # bias + norm vectors, and a projection. The reference's per-segment
    # loop pays ~15 dispatches + temporaries per segment, which is what
    # the segmented-reduceat fast path amortizes. (At multi-megaparam
    # arenas tiled into >30k-element slabs the per-segment loop becomes
    # accidentally cache-blocked and the two draw — that regime is far
    # above the CPU-scaled widths this repo runs.)
    parts: list[int] = []
    while sum(parts) < 400_000:
        parts += [int(rng.integers(2000, 6000)), int(rng.integers(8, 64)),
                  int(rng.integers(8, 64)), int(rng.integers(256, 2048))]
    sizes = np.array(parts, dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    size = int(sizes.sum())
    flat0 = rng.standard_normal(size).astype(np.float32)
    g0 = rng.standard_normal(size).astype(np.float32)
    m0 = (rng.standard_normal(size) * 0.1).astype(np.float32)
    v0 = (rng.random(size) * 0.01).astype(np.float32)
    mask = (rng.random(size) > 0.3).astype(np.float32) * 1e-2
    tmp = np.empty(size, dtype=np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")

    states = {}
    for name, be in (("numpy", ref_be), ("fast", fast_be)):
        flat, g, m, v = flat0.copy(), g0.copy(), m0.copy(), v0.copy()
        be.lamb_update(flat, g, m, v, tmp, mask, starts, sizes, 1e-3, 0.9, 0.999, 1e-6, 5)
        states[name] = (flat, m, v)
    oks, errs = zip(*(
        check_parity("lamb_update", r, o)
        for r, o in zip(states["numpy"], states["fast"])
    ))

    def setup():
        return flat0.copy(), g0.copy(), m0.copy(), v0.copy()

    n_ms = best_ms(
        lambda f, g_, m, v: ref_be.lamb_update(f, g_, m, v, tmp, mask, starts, sizes,
                                               1e-3, 0.9, 0.999, 1e-6, 5),
        setup=setup,
    )
    f_ms = best_ms(
        lambda f, g_, m, v: fast_be.lamb_update(f, g_, m, v, tmp, mask, starts, sizes,
                                                1e-3, 0.9, 0.999, 1e-6, 5),
        setup=setup,
    )
    record("lamb_update", f"{size/1e3:.0f}k-param arena, {len(sizes)} segments, step 5",
           n_ms, f_ms, all(oks), max(errs))
    assert all(oks)


def _fill_grads(params, seed):
    g_rng = np.random.default_rng(seed)
    for p in params:
        p.grad = g_rng.standard_normal(p.data.shape).astype(np.float32)


def _time_steps(opt, reps=7, steps=50) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(steps):
            opt.step()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _fused_step_case(name, loop_cls, fused_cls, match):
    """FusedAdam/FusedLAMB vs the in-place per-tensor loop on a VGG-19
    parameter set at CPU-scaled width: the loop is dispatch-bound (~12
    numpy call sites per tensor per step, ~54 tensors), which is exactly
    what the arena collapses into one dispatched vector chain."""
    width = 0.03125
    set_seed(0)
    loop_model = scaled_vgg19(width=width)
    set_seed(0)
    fused_model = scaled_vgg19(width=width)
    kwargs = dict(lr=1e-3, weight_decay=1e-2)
    loop_opt = loop_cls(loop_model.parameters(), **kwargs)
    fused_opt = fused_cls(fused_model.parameters(), **kwargs)
    fused_opt._ensure_arena()  # exclude one-time arena build from timing
    _fill_grads(loop_opt.params, 7)
    _fill_grads(fused_opt.params, 7)

    loop_ms = _time_steps(loop_opt)
    # The fused path is timed under the fast backend — that is the deployed
    # configuration (pooled scratch, reduceat segment norms); the reference
    # backend exists for parity, not speed.
    with backend.use("fast"):
        fused_ms = _time_steps(fused_opt)
    for a, b in zip(loop_model.parameters(), fused_model.parameters()):
        if match == "bit-exact":
            assert np.array_equal(a.data, b.data), f"{name}: fused diverged from loop"
        else:
            np.testing.assert_allclose(b.data, a.data, rtol=TOLERANCE_RTOL,
                                       atol=TOLERANCE_ATOL)
    n_tensors = len(fused_opt.params)
    n_params = int(sum(p.data.size for p in fused_opt.params))
    _FUSED[name] = {
        "n_tensors": n_tensors,
        "n_params": n_params,
        "loop_ms": round(loop_ms, 4),
        "fused_ms": round(fused_ms, 4),
        "speedup": round(loop_ms / fused_ms, 3),
        "match": match,
        "match_ok": True,
        "min_speedup": FUSED_STEP_FLOOR,
    }
    assert loop_ms / fused_ms >= FUSED_STEP_FLOOR, (
        f"{name}: fused step {loop_ms / fused_ms:.2f}x < {FUSED_STEP_FLOOR}x floor"
    )


def test_fused_adam_step_speedup():
    _fused_step_case("adam", Adam, FusedAdam, "bit-exact")


def test_fused_lamb_step_speedup():
    _fused_step_case("lamb", LAMB, FusedLAMB, "tolerance")


def test_emit_kernels_artifact():
    """Runs last (file order): all ops recorded, floors hold, artifact out."""
    assert set(_RESULTS) == set(MIN_SPEEDUP), (
        f"op set mismatch: {sorted(_RESULTS)} vs expected {sorted(MIN_SPEEDUP)}"
    )
    assert set(_FUSED) == {"adam", "lamb"}, (
        f"fused-step set mismatch: {sorted(_FUSED)}"
    )
    rows = []
    for op in sorted(_RESULTS):
        r = _RESULTS[op]
        rows.append([
            op, r["tag"], r["shape"], r["numpy_ms"], r["fast_ms"],
            r["speedup"], "yes" if r["parity_ok"] else "NO",
            r["min_speedup"] if r["min_speedup"] is not None else "-",
        ])
    print_table(
        "Backend kernels: numpy vs fast (per-op)",
        ["Op", "Parity tag", "Shape", "numpy (ms)", "fast (ms)", "Speedup",
         "Parity", "Floor"],
        rows,
    )
    print_table(
        "Fused optimizer step vs in-place per-tensor loop (50 steps, best of 7)",
        ["Optimizer", "Tensors", "Params", "loop (ms)", "fused (ms)", "Speedup",
         "Match", "Floor"],
        [
            [name, s["n_tensors"], s["n_params"], s["loop_ms"], s["fused_ms"],
             s["speedup"], s["match"], s["min_speedup"]]
            for name, s in sorted(_FUSED.items())
        ],
    )
    artifact = {
        "schema": 2,
        "ops": _RESULTS,
        "fused_step": _FUSED,
        "parity_all_ok": all(r["parity_ok"] for r in _RESULTS.values()),
    }
    with open(KERNELS_FILE, "w") as f:
        json.dump(artifact, f, indent=2, sort_keys=True)
    print(f"\nkernel benchmark written to {KERNELS_FILE}")
    assert artifact["parity_all_ok"]
