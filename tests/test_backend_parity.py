"""Per-op parity of every non-reference backend against ``numpy``.

Each dispatched op carries a tag in :data:`repro.tensor.backend.PARITY`:
``bit-exact`` ops must return arrays equal under ``==`` to the reference
(``-0.0`` vs ``+0.0`` tolerated), ``tolerance`` ops must agree within the
published rtol/atol (GEMM orientation changes float summation order).
The same tags drive the parity column of ``benchmarks/test_kernels.py``.
"""

import copy

import numpy as np
import pytest

from repro.core import build_hybrid
from repro.data.synthetic import make_cifar_like
from repro.models.resnet import resnet18, resnet18_hybrid_config
from repro.nn import BatchNorm1d, BatchNorm2d, CrossEntropyLoss
from repro.tensor import Tensor, backend, bias_relu, col2im, conv2d, im2col
from repro.tensor.backend import (
    PARITY,
    TOLERANCE_ATOL,
    TOLERANCE_RTOL,
    FastBackend,
)
from repro.utils import set_seed

NON_REF = [n for n in backend.available() if n != "numpy"]

CONV_SHAPES = [
    # (n, c_in, h, w, c_out, k, stride, padding, bias)
    (2, 3, 8, 8, 4, 3, 1, 1, True),
    (2, 3, 9, 9, 4, 3, 2, 1, True),
    (1, 2, 7, 5, 3, 3, 2, (2, 1), True),
    (2, 4, 6, 6, 5, 1, 1, 0, True),  # 1×1 fast path
    (1, 3, 5, 5, 2, 5, 1, 2, True),
    # Thin-output stride-1 convs (c_out·Hp·Wp < c_in·oh·ow): the fast
    # backend's thin branch, whose input gradient is shift-and-accumulate.
    (2, 16, 8, 8, 4, 3, 1, 1, True),
    (2, 16, 8, 8, 4, 3, 1, 1, False),
    (2, 32, 9, 9, 4, 5, 1, 2, True),
    (2, 16, 9, 7, 4, 3, 1, (2, 1), True),
    (2, 16, 9, 7, 4, 3, 1, (2, 1), False),
    (3, 16, 8, 8, 2, 3, 1, 0, True),
    (2, 16, 6, 6, 4, 1, 1, 1, True),  # padded 1×1
    # Square layer1 conv: its kn2row slabs exceed one chunk, so the batch
    # runs as a chunk of 6 samples and a 1-sample tail.
    (7, 16, 32, 32, 16, 3, 1, 1, False),
]

# (n, c_in, h, w, c_out, k, stride, padding) -> branch the fast backend's
# conv2d_forward records as ctx[0].
CONV_BRANCHES = [
    ((2, 16, 8, 8, 4, 3, 1, 1), "kn2row"),  # hybrid ResNet conv_u, c_out = c_in/4
    ((2, 32, 9, 9, 4, 5, 1, 2), "kn2row"),
    ((2, 16, 9, 7, 4, 3, 1, (2, 1)), "kn2row"),
    ((3, 16, 8, 8, 2, 3, 1, 0), "kn2row"),
    ((2, 16, 8, 8, 16, 3, 1, 1), "kn2row"),  # square: the vanilla ResNet stride-1 convs
    ((2, 3, 8, 8, 16, 3, 1, 1), "gen"),  # wider output (the stem)
    ((2, 16, 8, 8, 4, 3, 2, 1), "gen"),  # strided conv_u
    ((2, 16, 8, 8, 4, 1, 1, 0), "1x1"),  # conv_v / projection
    ((2, 16, 6, 6, 4, 1, 1, 1), "kn2row"),  # padded 1×1 with a thin output
    ((2, 16, 8, 8, 8, 1, 2, 0), "gen"),  # strided 1×1 downsample
    ((2, 16, 8, 8, 32, 3, 1, 1), "gen"),  # stride 1, c_out > c_in
]


def assert_parity(op: str, ref: np.ndarray, got: np.ndarray) -> None:
    assert op in PARITY, f"op {op!r} missing a parity tag"
    if PARITY[op] == "bit-exact":
        assert np.array_equal(ref, got), f"{op}: bit-exact parity violated"
    else:
        np.testing.assert_allclose(got, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


def run_conv(name, x_np, w_np, b_np, g_np, stride, padding):
    with backend.use(name):
        x = Tensor(x_np.copy(), requires_grad=True)
        w = Tensor(w_np.copy(), requires_grad=True)
        b = Tensor(b_np.copy(), requires_grad=True) if b_np is not None else None
        out = conv2d(x, w, b, stride=stride, padding=padding)
        out.backward(g_np)
        return out.data, x.grad, w.grad, None if b is None else b.grad


@pytest.mark.parametrize("name", NON_REF)
class TestOpParity:
    def test_matmul(self, name, rng):
        for a_shape, b_shape in [((5, 7), (7, 3)), ((2, 4, 6), (6, 5))]:
            a = rng.standard_normal(a_shape).astype(np.float32)
            b = rng.standard_normal(b_shape).astype(np.float32)
            ref = backend.get("numpy").matmul(a, b)
            got = backend.get(name).matmul(a, b)
            assert_parity("matmul", ref, got)

    def test_relu_forward_and_mask(self, name, rng):
        x = rng.standard_normal((64, 33)).astype(np.float32)
        x[0, :4] = [0.0, -0.0, 1.0, -1.0]  # signed-zero edge cases
        ref_out, ref_mask = backend.get("numpy").relu(x)
        got_out, got_mask = backend.get(name).relu(x)
        assert_parity("relu", ref_out, got_out)
        rm = ref_mask if ref_mask is not None else ref_out > 0
        gm = got_mask if got_mask is not None else got_out > 0
        assert np.array_equal(rm, gm), "relu backward masks diverge"

    def test_relu_grads(self, name, rng):
        x_np = rng.standard_normal((8, 5)).astype(np.float32)
        g_np = rng.standard_normal((8, 5)).astype(np.float32)
        grads = {}
        for b in ("numpy", name):
            with backend.use(b):
                x = Tensor(x_np.copy(), requires_grad=True)
                x.relu().backward(g_np)
                grads[b] = x.grad
        assert_parity("relu", grads["numpy"], grads[name])

    def test_bias_relu_matches_unfused(self, name, rng):
        x_np = rng.standard_normal((16, 9)).astype(np.float32)
        b_np = rng.standard_normal((9,)).astype(np.float32)
        g_np = rng.standard_normal((16, 9)).astype(np.float32)
        results = {}
        for b in ("numpy", name):
            with backend.use(b):
                x = Tensor(x_np.copy(), requires_grad=True)
                bias = Tensor(b_np.copy(), requires_grad=True)
                out = bias_relu(x, bias)
                out.backward(g_np)
                results[b] = (out.data, x.grad, bias.grad)
        for ref, got in zip(results["numpy"], results[name]):
            assert_parity("bias_relu", ref, got)
        # The fused node must also agree with the unfused add→relu chain.
        x = Tensor(x_np.copy(), requires_grad=True)
        bias = Tensor(b_np.copy(), requires_grad=True)
        unfused = (x + bias).relu()
        unfused.backward(g_np)
        assert np.array_equal(results["numpy"][0], unfused.data)
        assert np.array_equal(results["numpy"][1], x.grad)
        assert np.array_equal(results["numpy"][2], bias.grad)

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, (2, 1)), (1, 1, 0), (2, 2, 0)])
    def test_im2col(self, name, rng, k, stride, pad):
        x = rng.standard_normal((2, 3, 9, 8)).astype(np.float32)
        with backend.use("numpy"):
            ref = im2col(x, k, k, stride, pad)
        with backend.use(name):
            got = im2col(x, k, k, stride, pad)
        assert_parity("im2col", ref, got)

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, (2, 1)), (1, 1, 0)])
    def test_col2im(self, name, rng, k, stride, pad):
        x_shape = (2, 3, 9, 8)
        with backend.use("numpy"):
            cols = im2col(rng.standard_normal(x_shape).astype(np.float32), k, k, stride, pad)
            ref = col2im(cols, x_shape, k, k, stride, pad)
        with backend.use(name):
            got = col2im(cols, x_shape, k, k, stride, pad)
        assert_parity("col2im", ref, got)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_conv2d_forward_backward(self, name, rng, shape):
        n, c_in, h, w, c_out, k, stride, padding, has_bias = shape
        x_np = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        w_np = (rng.standard_normal((c_out, c_in, k, k)) * 0.1).astype(np.float32)
        b_np = rng.standard_normal((c_out,)).astype(np.float32) if has_bias else None
        ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
        oh = (h + 2 * ph - k) // stride + 1
        ow = (w + 2 * pw - k) // stride + 1
        g_np = rng.standard_normal((n, c_out, oh, ow)).astype(np.float32)

        ref = run_conv("numpy", x_np, w_np, b_np, g_np, stride, padding)
        got = run_conv(name, x_np, w_np, b_np, g_np, stride, padding)
        assert_parity("conv2d_forward", ref[0], got[0])
        assert (got[3] is None) == (not has_bias)
        for ref_g, got_g in zip(ref[1:], got[1:]):
            if ref_g is not None:
                assert_parity("conv2d_backward", ref_g, got_g)

    @pytest.mark.parametrize("momentum,nesterov,decay", [
        (0.0, False, 0.0),
        (0.9, False, 5e-4),
        (0.9, True, 5e-4),
    ])
    def test_sgd_update(self, name, rng, momentum, nesterov, decay):
        size = 4096
        flat0 = rng.standard_normal(size).astype(np.float32)
        g0 = rng.standard_normal(size).astype(np.float32)
        buf0 = rng.standard_normal(size).astype(np.float32) if momentum else None
        mask = (rng.random(size) > 0.3).astype(np.float32) * decay if decay else None
        states = {}
        for b in ("numpy", name):
            flat, g = flat0.copy(), g0.copy()
            buf = None if buf0 is None else buf0.copy()
            tmp = np.empty(size, dtype=np.float32)
            buf = backend.get(b).sgd_update(flat, g, tmp, mask, buf, 0.05, momentum, nesterov)
            states[b] = (flat, buf)
        assert_parity("sgd_update", states["numpy"][0], states[name][0])
        if momentum:
            assert_parity("sgd_update", states["numpy"][1], states[name][1])

    @pytest.mark.parametrize("decay,step", [(0.0, 1), (1e-2, 1), (1e-2, 7)])
    def test_adam_update(self, name, rng, decay, step):
        size = 4096
        flat0 = rng.standard_normal(size).astype(np.float32)
        g0 = rng.standard_normal(size).astype(np.float32)
        m0 = (rng.standard_normal(size) * 0.1).astype(np.float32)
        v0 = (rng.random(size) * 0.01).astype(np.float32)
        mask = (rng.random(size) > 0.3).astype(np.float32) * decay if decay else None
        states = {}
        for b in ("numpy", name):
            flat, g, m, v = flat0.copy(), g0.copy(), m0.copy(), v0.copy()
            tmp = np.empty(size, dtype=np.float32)
            backend.get(b).adam_update(flat, g, m, v, tmp, mask, 1e-3, 0.9, 0.999, 1e-8, step)
            states[b] = (flat, m, v)
        for ref, got in zip(states["numpy"], states[name]):
            assert_parity("adam_update", ref, got)

    @pytest.mark.parametrize("decay,step", [(0.0, 1), (1e-2, 5)])
    def test_lamb_update(self, name, rng, decay, step):
        sizes = [7, 1, 640, 33, 2048, 5]
        starts = np.array([0, 7, 8, 648, 681, 2729], dtype=np.intp)
        size = int(sum(sizes))
        flat0 = rng.standard_normal(size).astype(np.float32)
        g0 = rng.standard_normal(size).astype(np.float32)
        m0 = (rng.standard_normal(size) * 0.1).astype(np.float32)
        v0 = (rng.random(size) * 0.01).astype(np.float32)
        mask = (rng.random(size) > 0.3).astype(np.float32) * decay if decay else None
        seg_sizes = np.asarray(sizes, dtype=np.intp)
        states = {}
        for b in ("numpy", name):
            flat, g, m, v = flat0.copy(), g0.copy(), m0.copy(), v0.copy()
            tmp = np.empty(size, dtype=np.float32)
            backend.get(b).lamb_update(
                flat, g, m, v, tmp, mask, starts, seg_sizes, 1e-3, 0.9, 0.999, 1e-6, step
            )
            states[b] = (flat, m, v)
        for ref, got in zip(states["numpy"], states[name]):
            assert_parity("lamb_update", ref, got)

    @pytest.mark.parametrize("affine_grad", [True, False])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("cls,x_shape", [(BatchNorm2d, (4, 6, 5, 7)), (BatchNorm1d, (12, 6))])
    def test_batch_norm(self, name, rng, cls, x_shape, training, affine_grad):
        """Output, batch and running statistics and the γ/β gradients are
        bit-identical; only the input gradient reassociates."""
        x_np = (rng.standard_normal(x_shape) * 2 + 0.5).astype(np.float32)
        g_np = rng.standard_normal(x_shape).astype(np.float32)
        c = x_shape[1]
        gamma, beta = rng.standard_normal((2, c)).astype(np.float32)
        run_mean, run_var = rng.standard_normal(c), rng.random(c) + 0.5
        results = {}
        for b in ("numpy", name):
            bn = cls(c)
            bn.weight.data[:], bn.bias.data[:] = gamma, beta
            bn.running_mean[:], bn.running_var[:] = run_mean, run_var
            bn.weight.requires_grad = bn.bias.requires_grad = affine_grad
            bn.train(training)
            with backend.use(b):
                x = Tensor(x_np.copy(), requires_grad=True)
                out = bn(x)
                out.backward(g_np)
            axes = (0,) if x_np.ndim == 2 else (0, 2, 3)
            _, mu, var, _ = backend.get(b).batch_norm_forward(x_np, gamma, beta, axes, 1e-5, None)
            results[b] = (
                out.data,
                mu,
                var,
                bn.running_mean,
                bn.running_var,
                bn.weight.grad,
                bn.bias.grad,
                x.grad,
            )
        ref, got = results["numpy"], results[name]
        for r, g_ in zip(ref[:5], got[:5]):
            assert_parity("batch_norm_forward", r, g_)
        for r, g_ in zip(ref[5:7], got[5:7]):  # γ/β: the same two reductions
            assert (r is None) == (g_ is None) == (not affine_grad)
            assert r is None or np.array_equal(r, g_)
        assert_parity("batch_norm_backward", ref[7], got[7])

    def test_segment_norms(self, name, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        starts = np.array([0, 3, 4, 500], dtype=np.intp)
        sizes = np.array([3, 1, 496, 500], dtype=np.intp)
        ref = backend.get("numpy").segment_norms(x, starts, sizes)
        got = backend.get(name).segment_norms(x, starts, sizes)
        np.testing.assert_allclose(got, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


class TestParityContract:
    def test_every_dispatched_op_is_tagged(self):
        assert set(PARITY) == {
            "matmul",
            "relu",
            "bias_relu",
            "im2col",
            "col2im",
            "conv2d_forward",
            "conv2d_backward",
            "sgd_update",
            "adam_update",
            "lamb_update",
            "batch_norm_forward",
            "batch_norm_backward",
        }
        assert set(PARITY.values()) <= {"bit-exact", "tolerance"}

    def test_registry(self):
        assert "numpy" in backend.available()
        assert "fast" in backend.available()
        with pytest.raises(ValueError, match="unknown backend"):
            backend.get("does-not-exist")

    def test_use_restores_previous(self):
        prev = backend.active()
        with backend.use("fast") as be:
            assert be.name == "fast"
            assert backend.active() is be
            with backend.use("numpy"):
                assert backend.active().name == "numpy"
            assert backend.active().name == "fast"
        assert backend.active() is prev

    def test_use_restores_on_error(self):
        prev = backend.active()
        with pytest.raises(RuntimeError):
            with backend.use("fast"):
                raise RuntimeError("boom")
        assert backend.active() is prev

    def test_set_backend(self):
        prev = backend.active()
        try:
            assert backend.set_backend("fast").name == "fast"
            assert backend.active().name == "fast"
        finally:
            backend.set_backend(prev.name)


class TestFastConvBranch:
    @pytest.mark.parametrize("shape,branch", CONV_BRANCHES)
    def test_branch_selection(self, rng, shape, branch):
        """Stride-1 convs with ``c_out ≤ c_in`` take the kn2row branch;
        the stem, wider-output and strided convs keep the column-matrix
        branch, and unpadded 1×1 convs the batched GEMM."""
        n, c_in, h, w, c_out, k, stride, padding = shape
        ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        wt = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
        _, ctx = FastBackend().conv2d_forward(x, wt, None, stride, ph, pw, True)
        assert ctx[0] == branch

    def test_thin_forward_is_the_reference_gemm(self, rng):
        """The kn2row branch changes only the backward: its forward is the
        reference's column GEMM (transposed), which BLAS reduces in the
        same order, so outputs are bit-identical.  A reordered forward
        flips near-zero ReLU masks and breaks model-level gradient parity
        on some seeds (see TestModelParity)."""
        assert_forward_is_reference(rng, c_in=32, c_out=8)

    def test_square_forward_is_the_reference_gemm(self, rng):
        assert_forward_is_reference(rng, c_in=16, c_out=16)


def assert_forward_is_reference(rng, c_in, c_out):
    x = rng.standard_normal((4, c_in, 16, 16)).astype(np.float32)
    wt = rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32)
    b = rng.standard_normal((c_out,)).astype(np.float32)
    ref, _ = backend.get("numpy").conv2d_forward(x, wt, b, 1, 1, 1, True)
    got, ctx = FastBackend().conv2d_forward(x, wt, b, 1, 1, 1, True)
    assert ctx[0] == "kn2row"
    assert np.array_equal(got, ref)


class TestThreadedGather:
    def test_threaded_conv_matches_serial(self, rng):
        """REPRO_BACKEND_THREADS gathering is per-sample-partitioned and
        must be bit-identical to the serial fast path."""
        serial = FastBackend(threads=0)
        threaded = FastBackend(threads=4)
        x = rng.standard_normal((8, 3, 10, 10)).astype(np.float32)
        w = rng.standard_normal((6, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal((6,)).astype(np.float32)
        out_s, ctx_s = serial.conv2d_forward(x, w, b, 1, 1, 1, True)
        out_t, ctx_t = threaded.conv2d_forward(x, w, b, 1, 1, 1, True)
        assert np.array_equal(out_s, out_t)
        g = rng.standard_normal(out_s.shape).astype(np.float32)
        for gs, gt in zip(
            serial.conv2d_backward(g, ctx_s, True, True, True),
            threaded.conv2d_backward(g, ctx_t, True, True, True),
        ):
            assert np.array_equal(gs, gt)


class TestScratchPool:
    def test_steady_state_training_step_evicts_nothing(self):
        """A hybrid ResNet-18 step touches fewer pooled scratch keys than
        the pool holds.  After a step at another batch size has filled the
        pool with stale keys, a warmed-up step must find every buffer it
        needs: the pool holds the same buffers before and after it (no
        eviction, no allocation)."""
        set_seed(0)
        vanilla = resnet18(num_classes=10, width_mult=0.25)
        model, _ = build_hybrid(vanilla, resnet18_hybrid_config(vanilla, 0.25))
        rng = np.random.default_rng(0)

        def step(n):
            x = rng.standard_normal((n, 3, 32, 32)).astype(np.float32)
            CrossEntropyLoss()(model(Tensor(x)), np.arange(n) % 10).backward()

        def pool():
            return {key: id(buf) for key, buf in backend._SCRATCH.items()}

        backend._SCRATCH.clear()
        with backend.use("fast"):
            step(4)  # leaves keys a batch-8 step never touches
            step(8)
            warm = pool()
            step(8)
        assert len(warm) == backend._SCRATCH_MAX
        assert pool() == warm


class TestModelParity:
    """One batch through a ResNet-18 (width 0.25, batch 16): loss and every
    parameter gradient under each backend must match the reference within
    the published tolerances (the repo benchmark's set-up check, at its
    size).  ``benchmarks/test_parity_sweep.py`` runs the same check over
    40 seeds."""

    # Seeds 14 and 15 have pre-activations within fp32 rounding of zero: a
    # conv forward that reorders the reference's sums flips their ReLU
    # masks and moves whole gradient terms, far outside the tolerances.
    @pytest.mark.parametrize("seed", [0, 14, 15])
    def test_hybrid_resnet18_loss_and_grads(self, seed):
        set_seed(seed)
        vanilla = resnet18(num_classes=10, width_mult=0.25)
        model, _ = build_hybrid(vanilla, resnet18_hybrid_config(vanilla, 0.25))
        assert_model_parity(model, seed)

    @pytest.mark.parametrize("seed", [0, 14, 15])
    def test_vanilla_resnet18_loss_and_grads(self, seed):
        """Every stride-1 vanilla conv after the stem is square (kn2row)."""
        set_seed(seed)
        assert_model_parity(resnet18(num_classes=10, width_mult=0.25), seed)


def assert_model_parity(model, seed):
    data = make_cifar_like(n=16, num_classes=10, rng=np.random.default_rng(seed))
    results = {}
    for name in ["numpy", *NON_REF]:
        m = copy.deepcopy(model)
        with backend.use(name):
            loss = CrossEntropyLoss()(m(Tensor(data.images)), data.labels)
            loss.backward()
        results[name] = [loss.data] + [p.grad for p in m.parameters()]
    ref = results.pop("numpy")
    for got in results.values():
        assert len(got) == len(ref)
        for r, g in zip(ref, got):
            assert g is not None
            assert np.allclose(g, r, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)
