"""Conv edge cases exercised under every backend.

Each case is checked two ways: against a direct-loop reference (gold
standard for correctness) where practical, and parity-asserted between
the numpy reference backend and each alternative backend (the contract
`tests/test_backend_parity.py` establishes op-by-op, here at the edges:
stride>1 with asymmetric padding, the 1×1 fast path, the thin-output
shifted-GEMM path, non-contiguous inputs, and empty batches).
"""

import numpy as np
import pytest

from repro.tensor import Tensor, backend, conv2d
from repro.tensor.backend import TOLERANCE_ATOL, TOLERANCE_RTOL

BACKENDS = backend.available()
NON_REF = [n for n in BACKENDS if n != "numpy"]


def naive_conv2d(x, w, b, stride, pad_h, pad_w):
    """Direct-loop reference convolution with per-axis padding."""
    n, c_in, h, wid = x.shape
    c_out, _, kh, kw = w.shape
    if pad_h or pad_w:
        x = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, co, i, j] = (patch * w[co]).sum()
            if b is not None:
                out[ni, co] += b[co]
    return out.astype(np.float32)


def run_conv(name, x_np, w_np, b_np, stride, padding, g_np=None):
    with backend.use(name):
        x = Tensor(x_np, requires_grad=True)
        w = Tensor(w_np.copy(), requires_grad=True)
        b = Tensor(b_np.copy(), requires_grad=True) if b_np is not None else None
        out = conv2d(x, w, b, stride=stride, padding=padding)
        if g_np is not None:
            out.backward(g_np)
        return out.data, x.grad, w.grad, None if b is None else b.grad


def assert_close(ref, got):
    np.testing.assert_allclose(got, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


@pytest.mark.parametrize("name", BACKENDS)
class TestAsymmetricPadding:
    @pytest.mark.parametrize("stride,padding", [(2, (2, 1)), (2, (0, 2)), (3, (1, 0))])
    def test_matches_naive(self, name, rng, stride, padding):
        x = rng.standard_normal((2, 3, 11, 9)).astype(np.float32)
        w = (rng.standard_normal((4, 3, 3, 3)) * 0.2).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        ref = naive_conv2d(x, w, b, stride, *padding)
        out, *_ = run_conv(name, x, w, b, stride, padding)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    def test_int_padding_equals_symmetric_tuple(self, name, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        as_int, *_ = run_conv(name, x, w, None, 1, 1)
        as_tuple, *_ = run_conv(name, x, w, None, 1, (1, 1))
        assert np.array_equal(as_int, as_tuple)


@pytest.mark.parametrize("name", NON_REF)
class TestEdgeParity:
    def test_stride_asymmetric_padding_grads(self, name, rng):
        x = rng.standard_normal((2, 3, 11, 9)).astype(np.float32)
        w = (rng.standard_normal((4, 3, 3, 3)) * 0.2).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        ref_out = run_conv("numpy", x, w, b, 2, (2, 1))[0]
        g = rng.standard_normal(ref_out.shape).astype(np.float32)
        ref = run_conv("numpy", x, w, b, 2, (2, 1), g)
        got = run_conv(name, x, w, b, 2, (2, 1), g)
        for r, o in zip(ref, got):
            assert_close(r, o)

    def test_1x1_fast_path(self, name, rng):
        """k=1, s=1, p=0 — the Pufferfish factorized V-factor hot path —
        takes a dedicated branch in every backend."""
        x = rng.standard_normal((3, 5, 6, 7)).astype(np.float32)
        w = rng.standard_normal((4, 5, 1, 1)).astype(np.float32)
        b = rng.standard_normal((4,)).astype(np.float32)
        ref = naive_conv2d(x, w, b, 1, 0, 0)
        g = rng.standard_normal(ref.shape).astype(np.float32)
        ref_all = run_conv("numpy", x, w, b, 1, 0, g)
        got_all = run_conv(name, x, w, b, 1, 0, g)
        np.testing.assert_allclose(got_all[0], ref, rtol=1e-4, atol=1e-4)
        for r, o in zip(ref_all, got_all):
            assert_close(r, o)

    def test_non_contiguous_input(self, name, rng):
        """Strided views (e.g. a spatially subsampled batch) must conv
        identically to their contiguous copies."""
        self._check_non_contiguous(name, rng, 3, 4)

    def test_thin_non_contiguous_input(self, name, rng):
        """Same, through the thin-output (c_out = c_in/4) branch."""
        self._check_non_contiguous(name, rng, 16, 4)

    def _check_non_contiguous(self, name, rng, c_in, c_out):
        base = rng.standard_normal((2, c_in, 16, 16)).astype(np.float32)
        view = base[:, :, ::2, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        w = rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32)
        b = rng.standard_normal((c_out,)).astype(np.float32)
        ref_out = run_conv("numpy", np.ascontiguousarray(view), w, b, 1, 1)[0]
        g = rng.standard_normal(ref_out.shape).astype(np.float32)
        ref = run_conv("numpy", np.ascontiguousarray(view), w, b, 1, 1, g)
        got = run_conv(name, view, w, b, 1, 1, g)
        for r, o in zip(ref, got):
            assert_close(r, o)

    def test_empty_batch(self, name, rng):
        """N=0 must produce an empty output and zero-shaped gradients,
        not crash inside the gather or GEMM."""
        self._check_empty_batch(name, rng, 3, 4)

    def test_thin_empty_batch(self, name, rng):
        """Same, through the thin-output (c_out = c_in/4) branch."""
        self._check_empty_batch(name, rng, 16, 4)

    def _check_empty_batch(self, name, rng, c_in, c_out):
        x = np.empty((0, c_in, 8, 8), dtype=np.float32)
        w = rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32)
        b = rng.standard_normal((c_out,)).astype(np.float32)
        for be in ("numpy", name):
            out, gx, gw, gb = run_conv(
                be, x, w, b, 1, 1, np.empty((0, c_out, 8, 8), dtype=np.float32)
            )
            assert out.shape == (0, c_out, 8, 8)
            assert gx.shape == x.shape
            assert np.array_equal(gw, np.zeros_like(w))
            assert np.array_equal(gb, np.zeros_like(b))
