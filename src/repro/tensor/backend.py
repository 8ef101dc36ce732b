"""Pluggable op backends for the tensor engine.

Every hot kernel in :mod:`repro.tensor` (im2col convolution, GEMM, relu,
the fused bias+relu chain, batch norm, and the fused optimizer updates)
dispatches through the *active* backend:

``numpy``
    The reference implementation — the exact code the engine has always
    run, bit-for-bit.  Every other backend is validated against it.

``fast``
    BLAS-oriented kernels: the im2col conv path gathers patches directly
    into a transposed ``(C·kh·kw, N·oh·ow)`` layout, one cache-sized batch
    chunk at a time, so the forward pass is one ``w2d @ cols`` GEMM per
    chunk and no column matrix outlives it (1×1 convs — the Pufferfish
    factorized V-factor hot path — become a single batched ``np.matmul``
    with no transpose copies at all), fused elementwise chains
    (``bias_relu`` in one pass via ``np.maximum(x + b, 0, out=...)``), and
    optional threaded per-sample patch gathering
    (``REPRO_BACKEND_THREADS``).  A training forward keeps only its padded
    input; the backward gathers the columns again for the weight
    gradient.  Stride-1 convs skip col2im in the backward: their input
    gradient is one GEMM over k² shifted copies of the output gradient
    (the adjoint of kn2row).  Batch norm runs in two full-size buffers
    each way.

Selection, in precedence order: ``repro.tensor.backend.use()`` context
manager > ``set_backend()`` / the ``--backend`` CLI flag > the
``REPRO_BACKEND`` environment variable (read once at import) > the
``numpy`` default.

Parity policy: every dispatched op carries a tag in :data:`PARITY` —
``bit-exact`` ops must return arrays equal under ``==`` to the numpy
reference (``-0.0`` vs ``+0.0`` is tolerated), ``tolerance`` ops must
agree within a small relative error (GEMM orientation and the grouping
of a conv input gradient's k²·C-term sums change the floating-point
summation order).  ``tests/test_backend_parity.py`` enforces the tags;
``benchmarks/test_kernels.py`` re-checks them while measuring per-op
speedups.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Backend",
    "NumpyBackend",
    "FastBackend",
    "PARITY",
    "active",
    "available",
    "get",
    "register",
    "set_backend",
    "use",
]

# Parity contract per dispatched op, shared by the parity tests and the
# kernel benchmark.  ``tolerance`` ops change float summation order: the
# fast conv flips GEMM orientation, and its kn2row backward sums each
# input-gradient element's kh·kw·c_out terms in one chain where the
# reference rounds one partial sum per kernel offset and adds those in
# offset order; the fast batch-norm backward forms the input gradient from
# Σg and Σg·x_hat where the reference sums g·γ and g·γ·x_hat.  Everything
# else must match the reference under ``np.array_equal``.
PARITY: dict[str, str] = {
    "matmul": "bit-exact",
    "relu": "bit-exact",
    "bias_relu": "bit-exact",
    "im2col": "bit-exact",
    "col2im": "bit-exact",
    "conv2d_forward": "tolerance",
    "conv2d_backward": "tolerance",
    "sgd_update": "bit-exact",
    # Fused-optimizer arena updates.  adam_update runs the identical
    # elementwise chain under both backends; lamb_update's per-layer
    # trust ratios come from segmented reductions whose summation order
    # differs (per-segment BLAS dot vs np.add.reduceat), so it carries
    # the tolerance tag.
    "adam_update": "bit-exact",
    "lamb_update": "tolerance",
    # Output and batch statistics are bit-identical (the running-stat
    # update and every ReLU mask downstream of it stay exact).
    "batch_norm_forward": "bit-exact",
    "batch_norm_backward": "tolerance",
}

# Tolerances for ``tolerance``-tagged ops.  fp32 reassociation error in a
# reordered reduction grows with its length (conv bias gradients sum
# N·oh·ow terms); at this repo's widths the observed relative error stays
# under 1e-5, so these bounds leave an order of magnitude of margin.
TOLERANCE_RTOL = 1e-4
TOLERANCE_ATOL = 1e-5


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _pad_pair(padding: int | tuple[int, int]) -> tuple[int, int]:
    """Normalize ``padding`` to per-axis ``(pad_h, pad_w)``."""
    if isinstance(padding, tuple):
        ph, pw = padding
        return int(ph), int(pw)
    return int(padding), int(padding)


# ----------------------------------------------------------------------
# Scratch buffers
# ----------------------------------------------------------------------
# Keyed by (tag, shape, dtype).  Backward passes and inference loops hit
# the same few shapes every iteration; reusing buffers avoids a large
# zeroed allocation (and its mmap/page-fault churn) per call.  The engine
# is single-threaded per op, and no scratch buffer ever escapes: callers
# either copy the result out or only use it transiently within one call.

_SCRATCH: dict[tuple, np.ndarray] = {}
_SCRATCH_MAX = 32

# Batch-chunk budget for the fast conv's transient operands: the forward's
# column chunk and the kn2row backward's shifted output-gradient slabs
# (see FastBackend.conv2d_forward and _kn2row_input_grad).  About one
# core's L2: on a 4 MB-L2 host, 2–16 MB chunks ran a batch-128 32×32 C16
# kn2row input gradient in 17–19 ms against 38 ms for one whole-batch GEMM.
_CONV_CHUNK_BYTES = 4 << 20


def _pooled(key: tuple, make) -> np.ndarray:
    """The pool entry for ``key``, made by ``make()`` on a miss.  A full
    pool evicts its least-recently-used key: dict order is recency order,
    because every hit re-inserts its key at the end."""
    buf = _SCRATCH.pop(key, None)
    if buf is None:
        if len(_SCRATCH) >= _SCRATCH_MAX:
            del _SCRATCH[next(iter(_SCRATCH))]
        buf = make()
    _SCRATCH[key] = buf
    return buf


def _scratch(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Pooled buffer per ``(tag, shape, dtype)``."""
    return _pooled((tag, shape, np.dtype(dtype).str), lambda: np.empty(shape, dtype=dtype))


def _flat_scratch(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Pooled flat buffer per ``(tag, dtype)``, viewed as ``shape``.  It
    starts at :data:`_CONV_CHUNK_BYTES` and grows to the largest request,
    so one buffer serves every conv: a forward chunk uses its head, a
    backward's full column matrix as much of it as it needs."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    key = (tag, "flat", dtype.str)
    if key in _SCRATCH and _SCRATCH[key].size < size:
        del _SCRATCH[key]  # drop the smaller buffer before allocating
    floor = _CONV_CHUNK_BYTES // dtype.itemsize
    buf = _pooled(key, lambda: np.empty(max(size, floor), dtype=dtype))
    return buf[:size].reshape(shape)


def _zeroed_scratch(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    buf = _scratch(tag, shape, dtype)
    buf.fill(0)
    return buf


def _zeroed_once_scratch(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Pooled buffer zeroed only when first allocated, for callers that
    overwrite the same elements on every use (so the rest stays zero)."""
    fresh = (tag, shape, np.dtype(dtype).str) not in _SCRATCH
    buf = _scratch(tag, shape, dtype)
    if fresh:
        buf.fill(0)
    return buf


def _conv_bias_grad(g: np.ndarray) -> np.ndarray:
    """The reference's conv bias gradient, bit for bit: a row-by-row sum
    over a ``(N·oh·ow, c_out)`` copy of ``g``.  A pairwise sum over ``g``'s
    contiguous pixels is more accurate, but at ~10⁵ pixels (batch 128,
    32×32) it already differs from the reference beyond the tolerances."""
    return g.transpose(0, 2, 3, 1).reshape(-1, g.shape[1]).sum(axis=0)


# ----------------------------------------------------------------------
# Reference backend
# ----------------------------------------------------------------------


class Backend:
    """Op namespace; :class:`NumpyBackend` is the reference semantics.

    Conv ops return/accept an opaque ``ctx`` so each backend can cache
    whatever its own backward pass needs (the reference keeps the im2col
    rows, the fast backend only the padded input).  The
    forward's backend owns the ctx layout, so the autograd closure binds
    the backend that ran the forward even if the active backend changes
    before ``backward()``.
    """

    name = "base"

    # -- GEMM ----------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    # -- elementwise ---------------------------------------------------

    def relu(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Return ``(out, mask)``; ``mask=None`` means derive ``out > 0``."""
        mask = x > 0
        return x * mask, mask

    def bias_relu(self, x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Fused ``relu(x + b)``; same ``(out, mask)`` contract as relu."""
        y = x + b
        mask = y > 0
        return y * mask, mask

    # -- im2col / col2im ----------------------------------------------

    def im2col(self, x: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int) -> np.ndarray:
        """Patch rows: ``(N*oh*ow, C*kh*kw)``, one receptive field per row."""
        n, c, h, w = x.shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)
        if kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0:
            # 1×1 convs have one pixel per receptive field: the transform
            # is a pure transpose, no window view, no pad copy.
            return np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(n * h * w, c))
        if ph > 0 or pw > 0:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

        # as_strided view over all (kh, kw) windows: (N, C, oh, ow, kh, kw)
        sn, sc, sh, sw = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(sn, sc, sh * stride, sw * stride, sh, sw),
            writeable=False,
        )
        # -> (N, oh, ow, C, kh, kw) -> rows
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
        return np.ascontiguousarray(cols)

    def col2im(
        self,
        cols: np.ndarray,
        x_shape: tuple[int, int, int, int],
        kh: int,
        kw: int,
        stride: int,
        ph: int,
        pw: int,
    ) -> np.ndarray:
        """Adjoint of :meth:`im2col`: scatter-add columns back to NCHW.

        The returned array is always freshly owned by the caller; the
        padded accumulator itself is a reused scratch buffer.
        """
        n, c, h, w = x_shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)
        if kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0:
            # 1×1 adjoint: windows never overlap, so the scatter-add is a
            # plain transpose back to NCHW.
            return np.ascontiguousarray(cols.reshape(n, h, w, c).transpose(0, 3, 1, 2))

        cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        if ph > 0 or pw > 0:
            padded = _zeroed_scratch("col2im", (n, c, h + 2 * ph, w + 2 * pw), cols.dtype)
        else:
            # No pad: the accumulator is the result, so it must be fresh.
            padded = np.zeros((n, c, h, w), dtype=cols.dtype)
        # Accumulate each kernel offset in a vectorized slab assignment.
        for i in range(kh):
            i_max = i + stride * out_h
            for j in range(kw):
                j_max = j + stride * out_w
                padded[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, :, :, i, j]
        if ph > 0 or pw > 0:
            return np.ascontiguousarray(padded[:, :, ph : ph + h, pw : pw + w])
        return padded

    # -- conv2d --------------------------------------------------------

    def conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int,
        ph: int,
        pw: int,
        want_ctx: bool,
    ) -> tuple[np.ndarray, tuple | None]:
        """NCHW conv forward; returns ``(out, ctx)`` for :meth:`conv2d_backward`."""
        n, c_in, h, w = x.shape
        c_out, _, kh, kw = weight.shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)

        cols = self.im2col(x, kh, kw, stride, ph, pw)  # (N*oh*ow, C*kh*kw)
        w2d = weight.reshape(c_out, -1)  # (c_out, C*kh*kw)
        out = cols @ w2d.T  # (N*oh*ow, c_out)
        if bias is not None:
            out = out + bias
        out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
        ctx = (cols, w2d, x.shape, kh, kw, stride, ph, pw)
        return np.ascontiguousarray(out), ctx

    def conv2d_backward(
        self,
        g: np.ndarray,
        ctx: tuple,
        need_gw: bool,
        need_gb: bool,
        need_gx: bool,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        cols, w2d, x_shape, kh, kw, stride, ph, pw = ctx
        c_out = g.shape[1]
        g2d = g.transpose(0, 2, 3, 1).reshape(-1, c_out)  # (N*oh*ow, c_out)
        gw = (g2d.T @ cols).reshape(c_out, -1, kh, kw) if need_gw else None
        gb = g2d.sum(axis=0) if need_gb else None
        gx = None
        if need_gx:
            gcols = g2d @ w2d  # (N*oh*ow, C*kh*kw)
            gx = self.col2im(gcols, x_shape, kh, kw, stride, ph, pw)
        return gw, gb, gx

    # -- batch norm ----------------------------------------------------

    def batch_norm_forward(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        axes: tuple[int, ...],
        eps: float,
        stats: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Normalize ``x`` per channel over ``axes``; returns ``(out, mu,
        var, ctx)`` for :meth:`batch_norm_backward`.

        ``stats=None`` (training) normalizes with the batch mean and biased
        variance, both kept-dims; otherwise ``stats`` is the kept-dims
        ``(mean, var)`` pair to use (the running estimates in eval mode).
        """
        if stats is None:
            mu = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
        else:
            mu, var = stats
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mu) * inv_std
        out = x_hat * gamma.reshape(mu.shape) + beta.reshape(mu.shape)
        return out, mu, var, (x_hat, inv_std, axes, stats is None)

    def batch_norm_backward(
        self,
        g: np.ndarray,
        gamma: np.ndarray,
        ctx: tuple,
        need_gx: bool,
        need_gw: bool,
        need_gb: bool,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """Gradients ``(gx, gγ, gβ)``; ``None`` where not requested."""
        x_hat, inv_std, axes, training = ctx
        shape = inv_std.shape
        gw = (g * x_hat).sum(axis=axes) if need_gw else None
        gb = g.sum(axis=axes) if need_gb else None
        gx = None
        if need_gx:
            dxhat = g * gamma.reshape(shape)
            if training:
                n = x_hat.size / gamma.size
                gx = (
                    inv_std
                    / n
                    * (
                        n * dxhat
                        - dxhat.sum(axis=axes, keepdims=True)
                        - x_hat * (dxhat * x_hat).sum(axis=axes, keepdims=True)
                    )
                )
            else:
                gx = dxhat * inv_std
        return gx, gw, gb

    # -- optimizer -----------------------------------------------------

    def sgd_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        momentum_buf: np.ndarray | None,
        lr: float,
        momentum: float,
        nesterov: bool,
    ) -> np.ndarray | None:
        """In-place ``flat -= lr * d`` where ``d`` is the decayed,
        momentum-filtered gradient.  ``g`` is clobbered; returns the
        (possibly newly allocated) momentum buffer.

        This is already a fused vector chain — four in-place passes over
        the arena.  The update is memory-bandwidth-bound, so the fast
        backend shares it: measured alternatives (cache-blocked chunking,
        BLAS level-1 ``axpy`` chains) were no faster or strictly slower.
        """
        if decay_mask is not None:
            # g += decay_mask * flat  (mask is 0 on no_decay segments)
            np.multiply(decay_mask, flat, out=tmp)
            g += tmp
        if momentum > 0:
            if momentum_buf is None:
                momentum_buf = g.copy()
            else:
                momentum_buf *= momentum
                momentum_buf += g
            if nesterov:
                np.multiply(momentum_buf, momentum, out=tmp)
                g += tmp
                d = g
            else:
                d = momentum_buf
        else:
            d = g
        np.multiply(d, np.float32(lr), out=tmp)
        flat -= tmp
        return momentum_buf

    def adam_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> None:
        """One bias-corrected Adam step over the flat arena, in place.

        ``m``/``v`` are the flat first/second-moment slabs (updated in
        place), ``step`` is the 1-based shared step count, ``g`` may be
        clobbered.  The elementwise chain is exactly the per-tensor
        :class:`repro.optim.Adam` loop, only batched — bit-exact parity
        is the contract (the fast backend reorders nothing, it only
        removes the temporaries).
        """
        if decay_mask is not None:
            g = g + decay_mask * flat
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**step)
        v_hat = v / (1 - beta2**step)
        flat -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def segment_norms(
        self, x: np.ndarray, seg_starts: np.ndarray, seg_sizes: np.ndarray
    ) -> np.ndarray:
        """Per-segment L2 norms of ``x`` under the arena tiling.

        Reference semantics: one BLAS dot per segment, matching what the
        per-tensor LAMB loop computes with ``np.linalg.norm``.  The fast
        backend replaces the loop with one squared pass plus
        ``np.add.reduceat``, which changes the float32 summation order —
        hence :data:`PARITY` tags ``lamb_update`` as ``tolerance``.
        """
        return np.array(
            [
                np.sqrt(np.dot(x[o : o + s], x[o : o + s]))
                for o, s in zip(seg_starts, seg_sizes)
            ],
            dtype=np.float32,
        )

    def lamb_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        seg_starts: np.ndarray,
        seg_sizes: np.ndarray,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> None:
        """One LAMB step (You et al. 2020) over the flat arena, in place.

        Adam moments plus a per-layer *trust ratio* ``‖w‖/‖u‖`` scaling
        the update ``u = m̂/(√v̂ + eps) + wd·w``; segments are the arena
        tiling (one per parameter tensor).  The reference walks segments
        one at a time — the per-tensor loop, verbatim; ``g`` may be
        clobbered.
        """
        bc1 = 1 - beta1**step
        bc2 = 1 - beta2**step
        for off, size in zip(seg_starts, seg_sizes):
            sl = slice(int(off), int(off) + int(size))
            w_s, g_s, m_s, v_s = flat[sl], g[sl], m[sl], v[sl]
            m_s *= beta1
            m_s += (1 - beta1) * g_s
            v_s *= beta2
            v_s += (1 - beta2) * g_s * g_s
            u = (m_s / bc1) / (np.sqrt(v_s / bc2) + eps)
            if decay_mask is not None:
                u += decay_mask[sl] * w_s
            w_norm = float(np.sqrt(np.dot(w_s, w_s)))
            u_norm = float(np.sqrt(np.dot(u, u)))
            ratio = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
            w_s -= (lr * ratio) * u


class NumpyBackend(Backend):
    """The reference backend: today's code, bit-exact with today's results."""

    name = "numpy"


# ----------------------------------------------------------------------
# Fast backend
# ----------------------------------------------------------------------


class FastBackend(Backend):
    """BLAS-batched / fused kernels, parity-gated against the reference.

    Conv strategy: gather patches straight into the transposed layout
    ``cols = (C·kh·kw, N·oh·ow)`` with one slab assignment per kernel
    offset (kh·kw assignments instead of an N·oh·ow-row strided copy),
    then run ``w2d @ cols`` with an in-place bias add.  The forward does
    this per batch chunk of at most :data:`_CONV_CHUNK_BYTES` of columns,
    in one pooled chunk buffer, and writes each chunk's output straight
    into NCHW: the chunk stays in cache from its gather to its GEMM, and
    a training forward keeps only the padded input it already made,
    about 1/k² of the column matrix (551 of a 1080 MB peak in a batch-128
    hybrid ResNet-18 step went to kept columns).  The backward gathers
    the full column matrix again into one pooled buffer for the weight
    gradient ``(cols @ gTᵀ)ᵀ``, then, on the strided branch, overwrites
    it with the column gradient ``w2dᵀ @ gT`` and scatter-adds that with
    the same slab loop.  Outputs change GEMM orientation vs the
    reference, so conv forward/backward are ``tolerance``-tagged (see
    :data:`PARITY` for every op's tag).

    That column gradient and its k² slab adds of ``c_in``-channel slabs
    are the expensive half of a backward.  Every stride-1 conv is tagged
    ``"kn2row"`` and takes the adjoint of kn2row / shift-and-accumulate
    (Anderson et al. 2017) instead: ``g`` is scattered into k² shifted,
    zero-bordered slabs ``G`` and one GEMM ``w_stackᵀ @ G`` per batch
    chunk gives the padded input gradient, with no column gradient and no
    col2im.  ``G`` holds ``k²·c_out`` rows against the column gradient's
    ``k²·c_in``, but chunked it stays in cache: a whole C16→C32 backward
    at batch 128 ran in 96–104 ms against 132–136 ms on the column
    branch.  Only on the stem's C3→C16 (36–39 vs 26–36 ms) is it slower,
    and no model needs that input gradient: the stem's input is data.
    Strided convs keep the column branch (kn2row needs stride 1), and
    unpadded 1×1 convs the batched GEMM.

    The forward and weight gradient stay the column GEMMs above: they
    reduce every element over the reference's K order, so with the same
    BLAS they match it bit for bit, chunked or not.  A forward that
    reorders those sums (kn2row proper) perturbs pre-activations by an
    ulp, which flips near-zero ReLU masks and moves whole gradient terms:
    in a batch-16 fast-vs-numpy gradient check of the hybrid ResNet-18,
    13 of 40 seeds then miss the tolerances.  A weight gradient summed
    chunk by chunk reorders its long N·oh·ow reduction the same way, so
    the backward pays for a second gather instead.  ``(cols @ gTᵀ)ᵀ`` is
    the same reduction as ``gT @ colsᵀ`` and 1.3–2.4× faster on every
    ResNet-18 conv shape.  The ctx tag (``"1x1"``, ``"kn2row"``,
    ``"gen"``) names the branch.

    Batch norm keeps the same line: its forward output and batch
    statistics are bit-identical to the reference, computed from one
    ``x − μ`` buffer and the output buffer instead of about ten
    full-size temporaries; only its backward reassociates (see
    :meth:`batch_norm_backward`).
    """

    name = "fast"

    def __init__(self, threads: int | None = None):
        if threads is None:
            threads = int(os.environ.get("REPRO_BACKEND_THREADS", "0") or "0")
        self.threads = max(threads, 0)
        self._pool = None

    # -- elementwise ---------------------------------------------------

    def relu(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        # Single-pass maximum; the backward mask is derived lazily from
        # ``out > 0`` (identical to ``x > 0`` everywhere, including ±0).
        return np.maximum(x, 0), None

    def bias_relu(self, x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        y = x + b
        np.maximum(y, 0, out=y)
        return y, None

    # -- im2col --------------------------------------------------------

    def im2col(self, x: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int) -> np.ndarray:
        """Row-layout im2col via per-offset slab assignment (bit-exact).

        The 6-D strided gather in the reference touches memory in
        N·oh·ow-row order; assigning one ``(N, oh, ow, C)`` slab per
        kernel offset keeps each copy dense and measurably faster.
        """
        n, c, h, w = x.shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)
        if kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0:
            return np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(n * h * w, c))
        if ph > 0 or pw > 0:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        rows6 = np.empty((n, out_h, out_w, c, kh, kw), dtype=x.dtype)
        for i in range(kh):
            i_max = i + stride * out_h
            for j in range(kw):
                j_max = j + stride * out_w
                rows6[:, :, :, :, i, j] = x[:, :, i:i_max:stride, j:j_max:stride].transpose(
                    0, 2, 3, 1
                )
        return rows6.reshape(n * out_h * out_w, c * kh * kw)

    # -- conv2d --------------------------------------------------------

    def _gather_colsT(
        self,
        xp: np.ndarray,
        cols4: np.ndarray,
        kh: int,
        kw: int,
        stride: int,
        out_h: int,
        out_w: int,
        lo: int,
        hi: int,
    ) -> None:
        """Fill ``cols4[:, i, j, lo:hi]`` slabs from samples ``lo:hi`` of ``xp``."""
        for i in range(kh):
            i_max = i + stride * out_h
            for j in range(kw):
                j_max = j + stride * out_w
                cols4[:, i, j, lo:hi] = xp[lo:hi, :, i:i_max:stride, j:j_max:stride].transpose(
                    1, 0, 2, 3
                )

    def _gather(
        self,
        xp: np.ndarray,
        cols: np.ndarray,
        kh: int,
        kw: int,
        stride: int,
        out_h: int,
        out_w: int,
    ) -> None:
        """Gather all of ``xp``'s patches into ``cols`` ``(C·kh·kw, N·oh·ow)``."""
        n, c_in = xp.shape[:2]
        cols4 = cols.reshape(c_in, kh, kw, n, out_h, out_w)
        if self.threads > 1 and n >= self.threads:
            # Per-sample partitioning: every worker writes a disjoint
            # batch slice of cols4, so the result is deterministic and
            # identical to the serial gather.
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads, thread_name_prefix="repro-fast"
                )
            chunk = -(-n // self.threads)
            futures = [
                self._pool.submit(
                    self._gather_colsT,
                    xp, cols4, kh, kw, stride, out_h, out_w, lo, min(lo + chunk, n),
                )
                for lo in range(0, n, chunk)
            ]
            for f in futures:
                f.result()
        else:
            self._gather_colsT(xp, cols4, kh, kw, stride, out_h, out_w, 0, n)

    def conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int,
        ph: int,
        pw: int,
        want_ctx: bool,
    ) -> tuple[np.ndarray, tuple | None]:
        n, c_in, h, w = x.shape
        c_out, _, kh, kw = weight.shape
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)
        w2d = weight.reshape(c_out, -1)

        if kh == 1 and kw == 1 and stride == 1 and ph == 0 and pw == 0:
            # Batched GEMM straight over NCHW: (c_out, C) @ (N, C, H·W)
            # broadcasts to (N, c_out, H·W) — no transpose copies at all.
            x3 = x.reshape(n, c_in, h * w)
            out3 = np.matmul(w2d, x3)
            if bias is not None:
                out3 += bias[:, None]
            ctx = ("1x1", x3, w2d, x.shape) if want_ctx else None
            return out3.reshape(n, c_out, h, w), ctx

        if ph > 0 or pw > 0:
            # Zero-filled buffer plus one interior copy: the same array as
            # np.pad's, in about two thirds of its time.
            xp = np.zeros((n, c_in, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
            xp[:, :, ph : ph + h, pw : pw + w] = x
        else:
            xp = x
        # One GEMM per batch chunk whose columns fit the chunk budget: the
        # chunk stays cache-resident from its gather to the GEMM that
        # reads it, and no column matrix outlives the call.
        rows, hw = c_in * kh * kw, out_h * out_w
        nb = max(1, min(n, _CONV_CHUNK_BYTES // (rows * hw * x.itemsize)))
        out_dtype = np.result_type(x, weight)
        out = np.empty((n, c_out, out_h, out_w), dtype=out_dtype)
        for lo in range(0, n, nb):
            m = min(nb, n - lo)
            cols = _flat_scratch("conv_cols", (rows, m * hw), x.dtype)
            self._gather(xp[lo : lo + m], cols, kh, kw, stride, out_h, out_w)
            oc = _flat_scratch("conv_out", (c_out, m * hw), out_dtype)
            np.matmul(w2d, cols, out=oc)
            if bias is not None:
                oc += bias[:, None]
            out[lo : lo + m] = oc.reshape(c_out, m, out_h, out_w).transpose(1, 0, 2, 3)
        # The tag only picks the backward's input-gradient algorithm.
        tag = "kn2row" if stride == 1 else "gen"
        ctx = (tag, xp, w2d, x.shape, kh, kw, stride, ph, pw) if want_ctx else None
        return out, ctx

    def _kn2row_input_grad(
        self,
        gT: np.ndarray,
        w2d: np.ndarray,
        x_shape: tuple[int, int, int, int],
        kh: int,
        kw: int,
        ph: int,
        pw: int,
    ) -> np.ndarray:
        """Stride-1 input gradient by shift-and-accumulate (kn2row).

        Slab ``(i, j)`` of ``G`` holds the output gradient shifted by
        ``(i, j)`` inside the zero-bordered padded grid, so one GEMM of the
        stacked weight ``(kh·kw·c_out, c_in)`` against ``G`` sums every
        offset's contribution at every padded input pixel.  No
        ``(c_in·kh·kw, N·oh·ow)`` column gradient and no col2im pass.  The
        batch runs in chunks of at most :data:`_CONV_CHUNK_BYTES` of
        slabs, so ``G`` stays cache-resident between its writes and the
        GEMM that reads it, and its pooled buffer does not grow with N.
        """
        n, c_in, h, w = x_shape
        c_out = gT.shape[0]
        hp, wp = h + 2 * ph, w + 2 * pw
        out_h, out_w = hp - kh + 1, wp - kw + 1
        rows = kh * kw * c_out
        nb = max(1, min(n, _CONV_CHUNK_BYTES // (rows * hp * wp * gT.itemsize)))
        # Slab (i, j) is written only inside its (i, j)-shifted window, and
        # the key's shape fixes every window, so the zero border survives
        # reuse of the buffer.
        slabs = _zeroed_once_scratch("kn2row_slabs", (kh, kw, c_out, nb, hp, wp), gT.dtype)
        G = slabs.reshape(rows, nb * hp * wp)
        gxc = _scratch("kn2row_gx", (c_in, nb * hp * wp), gT.dtype)
        # Row (i·kw + j)·c_out + o of the stacked weight is weight[o, :, i, j].
        w_stack = w2d.reshape(c_out, c_in, kh, kw).transpose(2, 3, 0, 1).reshape(-1, c_in)
        g4 = gT.reshape(c_out, n, out_h, out_w)
        gx = np.empty(x_shape, dtype=gT.dtype)
        for lo in range(0, n, nb):
            m = min(nb, n - lo)
            for i in range(kh):
                for j in range(kw):
                    slabs[i, j, :, :m, i : i + out_h, j : j + out_w] = g4[:, lo : lo + m]
            # A short last chunk uses the first m samples' columns of G.
            cols = m * hp * wp
            np.matmul(w_stack.T, G[:, :cols], out=gxc[:, :cols])
            gx[lo : lo + m] = gxc[:, :cols].reshape(c_in, m, hp, wp)[
                :, :, ph : ph + h, pw : pw + w
            ].transpose(1, 0, 2, 3)
        return gx

    def conv2d_backward(
        self,
        g: np.ndarray,
        ctx: tuple,
        need_gw: bool,
        need_gb: bool,
        need_gx: bool,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        if ctx[0] == "1x1":
            _, x3, w2d, x_shape = ctx
            n, c_in, h, w = x_shape
            c_out = g.shape[1]
            g3 = g.reshape(n, c_out, h * w)
            gw = None
            if need_gw:
                # Batched per-sample outer products, reduced over N.
                gw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0)
                gw = gw.reshape(c_out, c_in, 1, 1)
            gb = _conv_bias_grad(g) if need_gb else None
            gx = None
            if need_gx:
                gx = np.matmul(w2d.T, g3).reshape(x_shape)
            return gw, gb, gx

        tag, xp, w2d, x_shape, kh, kw, stride, ph, pw = ctx
        n, c_in, h, w = x_shape
        c_out = g.shape[1]
        out_h = _out_size(h, kh, stride, ph)
        out_w = _out_size(w, kw, stride, pw)
        # (N, c_out, oh, ow) -> (c_out, N*oh*ow), matching the columns' order.
        gT = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(c_out, -1)
        col_gx = need_gx and tag == "gen"
        if need_gw or col_gx:
            # One pooled buffer holds the regathered columns, then the
            # column gradient: the weight gradient is done with the
            # columns before the column gradient overwrites them.
            cols = _flat_scratch("conv_cols", (c_in * kh * kw, n * out_h * out_w), xp.dtype)
        gw = None
        if need_gw:
            self._gather(xp, cols, kh, kw, stride, out_h, out_w)
            gw = np.ascontiguousarray((cols @ gT.T).T).reshape(c_out, c_in, kh, kw)
        gb = _conv_bias_grad(g) if need_gb else None
        gx = None
        if need_gx and tag == "kn2row":
            gx = self._kn2row_input_grad(gT, w2d, x_shape, kh, kw, ph, pw)
        elif col_gx:
            np.matmul(w2d.T, gT, out=cols)
            gc6 = cols.reshape(c_in, kh, kw, n, out_h, out_w)
            if ph > 0 or pw > 0:
                padded = _zeroed_scratch(
                    "conv_gx", (n, c_in, h + 2 * ph, w + 2 * pw), cols.dtype
                )
            else:
                padded = np.zeros((n, c_in, h, w), dtype=cols.dtype)
            for i in range(kh):
                i_max = i + stride * out_h
                for j in range(kw):
                    j_max = j + stride * out_w
                    padded[:, :, i:i_max:stride, j:j_max:stride] += gc6[:, i, j].transpose(
                        1, 0, 2, 3
                    )
            if ph > 0 or pw > 0:
                gx = np.ascontiguousarray(padded[:, :, ph : ph + h, pw : pw + w])
            else:
                gx = padded
        return gw, gb, gx

    # -- batch norm ----------------------------------------------------

    def batch_norm_forward(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        axes: tuple[int, ...],
        eps: float,
        stats: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """The reference's elementwise chain with two full-size buffers.

        The batch mean and variance repeat what ``np.mean``/``np.var`` run
        (``np.add.reduce``, then ``true_divide`` by the ``intp`` count), but
        ``x − μ`` is formed once: squared into the output buffer for the
        variance, then scaled in place into ``x_hat``.  Every value is
        rounded exactly as in the reference, so the output and batch
        statistics are bit-identical.
        """
        if stats is None:
            count = np.intp(x.size // gamma.size)
            mu = np.add.reduce(x, axis=axes, keepdims=True)
            np.true_divide(mu, count, out=mu, casting="unsafe")
        else:
            mu, var = stats
        x_hat = x - mu
        out = np.empty(x_hat.shape, np.result_type(x_hat, gamma, beta))
        if stats is None:
            np.square(x_hat, out=out)
            var = np.add.reduce(out, axis=axes, keepdims=True)
            np.true_divide(var, count, out=var, casting="unsafe")
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat *= inv_std
        np.multiply(x_hat, gamma.reshape(mu.shape), out=out)
        out += beta.reshape(mu.shape)
        return out, mu, var, (x_hat, inv_std, axes, stats is None)

    def batch_norm_backward(
        self,
        g: np.ndarray,
        gamma: np.ndarray,
        ctx: tuple,
        need_gx: bool,
        need_gw: bool,
        need_gb: bool,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """Two reductions, ``Σg`` and ``Σg·x_hat`` (exactly the reference's
        β and γ gradients), then ``gx = a·(g − (Σg + x_hat·Σg·x_hat)/n)``
        with per-channel ``a = γ/σ``, built in place in the buffer that held
        ``g·x_hat``.  The reference sums ``g·γ`` terms instead, so ``gx`` is
        tolerance-tagged."""
        x_hat, inv_std, axes, training = ctx
        if not training:
            return super().batch_norm_backward(g, gamma, ctx, need_gx, need_gw, need_gb)
        sum_g = np.add.reduce(g, axis=axes, keepdims=True)
        gx = g * x_hat
        sum_gx = np.add.reduce(gx, axis=axes, keepdims=True)
        gw = sum_gx.reshape(-1) if need_gw else None
        gb = sum_g.reshape(-1) if need_gb else None
        if not need_gx:
            return None, gw, gb
        n = x_hat.size / gamma.size
        np.multiply(x_hat, sum_gx / -n, out=gx)
        gx += g
        gx += sum_g / -n
        gx *= inv_std * gamma.reshape(inv_std.shape)
        return gx, gw, gb

    # -- fused optimizers ----------------------------------------------

    def adam_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> None:
        """Allocation-free Adam chain: the reference's exact elementwise
        ops rewritten in ``out=`` form over ``tmp`` and the (dead after
        the moment updates) gradient buffer — bit-exact, zero fresh
        temporaries per step."""
        if decay_mask is not None:
            np.multiply(decay_mask, flat, out=tmp)
            g += tmp
        m *= beta1
        np.multiply(g, 1 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.multiply(g, 1 - beta2, out=tmp)
        tmp *= g
        v += tmp
        # g is dead now: reuse it for the denominator √(v̂) + eps.
        np.divide(v, 1 - beta2**step, out=g)
        np.sqrt(g, out=g)
        g += eps
        np.divide(m, 1 - beta1**step, out=tmp)
        tmp *= lr
        tmp /= g
        flat -= tmp

    def segment_norms(
        self, x: np.ndarray, seg_starts: np.ndarray, seg_sizes: np.ndarray
    ) -> np.ndarray:
        """Segmented L2 norms in two vector ops: square the whole slab
        into pooled scratch, ``np.add.reduceat`` at the precomputed
        segment boundaries, one sqrt over the per-segment sums."""
        sq = _scratch("segnorm_sq", x.shape, np.float32)
        np.multiply(x, x, out=sq)
        sums = np.add.reduceat(sq, seg_starts)
        return np.sqrt(sums, out=sums)

    def lamb_update(
        self,
        flat: np.ndarray,
        g: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        tmp: np.ndarray,
        decay_mask: np.ndarray | None,
        seg_starts: np.ndarray,
        seg_sizes: np.ndarray,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        step: int,
    ) -> None:
        """Whole-arena LAMB: one vectorized moment/update chain, then
        segmented trust-ratio norms via :meth:`segment_norms` broadcast
        back over the tiling with ``np.repeat``.  Tolerance-tagged: the
        reduceat summation order differs from the per-segment dots."""
        m *= beta1
        np.multiply(g, 1 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.multiply(g, 1 - beta2, out=tmp)
        tmp *= g
        v += tmp
        # g is dead: reuse it as the update vector u = m̂/(√v̂+eps)+wd·w.
        den = _scratch("lamb_den", flat.shape, np.float32)
        np.divide(v, 1 - beta2**step, out=den)
        np.sqrt(den, out=den)
        den += eps
        np.divide(m, 1 - beta1**step, out=g)
        g /= den
        if decay_mask is not None:
            np.multiply(decay_mask, flat, out=den)
            g += den
        w_norm = self.segment_norms(flat, seg_starts, seg_sizes)
        u_norm = self.segment_norms(g, seg_starts, seg_sizes)
        ratio = np.ones_like(w_norm)
        ok = (w_norm > 0) & (u_norm > 0)
        np.divide(w_norm, u_norm, out=ratio, where=ok)
        ratio *= np.float32(lr)
        np.multiply(g, np.repeat(ratio, seg_sizes), out=tmp)
        flat -= tmp


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_BACKENDS: dict[str, Backend] = {}


def register(backend: Backend) -> Backend:
    """Add a backend instance to the registry (name collisions replace)."""
    _BACKENDS[backend.name] = backend
    return backend


register(NumpyBackend())
register(FastBackend())


def available() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def get(name: str) -> Backend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available())}"
        ) from None


def _default() -> Backend:
    return get(os.environ.get("REPRO_BACKEND", "numpy"))


_ACTIVE: Backend = _default()


def active() -> Backend:
    """The backend every dispatched op currently routes through."""
    return _ACTIVE


def set_backend(name: str) -> Backend:
    """Select the active backend process-wide; returns it."""
    global _ACTIVE
    _ACTIVE = get(name)
    return _ACTIVE


@contextmanager
def use(name: str):
    """Temporarily select a backend::

        with backend.use("fast"):
            model(x)
    """
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = get(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev
