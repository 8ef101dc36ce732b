"""Normalization layers: BatchNorm (1d/2d) and LayerNorm.

BatchNorm is implemented as a fused autograd node (hand-written backward)
because it sits on every conv in VGG/ResNet and the composite formulation
builds needlessly deep graphs.  Running statistics live in buffers so the
Pufferfish warm-start can carry them from the vanilla to the hybrid model,
exactly as Section 3 of the paper prescribes.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor import backend as _backend
from .module import Module, Parameter

__all__ = ["BatchNorm2d", "BatchNorm1d", "LayerNorm"]


class _BatchNormBase(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.weight.no_decay = True
        self.bias.no_decay = True
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def _normalize(self, x: Tensor, axes: tuple[int, ...], shape) -> Tensor:
        """Shared fused forward/backward over reduction ``axes``; the math
        runs in the active backend's ``batch_norm_forward``/``_backward``."""
        gamma, beta = self.weight, self.bias
        be = _backend.active()
        stats = None
        if not self.training:
            stats = (self.running_mean.reshape(shape), self.running_var.reshape(shape))
        out, mu, var, ctx = be.batch_norm_forward(
            x.data, gamma.data, beta.data, axes, self.eps, stats
        )
        if self.training:
            m = self.momentum
            # Unbiased variance for the running estimate, as in PyTorch.
            n = x.data.size / self.num_features
            unbias = var.reshape(-1) * n / max(n - 1, 1)
            self._set_buffer(
                "running_mean",
                ((1 - m) * self.running_mean + m * mu.reshape(-1)).astype(np.float32),
            )
            self._set_buffer(
                "running_var", ((1 - m) * self.running_var + m * unbias).astype(np.float32)
            )

        def backward(g: np.ndarray) -> None:
            gx, gw, gb = be.batch_norm_backward(
                g, gamma.data, ctx, x.requires_grad, gamma.requires_grad, beta.requires_grad
            )
            if gw is not None:
                gamma._accumulate(gw)
            if gb is not None:
                beta._accumulate(gb)
            if gx is not None:
                x._accumulate(gx)

        return Tensor._from_op(
            out.astype(x.dtype, copy=False), (x, gamma, beta), backward, "batch_norm"
        )


class BatchNorm2d(_BatchNormBase):
    """BatchNorm over NCHW feature maps (per-channel statistics)."""

    def forward(self, x: Tensor) -> Tensor:
        return self._normalize(x, axes=(0, 2, 3), shape=(1, self.num_features, 1, 1))

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class BatchNorm1d(_BatchNormBase):
    """BatchNorm over (N, C) activations."""

    def forward(self, x: Tensor) -> Tensor:
        return self._normalize(x, axes=(0,), shape=(1, self.num_features))

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"


class LayerNorm(Module):
    """Layer normalization over the trailing dimension (Transformer-style)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-6):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32))
        self.weight.no_decay = True
        self.bias.no_decay = True

    def forward(self, x: Tensor) -> Tensor:
        gamma, beta, eps = self.weight, self.bias, self.eps
        mu = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x.data - mu) * inv_std
        out = x_hat * gamma.data + beta.data
        d = x.data.shape[-1]

        def backward(g: np.ndarray) -> None:
            if gamma.requires_grad:
                gamma._accumulate((g * x_hat).reshape(-1, d).sum(axis=0))
            if beta.requires_grad:
                beta._accumulate(g.reshape(-1, d).sum(axis=0))
            if x.requires_grad:
                dxhat = g * gamma.data
                x._accumulate(
                    inv_std
                    / d
                    * (
                        d * dxhat
                        - dxhat.sum(axis=-1, keepdims=True)
                        - x_hat * (dxhat * x_hat).sum(axis=-1, keepdims=True)
                    )
                )

        return Tensor._from_op(
            out.astype(x.dtype, copy=False), (x, gamma, beta), backward, "layer_norm"
        )

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_shape})"
