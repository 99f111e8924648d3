"""Neural-network layers (NumPy, float64, batch-first).

The stencil tensors are tiny (9^2 or 9^3 cells), so convolutions are
implemented with a precomputed gather-index table ("im2col" generalized to
N dimensions): the forward pass is one fancy-index plus one matmul, the
backward pass one matmul plus one scatter-add -- fully vectorized per the
repository's NumPy performance conventions.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from ...errors import ModelError


class Layer:
    """Base layer: forward/backward plus parameter export for optimizers."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params_and_grads(self) -> "list[tuple[np.ndarray, np.ndarray]]":
        return []


class Dense(Layer):
    """Fully connected layer ``y = x W + b`` with He initialization."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        scale = math.sqrt(2.0 / in_features)
        self.W = rng.standard_normal((in_features, out_features)) * scale
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.W.shape[0]:
            raise ModelError(
                f"Dense expected (*, {self.W.shape[0]}), got {x.shape}"
            )
        self._x = x if training else None
        return x @ self.W + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ModelError("backward without a training forward pass")
        self.dW = self._x.T @ grad_out
        self.db = grad_out.sum(axis=0)
        return grad_out @ self.W.T

    def params_and_grads(self):
        return [(self.W, self.dW), (self.b, self.db)]


class ReLU(Layer):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ModelError("backward without a training forward pass")
        return grad_out * self._mask


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise ModelError("backward without a forward pass")
        return grad_out.reshape(self._shape)


class ConvND(Layer):
    """N-dimensional valid convolution over ``(batch, channels, *spatial)``.

    Works for the paper's 2-D (9x9) and 3-D (9x9x9) stencil tensors with a
    3^d filter (Section V-A3).  The gather-index table maps every output
    position to the flat input offsets its receptive field covers; both
    passes are then dense linear algebra.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        spatial: tuple[int, ...],
        kernel: int,
        rng: np.random.Generator,
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.spatial = tuple(spatial)
        self.kernel = int(kernel)
        self.out_spatial = tuple(s - self.kernel + 1 for s in self.spatial)
        if any(o < 1 for o in self.out_spatial):
            raise ModelError(
                f"kernel {kernel} too large for spatial shape {spatial}"
            )
        fan_in = in_channels * self.kernel ** len(self.spatial)
        self.W = rng.standard_normal((fan_in, out_channels)) * math.sqrt(2.0 / fan_in)
        self.b = np.zeros(out_channels)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._index = self._build_index()
        self._cols: np.ndarray | None = None
        self._flat_in_size = in_channels * math.prod(self.spatial)

    def _spatial_strides(self) -> "tuple[list[int], int]":
        spatial_strides = []
        acc = 1
        for s in reversed(self.spatial):
            spatial_strides.append(acc)
            acc *= s
        return list(reversed(spatial_strides)), math.prod(self.spatial)

    def _build_index(self) -> np.ndarray:
        """``(n_out_positions, fan_in)`` flat indices into (C, *spatial).

        A flat offset decomposes as position + channel + tap
        contributions, so the table is an outer sum of three small
        vectors instead of a positions x channels x taps Python loop
        (for the 3-D tensors that loop dominates model construction).
        Column order is channel-major then tap, matching
        :meth:`_build_index_loop`.
        """
        strides, chan_stride = self._spatial_strides()
        strides = np.asarray(strides, dtype=np.int64)
        pos = np.stack(
            np.meshgrid(
                *(np.arange(o) for o in self.out_spatial), indexing="ij"
            ),
            axis=-1,
        ).reshape(-1, len(self.spatial))
        taps = np.stack(
            np.meshgrid(
                *(np.arange(self.kernel),) * len(self.spatial), indexing="ij"
            ),
            axis=-1,
        ).reshape(-1, len(self.spatial))
        pos_off = pos @ strides                                 # (P,)
        tap_off = taps @ strides                                # (T,)
        chan_off = np.arange(self.in_channels) * chan_stride    # (C,)
        fan_off = (chan_off[:, None] + tap_off[None, :]).reshape(-1)
        return (pos_off[:, None] + fan_off[None, :]).astype(np.int64)

    def _build_index_loop(self) -> np.ndarray:
        """Reference (per-element loop) index construction.

        Kept as the semantic definition of the gather table; the parity
        test asserts :meth:`_build_index` reproduces it exactly.
        """
        strides, chan_stride = self._spatial_strides()
        out_positions = list(product(*(range(o) for o in self.out_spatial)))
        taps = list(product(*(range(self.kernel) for _ in self.spatial)))
        idx = np.empty(
            (len(out_positions), self.in_channels * len(taps)), dtype=np.int64
        )
        for p, pos in enumerate(out_positions):
            col = 0
            for c in range(self.in_channels):
                base = c * chan_stride
                for tap in taps:
                    off = base
                    for d in range(len(self.spatial)):
                        off += (pos[d] + tap[d]) * strides[d]
                    idx[p, col] = off
                    col += 1
        return idx

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        expected = (self.in_channels, *self.spatial)
        if x.shape[1:] != expected:
            raise ModelError(f"ConvND expected (*, {expected}), got {x.shape}")
        flat = x.reshape(x.shape[0], -1)
        cols = flat[:, self._index]  # (batch, positions, fan_in)
        self._cols = cols if training else None
        out = cols @ self.W + self.b  # (batch, positions, out_channels)
        out = np.moveaxis(out, -1, 1)  # (batch, out_channels, positions)
        return out.reshape(x.shape[0], self.out_channels, *self.out_spatial)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise ModelError("backward without a training forward pass")
        batch = grad_out.shape[0]
        g = grad_out.reshape(batch, self.out_channels, -1)
        g = np.moveaxis(g, 1, -1)  # (batch, positions, out_channels)
        self.db = g.sum(axis=(0, 1))
        # dW: contract batch and positions.
        self.dW = np.tensordot(self._cols, g, axes=([0, 1], [0, 1]))
        dcols = g @ self.W.T  # (batch, positions, fan_in)
        dflat = np.zeros((batch, self._flat_in_size))
        np.add.at(
            dflat,
            (np.arange(batch)[:, None, None], self._index[None, :, :]),
            dcols,
        )
        return dflat.reshape(batch, self.in_channels, *self.spatial)

    def params_and_grads(self):
        return [(self.W, self.dW), (self.b, self.db)]

