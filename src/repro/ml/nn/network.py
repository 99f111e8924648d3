"""Network containers and the minibatch training loop.

:class:`Sequential` chains layers over a single input; :class:`TwoBranch`
implements the ConvMLP topology (Fig. 8): a CNN branch over the assigned
tensor and an MLP branch over the flat feature vector, concatenated into a
shared head.
"""

from __future__ import annotations

import numpy as np

from ...errors import ModelError
from .layers import Layer
from .optimizers import Adam


class Sequential:
    """A plain layer chain."""

    def __init__(self, layers: "list[Layer]"):
        if not layers:
            raise ModelError("empty layer list")
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params_and_grads(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params_and_grads())
        return out


class TwoBranch:
    """Two input branches concatenated into a head (ConvMLP, Fig. 8)."""

    def __init__(self, branch_a: Sequential, branch_b: Sequential, head: Sequential):
        self.branch_a = branch_a
        self.branch_b = branch_b
        self.head = head
        self._split: int | None = None

    def forward(
        self, xa: np.ndarray, xb: np.ndarray, training: bool = False
    ) -> np.ndarray:
        if xa.shape[0] != xb.shape[0]:
            raise ModelError("branch batch sizes differ")
        ya = self.branch_a.forward(xa, training=training)
        yb = self.branch_b.forward(xb, training=training)
        if ya.ndim != 2 or yb.ndim != 2:
            raise ModelError("branch outputs must be flat (use Flatten)")
        self._split = ya.shape[1]
        return self.head.forward(np.concatenate([ya, yb], axis=1), training=training)

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._split is None:
            raise ModelError("backward without a forward pass")
        g = self.head.backward(grad)
        ga = self.branch_a.backward(g[:, : self._split])
        gb = self.branch_b.backward(g[:, self._split :])
        return ga, gb

    def params_and_grads(self):
        return (
            self.branch_a.params_and_grads()
            + self.branch_b.params_and_grads()
            + self.head.params_and_grads()
        )


def train_epochs(
    inputs: "tuple[np.ndarray, ...]",
    targets: np.ndarray,
    forward_backward,
    params_and_grads,
    optimizer: Adam,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> "list[float]":
    """Generic minibatch loop; returns the mean loss per epoch.

    ``forward_backward(batch_inputs, batch_targets)`` must run the forward
    pass, populate layer gradients via backprop and return the scalar loss.
    """
    n = targets.shape[0]
    if any(x.shape[0] != n for x in inputs):
        raise ModelError("input/target batch size mismatch")
    history: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        losses: list[float] = []
        for start in range(0, n, batch_size):
            sel = order[start : start + batch_size]
            batch = tuple(x[sel] for x in inputs)
            loss = forward_backward(batch, targets[sel])
            optimizer.step(params_and_grads())
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history
