"""The optimizer of the paper's training setup.

Section V-A3: Adam with learning rates 1e-4 / 5e-4.
"""

from __future__ import annotations

import numpy as np

from ...errors import ModelError


class Adam:
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ModelError(f"lr must be positive, got {lr}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, params_and_grads) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for param, grad in params_and_grads:
            m = self._m.setdefault(id(param), np.zeros_like(param))
            v = self._v.setdefault(id(param), np.zeros_like(param))
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
