"""The paper's four neural models as scikit-style estimators.

Classification (Section IV-D):

- :class:`ConvNetClassifier` (Fig. 7): convolutional layers over the
  assigned binary tensor, fully connected head, softmax over merged OC
  classes.  Adapting to 3-D stencils only raises the convolution
  dimensionality.
- :class:`FcNetClassifier`: fully connected layers over the flattened
  tensor; its accuracy is sensitive to the layer count, which is exposed.

Regression (Section IV-E):

- :class:`MLPRegressor` (Fig. 13 studies its depth/width): hidden ReLU
  layers over the flat feature vector (stencil features, OC flags, encoded
  parameters, hardware characteristics), inputs max-normalized to [0, 1].
- :class:`ConvMLPRegressor` (Fig. 8): a CNN branch over the assigned
  tensor concatenated with an MLP branch over the non-stencil features.

Execution times are modeled in ``log2`` space and converted back in
:meth:`predict` so MAPE is reported on real milliseconds.

All four share one skeleton: ``fit(*inputs, target)`` seeds one RNG,
builds the network and runs :func:`train_epochs` with Adam; the state's
``hyper`` block is the constructor's own parameters
(:mod:`repro.ml.hyper`).  A subclass only declares its constructor, how
raw inputs become network inputs and which network to build.

Training defaults follow Section V-A3 (Adam; batch 50 for classifiers,
256 for regressors).  The paper trains 100 epochs at lr 1e-4 / 5e-4; the
scaled-down default here uses 1e-3 with proportionally fewer epochs --
pass ``lr``/``epochs`` to reproduce the paper's schedule exactly.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import ModelError, NotFittedError
from ..hyper import from_hyper, hyper_state
from ..preprocess import LogTimeTransform, MaxNormalizer
from .layers import ConvND, Dense, Flatten, Layer, ReLU
from .losses import MSELoss, SoftmaxCrossEntropy
from .network import Sequential, TwoBranch, train_epochs
from .optimizers import Adam
from .serialize import net_from_state, net_state


def _as_tensor_batch(tensors: np.ndarray) -> np.ndarray:
    """Normalize ``(n, edge^d)`` stencil tensors to ``(n, 1, edge^d)``."""
    t = np.asarray(tensors, dtype=np.float64)
    if t.ndim < 3:
        raise ModelError(f"expected batched spatial tensors, got {t.shape}")
    return t[:, None, ...]


def _conv_trunk(
    channels: "tuple[int, int]", kernel: int, spatial: "tuple[int, ...]",
    rng: np.random.Generator,
) -> "tuple[list[Layer], int]":
    """Two valid ReLU convolutions, flattened; also returns the flat width."""
    c1, c2 = channels
    first = ConvND(1, c1, spatial, kernel, rng)
    second = ConvND(c1, c2, first.out_spatial, kernel, rng)
    flat = c2 * math.prod(second.out_spatial)
    return [first, ReLU(), second, ReLU(), Flatten()], flat


def _dense_stack(
    width: int, hidden: "tuple[int, ...]", rng: np.random.Generator,
    out: "int | None" = None,
) -> "list[Layer]":
    """Dense -> ReLU for each hidden width, then a linear ``out`` layer."""
    layers: list = []
    for h in hidden:
        layers += [Dense(width, h, rng), ReLU()]
        width = h
    if out is not None:
        layers.append(Dense(width, out, rng))
    return layers


class _NeuralEstimator:
    """The fit/predict/state skeleton the four networks share.

    A subclass supplies ``_loss``, ``_inputs`` (raw arrays to the network
    inputs), ``_targets`` and ``_build`` (the network for given inputs).
    """

    _loss: type

    def __init__(self, lr: float, epochs: int, batch_size: int, seed: int):
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self._net: "Sequential | TwoBranch | None" = None

    def fit(self, *arrays: np.ndarray):
        """Train on the raw inputs followed by the target (class labels
        or execution times in milliseconds)."""
        *raw, target = arrays
        inputs = self._inputs(*raw, fit=True)
        targets = self._targets(target)
        rng = np.random.default_rng(self.seed)
        self._net = net = self._build(inputs, rng)
        loss = self._loss()

        def fwd_bwd(batch, batch_targets):
            value = loss.forward(net.forward(*batch, training=True), batch_targets)
            net.backward(loss.backward())
            return value

        self.history_ = train_epochs(
            inputs, targets, fwd_bwd, net.params_and_grads, Adam(self.lr),
            self.epochs, self.batch_size, rng,
        )
        return self

    def _check_fitted(self, what: str) -> None:
        if self._net is None:
            raise NotFittedError(f"{type(self).__name__}.{what} before fit")

    def _forward(self, *raw: np.ndarray) -> np.ndarray:
        self._check_fitted("predict")
        return self._net.forward(*self._inputs(*raw))

    def state_dict(self) -> dict:
        """Fitted state for :mod:`repro.ml.serialize`."""
        self._check_fitted("state_dict")
        return {"hyper": hyper_state(self), "net": net_state(self._net)}

    @classmethod
    def from_state(cls, state: dict):
        model = from_hyper(cls, state["hyper"])
        model._net = net_from_state(state["net"])
        return model


class _Classifier(_NeuralEstimator):
    """Softmax over the merged OC classes."""

    _loss = SoftmaxCrossEntropy

    def _targets(self, labels: np.ndarray) -> np.ndarray:
        return np.asarray(labels, dtype=np.int64).ravel()

    def predict_proba(self, tensors: np.ndarray) -> np.ndarray:
        return SoftmaxCrossEntropy.probabilities(self._forward(tensors))

    def predict(self, tensors: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(tensors), axis=1)


class _Regressor(_NeuralEstimator):
    """``log2`` execution time from max-normalized flat features."""

    _loss = MSELoss

    def _flat(self, X: np.ndarray, fit: bool) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if fit:
            self._norm = MaxNormalizer()
            return self._norm.fit_transform(X)
        return self._norm.transform(X)

    def _targets(self, times_ms: np.ndarray) -> np.ndarray:
        return LogTimeTransform.forward(times_ms)[:, None]

    def predict(self, *raw: np.ndarray) -> np.ndarray:
        """Predicted execution times in milliseconds."""
        return LogTimeTransform.inverse(self._forward(*raw).ravel())

    def state_dict(self) -> dict:
        return {**super().state_dict(), "norm_scale": self._norm.state_dict()}

    @classmethod
    def from_state(cls, state: dict):
        model = super().from_state(state)
        model._norm = MaxNormalizer.from_state(state["norm_scale"])
        return model


class ConvNetClassifier(_Classifier):
    """CNN over assigned tensors predicting the best merged OC class."""

    def __init__(
        self,
        n_classes: int,
        channels: tuple[int, int] = (16, 32),
        dense: int = 64,
        kernel: int = 3,
        lr: float = 1e-3,
        epochs: int = 30,
        batch_size: int = 50,
        seed: int = 0,
    ):
        super().__init__(lr, epochs, batch_size, seed)
        self.n_classes = int(n_classes)
        self.channels = channels
        self.dense = int(dense)
        self.kernel = int(kernel)

    def _inputs(self, tensors: np.ndarray, fit: bool = False) -> tuple:
        return (_as_tensor_batch(tensors),)

    def _build(self, inputs: tuple, rng: np.random.Generator) -> Sequential:
        trunk, flat = _conv_trunk(
            self.channels, self.kernel, inputs[0].shape[2:], rng
        )
        return Sequential(
            trunk + _dense_stack(flat, (self.dense,), rng, out=self.n_classes)
        )


class FcNetClassifier(_Classifier):
    """Fully connected classifier over flattened assigned tensors."""

    def __init__(
        self,
        n_classes: int,
        hidden: tuple[int, ...] = (128, 64),
        lr: float = 1e-3,
        epochs: int = 30,
        batch_size: int = 50,
        seed: int = 0,
    ):
        if not hidden:
            raise ModelError("FcNet needs at least one hidden layer")
        super().__init__(lr, epochs, batch_size, seed)
        self.n_classes = int(n_classes)
        self.hidden = tuple(int(h) for h in hidden)

    def _inputs(self, tensors: np.ndarray, fit: bool = False) -> tuple:
        return (np.asarray(tensors, dtype=np.float64).reshape(len(tensors), -1),)

    def _build(self, inputs: tuple, rng: np.random.Generator) -> Sequential:
        return Sequential(
            _dense_stack(inputs[0].shape[1], self.hidden, rng, out=self.n_classes)
        )


class MLPRegressor(_Regressor):
    """Multilayer perceptron predicting ``log2`` execution time.

    ``n_layers`` and ``layer_size`` span the Fig. 13 sensitivity grid
    (4-10 layers, 2^4-2^10 units).
    """

    def __init__(
        self,
        n_layers: int = 7,
        layer_size: int = 64,
        lr: float = 1e-3,
        epochs: int = 30,
        batch_size: int = 256,
        seed: int = 0,
    ):
        if n_layers < 1:
            raise ModelError(f"n_layers must be >= 1, got {n_layers}")
        super().__init__(lr, epochs, batch_size, seed)
        self.n_layers = int(n_layers)
        self.layer_size = int(layer_size)

    def _inputs(self, X: np.ndarray, fit: bool = False) -> tuple:
        return (self._flat(X, fit),)

    def _build(self, inputs: tuple, rng: np.random.Generator) -> Sequential:
        hidden = (self.layer_size,) * self.n_layers
        return Sequential(_dense_stack(inputs[0].shape[1], hidden, rng, out=1))


class ConvMLPRegressor(_Regressor):
    """Fig. 8: CNN over the assigned tensor + MLP over the flat features."""

    def __init__(
        self,
        channels: tuple[int, int] = (8, 16),
        mlp_hidden: tuple[int, ...] = (64, 64),
        head_hidden: int = 64,
        kernel: int = 3,
        lr: float = 1e-3,
        epochs: int = 20,
        batch_size: int = 256,
        seed: int = 0,
    ):
        super().__init__(lr, epochs, batch_size, seed)
        self.channels = channels
        self.mlp_hidden = tuple(int(h) for h in mlp_hidden)
        self.head_hidden = int(head_hidden)
        self.kernel = int(kernel)

    def _inputs(
        self, tensors: np.ndarray, aux: np.ndarray, fit: bool = False
    ) -> tuple:
        return _as_tensor_batch(tensors), self._flat(aux, fit)

    def _build(self, inputs: tuple, rng: np.random.Generator) -> TwoBranch:
        Xt, Xa = inputs
        trunk, flat = _conv_trunk(self.channels, self.kernel, Xt.shape[2:], rng)
        mlp = Sequential(_dense_stack(Xa.shape[1], self.mlp_hidden, rng))
        head = _dense_stack(
            flat + self.mlp_hidden[-1], (self.head_hidden,), rng, out=1
        )
        return TwoBranch(Sequential(trunk), mlp, Sequential(head))
