"""Tests for optimizers, network containers and the training loop."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.nn import (
    Adam,
    Dense,
    Flatten,
    MSELoss,
    ReLU,
    Sequential,
    TwoBranch,
    train_epochs,
)


def _quadratic_params():
    # Minimise ||w - target||^2 through the optimizer interface.
    w = np.array([5.0, -3.0])
    target = np.array([1.0, 2.0])
    return w, target


class TestAdam:
    def test_descends(self):
        w, target = _quadratic_params()
        opt = Adam(lr=0.1)
        for _ in range(300):
            opt.step([(w, 2 * (w - target))])
        assert np.allclose(w, target, atol=1e-2)

    def test_state_per_parameter(self):
        a = np.array([1.0])
        b = np.array([10.0])
        opt = Adam(lr=0.1)
        opt.step([(a, np.array([1.0])), (b, np.array([-1.0]))])
        # Opposite gradient signs move the parameters in opposite directions.
        assert a[0] < 1.0 and b[0] > 10.0

    def test_bias_correction_first_step(self):
        w = np.array([0.0])
        Adam(lr=0.5).step([(w, np.array([1.0]))])
        # First Adam step is ~lr regardless of gradient magnitude.
        assert w[0] == pytest.approx(-0.5, abs=1e-6)


class TestSequential:
    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            Sequential([])

    def test_param_collection(self):
        rng = np.random.default_rng(0)
        net = Sequential([Dense(3, 4, rng), ReLU(), Dense(4, 2, rng)])
        assert len(net.params_and_grads()) == 4  # two W, two b


class TestTwoBranch:
    def _net(self):
        rng = np.random.default_rng(1)
        a = Sequential([Flatten(), Dense(4, 3, rng)])
        b = Sequential([Dense(2, 3, rng)])
        head = Sequential([Dense(6, 1, rng)])
        return TwoBranch(a, b, head)

    def test_forward_concatenates(self):
        net = self._net()
        out = net.forward(np.ones((5, 2, 2)), np.ones((5, 2)))
        assert out.shape == (5, 1)

    def test_batch_mismatch(self):
        net = self._net()
        with pytest.raises(ModelError):
            net.forward(np.ones((5, 2, 2)), np.ones((4, 2)))

    def test_backward_routes_both_branches(self):
        net = self._net()
        xa, xb = np.ones((3, 2, 2)), np.ones((3, 2))
        net.forward(xa, xb, training=True)
        ga, gb = net.backward(np.ones((3, 1)))
        assert ga.shape == xa.shape and gb.shape == xb.shape

    def test_backward_before_forward(self):
        with pytest.raises(ModelError):
            self._net().backward(np.ones((3, 1)))


class TestTrainEpochs:
    def test_loss_decreases_on_linear_task(self):
        rng = np.random.default_rng(2)
        X = rng.random((200, 4))
        y = (X @ np.array([1.0, -2.0, 0.5, 3.0]))[:, None]
        net = Sequential([Dense(4, 8, rng), ReLU(), Dense(8, 1, rng)])
        loss = MSELoss()

        def fwd_bwd(batch, targets):
            (xb,) = batch
            value = loss.forward(net.forward(xb, training=True), targets)
            net.backward(loss.backward())
            return value

        history = train_epochs(
            (X,), y, fwd_bwd, net.params_and_grads, Adam(1e-2), 30, 32, rng
        )
        assert history[-1] < 0.1 * history[0]

    def test_input_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError):
            train_epochs(
                (np.ones((5, 2)),), np.ones((4, 1)), lambda b, t: 0.0,
                list, Adam(), 1, 2, rng,
            )
