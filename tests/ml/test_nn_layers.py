"""Tests for NN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.nn import ConvND, Dense, Flatten, MSELoss, ReLU, Sequential
from repro.ml.nn import SoftmaxCrossEntropy


def numerical_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        hi = f()
        x[i] = old - eps
        lo = f()
        x[i] = old
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


class TestDense:
    def test_forward_shape(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng)
        assert layer.forward(np.ones((5, 4))).shape == (5, 3)

    def test_shape_validation(self):
        layer = Dense(4, 3, np.random.default_rng(0))
        with pytest.raises(ModelError):
            layer.forward(np.ones((5, 2)))

    def test_gradcheck_weights(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))
        loss = MSELoss()

        def f():
            return loss.forward(layer.forward(x, training=True), target)

        f()
        layer.backward(loss.backward())
        num = numerical_grad(f, layer.W)
        assert np.allclose(layer.dW, num, atol=1e-5)

    def test_gradcheck_input(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))
        loss = MSELoss()

        def f():
            return loss.forward(layer.forward(x, training=True), target)

        f()
        dx = layer.backward(loss.backward())
        num = numerical_grad(f, x)
        assert np.allclose(dx, num, atol=1e-5)


class TestReLUFlatten:
    def test_relu_forward(self):
        r = ReLU()
        out = r.forward(np.array([[-1.0, 2.0]]), training=True)
        assert out.tolist() == [[0.0, 2.0]]

    def test_relu_backward_mask(self):
        r = ReLU()
        r.forward(np.array([[-1.0, 2.0]]), training=True)
        g = r.backward(np.array([[5.0, 5.0]]))
        assert g.tolist() == [[0.0, 5.0]]

    def test_flatten_round_trip(self):
        f = Flatten()
        x = np.arange(24.0).reshape(2, 3, 4)
        out = f.forward(x, training=True)
        assert out.shape == (2, 12)
        assert f.backward(out).shape == x.shape


class TestConvND:
    def test_output_shape_2d(self):
        rng = np.random.default_rng(0)
        conv = ConvND(1, 4, (9, 9), 3, rng)
        out = conv.forward(np.ones((2, 1, 9, 9)))
        assert out.shape == (2, 4, 7, 7)

    def test_output_shape_3d(self):
        rng = np.random.default_rng(0)
        conv = ConvND(1, 2, (9, 9, 9), 3, rng)
        out = conv.forward(np.ones((1, 1, 9, 9, 9)))
        assert out.shape == (1, 2, 7, 7, 7)

    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(3)
        conv = ConvND(1, 1, (5, 5), 3, rng)
        x = rng.standard_normal((1, 1, 5, 5))
        out = conv.forward(x)
        K = conv.W[:, 0].reshape(3, 3)
        manual = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                manual[i, j] = (x[0, 0, i : i + 3, j : j + 3] * K).sum()
        assert np.allclose(out[0, 0], manual + conv.b[0])

    @pytest.mark.parametrize(
        "channels,spatial,kernel",
        [
            (1, (9, 9), 3),
            (4, (9, 9), 3),
            (1, (9, 9, 9), 3),
            (3, (9, 9, 9), 3),
            (2, (7, 5, 6), 2),
        ],
    )
    def test_vectorized_index_matches_loop(self, channels, spatial, kernel):
        """The outer-sum gather table equals the per-element reference."""
        conv = ConvND(channels, 2, spatial, kernel, np.random.default_rng(1))
        assert np.array_equal(conv._index, conv._build_index_loop())

    def test_kernel_too_large(self):
        with pytest.raises(ModelError):
            ConvND(1, 1, (2, 2), 3, np.random.default_rng(0))

    def test_wrong_input_shape(self):
        conv = ConvND(1, 1, (5, 5), 3, np.random.default_rng(0))
        with pytest.raises(ModelError):
            conv.forward(np.ones((1, 2, 5, 5)))

    def test_gradcheck_weights_2d(self):
        rng = np.random.default_rng(4)
        conv = ConvND(1, 2, (4, 4), 3, rng)
        x = rng.standard_normal((2, 1, 4, 4))
        target = rng.standard_normal((2, 2, 2, 2))
        loss = MSELoss()

        def f():
            return loss.forward(
                conv.forward(x, training=True).reshape(2, -1),
                target.reshape(2, -1),
            )

        f()
        conv.backward(loss.backward().reshape(2, 2, 2, 2))
        num = numerical_grad(f, conv.W)
        assert np.allclose(conv.dW, num, atol=1e-5)

    def test_gradcheck_input_3d(self):
        rng = np.random.default_rng(5)
        conv = ConvND(1, 1, (4, 4, 4), 3, rng)
        x = rng.standard_normal((1, 1, 4, 4, 4))
        target = rng.standard_normal((1, 1, 2, 2, 2))
        loss = MSELoss()

        def f():
            return loss.forward(
                conv.forward(x, training=True).reshape(1, -1),
                target.reshape(1, -1),
            )

        f()
        dx = conv.backward(loss.backward().reshape(1, 1, 2, 2, 2))
        num = numerical_grad(f, x)
        assert np.allclose(dx, num, atol=1e-5)


class TestLosses:
    def test_softmax_ce_known_value(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[0.0, 0.0]])
        assert loss.forward(logits, np.array([0])) == pytest.approx(np.log(2))

    def test_softmax_ce_gradcheck(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 2, 3])
        loss = SoftmaxCrossEntropy()

        def f():
            return loss.forward(logits, labels)

        f()
        g = loss.backward()
        num = numerical_grad(f, logits)
        assert np.allclose(g, num, atol=1e-6)

    def test_mse_gradcheck(self):
        rng = np.random.default_rng(7)
        pred = rng.standard_normal((4, 1))
        target = rng.standard_normal((4, 1))
        loss = MSELoss()

        def f():
            return loss.forward(pred, target)

        f()
        num = numerical_grad(f, pred)
        assert np.allclose(loss.backward(), num, atol=1e-6)


class TestSequentialGradFlow:
    def test_end_to_end_gradcheck(self):
        rng = np.random.default_rng(8)
        net = Sequential(
            [Dense(5, 4, rng), ReLU(), Dense(4, 2, rng)]
        )
        x = rng.standard_normal((3, 5))
        target = rng.standard_normal((3, 2))
        loss = MSELoss()

        def f():
            return loss.forward(net.forward(x, training=True), target)

        f()
        net.backward(loss.backward())
        first = net.layers[0]
        num = numerical_grad(f, first.W)
        assert np.allclose(first.dW, num, atol=1e-5)
