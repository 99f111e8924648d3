"""Tests for evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.ml import accuracy, kendall_tau, mape, pcc


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            accuracy([1, 2], [1, 2, 3])

    def test_empty(self):
        with pytest.raises(ModelError):
            accuracy([], [])


class TestMAPE:
    def test_exact_is_zero(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        # |10-9|/10 = 10%, |20-22|/20 = 10% -> mean 10%
        assert mape([10.0, 20.0], [9.0, 22.0]) == pytest.approx(10.0)

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(ModelError):
            mape([0.0, 1.0], [1.0, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(0.01, 100.0))
    def test_scale_invariant(self, scale):
        t = np.array([1.0, 2.0, 4.0])
        p = np.array([1.1, 1.9, 4.4])
        assert mape(t, p) == pytest.approx(mape(t * scale, p * scale))


class TestPCC:
    def test_identity(self):
        x = np.arange(10.0)
        assert pcc(x, x) == pytest.approx(1.0)

    def test_negation(self):
        x = np.arange(10.0)
        assert pcc(x, -x) == pytest.approx(-1.0)

    def test_constant_inputs(self):
        assert pcc([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == 1.0
        assert pcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random(20), rng.random(20)
        assert -1.0 <= pcc(a, b) <= 1.0


class TestKendall:
    def test_same_order(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
