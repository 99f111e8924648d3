"""Model serialization: save -> load must be bit-identical.

Every estimator the framework trains (GBDT classifier/regressor, the
NumPy NN classifiers and regressors) round-trips through the JSON model
state and reproduces its in-memory predictions exactly --
``np.array_equal``, not ``allclose`` -- because a served model must be
indistinguishable from the one that was validated at training time.
"""

import json

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import (
    ConvMLPRegressor,
    ConvNetClassifier,
    FcNetClassifier,
    GBDTClassifier,
    GBRegressor,
    MLPRegressor,
    model_from_state,
    model_state,
)
from repro.ml.serialize import decode_array, encode_array
from repro.stencil.generator import generate_population
from repro.stencil.tensorize import assign_tensor

RNG = np.random.default_rng(7)
X = RNG.normal(size=(48, 12))
Y_CLS = RNG.integers(0, 4, size=48)
Y_REG = np.abs(RNG.normal(size=48)) + 0.1
STENCILS = generate_population(2, 16, seed=7)
TENSORS = np.stack([assign_tensor(s, 4) for s in STENCILS])
T_CLS = RNG.integers(0, 3, size=len(STENCILS))
AUX = RNG.normal(size=(len(STENCILS), 6))
T_REG = np.abs(RNG.normal(size=len(STENCILS))) + 0.1
TENSORS_3D = RNG.integers(0, 2, size=(12, 9, 9, 9)).astype(np.float64)
T_CLS_3D = RNG.integers(0, 3, size=12)
AUX_3D = RNG.normal(size=(12, 6))
T_REG_3D = np.abs(RNG.normal(size=12)) + 0.1

#: ``(tensors, labels, aux, times_ms)`` for the convolutional networks,
#: which take 2-D and 3-D stencil tensors alike.
CONV_DATA = (
    (TENSORS, T_CLS, AUX, T_REG),
    (TENSORS_3D, T_CLS_3D, AUX_3D, T_REG_3D),
)


def round_trip(model):
    """Full wire round trip: state -> JSON text -> state -> model."""
    doc = json.loads(json.dumps(model_state(model)))
    return model_from_state(doc)


class TestArrayCodec:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
            np.array([1, -2, 3], dtype=np.int64),
            RNG.normal(size=(2, 3, 4)),
            np.array([], dtype=np.float64),
        ],
    )
    def test_round_trip_exact(self, arr):
        out = decode_array(json.loads(json.dumps(encode_array(np.asarray(arr)))))
        arr = np.asarray(arr)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_extreme_floats_survive(self):
        arr = np.array([1e-308, 1e308, np.pi, -0.0, np.nextafter(1.0, 2.0)])
        out = decode_array(json.loads(json.dumps(encode_array(arr)))
                           )
        assert arr.tobytes() == out.tobytes()


class TestEstimatorRoundTrips:
    def test_gbdt_classifier(self):
        model = GBDTClassifier(n_rounds=8, max_depth=3, seed=3)
        model.fit(X, Y_CLS)
        clone = round_trip(model)
        assert np.array_equal(
            model.decision_function(X), clone.decision_function(X)
        )
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_gb_regressor(self):
        model = GBRegressor(n_rounds=8, max_depth=3, seed=3)
        model.fit(X, Y_REG)
        clone = round_trip(model)
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_mlp_regressor(self):
        model = MLPRegressor(n_layers=2, layer_size=16, epochs=2, seed=3)
        model.fit(X, Y_REG)
        clone = round_trip(model)
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_convnet_classifier(self):
        for tensors, labels, _, _ in CONV_DATA:
            model = ConvNetClassifier(
                n_classes=3, channels=(2, 3), dense=8, epochs=2, seed=3
            )
            model.fit(tensors, labels)
            clone = round_trip(model)
            assert np.array_equal(
                model.predict_proba(tensors), clone.predict_proba(tensors)
            )
            assert np.array_equal(
                model.predict(tensors), clone.predict(tensors)
            )

    def test_fcnet_classifier(self):
        model = FcNetClassifier(n_classes=3, hidden=(16, 8), epochs=2, seed=3)
        model.fit(TENSORS, T_CLS)
        clone = round_trip(model)
        assert np.array_equal(
            model.predict_proba(TENSORS), clone.predict_proba(TENSORS)
        )

    def test_convmlp_regressor(self):
        for tensors, _, aux, times_ms in CONV_DATA:
            model = ConvMLPRegressor(
                channels=(2, 3), mlp_hidden=(8,), head_hidden=8, epochs=2,
                seed=3,
            )
            model.fit(tensors, aux, times_ms)
            clone = round_trip(model)
            assert np.array_equal(
                model.predict(tensors, aux), clone.predict(tensors, aux)
            )


class TestStateValidation:
    def test_unknown_class_rejected(self):
        with pytest.raises(ModelError, match="unknown model class"):
            model_from_state({"class": "RandomForest", "state": {}})

    def test_malformed_doc_rejected(self):
        with pytest.raises(ModelError):
            model_from_state({"state": {}})
