"""Regenerate the frozen digests of fitted models.

``test_golden.py`` pins two things:

- the exact-greedy split search of :class:`repro.ml.RegressionTree`
  through the estimators built on it: :class:`~repro.ml.GBRegressor`
  (with and without row subsampling) and :class:`~repro.ml.GBDTClassifier`.
  Their digests were written from the tree implementation that re-sorted
  every column at every node, before the presorted search replaced it.
  The training data is tie-heavy and integer coded, as the campaign's
  encoded OC parameters are, so the tie-break rules of the split search
  (lowest feature, leftmost cut) decide many of the splits.
- the 3-D convolutional networks (:class:`~repro.ml.nn.ConvNetClassifier`
  and :class:`~repro.ml.nn.ConvMLPRegressor` on 9^3 tensors), whose
  weight init, minibatch order and Adam steps all feed the digest.
  ``tests/core/golden_methods.json`` pins only the 2-D networks.

Regenerate only from a commit known to reproduce those fits::

    PYTHONPATH=src python tests/ml/make_golden.py

Each model is stored as ``repro.store.checksum(model_state(model))`` --
a digest over every threshold, leaf value and weight.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ml import GBDTClassifier, GBRegressor
from repro.ml.nn import ConvMLPRegressor, ConvNetClassifier
from repro.ml.serialize import model_state
from repro.store import checksum

GOLDEN_PATH = Path(__file__).with_name("golden_models.json")

#: Per-column cardinalities; the last two columns repeat the first two so
#: that equal-gain splits on identical columns occur.
LEVELS = (2, 3, 4, 5, 8, 2, 6, 3)
N_ROWS = 240
N_ROUNDS = 12
SEED = 11
#: Rows of the 3-D tensor data; as small as the 3-D network tests.
TENSOR_ROWS = 40


def training_data() -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(X, y_regression, y_class)`` with duplicated integer columns."""
    rng = np.random.default_rng(SEED)
    cols = [rng.integers(0, k, size=N_ROWS) for k in LEVELS]
    X = np.column_stack(cols + cols[:2]).astype(np.float64)
    y = (
        1.5 * X[:, 0] + np.log2(1.0 + X[:, 4]) - 0.5 * X[:, 2] * X[:, 3]
        + 0.25 * rng.standard_normal(N_ROWS)
    )
    labels = ((X[:, 1] + X[:, 2] + (X[:, 6] > 2)) % 4).astype(np.int64)
    return X, y, labels


def tensor_data() -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """``(tensors, labels, aux, times_ms)`` over binary 9^3 tensors."""
    rng = np.random.default_rng(SEED)
    T = rng.integers(0, 2, size=(TENSOR_ROWS, 9, 9, 9)).astype(np.float64)
    labels = (T[:, 4, 4, 4] > 0).astype(np.int64)
    aux = rng.random((TENSOR_ROWS, 4))
    times_ms = np.exp2(aux[:, 0] + T[:, 3:6, 3:6, 3:6].sum(axis=(1, 2, 3)) / 9)
    return T, labels, aux, times_ms


def fitted_models() -> "dict[str, object]":
    """Every pinned estimator, fitted on :func:`training_data` or
    :func:`tensor_data`."""
    X, y, labels = training_data()
    T, t_labels, aux, times_ms = tensor_data()
    return {
        "convnet_3d": ConvNetClassifier(
            n_classes=2, channels=(4, 8), epochs=3, seed=SEED
        ).fit(T, t_labels),
        "convmlp_3d": ConvMLPRegressor(
            channels=(2, 4), epochs=2, seed=SEED
        ).fit(T, aux, times_ms),
        "gbr": GBRegressor(n_rounds=N_ROUNDS, seed=SEED).fit(X, y),
        "gbr_subsample": GBRegressor(
            n_rounds=N_ROUNDS, subsample=0.7, seed=SEED
        ).fit(X, y),
        "gbdt": GBDTClassifier(n_rounds=N_ROUNDS, seed=SEED).fit(X, labels),
    }


def main() -> None:
    golden = {
        "models": {
            name: checksum(model_state(model))
            for name, model in fitted_models().items()
        },
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
