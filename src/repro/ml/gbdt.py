"""Gradient-boosted decision trees: GBRegressor and GBDT classifier.

The paper builds these with XGBoost v1.4.2 [5]; this is a from-scratch
NumPy reimplementation of the same algorithm family: Newton boosting with
shrinkage, row subsampling and L2-regularized leaves, squared loss for
regression and softmax cross-entropy (one tree per class per round) for
multiclass classification.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError, NotFittedError
from .hyper import from_hyper, hyper_state
from .preprocess import one_hot
from .tree import RegressionTree, presort


class _GBBase:
    """Shared hyperparameters and helpers."""

    def __init__(
        self,
        n_rounds: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        seed: int = 0,
    ):
        if not 0.0 < subsample <= 1.0:
            raise ModelError(f"subsample must be in (0, 1], got {subsample}")
        if n_rounds < 1:
            raise ModelError(f"n_rounds must be >= 1, got {n_rounds}")
        self.n_rounds = int(n_rounds)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_child_weight = float(min_child_weight)
        self.reg_lambda = float(reg_lambda)
        self.gamma = float(gamma)
        self.subsample = float(subsample)
        self.seed = int(seed)

    def _tree_params(self) -> dict:
        return dict(
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )

    def _sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.subsample >= 1.0:
            return np.arange(n)
        k = max(2, int(round(self.subsample * n)))
        return rng.choice(n, size=k, replace=False)

    def _rounds(self, X: np.ndarray, rng: np.random.Generator):
        """Yield each boosting round's sampled rows and ``X[rows]``
        presorted: once per fit without subsampling, else once per round."""
        full = presort(X) if self.subsample >= 1.0 else None
        for _ in range(self.n_rounds):
            rows = self._sample_rows(X.shape[0], rng)
            yield rows, full if full is not None else presort(X[rows])


class GBRegressor(_GBBase):
    """Gradient boosting for regression (squared loss)."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        _check_rows(X, y)
        if not np.isfinite(y).all():
            raise ModelError("regression target has NaN or infinite values")
        rng = np.random.default_rng(self.seed)
        self.base_score_ = float(y.mean())
        self.trees_: list[RegressionTree] = []
        pred = np.full(y.shape[0], self.base_score_)
        for rows, data in self._rounds(X, rng):
            grad = pred - y  # d/dpred of 0.5*(pred - y)^2
            # Squared loss has unit hessians (h=None).
            tree = RegressionTree(**self._tree_params())._fit_sorted(
                data, grad[rows], None
            )
            self.trees_.append(tree)
            pred += self.learning_rate * tree.predict(X)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "trees_"):
            raise NotFittedError("GBRegressor.predict before fit")
        X = np.asarray(X, dtype=np.float64)
        pred = np.full(X.shape[0], self.base_score_)
        for tree in self.trees_:
            pred += self.learning_rate * tree.predict(X)
        return pred

    def state_dict(self) -> dict:
        """Fitted state for :mod:`repro.ml.serialize` (see there for the
        bit-identity contract)."""
        if not hasattr(self, "trees_"):
            raise NotFittedError("GBRegressor.state_dict before fit")
        return {
            "hyper": hyper_state(self),
            "base_score": self.base_score_,
            "trees": [t.to_arrays() for t in self.trees_],
        }

    @classmethod
    def from_state(cls, state: dict) -> "GBRegressor":
        model = from_hyper(cls, state["hyper"])
        model.base_score_ = float(state["base_score"])
        model.trees_ = [
            RegressionTree.from_arrays(a, **model._tree_params())
            for a in state["trees"]
        ]
        return model


class GBDTClassifier(_GBBase):
    """Multiclass gradient boosting with a softmax objective.

    One tree per class per round, fitted to the softmax gradients
    ``p_k - y_k`` with hessians ``p_k (1 - p_k)``.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBDTClassifier":
        X = np.asarray(X, dtype=np.float64)
        labels = np.asarray(y, dtype=np.int64).ravel()
        _check_rows(X, labels)
        if labels.min() < 0:
            raise ModelError("negative class labels")
        self.n_classes_ = int(labels.max()) + 1
        rng = np.random.default_rng(self.seed)
        Y = one_hot(labels, self.n_classes_)
        n = labels.shape[0]
        F = np.zeros((n, self.n_classes_))
        self.trees_: list[list[RegressionTree]] = []
        for rows, data in self._rounds(X, rng):
            P = _softmax(F)
            round_trees: list[RegressionTree] = []
            for k in range(self.n_classes_):
                grad = P[:, k] - Y[:, k]
                hess = np.maximum(P[:, k] * (1.0 - P[:, k]), 1e-6)
                tree = RegressionTree(**self._tree_params())._fit_sorted(
                    data, grad[rows], hess[rows]
                )
                round_trees.append(tree)
                F[:, k] += self.learning_rate * tree.predict(X)
            self.trees_.append(round_trees)
        return self

    def state_dict(self) -> dict:
        """Fitted state for :mod:`repro.ml.serialize`."""
        if not hasattr(self, "trees_"):
            raise NotFittedError("GBDTClassifier.state_dict before fit")
        return {
            "hyper": hyper_state(self),
            "n_classes": self.n_classes_,
            "trees": [
                [t.to_arrays() for t in round_trees]
                for round_trees in self.trees_
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "GBDTClassifier":
        model = from_hyper(cls, state["hyper"])
        model.n_classes_ = int(state["n_classes"])
        params = model._tree_params()
        model.trees_ = [
            [RegressionTree.from_arrays(a, **params) for a in round_trees]
            for round_trees in state["trees"]
        ]
        return model

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class scores ``(n, n_classes)``."""
        if not hasattr(self, "trees_"):
            raise NotFittedError("GBDTClassifier before fit")
        X = np.asarray(X, dtype=np.float64)
        F = np.zeros((X.shape[0], self.n_classes_))
        for round_trees in self.trees_:
            for k, tree in enumerate(round_trees):
                F[:, k] += self.learning_rate * tree.predict(X)
        return F

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        return _softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        return np.argmax(self.decision_function(X), axis=1)


def _check_rows(X: np.ndarray, y: np.ndarray) -> None:
    if X.shape[0] != y.shape[0]:
        raise ModelError(f"X has {X.shape[0]} rows, y has {y.shape[0]}")
    if y.shape[0] == 0:
        raise ModelError("cannot fit on zero rows")


def _softmax(F: np.ndarray) -> np.ndarray:
    z = F - F.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
