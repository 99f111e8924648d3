"""Evaluation metrics used by the paper.

- Classification accuracy (Fig. 9).
- Mean absolute percentage error, MAPE (Fig. 12/13).
- Pearson correlation coefficient, PCC (Section III-C).
- Kendall rank correlation (used by the ordinal-regression related work
  [6]; provided for the ranking ablation).
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ModelError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ModelError("empty arrays")
    return a, b


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    t, p = _check_same_shape(y_true, y_pred)
    return float((t == p).mean())


def mape(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute percentage error, in percent.

    ``y_true`` must be strictly positive (execution times are).
    """
    t, p = _check_same_shape(y_true, y_pred)
    if (t <= 0).any():
        raise ModelError("MAPE requires strictly positive targets")
    return float(100.0 * np.mean(np.abs(t - p) / t))


def pcc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation coefficient of two samples."""
    x, y = _check_same_shape(a, b)
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return 1.0 if np.allclose(x - x.mean(), y - y.mean()) else 0.0
    return float(np.corrcoef(x, y)[0, 1])


def kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    """Kendall rank correlation (tau-b via scipy)."""
    from scipy.stats import kendalltau

    x, y = _check_same_shape(a, b)
    tau = kendalltau(x, y).statistic
    return float(tau) if np.isfinite(tau) else 0.0
