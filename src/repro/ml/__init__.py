"""Machine-learning substrate: metrics, GBDT, neural and analytical models."""

from . import nn
from .analytical import (
    AnalyticalPredictor,
    AnalyticalRecommendation,
    AnalyticalSelector,
)
from .gbdt import GBDTClassifier, GBRegressor
from .metrics import accuracy, kendall_tau, mape, pcc
from .nn import ConvMLPRegressor, ConvNetClassifier, FcNetClassifier, MLPRegressor
from .preprocess import LogTimeTransform, MaxNormalizer, augment_features, one_hot
from .serialize import model_from_state, model_state
from .tree import RegressionTree

__all__ = [
    "model_from_state",
    "model_state",
    "AnalyticalPredictor",
    "AnalyticalRecommendation",
    "AnalyticalSelector",
    "ConvMLPRegressor",
    "ConvNetClassifier",
    "FcNetClassifier",
    "GBDTClassifier",
    "GBRegressor",
    "LogTimeTransform",
    "MLPRegressor",
    "MaxNormalizer",
    "RegressionTree",
    "accuracy",
    "augment_features",
    "kendall_tau",
    "mape",
    "nn",
    "one_hot",
    "pcc",
]
