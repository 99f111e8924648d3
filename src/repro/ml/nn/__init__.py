"""A small NumPy neural-network library (the TensorFlow substitute)."""

from .layers import ConvND, Dense, Flatten, Layer, ReLU
from .losses import MSELoss, SoftmaxCrossEntropy
from .models import (
    ConvMLPRegressor,
    ConvNetClassifier,
    FcNetClassifier,
    MLPRegressor,
)
from .network import Sequential, TwoBranch, train_epochs
from .optimizers import Adam

__all__ = [
    "Adam",
    "ConvMLPRegressor",
    "ConvND",
    "ConvNetClassifier",
    "Dense",
    "FcNetClassifier",
    "Flatten",
    "Layer",
    "MLPRegressor",
    "MSELoss",
    "ReLU",
    "Sequential",
    "SoftmaxCrossEntropy",
    "TwoBranch",
    "train_epochs",
]
