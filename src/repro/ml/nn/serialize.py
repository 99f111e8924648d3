"""Layer/network state export for the NumPy neural models.

Networks are built at :meth:`fit` time, so a fitted estimator's identity
is its layer sequence plus the learned parameter arrays.  The helpers
here export that as plain nested dicts (arrays stay ``np.ndarray``; the
JSON codec in :mod:`repro.ml.serialize` handles byte-exact encoding) and
rebuild networks whose forward pass is bit-identical to the original:
weights are restored verbatim and every other forward-pass ingredient
(conv gather tables, layer order) is a deterministic function of the
recorded shapes.
"""

from __future__ import annotations

import numpy as np

from ...errors import ModelError
from .layers import ConvND, Dense, Flatten, Layer, ReLU
from .network import Sequential, TwoBranch

_THROWAWAY_SEED = 0


def _rng() -> np.random.Generator:
    # Constructors draw initial weights from an rng; the draws are
    # overwritten with the saved arrays immediately, so any seed works.
    return np.random.default_rng(_THROWAWAY_SEED)


def layer_state(layer: Layer) -> dict:
    """One layer as a ``{"type": ..., ...}`` dict."""
    if isinstance(layer, Dense):
        return {"type": "dense", "W": layer.W, "b": layer.b}
    if isinstance(layer, ReLU):
        return {"type": "relu"}
    if isinstance(layer, Flatten):
        return {"type": "flatten"}
    if isinstance(layer, ConvND):
        return {
            "type": "convnd",
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "spatial": list(layer.spatial),
            "kernel": layer.kernel,
            "W": layer.W,
            "b": layer.b,
        }
    raise ModelError(f"cannot serialize layer type {type(layer).__name__}")


def layer_from_state(doc: dict) -> Layer:
    """Inverse of :func:`layer_state`."""
    kind = doc.get("type")
    if kind == "dense":
        W = np.asarray(doc["W"], dtype=np.float64)
        layer = Dense(W.shape[0], W.shape[1], _rng())
        layer.W = W
        layer.b = np.asarray(doc["b"], dtype=np.float64)
        return layer
    if kind == "relu":
        return ReLU()
    if kind == "flatten":
        return Flatten()
    if kind == "convnd":
        layer = ConvND(
            int(doc["in_channels"]),
            int(doc["out_channels"]),
            tuple(int(s) for s in doc["spatial"]),
            int(doc["kernel"]),
            _rng(),
        )
        layer.W = np.asarray(doc["W"], dtype=np.float64)
        layer.b = np.asarray(doc["b"], dtype=np.float64)
        return layer
    raise ModelError(f"unknown layer type {kind!r} in network state")


def net_state(net: "Sequential | TwoBranch") -> dict:
    """A network as nested layer-state lists."""
    if isinstance(net, Sequential):
        return {
            "type": "sequential",
            "layers": [layer_state(l) for l in net.layers],
        }
    if isinstance(net, TwoBranch):
        return {
            "type": "twobranch",
            "branch_a": net_state(net.branch_a),
            "branch_b": net_state(net.branch_b),
            "head": net_state(net.head),
        }
    raise ModelError(f"cannot serialize network type {type(net).__name__}")


def net_from_state(doc: dict) -> "Sequential | TwoBranch":
    """Inverse of :func:`net_state`."""
    kind = doc.get("type")
    if kind == "sequential":
        return Sequential([layer_from_state(l) for l in doc["layers"]])
    if kind == "twobranch":
        return TwoBranch(
            net_from_state(doc["branch_a"]),
            net_from_state(doc["branch_b"]),
            net_from_state(doc["head"]),
        )
    raise ModelError(f"unknown network type {kind!r} in state")
