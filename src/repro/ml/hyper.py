"""The ``hyper`` block of a learned estimator's state.

Every learned estimator stores each constructor argument under the
attribute of the same name, so its hyperparameters are read through the
constructor's own signature: the state cannot list a parameter the
constructor lacks or miss one it gained.  Tuples travel as JSON lists
and come back as tuples.  The module imports nothing from the
estimators, so both :mod:`repro.ml.gbdt` and :mod:`repro.ml.nn.models`
can use it without a cycle through :mod:`repro.ml.serialize`.
"""

from __future__ import annotations

import inspect


def hyper_state(model) -> dict:
    """``model``'s constructor arguments, in signature order."""
    hyper = {}
    for name in inspect.signature(type(model)).parameters:
        value = getattr(model, name)
        hyper[name] = list(value) if isinstance(value, tuple) else value
    return hyper


def from_hyper(cls, hyper: dict):
    """Construct ``cls`` from a :func:`hyper_state` block."""
    return cls(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in hyper.items()
    })
