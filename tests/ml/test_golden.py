"""Fitted models, pinned bit for bit.

``golden_models.json`` holds digests frozen by ``make_golden.py``.  The
boosting digests come from the tree implementation that re-sorted every
column at every node: the presorted, all-feature split search must grow
exactly the same trees.  The 3-D network digests pin weight init,
minibatch order and the Adam steps of the convolutional estimators.  Any
mismatch is a real change in a threshold, a leaf value, a tie-break or a
weight, not float noise.
"""

import json

import pytest

from repro.ml.serialize import model_state
from repro.store import checksum
from tests.ml.make_golden import GOLDEN_PATH, fitted_models

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def models():
    return fitted_models()


@pytest.mark.parametrize("name", sorted(GOLDEN["models"]))
def test_fitted_model_digest(models, name):
    assert checksum(model_state(models[name])) == GOLDEN["models"][name]
