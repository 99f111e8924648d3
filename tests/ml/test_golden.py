"""Fitted boosting models, pinned bit for bit.

``golden_models.json`` holds digests frozen by ``make_golden.py`` from
the tree implementation that re-sorted every column at every node.  The
presorted, all-feature split search must grow exactly the same trees, so
any mismatch here is a real change in a threshold, a leaf value or a
tie-break, not float noise.
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
