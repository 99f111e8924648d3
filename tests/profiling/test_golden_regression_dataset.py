"""The regression dataset of a fixed campaign, pinned byte for byte.

``golden_regression_dataset.json`` was frozen by
``make_golden_regression_dataset.py`` from the per-row assembly loop; the
bulk assembly must produce the same arrays, provenance lists and encoded
settings exactly.
"""

import json

import pytest

from tests.profiling.make_golden_regression_dataset import GOLDEN_PATH, pins

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return pins()


@pytest.mark.parametrize("build", sorted(GOLDEN))
def test_regression_dataset_pin(current, build):
    assert current[build] == GOLDEN[build]
