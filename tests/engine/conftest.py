"""Shared engine-test fixtures."""

import numpy as np
import pytest

from repro.engine import EvalRequest
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.params import default_setting, sample_setting
from repro.stencil.generator import generate_population


@pytest.fixture(scope="module")
def workload():
    """A campaign-shaped request list: two random 2-D stencils x every
    OC x the default setting plus two sampled ones, crashes included."""
    rng = np.random.default_rng(5)
    return [
        EvalRequest(stencil, oc, setting)
        for stencil in generate_population(2, 2, seed=5)
        for oc in ALL_OCS
        for setting in [default_setting()]
        + [sample_setting(oc, 2, rng) for _ in range(2)]
    ]
