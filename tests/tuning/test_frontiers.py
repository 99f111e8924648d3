"""How many settings the random strategy sends per engine batch.

Only a backend that prices a batch with array math gets speculative
frontiers (settings evaluated ahead of the walk, most of them never
looked at); every other backend gets exactly the settings the walk
observes.  ``golden_frontiers.json`` (see ``make_golden_frontiers.py``)
pins the vector backend's batch sizes as they were before the rule
stopped reading ``BackendInfo.caching``.
"""

import json

import pytest

from repro.analysis import AnalyticalBackend
from repro.engine import CachingBackend, ScalarBackend
from repro.ml.analytical import AnalyticalSelector
from repro.optimizations import OC
from repro.stencil import get
from repro import tuning

from ..analysis.make_golden import new_stencils
from .make_golden_frontiers import GOLDEN_PATH, BatchLog, cases


@pytest.fixture(scope="module")
def golden():
    return dict(json.loads(GOLDEN_PATH.read_text())["entries"])


@pytest.mark.parametrize("name,run", cases(), ids=[name for name, _ in cases()])
def test_vector_frontiers_pinned(golden, name, run):
    assert run() == golden[name]


class _CountingAnalytical(AnalyticalBackend):
    points = 0

    def evaluate_batch(self, requests):
        type(self).points += len(requests)
        return super().evaluate_batch(requests)


@pytest.fixture
def counting(monkeypatch):
    """Every ``AnalyticalBackend`` the selector builds counts its points."""
    monkeypatch.setattr(_CountingAnalytical, "points", 0)
    monkeypatch.setattr("repro.analysis.backend.AnalyticalBackend", _CountingAnalytical)
    results = []
    lockstep = tuning.tune_lockstep

    def recording(*args, **kwargs):
        out = lockstep(*args, **kwargs)
        results.extend(out)
        return out

    monkeypatch.setattr(tuning, "tune_lockstep", recording)
    return results


def test_analytical_selector_observes_every_point(counting):
    selector = AnalyticalSelector(seed=1)
    for stencil in new_stencils():
        selector.recommend(stencil, "MI210")
    assert counting and _CountingAnalytical.points == sum(r.trials for r in counting)


@pytest.mark.parametrize(
    "backend",
    [lambda: _CountingAnalytical("MI210"), lambda: CachingBackend(ScalarBackend("V100"))],
    ids=["analytical", "cached-scalar"],
)
def test_per_point_backends_get_exact_frontiers(backend):
    log = BatchLog(backend())
    result = tuning.tune(
        get("star2d3r"), oc=OC.parse("ST_RT"), backend=log, strategy="random", seed=2,
    )
    assert sum(log.sizes) == result.trials > 0
