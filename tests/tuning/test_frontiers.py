"""How many settings the tuning strategies send per engine batch.

Only a backend that prices a batch with array math gets speculative
frontiers (settings evaluated ahead of the walk, most of them never
looked at); every other backend gets exactly the settings the walk
observes, and so do budgeted descents and fault-injecting stacks.
``golden_frontiers.json`` (see ``make_golden_frontiers.py``) pins the
batch sizes.  However the frontiers are batched, every job observes the
same points in the same order.
"""

import json

import pytest

from repro.analysis import AnalyticalBackend
from repro.engine import CachingBackend, ScalarBackend, VectorBackend
from repro.ml.analytical import AnalyticalSelector
from repro.optimizations import OC
from repro.optimizations.combos import ALL_OCS
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


@pytest.mark.parametrize("stencil", ["star2d2r", "box3d2r"])
def test_speculation_changes_nothing_observable(stencil):
    # The campaign's OC set in lockstep; box3d2r crashes in ~40% of its
    # trials.  The vector backend gets whole-pass descent frontiers
    # (dropped whenever a parameter improves the setting), the scalar
    # backend exact per-parameter ones.
    def run(backend):
        log = BatchLog(backend)
        jobs = [(oc, tuning.RandomStrategy(6)) for oc in ALL_OCS]
        results = tuning.tune_lockstep(
            get(stencil), jobs, backend=log, seed=1, stencil_id=0,
        )
        observed = [
            (
                s.measurements, r.trial_log,
                s.observed, s.cost, s.crashed, s.walk_crashed,
                r.best_setting, repr(r.best_time_ms),
            )
            for (_, s), r in zip(jobs, results)
        ]
        return log.sizes, sum(r.trials for r in results), observed

    vector_sizes, trials, vector = run(VectorBackend("V100"))
    scalar_sizes, _, scalar = run(ScalarBackend("V100"))
    assert vector == scalar
    assert sum(scalar_sizes) == trials < sum(vector_sizes)
    assert len(vector_sizes) < len(scalar_sizes)
