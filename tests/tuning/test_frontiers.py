"""How many settings the tuning strategies send per engine batch.

Only a backend that prices a batch with array math gets speculative
frontiers (settings evaluated ahead of the walk, most of them never
looked at); every other backend gets exactly the settings the walk
observes, and so do budgeted descents and fault-injecting stacks.  On a
pure backend the random and coordinate walks send each distinct setting
at most once per job and answer repeats from their own results; a
fault-injecting stack is asked again for every repeat.
``golden_frontiers.json`` (see ``make_golden_frontiers.py``) pins the
batch sizes.  However the frontiers are batched, every job observes the
same points in the same order.
"""

import json
from collections import Counter

import pytest

from repro.analysis import AnalyticalBackend
from repro.engine import (
    CachingBackend, FaultBackend, ScalarBackend, VectorBackend,
)
from repro.gpu.faults import FaultConfig
from repro.ml.analytical import AnalyticalSelector
from repro.optimizations import OC
from repro.optimizations.combos import ALL_OCS
from repro.stencil import get
from repro import tuning

from ..analysis.make_golden import new_stencils
from .make_golden_frontiers import GOLDEN_PATH, BatchLog, cases


def _distinct(results) -> int:
    """Distinct settings observed, summed over tuning results."""
    return sum(len({t.setting.as_tuple() for t in r.trial_log}) for r in results)


class _Requests(BatchLog):
    """A :class:`BatchLog` that also counts each (OC, setting) it is sent."""

    def __init__(self, inner):
        super().__init__(inner)
        self.asked: Counter = Counter()

    def evaluate_batch(self, requests):
        self.asked.update((r.oc.name, r.setting.as_tuple()) for r in requests)
        return super().evaluate_batch(requests)


def _trial_logs(backend):
    """Trial logs of a campaign-shaped ``tune_lockstep`` call on *backend*:
    every OC of star2d2r at once."""
    results = tuning.tune_lockstep(
        get("star2d2r"), [(oc, tuning.RandomStrategy(6)) for oc in ALL_OCS],
        backend=backend, seed=1, stencil_id=0,
    )
    return [r.trial_log for r in results]


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
    assert counting and _CountingAnalytical.points == _distinct(counting)


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
    assert sum(log.sizes) == _distinct([result]) > 0


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
                s.observed, s.crashed, s.walk_crashed,
                r.best_setting, repr(r.best_time_ms),
            )
            for (_, s), r in zip(jobs, results)
        ]
        return log.sizes, _distinct(results), observed

    vector_sizes, distinct, vector = run(VectorBackend("V100"))
    scalar_sizes, _, scalar = run(ScalarBackend("V100"))
    assert vector == scalar
    assert sum(scalar_sizes) == distinct < sum(vector_sizes)
    assert len(vector_sizes) < len(scalar_sizes)


@pytest.mark.parametrize(
    "backend",
    [
        lambda: VectorBackend("V100"),
        lambda: CachingBackend(VectorBackend("V100")),
        lambda: AnalyticalBackend("V100"),
    ],
    ids=["vector", "cached-vector", "analytical"],
)
def test_pure_walks_price_each_setting_once(backend):
    # Descent re-walks neighbours across passes and basins; on a pure
    # backend every repeat is answered from the walk's own results.
    log = _Requests(backend())
    logs = _trial_logs(log)
    distinct = sum(len({t.setting.as_tuple() for t in trials}) for trials in logs)
    assert max(log.asked.values()) == 1
    assert sum(len(trials) for trials in logs) > distinct
    if not isinstance(log.inner, AnalyticalBackend):
        assert logs == _trial_logs(ScalarBackend("V100"))


def test_pure_coordinate_walk_prices_each_setting_once():
    log = _Requests(VectorBackend("V100"))
    result = tuning.tune(
        get("star2d2r"), oc=OC.parse("ST"), backend=log, strategy="coordinate",
        budget=40, seed=1,
    )
    scalar = tuning.tune(
        get("star2d2r"), oc=OC.parse("ST"), backend=ScalarBackend("V100"),
        strategy="coordinate", budget=40, seed=1,
    )
    assert max(log.asked.values()) == 1 and result.trials > len(log.asked)
    assert (result.trial_log, result.trials) == (scalar.trial_log, scalar.trials)


def test_faulted_stack_asks_again_for_repeats():
    # An enabled fault config makes the stack impure even at a rate that
    # never fires here: each evaluated point advances the fault schedule,
    # so every repeat the walk reads goes back to the engine.
    log = _Requests(VectorBackend("V100"))
    faulted = FaultBackend(log, FaultConfig(corrupt_rate=1e-9))
    assert not faulted.info.pure
    logs = _trial_logs(faulted)
    assert max(log.asked.values()) > 1
    assert logs == _trial_logs(VectorBackend("V100"))
