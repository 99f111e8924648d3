"""The tune() front door and its registered strategies.

Covers: every registered strategy finds a valid optimum through the same
driver; results are deterministic for a fixed (strategy, seed, budget)
regardless of backend flavor; the budget as a hard cap on observed
trials; and front-door misuse surfacing as TuningError.
"""

import pytest

from repro.engine import CachingBackend, ScalarBackend, VectorBackend, make_backend
from repro.errors import TuningError
from repro.gpu import GPUSimulator
from repro.optimizations import OC
from repro.stencil import box, get
from repro.tuning import (
    GeneticStrategy,
    ParameterSpace,
    RandomStrategy,
    TuneResult,
    available_strategies,
    make_strategy,
    tune,
    tune_lockstep,
)

STENCIL = get("star2d2r")
ST = OC.parse("ST")

ZOO = ("random", "coordinate", "genetic")


class TestZoo:
    def test_registry_is_complete(self):
        assert available_strategies() == tuple(sorted(ZOO))

    def test_unknown_strategy(self):
        with pytest.raises(TuningError, match="unknown strategy"):
            make_strategy("gradient-descent")
        with pytest.raises(TuningError, match="unknown strategy"):
            tune(STENCIL, oc=ST, gpu="V100", strategy="nope")

    def test_bad_strategy_options(self):
        with pytest.raises(TuningError, match="strategy 'random'"):
            make_strategy("random", temperature=3)

    @pytest.mark.parametrize("name", ZOO)
    def test_every_strategy_tunes(self, name):
        result = tune(
            STENCIL, oc=ST, gpu="2080Ti", strategy=name, budget=24, seed=5
        )
        assert isinstance(result, TuneResult)
        assert result.ok and result.strategy == name
        assert result.trials > 0 and result.crashed >= 0
        assert len(result.trial_log) == result.trials
        # The reported best is a real measurement.
        sim = GPUSimulator("2080Ti")
        assert sim.time(STENCIL, ST, result.best_setting) == pytest.approx(
            result.best_time_ms
        )

    @pytest.mark.parametrize("name", ZOO)
    def test_deterministic_given_seed(self, name):
        a = tune(STENCIL, oc=ST, gpu="P100", strategy=name, budget=16, seed=9)
        b = tune(STENCIL, oc=ST, gpu="P100", strategy=name, budget=16, seed=9)
        assert a.best_setting == b.best_setting
        assert a.best_time_ms == b.best_time_ms
        assert a.trials == b.trials
        assert [r.setting.as_tuple() for r in a.trial_log] == [
            r.setting.as_tuple() for r in b.trial_log
        ]

    def test_strategies_use_distinct_streams(self):
        # Same seed, different strategies: different named RNG streams,
        # so their initial designs must differ.  (``random`` drops the
        # strategy component of its stream by design.)
        a = tune(STENCIL, oc=ST, gpu="P100", strategy="coordinate", budget=12, seed=2)
        b = tune(STENCIL, oc=ST, gpu="P100", strategy="genetic", budget=12, seed=2)
        assert [r.setting.as_tuple() for r in a.trial_log[:8]] != [
            r.setting.as_tuple() for r in b.trial_log[:8]
        ]

    def test_crash_only_oc_reports_not_ok(self):
        # TB without ST cannot run on 3-D order-4 stencils.
        result = tune(
            box(3, 4), oc=OC.parse("TB"), gpu="V100", strategy="random",
            budget=6, seed=0,
        )
        assert not result.ok
        assert result.best_setting is None
        assert result.crashed == result.trials > 0
        assert "crashed" in result.describe()


class TestBackendIndependence:
    """trials and the draw sequence never depend on the substrate."""

    KINDS = (
        lambda: ScalarBackend("A100"),
        lambda: VectorBackend("A100"),
        lambda: CachingBackend(VectorBackend("A100")),
    )

    @pytest.mark.parametrize("name", ("random", "genetic"))
    def test_same_decisions_on_every_backend(self, name):
        results = [
            tune(
                STENCIL, oc=ST, backend=kind(), strategy=name, budget=18,
                seed=4,
            )
            for kind in self.KINDS
        ]
        ref = results[0]
        for other in results[1:]:
            assert other.best_setting == ref.best_setting
            assert other.trials == ref.trials
            # Every kind evaluates the one array pipeline, so times are
            # bit-identical (the engine contract).
            assert other.best_time_ms == ref.best_time_ms
        assert results[1].best_time_ms == results[2].best_time_ms


class TestLockstep:
    OCS = tuple(OC.parse(n) for n in ("naive", "ST", "ST_RT_TB", "CM"))

    @staticmethod
    def _summary(result):
        return (
            result.oc, result.best_setting, result.best_time_ms, result.trials,
            result.crashed,
            [(r.setting.as_tuple(), r.time_ms) for r in result.trial_log],
        )

    @pytest.mark.parametrize("grid", (None, (1024, 512)))
    def test_each_job_equals_tune_alone(self, grid):
        backend = make_backend("vector", "V100")
        together = tune_lockstep(
            STENCIL, [(oc, RandomStrategy(3)) for oc in self.OCS],
            backend=backend, seed=7, grid=grid,
        )
        for oc, result in zip(self.OCS, together):
            alone = tune(
                STENCIL, oc=oc, backend=backend, strategy="random",
                n_settings=3, seed=7, grid=grid,
            )
            assert self._summary(result) == self._summary(alone)


class TestBudgetAccounting:
    def test_budget_is_a_hard_cap_between_frontiers(self):
        result = tune(
            STENCIL, oc=ST, gpu="V100", strategy="genetic", budget=20,
            seed=1, population=8, generations=50,
        )
        # 51 generations of 8 would schedule 408 trials; the driver
        # stops at the first frontier (one generation's fresh
        # individuals) at/after the budget.
        assert 20 <= result.trials <= 20 + 8
        assert len(result.trial_log) == result.trials

    def test_invalid_budget(self):
        with pytest.raises(TuningError, match="budget"):
            tune(STENCIL, oc=ST, gpu="V100", budget=0)

    @pytest.mark.parametrize(
        "inputs", [{"n_settings": 0}, {"budget": 0.5}],
        ids=["n_settings-0", "budget-0.5"],
    )
    def test_random_search_without_samples_fails_before_measuring(self, inputs):
        vector = make_backend("vector", "V100")

        class NoMeasurements:
            spec, info = vector.spec, vector.info

            def evaluate_batch(self, requests):
                raise AssertionError("an empty search reached the engine")

        with pytest.raises(TuningError, match="n_settings >= 1, got 0"):
            tune(STENCIL, oc=ST, backend=NoMeasurements(), strategy="random",
                 **inputs)


class TestFrontDoorValidation:
    @pytest.mark.parametrize("kind", ("parallel", "bogus", "cached", "vector"))
    def test_unknown_backend_kind_is_named(self, kind):
        # A kind string is not a backend: tune() takes instances only.
        with pytest.raises(TuningError, match="str is neither a Backend"):
            tune(STENCIL, oc=ST, gpu="V100", backend=kind, budget=4)

    def test_stencil_needs_oc(self):
        with pytest.raises(TuningError, match="oc="):
            tune(STENCIL, gpu="V100")

    def test_space_needs_stencil(self):
        space = ParameterSpace.for_oc(ST, ndim=2)
        with pytest.raises(TuningError, match="stencil="):
            tune(space, oc=ST, gpu="V100")

    def test_space_with_stencil_works(self):
        space = ParameterSpace.for_oc(
            ST, ndim=2, restrictions=["block_x <= 64"]
        )
        result = tune(
            space, stencil=STENCIL, oc=ST, gpu="V100", budget=6, seed=0
        )
        assert result.ok
        assert all(r.setting["block_x"] <= 64 for r in result.trial_log)

    def test_restrictions_flow_from_tune(self):
        result = tune(
            STENCIL, oc=ST, gpu="V100", budget=6, seed=0,
            restrictions=("block_x <= 32",),
        )
        assert result.ok
        assert all(r.setting["block_x"] <= 32 for r in result.trial_log)

    def test_restrictions_rejected_with_explicit_space(self):
        space = ParameterSpace.for_oc(ST, ndim=2)
        with pytest.raises(TuningError, match="ParameterSpace constructor"):
            tune(
                space, stencil=STENCIL, oc=ST, gpu="V100",
                restrictions=("block_x <= 32",),
            )

    def test_needs_backend_or_gpu(self):
        with pytest.raises(TuningError, match="backend= or gpu="):
            tune(STENCIL, oc=ST)

    def test_options_require_strategy_name(self):
        with pytest.raises(TuningError, match="strategy \\*name\\*"):
            tune(
                STENCIL, oc=ST, gpu="V100",
                strategy=GeneticStrategy(), population=8,
            )

    def test_wrong_space_type(self):
        with pytest.raises(TuningError, match="Stencil or ParameterSpace"):
            tune({"block_x": (32,)}, oc=ST, gpu="V100")

