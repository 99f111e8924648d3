"""The tune() front door and its strategy zoo.

Covers: every registered strategy finds a valid optimum through the same
driver; results are deterministic for a fixed (strategy, seed, budget)
regardless of backend flavor; fidelity-weighted budget accounting; and
front-door misuse surfacing as TuningError.
"""

import pytest

from repro.engine import make_backend
from repro.errors import TuningError
from repro.gpu import GPUSimulator
from repro.optimizations import OC
from repro.stencil import box, get
from repro.tuning import (
    GeneticStrategy,
    ParameterSpace,
    TuneResult,
    available_strategies,
    make_strategy,
    tune,
)

STENCIL = get("star2d2r")
ST = OC.parse("ST")

ZOO = ("random", "coordinate", "genetic", "annealing", "bayes", "halving")


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
        # The reported best is a real full-fidelity measurement.
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
        assert a.trials == b.trials and a.cost == b.cost
        assert [r.setting.as_tuple() for r in a.trial_log] == [
            r.setting.as_tuple() for r in b.trial_log
        ]

    def test_strategies_use_distinct_streams(self):
        # Same seed, different zoo members: different named RNG streams,
        # so their initial designs must differ.
        a = tune(STENCIL, oc=ST, gpu="P100", strategy="annealing", budget=12, seed=2)
        b = tune(STENCIL, oc=ST, gpu="P100", strategy="bayes", budget=12, seed=2)
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

    KINDS = ("scalar", "vector", "cached")

    @pytest.mark.parametrize("name", ("random", "genetic", "halving"))
    def test_same_decisions_on_every_backend(self, name):
        results = [
            tune(
                STENCIL, oc=ST, backend=make_backend(kind, "A100"),
                strategy=name, budget=18, seed=4,
            )
            for kind in self.KINDS
        ]
        ref = results[0]
        for other in results[1:]:
            assert other.best_setting == ref.best_setting
            assert other.trials == ref.trials
            assert other.cost == ref.cost
            # Scalar vs vector times agree to 1e-9 relative (the engine
            # contract); vector vs cached are bit-identical.
            assert other.best_time_ms == pytest.approx(
                ref.best_time_ms, rel=1e-9
            )
        assert results[1].best_time_ms == results[2].best_time_ms


class TestBudgetAccounting:
    def test_budget_is_a_hard_cap_between_frontiers(self):
        result = tune(
            STENCIL, oc=ST, gpu="V100", strategy="annealing", budget=20,
            seed=1, chains=2, steps=50,
        )
        # 50 steps of 2 chains would cost 102; the driver stops at the
        # first frontier boundary at/after the budget.
        assert 20 <= result.cost <= 22

    def test_halving_charges_fidelity_fractions(self):
        result = tune(
            STENCIL, oc=ST, gpu="V100", strategy="halving", budget=20, seed=3
        )
        # Reduced-grid rungs cost their grid-cell fraction, so the
        # strategy observes far more trials than the budget.
        assert result.trials > result.cost * 2
        assert result.cost <= 22
        assert any(r.fidelity < 1.0 for r in result.trial_log)
        assert result.extras["rungs"] == 3

    def test_halving_best_comes_from_full_fidelity(self):
        result = tune(
            STENCIL, oc=ST, gpu="2080Ti", strategy="halving", budget=16, seed=8
        )
        sim = GPUSimulator("2080Ti")
        assert sim.time(STENCIL, ST, result.best_setting) == pytest.approx(
            result.best_time_ms
        )

    def test_invalid_budget(self):
        with pytest.raises(TuningError, match="budget"):
            tune(STENCIL, oc=ST, gpu="V100", budget=0)


class TestFrontDoorValidation:
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

