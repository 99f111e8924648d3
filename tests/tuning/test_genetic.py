"""Tests for the csTuner-style genetic parameter search."""

import pytest

from repro.gpu import GPUSimulator
from repro.optimizations import OC
from repro.tuning import GeneticStrategy, RandomStrategy, tune
from repro.stencil import box, get

from .legacy_stream import LegacyGeneticStrategy


@pytest.fixture(scope="module")
def sim():
    return GPUSimulator("V100")


def _ga(sim, stencil, oc, seed=0, **options):
    """One genetic run on the legacy stream, as the goldens pin it."""
    return tune(
        stencil, oc=oc, backend=sim, seed=seed,
        strategy=LegacyGeneticStrategy(**options),
    )


class TestGeneticSearch:
    """The genetic search (:class:`GeneticStrategy`) through ``tune()``."""

    def test_finds_valid_setting(self, sim):
        result = _ga(sim, get("star2d2r"), OC.parse("ST"), population=8,
                     generations=3)
        assert result.ok
        assert result.best_time_ms > 0
        assert result.trials > 0
        assert result.generations == 3
        # The returned setting reproduces the reported time.
        assert sim.time(
            get("star2d2r"), OC.parse("ST"), result.best_setting
        ) == pytest.approx(result.best_time_ms)

    def test_deterministic(self, sim):
        a = _ga(sim, get("box2d1r"), OC.parse("ST_CM"), seed=3)
        b = _ga(sim, get("box2d1r"), OC.parse("ST_CM"), seed=3)
        assert a.best_time_ms == b.best_time_ms
        assert a.best_setting == b.best_setting

    def test_more_generations_never_worse(self, sim):
        s = get("star3d2r")
        oc = OC.parse("ST_RT")
        t_short = _ga(sim, s, oc, seed=1, population=8, generations=1).best_time_ms
        t_long = _ga(sim, s, oc, seed=1, population=8, generations=6).best_time_ms
        assert t_long <= t_short * 1.05

    def test_budget_stop_reports_generations_evolved(self):
        # 50 planned generations, but the budget stops the run after 24
        # trials: only the generations bred before the stop count.
        result = tune(
            get("star2d2r"), oc=OC.parse("ST"), gpu="V100", strategy="genetic",
            budget=20, seed=1, population=8, generations=50,
        )
        assert result.trials == 24
        assert result.generations == 5

    def test_crashy_oc_is_not_ok(self, sim):
        # TB without ST cannot run on 3-D order-4 stencils.
        result = _ga(sim, box(3, 4), OC.parse("TB"), population=8, generations=2)
        assert not result.ok

    def test_competitive_with_refined_random(self, sim):
        s = get("cross2d3r")
        oc = OC.parse("ST_BM_RT_TB")
        ga_t = _ga(sim, s, oc, population=12, generations=6).best_time_ms
        rnd_t = tune(
            s, oc=oc, backend=sim, strategy=RandomStrategy(8), seed=0,
            stencil_id=0,
        ).best_time_ms
        assert ga_t < rnd_t * 1.6  # same ballpark at comparable budget

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneticStrategy(population=2)
        with pytest.raises(ValueError):
            GeneticStrategy(mutation_rate=1.5)
