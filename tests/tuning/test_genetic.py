"""Tests for the csTuner-style genetic parameter search."""

import pytest

from repro.gpu import GPUSimulator
from repro.optimizations import OC
from repro.profiling import RandomSearch
from repro.tuning import GeneticSearch
from repro.stencil import box, get, star


@pytest.fixture(scope="module")
def sim():
    return GPUSimulator("V100")


class TestGeneticSearch:
    def test_finds_valid_setting(self, sim):
        ga = GeneticSearch(sim, population=8, generations=3, seed=0)
        result = ga.tune_oc(get("star2d2r"), OC.parse("ST"))
        assert result is not None
        assert result.best_time_ms > 0
        assert result.trials > 0
        assert result.generations == 3
        # The returned setting reproduces the reported time.
        assert sim.time(
            get("star2d2r"), OC.parse("ST"), result.best_setting
        ) == pytest.approx(result.best_time_ms)

    def test_deterministic(self, sim):
        a = GeneticSearch(sim, seed=3).tune_oc(get("box2d1r"), OC.parse("ST_CM"))
        b = GeneticSearch(sim, seed=3).tune_oc(get("box2d1r"), OC.parse("ST_CM"))
        assert a.best_time_ms == b.best_time_ms
        assert a.best_setting == b.best_setting

    def test_more_generations_never_worse(self, sim):
        s = get("star3d2r")
        short = GeneticSearch(sim, population=8, generations=1, seed=1)
        long = GeneticSearch(sim, population=8, generations=6, seed=1)
        t_short = short.tune_oc(s, OC.parse("ST_RT")).best_time_ms
        t_long = long.tune_oc(s, OC.parse("ST_RT")).best_time_ms
        assert t_long <= t_short * 1.05

    def test_crashy_oc_returns_none(self, sim):
        # TB without ST cannot run on 3-D order-4 stencils.
        ga = GeneticSearch(sim, population=8, generations=2, seed=0)
        assert ga.tune_oc(box(3, 4), OC.parse("TB")) is None

    def test_competitive_with_refined_random(self, sim):
        s = get("cross2d3r")
        oc = OC.parse("ST_BM_RT_TB")
        ga = GeneticSearch(sim, population=12, generations=6, seed=0)
        ga_t = ga.tune_oc(s, oc).best_time_ms
        rnd = RandomSearch(sim, 8, seed=0)
        rnd_t = rnd.tune_oc(s, 0, oc)[0].best_time_ms
        assert ga_t < rnd_t * 1.6  # same ballpark at comparable budget

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            GeneticSearch(sim, population=2)
        with pytest.raises(ValueError):
            GeneticSearch(sim, mutation_rate=1.5)
