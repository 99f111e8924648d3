"""Tests for the Artemis/AN5D baselines and the oracle."""


from repro.baselines import AN5DBaseline, ArtemisBaseline, OracleBaseline
from repro.optimizations import Opt
from repro.stencil import box, get, star


class TestAN5D:
    def test_prefers_full_strategy_when_valid(self):
        oc, setting, t = AN5DBaseline("V100", 6, 0).tune(get("star2d1r"))
        assert Opt.ST in oc.opts
        assert t > 0

    def test_falls_back_when_tb_invalid(self):
        # 3-D order-4 box: ST_RT_TB plane queues blow shared memory on
        # P100 (48 KB/block); the ladder must fall back.
        oc, _, t = AN5DBaseline("P100", 6, 0).tune(box(3, 4))
        assert Opt.ST in oc.opts
        assert t > 0

    def test_deterministic(self):
        a = AN5DBaseline("V100", 5, 3).tune(get("box2d2r"))
        b = AN5DBaseline("V100", 5, 3).tune(get("box2d2r"))
        assert a[2] == b[2]


class TestArtemis:
    def test_returns_valid_config(self):
        oc, setting, t = ArtemisBaseline("V100", 5, 0).tune(get("star2d2r"))
        assert t > 0

    def test_stage2_never_worse_than_stage1(self):
        base = ArtemisBaseline("V100", 5, 0)
        s = get("box2d1r")
        _, _, final = base.tune(s)
        # Stage-1 best is one of the skeletons with the same search.
        from repro.optimizations import OC
        from repro.tuning import RandomStrategy, tune_lockstep

        skeleton_best = min(
            r.best_time_ms
            for name in ("naive", "ST", "TB", "ST_TB")
            for r in tune_lockstep(
                s, [(OC.parse(name), RandomStrategy(base.n_settings))],
                backend=base.backend, seed=base.seed,
            )
            if r.ok
        )
        assert final <= skeleton_best

    def test_handles_crashy_stencil(self):
        oc, _, t = ArtemisBaseline("V100", 5, 0).tune(box(3, 4))
        assert t > 0


class TestOracle:
    def test_oracle_at_least_as_good_as_baselines(self):
        s = get("star3d2r")
        _, _, oracle_t = OracleBaseline("V100", 5, 1).tune(s)
        _, _, an5d_t = AN5DBaseline("V100", 5, 1).tune(s)
        _, _, artemis_t = ArtemisBaseline("V100", 5, 1).tune(s)
        assert oracle_t <= an5d_t + 1e-12
        assert oracle_t <= artemis_t + 1e-12

    def test_oracle_returns_best_over_ocs(self):
        s = star(2, 1)
        oc, _, t = OracleBaseline("V100", 4, 0).tune(s)
        assert t > 0
        assert oc.name != ""
