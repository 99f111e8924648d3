"""Unit tests for the cross-vendor transfer bench building blocks.

The full experiment is ``tools/bench_accuracy.py portability``; here a
micro-campaign exercises the pieces cheaply: GBDT picks transferred to
an unseen AMD target, predictor-ranking picks, score averaging, and the
shape/regime bookkeeping of the document.
"""

import pytest

from repro.optimizations.combos import OC_BY_NAME
from repro.stencil.generator import generate_population
from tools.bench_accuracy import (
    SHAPES,
    _gbdt_picks,
    _mean_scores,
    _predictor_picks,
    _score_picks,
)


@pytest.fixture(scope="module")
def micro():
    """Tiny campaign spanning one NVIDIA source and two AMD devices."""
    from repro.profiling import run_campaign

    pop = generate_population(2, 3, seed=41)
    ocs = [OC_BY_NAME[n] for n in ("naive", "ST", "ST_RT", "CM", "TB")]
    train = run_campaign(
        pop[:2], gpus=("V100", "MI100", "MI210"), ocs=ocs,
        n_settings=1, seed=41,
    )
    test = run_campaign(
        pop[2:], gpus=("MI210",), ocs=ocs, n_settings=4, seed=42
    )
    return train, test


class TestShape:
    def test_quick_is_smaller(self):
        q, f = SHAPES["portability"][True], SHAPES["portability"][False]
        assert q["n_train"] < f["n_train"]
        assert len(q["target_gpus"]) <= len(f["target_gpus"])

    def test_roles_are_disjoint(self):
        for quick in (True, False):
            s = SHAPES["portability"][quick]
            nvidia = set(s["nvidia_gpus"])
            targets = set(s["target_gpus"])
            assert s["amd_train_gpu"] not in nvidia | targets
            assert not nvidia & targets


class TestPicks:
    def test_gbdt_picks_transfer_to_amd(self, micro):
        train, test = micro
        picks = _gbdt_picks(train, "V100", test.stencils, seed=7)
        assert len(picks) == len(test.stencils)
        assert all(p in OC_BY_NAME for p in picks)

    def test_predictor_picks_are_valid_and_deterministic(self, micro):
        from repro.profiling.train import train_predictor_artifact

        train, test = micro
        art = train_predictor_artifact(
            train, gpus=("V100",), method="gbr", seed=7
        )
        a = _predictor_picks(art, test.stencils, "MI210", 2, seed=7)
        b = _predictor_picks(art, test.stencils, "MI210", 2, seed=7)
        assert a == b
        assert all(p in OC_BY_NAME for p in a)


class TestScores:
    def test_mean_scores_averages_fields(self):
        rows = [
            {"top1": 1.0, "near_optimal": 1.0, "geomean_slowdown": 1.0,
             "infeasible_picks": 0},
            {"top1": 0.0, "near_optimal": 0.5, "geomean_slowdown": 2.0,
             "infeasible_picks": 2},
        ]
        m = _mean_scores(rows)
        assert m["top1"] == 0.5
        assert m["near_optimal"] == 0.75
        assert m["geomean_slowdown"] == 1.5
        assert m["infeasible_picks"] == 1.0

    def test_score_picks_on_amd_oracle(self, micro):
        _, test = micro
        best = [p.best_oc for p in test.gpu_profiles("MI210")]
        perfect = _score_picks(test, "MI210", best)
        assert perfect["top1"] == 1.0
        assert perfect["geomean_slowdown"] == pytest.approx(1.0)
        worst = _score_picks(test, "MI210", ["naive"] * len(best))
        assert worst["geomean_slowdown"] >= 1.0
