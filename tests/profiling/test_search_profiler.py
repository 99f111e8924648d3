"""Tests for the campaign's random search and profiling campaigns."""

import math

import pytest

from repro.engine import VectorBackend
from repro.errors import DatasetError
from repro.optimizations import ALL_OCS, OC
from repro.profiling import CampaignRunner, run_campaign
from repro.profiling.runner import UnitTuner
from repro.stencil import box, generate_population, star
from repro.tuning import RandomStrategy, tune


def _tune_oc(gpu, n_settings, seed, stencil, oc):
    """One OC through the campaign's unit tuner: ``(OCResult, ms)``."""
    (pair,) = UnitTuner(VectorBackend(gpu), n_settings, seed).tune_oc(
        stencil, 0, [oc]
    )
    return pair


class TestRandomSearch:
    """The paper's random search, as the campaign's unit tuner runs it."""

    def test_best_is_min_of_measurements(self):
        result, ms = _tune_oc("V100", 6, 0, star(2, 1), OC.parse("ST"))
        assert result is not None
        assert result.best_time_ms == min(m.time_ms for m in ms)
        # Refinement appends its evaluations, so the measurement count
        # exceeds the random budget.
        assert result.n_settings == len(ms) >= 6

    def test_refinement_improves_or_matches_sampling(self):
        s, oc = star(3, 2), OC.parse("ST_RT")
        r_ref, _ = _tune_oc("V100", 6, 0, s, oc)
        r_raw = tune(
            s, oc=oc, backend=VectorBackend("V100"),
            strategy=RandomStrategy(6, refine=False), seed=0, stencil_id=0,
        )
        assert r_ref.best_time_ms <= r_raw.best_time_ms

    def test_refined_optimum_stable_across_seeds(self):
        s = star(2, 2)
        times = []
        for seed in (0, 1, 2):
            r, _ = _tune_oc("V100", 8, seed, s, OC.parse("ST_RT"))
            times.append(r.best_time_ms)
        spread = (max(times) - min(times)) / min(times)
        assert spread < 0.10

    def test_deterministic(self):
        a = _tune_oc("V100", 5, 1, star(2, 2), OC.parse("BM"))
        b = _tune_oc("V100", 5, 1, star(2, 2), OC.parse("BM"))
        assert a[0].best_time_ms == b[0].best_time_ms
        assert a[0].best_setting == b[0].best_setting

    def test_crashing_oc_returns_none(self):
        # TB without ST cannot run on 3-D order-4 stencils (temporal halo).
        result, ms = _tune_oc("V100", 6, 0, box(3, 4), OC.parse("TB"))
        assert result is None and ms == []

    def test_crash_counter(self):
        result, _ = _tune_oc("P100", 8, 0, box(3, 3), OC.parse("ST_TB"))
        # P100's 48 KB/block limit rejects many plane-queue settings.
        assert result is None or result.crashed > 0

    def test_profile_stencil_covers_valid_ocs(self):
        campaign = run_campaign([star(2, 1)], gpus=("V100",), n_settings=4, seed=0)
        p = campaign.profile("V100", 0)
        assert len(p.oc_results) >= 25
        assert p.best_oc in p.oc_results
        assert p.best_time_ms == min(r.best_time_ms for r in p.oc_results.values())

    def test_time_of_missing_oc_is_inf(self):
        p = run_campaign([box(3, 4)], gpus=("V100",), n_settings=4, seed=0)
        assert math.isinf(p.profile("V100", 0).time_of("TB"))


class TestCampaign:
    def test_structure(self, small_campaign, small_population):
        assert set(small_campaign.profiles) == {"V100", "A100"}
        assert len(small_campaign.profiles["V100"]) == len(small_population)
        assert small_campaign.ndim == 2

    def test_measurements_nonempty(self, small_campaign):
        ms = small_campaign.measurements("V100")
        assert len(ms) > 100
        assert all(m.gpu == "V100" for m in ms)

    def test_best_labels_are_oc_names(self, small_campaign):
        names = {oc.name for oc in ALL_OCS}
        for label in small_campaign.best_oc_labels("A100"):
            assert label in names

    def test_rejects_empty_population(self):
        with pytest.raises(DatasetError):
            run_campaign([], gpus=("V100",))

    @pytest.mark.parametrize(
        "kwargs",
        [{"gpus": ()}, {"ocs": ()}, {"n_settings": 0}, {"n_settings": -3},
         {"backend": "parallel"}, {"backend": "bogus"}, {"backend": "cached"}],
        ids=["no-gpus", "no-ocs", "zero-settings", "negative-settings",
             "removed-backend", "unknown-backend", "retired-cached-backend"],
    )
    def test_rejects_a_campaign_that_measures_nothing(self, kwargs, tmp_path):
        # Rejected at construction: no worker spawns, no checkpoint.
        with pytest.raises(DatasetError):
            CampaignRunner([star(2, 1)], **{
                "gpus": ("V100",), "checkpoint_path": tmp_path / "ck.json",
                "workers": 2, **kwargs,
            })
        assert list(tmp_path.iterdir()) == []

    def test_rejects_mixed_ndim(self):
        pop = generate_population(2, 2, seed=0) + generate_population(3, 2, seed=0)
        with pytest.raises(DatasetError):
            run_campaign(pop, gpus=("V100",))

    def test_deterministic_across_runs(self, small_population):
        a = run_campaign(small_population[:3], gpus=("V100",), n_settings=3, seed=9)
        b = run_campaign(small_population[:3], gpus=("V100",), n_settings=3, seed=9)
        for pa, pb in zip(a.profiles["V100"], b.profiles["V100"]):
            assert pa.best_oc == pb.best_oc
            assert pa.best_time_ms == pb.best_time_ms

    def test_streaming_ocs_dominate_best_on_datacenter_gpus(self, full_gpu_campaign):
        # Paper Fig. 2: "the OCs with streaming perform better for most
        # stencils".  Restricted to P100/V100 here: the simulated 2080Ti is
        # FP64-compute-bound (all OCs flat) and the A100's 40 MB L2 makes
        # cache-served schemes competitive, both documented deviations.
        best = []
        for gpu in ("P100", "V100"):
            best += full_gpu_campaign.best_oc_labels(gpu)
        streaming = sum(1 for b in best if "ST" in b.split("_"))
        assert streaming / len(best) > 0.5

    def test_tb_without_st_rarely_best(self, full_gpu_campaign):
        # Paper Fig. 2 reports zero wins for TB without ST; our substrate
        # allows occasional wins (see EXPERIMENTS.md), but they must stay a
        # clear minority.
        labels = []
        for gpu in full_gpu_campaign.gpus:
            labels += full_gpu_campaign.best_oc_labels(gpu)
        tb_no_st = sum(
            1
            for label in labels
            if "TB" in label.split("_") and "ST" not in label.split("_")
        )
        assert tb_no_st / len(labels) < 0.4

    def test_best_oc_varies_across_stencils(self, full_gpu_campaign):
        # "There is no single OC fits for all."
        for gpu in full_gpu_campaign.gpus:
            assert len(set(full_gpu_campaign.best_oc_labels(gpu))) >= 3
