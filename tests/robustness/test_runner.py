"""CampaignRunner: determinism under faults, retries, quarantine, health."""

import pytest

from repro.engine import CachingBackend, VectorBackend
from repro.errors import DatasetError
from repro.gpu.faults import FaultConfig
from repro.profiling import (
    CampaignHealth, CampaignRunner, RetryPolicy, run_campaign,
)
from repro.profiling.runner import build_search, run_unit
from repro.profiling.storage import campaign_to_dict

from .conftest import OCS


class TestDeterminismUnderFaults:
    def test_faulty_run_equals_fault_free_run(
        self, population, baseline_campaign
    ):
        """The headline property: nonzero transient rates + retries
        reproduce the fault-free campaign bit for bit."""
        runner = CampaignRunner(
            population,
            gpus=("V100", "P100"),
            ocs=OCS,
            n_settings=3,
            seed=7,
            faults=FaultConfig.uniform(0.05),
        )
        campaign = runner.run()
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )
        # Faults actually happened and were absorbed.
        h = runner.health
        assert h.timeouts > 0
        assert h.transients > 0
        assert h.corrupt_rejected > 0
        assert h.call_retries > 0
        assert h.backoff_s > 0
        assert h.quarantined == []

    def test_run_campaign_wrapper_passes_faults(
        self, population, baseline_campaign
    ):
        campaign = run_campaign(
            population,
            gpus=("V100", "P100"),
            ocs=OCS,
            n_settings=3,
            seed=7,
            faults=FaultConfig.uniform(0.03),
        )
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )

    def test_zero_rates_no_injection_layer(self, population, baseline_campaign):
        campaign = run_campaign(
            population,
            gpus=("V100", "P100"),
            ocs=OCS,
            n_settings=3,
            seed=7,
            faults=FaultConfig(),
        )
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )


class TestQuarantine:
    def test_persistent_faults_quarantine_not_abort(self, population):
        """A run where every measurement fails completes anyway, with
        every (gpu, stencil, OC) point in the quarantine ledger."""
        runner = CampaignRunner(
            population,
            gpus=("V100",),
            ocs=OCS[:3],
            n_settings=2,
            seed=7,
            faults=FaultConfig(transient_rate=1.0),
            policy=RetryPolicy(max_call_retries=1, max_point_retries=1),
        )
        campaign = runner.run()
        assert len(runner.health.quarantined) == len(population) * 3
        for profile in campaign.profiles["V100"]:
            assert profile.oc_results == {}
            assert profile.measurements == []

    def test_device_loss_quarantine(self, population):
        runner = CampaignRunner(
            population[:2],
            gpus=("V100",),
            ocs=OCS[:2],
            n_settings=2,
            seed=7,
            faults=FaultConfig(device_lost_rate=1.0),
            policy=RetryPolicy(max_call_retries=1, max_point_retries=1),
        )
        runner.run()
        assert runner.health.device_lost > 0
        assert len(runner.health.quarantined) == 4
        for q in runner.health.quarantined:
            assert "lost" in q["reason"]

    def test_quarantined_campaign_summary(self, population):
        from repro.core.report import campaign_summary

        runner = CampaignRunner(
            population[:2],
            gpus=("V100",),
            ocs=OCS[:2],
            n_settings=2,
            seed=7,
            faults=FaultConfig(transient_rate=1.0),
            policy=RetryPolicy(max_call_retries=0, max_point_retries=0),
        )
        campaign = runner.run()
        text = campaign_summary(campaign)
        assert "crashed" in text

    def test_classification_dataset_rejects_all_quarantined(self, population):
        from repro.profiling import build_classification_dataset
        from repro.profiling.merge import OCGrouping

        runner = CampaignRunner(
            population[:2],
            gpus=("V100",),
            ocs=OCS[:2],
            n_settings=2,
            seed=7,
            faults=FaultConfig(transient_rate=1.0),
            policy=RetryPolicy(max_call_retries=0, max_point_retries=0),
        )
        campaign = runner.run()
        grouping = OCGrouping(
            groups=[[oc.name for oc in OCS[:2]]],
            representatives=[OCS[0].name],
            class_of={oc.name: 0 for oc in OCS[:2]},
        )
        with pytest.raises(DatasetError, match="no stencil has a valid OC"):
            build_classification_dataset(campaign, grouping, "V100")


class TestGracefulDegradation:
    def test_skipped_stencils_recorded(self, baseline_campaign):
        from repro.profiling import build_classification_dataset, merge_ocs

        from .conftest import copy_campaign

        campaign = copy_campaign(baseline_campaign)
        # Simulate one quarantined unit: stencil 1 crashed everywhere.
        campaign.profiles["V100"][1].oc_results.clear()
        campaign.profiles["V100"][1].measurements.clear()
        grouping = merge_ocs(campaign, n_classes=3)
        ds = build_classification_dataset(campaign, grouping, "V100")
        assert ds.skipped_stencils == [1]
        assert list(ds.stencil_ids) == [0, 2, 3]
        assert ds.n_samples == len(campaign.stencils) - 1

    def test_regression_dataset_survives_missing_unit(self, baseline_campaign):
        from repro.profiling import build_regression_dataset

        from .conftest import copy_campaign

        campaign = copy_campaign(baseline_campaign)
        campaign.profiles["V100"][1].oc_results.clear()
        campaign.profiles["V100"][1].measurements.clear()
        ds = build_regression_dataset(campaign)
        assert ds.n_samples > 0
        assert 1 not in set(
            sid for sid, g in zip(ds.stencil_ids, ds.gpus) if g == "V100"
        )


class TestUnknownGPU:
    def test_profile_lists_available(self, baseline_campaign):
        with pytest.raises(DatasetError, match="P100.*V100|V100.*P100"):
            baseline_campaign.profile("H100", 0)

    def test_measurements_lists_available(self, baseline_campaign):
        with pytest.raises(DatasetError, match="H100"):
            baseline_campaign.measurements("H100")

    def test_best_oc_labels(self, baseline_campaign):
        with pytest.raises(DatasetError):
            baseline_campaign.best_oc_labels("K80")


class TestClockAndPolicy:
    def test_backoff_is_simulated_not_wall_clock(self, population):
        import time

        start = time.monotonic()
        runner = CampaignRunner(
            population[:1],
            gpus=("V100",),
            ocs=OCS[:2],
            n_settings=2,
            seed=7,
            faults=FaultConfig(transient_rate=1.0),
            policy=RetryPolicy(max_call_retries=2, max_point_retries=1),
        )
        runner.run()
        assert runner.health.backoff_s > 0
        # Generous bound: simulated seconds must not consume wall seconds.
        assert time.monotonic() - start < runner.health.backoff_s + 30

    def test_health_summary_mentions_everything(self, population):
        runner = CampaignRunner(
            population[:2],
            gpus=("V100",),
            ocs=OCS[:3],
            n_settings=2,
            seed=7,
            faults=FaultConfig.uniform(0.1),
        )
        runner.run()
        text = runner.health.summary()
        for needle in ("units completed", "timeouts", "corrupted",
                       "retries", "quarantined", "backoff"):
            assert needle in text


class TestValidation:
    def test_empty_population(self):
        with pytest.raises(DatasetError, match="empty"):
            CampaignRunner([])

    def test_mixed_ndims(self, population):
        from repro.stencil import star

        with pytest.raises(DatasetError, match="mixed"):
            CampaignRunner(list(population) + [star(3, 1)])

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"max_point_retries": -1}, "max_point_retries"),
            ({"max_call_retries": -1}, "max_call_retries"),
            ({"backoff_base_s": -0.1}, "backoff_base_s"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
            ({"backoff_base_s": 2.0, "backoff_max_s": 1.0}, "backoff_max_s"),
        ],
    )
    def test_retry_policy_rejects_bad_budgets(self, bad, field):
        # A negative point budget would silently drop every OC of a unit;
        # a negative call budget would retry a certain fault forever.
        with pytest.raises(ValueError, match=f"^{field}="):
            RetryPolicy(**bad)

    def test_retry_policy_accepts_edge_budgets(self):
        RetryPolicy(max_call_retries=0, max_point_retries=0,
                    backoff_base_s=0.0, backoff_factor=1.0, backoff_max_s=0.0)


class TestMeasurementStack:
    """What ``build_search`` stacks: a memo only under the fault layer."""

    @staticmethod
    def _search(faults):
        return build_search(
            "vector", "V100", 0.03, faults, 7, 3, RetryPolicy(),
            CampaignHealth(),
        )

    @staticmethod
    def _layers(search):
        layers = [search.backend]
        while hasattr(layers[-1], "inner"):
            layers.append(layers[-1].inner)
        return layers

    def _memo(self, search, faults, units):
        """The stack's one memo after running *units* through it."""
        for sid, stencil in units:
            run_unit(search, "V100", stencil, sid, OCS, faults,
                     RetryPolicy(), CampaignHealth())
        (memo,) = [b for b in self._layers(search) if isinstance(b, CachingBackend)]
        return memo

    def test_fault_free_stack_is_the_bare_backend(self):
        search = self._search(FaultConfig())
        assert [type(b) for b in self._layers(search)] == [VectorBackend]

    def test_faulted_memo_holds_one_unit(self, population):
        faults = FaultConfig.uniform(0.05)
        units = [(0, population[0]), (1, population[1])]
        memo = self._memo(self._search(faults), faults, units)
        # begin_unit cleared unit 0's points: the memo holds exactly what
        # a fresh stack holds after running unit 1 alone.
        alone = self._memo(self._search(faults), faults, units[1:])
        assert memo.cache_info() == alone.cache_info()
        # Retries re-ask faulted points, and the memo answers them.
        assert memo.cache_info()["size"] > 0
        assert memo.cache_info()["hits"] > 0
