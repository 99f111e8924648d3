"""The crash-only path: an OC whose every sampled setting crashes.

Mirrors the paper's "there are some cases where OC crashes under certain
stencils": such an OC yields no OCResult at all, and everything downstream
must keep working off the reduced data.
"""

import pytest

from repro.engine import as_backend
from repro.errors import DatasetError, KernelLaunchError
from repro.gpu import GPUSimulator
from repro.gpu.faults import FaultConfig
from repro.profiling import (
    build_classification_dataset,
    build_regression_dataset,
    merge_ocs,
)
from repro.profiling.runner import (
    CampaignHealth,
    RetryPolicy,
    UnitTuner,
    run_unit,
)
from repro.stencil import star

from .conftest import OCS


class _AlwaysCrashSim:
    """Simulator facade on which no configuration can ever launch."""

    def __init__(self, gpu="V100"):
        self._inner = GPUSimulator(gpu)

    @property
    def spec(self):
        return self._inner.spec

    @property
    def sigma(self):
        return self._inner.sigma

    def time(self, stencil, oc, setting, grid=None):
        raise KernelLaunchError("always crashes")


class TestCrashOnlyOC:
    def test_tune_oc_returns_none(self):
        search = UnitTuner(as_backend(_AlwaysCrashSim()), n_settings=3, seed=0)
        [(result, measurements)] = search.tune_oc(star(2, 1), 0, OCS[:1])
        assert result is None
        assert measurements == []

    def test_profile_stencil_is_empty(self):
        search = UnitTuner(as_backend(_AlwaysCrashSim()), n_settings=3, seed=0)
        profile = run_unit(
            search, "V100", star(2, 1), 0, OCS, FaultConfig(), RetryPolicy(),
            CampaignHealth(),
        )
        assert profile.oc_results == {}
        assert profile.measurements == []
        with pytest.raises(DatasetError, match="no valid OC"):
            profile.best_oc


class TestDownstreamWithCrashedStencil:
    @pytest.fixture()
    def campaign_with_crashed_stencil(self, baseline_campaign):
        from .conftest import copy_campaign

        campaign = copy_campaign(baseline_campaign)
        for gpu in campaign.gpus:
            campaign.profiles[gpu][2].oc_results.clear()
            campaign.profiles[gpu][2].measurements.clear()
        return campaign

    def test_merge_still_works(self, campaign_with_crashed_stencil):
        grouping = merge_ocs(campaign_with_crashed_stencil, n_classes=3)
        assert grouping.n_classes == 3

    def test_classification_skips_explicitly(
        self, campaign_with_crashed_stencil
    ):
        campaign = campaign_with_crashed_stencil
        grouping = merge_ocs(campaign, n_classes=3)
        for gpu in campaign.gpus:
            ds = build_classification_dataset(campaign, grouping, gpu)
            assert ds.skipped_stencils == [2]
            assert 2 not in set(ds.stencil_ids)
            assert ds.n_samples == len(campaign.stencils) - 1

    def test_regression_still_works(self, campaign_with_crashed_stencil):
        ds = build_regression_dataset(campaign_with_crashed_stencil)
        assert ds.n_samples > 0
        assert 2 not in set(ds.stencil_ids)
