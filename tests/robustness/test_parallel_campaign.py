"""Sharded campaign execution: determinism, worker crashes, cross-count resume.

Units are self-contained (seed-derived sampling streams, unit-scoped
fault draws), so the sharded runner must produce campaigns bit-identical
to the sequential one for every worker count and chunk size, absorb
killed workers as retryable faults, and resume a checkpoint written
under any ``--workers`` value with any other.

The one quantity allowed to drift is ``health.backoff_s``: it is a float
accumulated in merge order, so parallel runs may differ from sequential
in the last few ulps (the campaign itself, and every integer counter,
stays exactly equal).
"""

import json

import pytest

from repro.errors import CampaignInterrupted
from repro.gpu.faults import FaultConfig
from repro.profiling import CampaignHealth, CampaignRunner
from repro.profiling.storage import campaign_to_dict

from .conftest import OCS


def _runner(population, ck, **overrides):
    kwargs = dict(
        gpus=("V100", "P100"),
        ocs=OCS,
        n_settings=3,
        seed=7,
        faults=FaultConfig.uniform(0.02),
        checkpoint_path=ck,
        checkpoint_every=2,
        mp_context="fork",
    )
    kwargs.update(overrides)
    return CampaignRunner(population, **kwargs)


def _health_counters(health):
    doc = health.to_dict()
    doc.pop("backoff_s", None)
    doc.pop("units_resumed", None)
    return doc


class TestWorkerSweepDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_campaign_bit_identical_to_sequential(
        self, population, baseline_campaign, tmp_path, workers
    ):
        runner = _runner(population, tmp_path / "ck.json", workers=workers)
        campaign = runner.run()
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )

    def test_chunk_size_does_not_change_results(
        self, population, baseline_campaign, tmp_path
    ):
        runner = _runner(
            population, tmp_path / "ck.json", workers=2, chunk_size=1
        )
        campaign = runner.run()
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )

    def test_checkpoints_and_health_match_sequential(
        self, population, tmp_path
    ):
        docs, healths = [], []
        for workers in (1, 2, 4):
            ck = tmp_path / f"ck-{workers}.json"
            runner = _runner(population, ck, workers=workers)
            runner.run()
            doc = json.loads(ck.read_text())
            healths.append(doc["health"])
            doc.pop("health")
            docs.append(doc)
        assert docs[0] == docs[1] == docs[2]
        for h in healths[1:]:
            a, b = dict(healths[0]), dict(h)
            sa, sb = a.pop("backoff_s"), b.pop("backoff_s")
            assert a == b
            assert sb == pytest.approx(sa, rel=1e-9)

    def test_four_gpu_slice_bit_identical(self, population, tmp_path):
        from repro.gpu.specs import GPU_ORDER

        stencils = population[:2]
        kwargs = dict(
            ocs=OCS[:4], n_settings=2, seed=7,
            faults=FaultConfig.uniform(0.02), mp_context="fork",
        )
        sequential = CampaignRunner(stencils, gpus=GPU_ORDER, **kwargs).run()
        sharded = CampaignRunner(
            stencils, gpus=GPU_ORDER, workers=4, **kwargs
        ).run()
        assert campaign_to_dict(sharded) == campaign_to_dict(sequential)

    def test_no_shard_files_left_behind(self, population, tmp_path):
        ck = tmp_path / "ck.json"
        _runner(population, ck, workers=2).run()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "ck.json"]
        assert leftovers == []


class TestWorkerCrash:
    def test_killed_worker_is_absorbed_and_recorded(
        self, population, baseline_campaign, tmp_path
    ):
        runner = _runner(
            population,
            tmp_path / "ck.json",
            workers=2,
            worker_crash_units=[("P100", 2)],
        )
        campaign = runner.run()
        assert runner.health.worker_deaths == 1
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )

    def test_repeated_deaths_eventually_propagate(self, population, tmp_path):
        from repro.errors import WorkerLostError
        from repro.profiling import runner as runner_mod

        r = _runner(
            population,
            tmp_path / "ck.json",
            workers=2,
            max_shard_retries=1,
        )

        class AlwaysDies:
            workers = 2

            def map_unordered(self, fn, tasks):
                raise WorkerLostError("boom")
                yield  # pragma: no cover

            def close(self):
                pass

        original = runner_mod.WorkerPool
        runner_mod.WorkerPool = lambda *a, **k: AlwaysDies()
        try:
            with pytest.raises(WorkerLostError):
                r.run()
        finally:
            runner_mod.WorkerPool = original
        assert r.health.worker_deaths == 2  # initial + one retry round


class TestResumeAcrossWorkerCounts:
    @pytest.mark.parametrize("first,second", [(2, 4), (4, 1), (1, 2)])
    def test_interrupt_then_resume_with_other_count(
        self, population, baseline_campaign, tmp_path, first, second
    ):
        ck = tmp_path / "ck.json"
        with pytest.raises(CampaignInterrupted):
            _runner(population, ck, workers=first, max_units=5).run()
        resumed = _runner(population, ck, workers=second)
        campaign = resumed.run(resume=True)
        assert resumed.health.units_resumed == 5
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )

    def test_workers_not_part_of_checkpoint_identity(self, population,
                                                     tmp_path):
        ck = tmp_path / "ck.json"
        a = _runner(population, ck, workers=1)
        b = _runner(population, ck, workers=4, chunk_size=3)
        assert a._config_doc() == b._config_doc()


class TestHealthMerge:
    def test_worker_deaths_round_trips(self):
        health = CampaignHealth(worker_deaths=3, timeouts=2)
        restored = CampaignHealth.from_dict(health.to_dict())
        assert restored.worker_deaths == 3
        assert "worker deaths absorbed: 3" in health.summary()

    def test_merge_accumulates_counters_and_quarantine(self):
        a = CampaignHealth(timeouts=1, backoff_s=0.5,
                           quarantined=[{"gpu": "V100"}])
        b = CampaignHealth(timeouts=2, worker_deaths=1, backoff_s=0.25,
                           quarantined=[{"gpu": "P100"}])
        a.merge_dict(b.to_dict())
        assert a.timeouts == 3
        assert a.worker_deaths == 1
        assert a.backoff_s == pytest.approx(0.75)
        assert [q["gpu"] for q in a.quarantined] == ["V100", "P100"]
