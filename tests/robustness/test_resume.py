"""Checkpointing and kill--resume equivalence."""

import json

import pytest

from repro.errors import CampaignInterrupted, DatasetError
from repro.gpu.faults import FaultConfig
from repro.profiling import CampaignRunner
from repro.profiling.storage import FORMAT_VERSION, campaign_to_dict, profile_to_row

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
    )
    kwargs.update(overrides)
    return CampaignRunner(population, **kwargs)


class TestKillResume:
    def test_interrupt_then_resume_is_equivalent(
        self, population, baseline_campaign, tmp_path
    ):
        """Interrupt mid-run via the unit cap, resume from the checkpoint,
        and end with a campaign that serializes identically to an
        uninterrupted (and to a fault-free) run."""
        ck = tmp_path / "ck.json"
        first = _runner(population, ck, max_units=3)
        with pytest.raises(CampaignInterrupted):
            first.run()
        assert ck.exists()

        second = _runner(population, ck)
        campaign = second.run(resume=True)
        assert second.health.units_resumed == 3
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )

    def test_multiple_interruptions(self, population, baseline_campaign,
                                    tmp_path):
        """A campaign killed repeatedly still converges to the same bits."""
        ck = tmp_path / "ck.json"
        runs = 0
        while True:
            runner = _runner(population, ck, max_units=2)
            try:
                campaign = runner.run(resume=True)
                break
            except CampaignInterrupted:
                runs += 1
                assert runs < 20
        assert runs == 3  # 8 units / 2 per run, last run finishes 2 + exits
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )

    def test_resume_without_checkpoint_starts_fresh(
        self, population, baseline_campaign, tmp_path
    ):
        runner = _runner(population, tmp_path / "missing.json")
        campaign = runner.run(resume=True)
        assert runner.health.units_resumed == 0
        assert campaign_to_dict(campaign) == campaign_to_dict(
            baseline_campaign
        )

    def test_completed_checkpoint_resumes_instantly(self, population,
                                                    tmp_path):
        ck = tmp_path / "ck.json"
        _runner(population, ck).run()
        again = _runner(population, ck)
        campaign = again.run(resume=True)
        assert again.health.units_resumed == 2 * len(population)
        assert len(campaign.profiles["V100"]) == len(population)


class TestCheckpointHygiene:
    def test_no_temp_files_left(self, population, tmp_path):
        ck = tmp_path / "ck.json"
        _runner(population, ck).run()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "ck.json"]
        assert leftovers == []

    def test_checkpoint_is_valid_json_with_health(self, population, tmp_path):
        ck = tmp_path / "ck.json"
        runner = _runner(population, ck, max_units=3)
        with pytest.raises(CampaignInterrupted):
            runner.run()
        doc = json.loads(ck.read_text())
        assert doc["kind"] == "campaign-checkpoint"
        assert doc["config"]["seed"] == 7
        assert sum(len(rows) for rows in doc["completed"].values()) == 3
        assert "call_retries" in doc["health"]

    def test_checkpoint_text_is_json_dumps_of_the_document(
        self, population, tmp_path
    ):
        # Rows are encoded once per unit and joined; the file must still
        # be exactly json.dumps of the whole document, at every write.
        ck = tmp_path / "ck.json"
        runner = _runner(population, ck, max_units=3)
        with pytest.raises(CampaignInterrupted):
            runner.run()
        text = ck.read_text()
        assert text == json.dumps(json.loads(text))
        runner = _runner(population, ck)
        campaign = runner.run(resume=True)
        doc = {
            "format": FORMAT_VERSION,
            "kind": "campaign-checkpoint",
            "config": runner._config_doc(),
            "completed": {
                gpu: [profile_to_row(p) for p in campaign.profiles[gpu]]
                for gpu in campaign.gpus
            },
            "health": runner.health.to_dict(),
        }
        assert ck.read_text() == json.dumps(doc)

    def test_mismatched_config_rejected(self, population, tmp_path):
        ck = tmp_path / "ck.json"
        runner = _runner(population, ck, max_units=3)
        with pytest.raises(CampaignInterrupted):
            runner.run()
        for overrides, field in (
            (dict(seed=8), "seed"),
            (dict(n_settings=4), "n_settings"),
            (dict(gpus=("V100",)), "gpus"),
            (dict(faults=FaultConfig.uniform(0.5)), "faults"),
        ):
            other = _runner(population, ck, **overrides)
            with pytest.raises(DatasetError, match=field):
                other.run(resume=True)

    def test_retired_backend_kind_rejected(self, population, tmp_path):
        # A checkpoint written by a campaign on the retired "cached"
        # backend kind belongs to no campaign this runner can build.
        ck = tmp_path / "ck.json"
        with pytest.raises(CampaignInterrupted):
            _runner(population, ck, max_units=1).run()
        doc = json.loads(ck.read_text())
        doc["config"]["backend"] = "cached"
        ck.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="mismatched: backend"):
            _runner(population, ck).run(resume=True)

    def test_wrong_kind_rejected(self, population, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps({"format": 1, "kind": "something-else"}))
        with pytest.raises(DatasetError, match="kind"):
            _runner(population, ck).run(resume=True)

    def test_newer_checkpoint_format_rejected(self, population, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps({"format": 99, "kind": "campaign-checkpoint"}))
        with pytest.raises(DatasetError, match="format_version 99"):
            _runner(population, ck).run(resume=True)
