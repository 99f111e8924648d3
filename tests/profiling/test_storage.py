"""Round-trip tests for campaign persistence."""

import json

import pytest

from repro.errors import DatasetError
from repro.optimizations.params import ParamSetting
from repro.profiling import load_campaign, save_campaign, storage
from repro.profiling.storage import (
    campaign_from_dict,
    campaign_to_dict,
    profile_from_row,
    profile_to_row,
    stencil_from_dict,
    stencil_to_dict,
)
from repro.stencil import box, star


class TestStencilRoundTrip:
    def test_round_trip(self):
        s = box(3, 2)
        assert stencil_from_dict(stencil_to_dict(s)) == s

    def test_name_preserved(self):
        s = star(2, 1)
        assert stencil_from_dict(stencil_to_dict(s)).name == "star2d1r"

    def test_malformed_raises(self):
        with pytest.raises(DatasetError):
            stencil_from_dict({"ndim": 2})


class TestCampaignRoundTrip:
    def test_full_round_trip(self, small_campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(small_campaign, path)
        loaded = load_campaign(path)

        assert loaded.gpus == small_campaign.gpus
        assert loaded.n_settings == small_campaign.n_settings
        assert len(loaded.stencils) == len(small_campaign.stencils)
        for gpu in small_campaign.gpus:
            for a, b in zip(loaded.profiles[gpu], small_campaign.profiles[gpu]):
                assert a.best_oc == b.best_oc
                assert a.best_time_ms == b.best_time_ms
                assert len(a.measurements) == len(b.measurements)
                assert a.measurements[0].setting == b.measurements[0].setting

    def test_document_is_json(self, small_campaign, tmp_path):
        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == 1
        assert set(doc["profiles"]) == set(small_campaign.gpus)

    def test_downstream_merge_identical(self, small_campaign, tmp_path):
        from repro.profiling import merge_ocs

        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        loaded = load_campaign(path)
        a = merge_ocs(small_campaign, n_classes=5)
        b = merge_ocs(loaded, n_classes=5)
        assert a.groups == b.groups
        assert a.representatives == b.representatives

    def test_bad_format_rejected(self, small_campaign):
        doc = campaign_to_dict(small_campaign)
        doc["format"] = 99
        with pytest.raises(DatasetError):
            campaign_from_dict(doc)

    def test_unknown_oc_rejected(self, small_campaign):
        doc = campaign_to_dict(small_campaign)
        doc["ocs"][0] = "WARP_SPEED"
        with pytest.raises(DatasetError):
            campaign_from_dict(doc)


class TestSettingDecode:
    """Each distinct stored setting vector is decoded once per load."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        built = []

        def counting(**values):
            built.append(tuple(values.values()))
            return ParamSetting(**values)

        monkeypatch.setattr(storage, "ParamSetting", counting)
        return built

    @staticmethod
    def _vectors(doc):
        return {
            tuple(v)
            for rows in doc["profiles"].values()
            for row in rows
            for v in [r["setting"] for r in row["oc_results"].values()]
            + [m[1] for m in row["measurements"]]
        }

    def test_load_round_trips_byte_identical(self, small_campaign, tmp_path, constructions):
        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        loaded = load_campaign(path)
        assert json.dumps(campaign_to_dict(loaded)) == path.read_text()
        assert len(constructions) == len(set(constructions))
        assert set(constructions) == self._vectors(json.loads(path.read_text()))

    def test_repeats_share_one_instance(self, small_campaign):
        loaded = campaign_from_dict(campaign_to_dict(small_campaign))
        by_vector = {}
        for profiles in loaded.profiles.values():
            for profile in profiles:
                for m in profile.measurements:
                    assert by_vector.setdefault(m.setting.as_tuple(), m.setting) is m.setting

    def test_profile_row_decodes_once(self, small_campaign, constructions):
        profile = small_campaign.profiles["V100"][0]
        row = profile_to_row(profile)
        back = profile_from_row(row, profile.stencil, "V100")
        assert profile_to_row(back) == row
        assert len(constructions) == len(set(constructions))
        assert len(constructions) == len(self._vectors({"profiles": {"V100": [row]}}))

    @pytest.mark.parametrize("where", ["oc_results", "measurements"])
    def test_wrong_length_vector_rejected(self, small_campaign, where):
        doc = campaign_to_dict(small_campaign)
        row = doc["profiles"]["V100"][0]
        if where == "oc_results":
            next(iter(row["oc_results"].values()))["setting"].append(1)
        else:
            row["measurements"][-1][1] = row["measurements"][-1][1][:-1]
        with pytest.raises(DatasetError, match="setting vector has"):
            campaign_from_dict(doc)
