"""Crash-safe persistence and format-version gating."""

import os

import pytest

from repro.errors import DatasetError
from repro.profiling import load_campaign, save_campaign
from repro.profiling.storage import (
    FORMAT_VERSION,
    campaign_from_dict,
    campaign_to_dict,
)
from repro.store import atomic_write_text


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "doc.json"
        atomic_write_text(p, "hello")
        assert p.read_text() == "hello"

    def test_overwrite(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text("old")
        atomic_write_text(p, "new")
        assert p.read_text() == "new"

    def test_no_temp_files_after_success(self, tmp_path):
        p = tmp_path / "doc.json"
        atomic_write_text(p, "x")
        assert [f.name for f in tmp_path.iterdir()] == ["doc.json"]

    def test_interrupt_preserves_previous_document(self, tmp_path,
                                                   monkeypatch):
        p = tmp_path / "doc.json"
        p.write_text("precious")

        def explode(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            atomic_write_text(p, "partial")
        monkeypatch.undo()
        assert p.read_text() == "precious"
        assert [f.name for f in tmp_path.iterdir()] == ["doc.json"]

    def test_save_campaign_is_atomic(self, baseline_campaign, tmp_path,
                                     monkeypatch):
        p = tmp_path / "c.json"
        save_campaign(baseline_campaign, p)
        before = p.read_text()

        def explode(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            save_campaign(baseline_campaign, p)
        monkeypatch.undo()
        assert p.read_text() == before
        assert [f.name for f in tmp_path.iterdir()] == ["c.json"]
        assert load_campaign(p).seed == baseline_campaign.seed


class TestFormatVersionGate:
    def test_newer_version_names_both_versions(self, baseline_campaign):
        doc = campaign_to_dict(baseline_campaign)
        doc["format"] = FORMAT_VERSION + 1
        with pytest.raises(DatasetError) as exc:
            campaign_from_dict(doc)
        msg = str(exc.value)
        assert f"format_version {FORMAT_VERSION + 1}" in msg
        assert f"FORMAT_VERSION {FORMAT_VERSION}" in msg
        assert "upgrade" in msg

    def test_unknown_version_still_rejected(self, baseline_campaign):
        doc = campaign_to_dict(baseline_campaign)
        doc["format"] = 0
        with pytest.raises(DatasetError, match="unsupported"):
            campaign_from_dict(doc)

    def test_missing_version_rejected(self, baseline_campaign):
        doc = campaign_to_dict(baseline_campaign)
        del doc["format"]
        with pytest.raises(DatasetError, match="unsupported"):
            campaign_from_dict(doc)

    def test_current_version_accepted(self, baseline_campaign):
        doc = campaign_to_dict(baseline_campaign)
        loaded = campaign_from_dict(doc)
        assert campaign_to_dict(loaded) == doc
