"""Dataset registry: versioned publishing, checksums, path resolution.

The contract under test: published campaigns round-trip bit-identically,
corruption anywhere in the payload fails closed, the ``LATEST`` tag
never points at a missing version without an error, and every consumer
entry point -- ``load_campaign``, ``resolve_dataset_path``, ``repro
train --campaign`` -- accepts a registry directory as readily as a plain
campaign file.
"""

import json

import pytest

from repro.cli import main
from repro.errors import DatasetError
from repro.profiling import DatasetRegistry, resolve_dataset_path
from repro.profiling.registry import (
    checksum_campaign_doc,
    dataset_document,
    unwrap_dataset_document,
)
from repro.profiling.storage import campaign_to_dict, load_campaign


@pytest.fixture()
def registry(tmp_path):
    return DatasetRegistry(tmp_path / "datasets")


class TestPublish:
    def test_publish_load_round_trip(self, registry, small_campaign):
        version = registry.publish(small_campaign, "camp", meta={"run": 1})
        assert version == "v000001"
        loaded = registry.load("camp")
        assert campaign_to_dict(loaded) == campaign_to_dict(small_campaign)
        assert registry.meta("camp") == {"run": 1}

    def test_versions_are_immutable_and_ordered(self, registry,
                                                small_campaign):
        registry.publish(small_campaign, "camp")
        first = registry.path("camp", "v000001").read_bytes()
        registry.publish(small_campaign, "camp", meta={"second": True})
        assert registry.versions("camp") == ["v000001", "v000002"]
        assert registry.latest("camp") == "v000002"
        assert registry.path("camp", "v000001").read_bytes() == first
        assert registry.names() == ["camp"]


class TestChecksum:
    def test_flipped_payload_bit_fails_closed(self, registry,
                                              small_campaign):
        registry.publish(small_campaign, "camp")
        path = registry.path("camp")
        doc = json.loads(path.read_text())
        doc["campaign"]["seed"] = doc["campaign"]["seed"] + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="checksum mismatch"):
            registry.load("camp")

    def test_wrong_kind_rejected(self, small_campaign):
        doc = dataset_document(small_campaign)
        doc["kind"] = "model"
        with pytest.raises(DatasetError, match="not a campaign dataset"):
            unwrap_dataset_document(doc)

    def test_checksum_is_canonical(self, small_campaign):
        doc = campaign_to_dict(small_campaign)
        reordered = json.loads(
            json.dumps(doc), object_pairs_hook=lambda kv: dict(reversed(kv))
        )
        assert checksum_campaign_doc(doc) == checksum_campaign_doc(reordered)


class TestResolution:
    def test_resolves_file_dataset_dir_and_root(self, registry,
                                                small_campaign):
        registry.publish(small_campaign, "camp")
        registry.publish(small_campaign, "camp")
        latest = registry.path("camp")
        assert resolve_dataset_path(latest) == latest
        assert resolve_dataset_path(registry.root / "camp") == latest
        assert resolve_dataset_path(registry.root) == latest

    def test_ambiguous_root_rejected(self, registry, small_campaign):
        registry.publish(small_campaign, "a")
        registry.publish(small_campaign, "b")
        with pytest.raises(DatasetError, match="exactly one"):
            resolve_dataset_path(registry.root)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="no such campaign"):
            resolve_dataset_path(tmp_path / "ghost")

    @pytest.mark.parametrize("text", ['{"format": 1, "gpus": [', "[]"])
    def test_load_campaign_fails_closed(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(DatasetError):
            load_campaign(path)

    def test_load_campaign_understands_dataset_documents(
        self, registry, small_campaign
    ):
        registry.publish(small_campaign, "camp")
        loaded = load_campaign(registry.path("camp"))
        assert campaign_to_dict(loaded) == campaign_to_dict(small_campaign)


class TestTrainConsumesRegistry:
    def test_train_on_published_dataset(self, registry, small_campaign,
                                        tmp_path, capsys):
        """``repro train --campaign <registry>/<name>`` trains straight
        off the published, checksummed artifact."""
        registry.publish(small_campaign, "camp")
        out = tmp_path / "sel.json"
        rc = main(
            ["train", "--campaign", str(registry.root / "camp"),
             "--task", "select", "--gpu", "V100", "--out", str(out),
             "--seed", "9"]
        )
        assert rc == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["gpu"] == "V100"

    def test_train_reports_corrupt_dataset(self, registry, small_campaign,
                                           tmp_path, capsys):
        registry.publish(small_campaign, "camp")
        path = registry.path("camp")
        doc = json.loads(path.read_text())
        doc["campaign"]["seed"] += 1
        path.write_text(json.dumps(doc))
        rc = main(
            ["train", "--campaign", str(registry.root / "camp"),
             "--task", "select", "--gpu", "V100",
             "--out", str(tmp_path / "sel.json"), "--seed", "9"]
        )
        assert rc != 0
        assert "checksum mismatch" in capsys.readouterr().err

    def test_train_reports_truncated_dataset(self, registry, small_campaign,
                                             tmp_path, capsys):
        registry.publish(small_campaign, "camp")
        path = registry.path("camp")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        rc = main(
            ["train", "--campaign", str(registry.root / "camp"),
             "--task", "select", "--gpu", "V100",
             "--out", str(tmp_path / "sel.json"), "--seed", "9"]
        )
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err
