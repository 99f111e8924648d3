"""Artifact integrity and the directory-backed registries.

The failure modes that matter in a registry are the quiet ones: a
half-written file, a flipped bit in a weight matrix, a document written
by a newer library.  Every one must fail closed with a clear
:class:`ArtifactError` -- and a valid artifact must round-trip to a
model that predicts bit-identically.
"""

import json

import numpy as np
import pytest

from repro.errors import ArtifactError
from repro.profiling import DatasetRegistry
from repro.serve import (
    SERVE_FORMAT_VERSION,
    ModelArtifact,
    ModelRegistry,
    load_artifact,
    save_artifact,
)
from repro.serve.registry import default_artifact_name
from repro.store import checksum
from repro.stencil.features import extract_features
from repro.stencil.library import get


def _features(names):
    return np.stack([extract_features(get(n), 4) for n in names])


X2D = _features(["star2d1r", "star2d2r", "box2d1r"])


class TestArtifactRoundTrip:
    def test_save_load_bit_identical(self, selector_artifact, tmp_path):
        path = tmp_path / "sel.json"
        save_artifact(selector_artifact, path)
        loaded = load_artifact(path)
        assert loaded.kind == "selector"
        assert loaded.method == selector_artifact.method
        assert loaded.gpu == selector_artifact.gpu
        assert loaded.representatives == selector_artifact.representatives
        assert np.array_equal(
            selector_artifact.model.decision_function(X2D),
            loaded.model.decision_function(X2D),
        )

    def test_predictor_round_trip(self, predictor_artifact, tmp_path):
        from repro.profiling import regression_feature_size

        path = tmp_path / "pred.json"
        save_artifact(predictor_artifact, path)
        loaded = load_artifact(path)
        assert loaded.gpu is None
        assert loaded.meta == predictor_artifact.meta
        rng = np.random.default_rng(0)
        probe = rng.normal(size=(4, regression_feature_size(4)))
        assert np.array_equal(
            predictor_artifact.model.predict(probe), loaded.model.predict(probe)
        )

    def test_meta_and_schema_travel(self, selector_artifact, tmp_path):
        path = tmp_path / "sel.json"
        save_artifact(selector_artifact, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == SERVE_FORMAT_VERSION
        assert doc["meta"]["train_rows"] > 0
        assert doc["feature_schema"] == selector_artifact.feature_schema

    def test_selector_requires_representatives(self, selector_artifact):
        with pytest.raises(ArtifactError, match="representatives"):
            ModelArtifact(
                kind="selector",
                method="gbdt",
                ndim=2,
                gpu="V100",
                model=selector_artifact.model,
            )

    def test_unknown_kind_rejected(self, selector_artifact):
        with pytest.raises(ArtifactError, match="unknown artifact kind"):
            ModelArtifact(
                kind="oracle", method="gbdt", ndim=2,
                model=selector_artifact.model,
            )


class TestArtifactRejection:
    def test_corrupt_weight_rejected(self, selector_artifact, tmp_path):
        """A flipped bit inside the model payload fails the checksum."""
        path = tmp_path / "sel.json"
        save_artifact(selector_artifact, path)
        doc = json.loads(path.read_text())
        data = doc["model"]["state"]["trees"][0][0]["value"]["data"]
        # Swap two base64 characters so the payload decodes but differs.
        mutated = data[:-4] + data[-2:] + data[-4:-2]
        assert mutated != data
        doc["model"]["state"]["trees"][0][0]["value"]["data"] = mutated
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            load_artifact(path)

    def test_edited_metadata_rejected(self, selector_artifact, tmp_path):
        path = tmp_path / "sel.json"
        save_artifact(selector_artifact, path)
        doc = json.loads(path.read_text())
        doc["gpu"] = "A100"  # hand-edit without re-checksumming
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            load_artifact(path)

    def test_truncated_file_rejected(self, selector_artifact, tmp_path):
        path = tmp_path / "sel.json"
        save_artifact(selector_artifact, path)
        path.write_text(path.read_text()[: 100])
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(tmp_path / "nope.json")

    def test_newer_format_version_names_both(
        self, selector_artifact, tmp_path
    ):
        """PR 1 convention: a newer document is rejected with a message
        naming the document's version and the supported one."""
        path = tmp_path / "sel.json"
        save_artifact(selector_artifact, path)
        doc = json.loads(path.read_text())
        newer = SERVE_FORMAT_VERSION + 1
        doc["format"] = newer
        payload = {k: v for k, v in doc.items() if k != "checksum"}
        doc["checksum"] = checksum(payload)
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError) as exc:
            load_artifact(path)
        assert str(newer) in str(exc.value)
        assert str(SERVE_FORMAT_VERSION) in str(exc.value)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ArtifactError, match="must be an object"):
            load_artifact(path)


def test_default_artifact_name():
    assert default_artifact_name("selector", "gbdt", "V100", 2) == (
        "select-gbdt-V100-2d"
    )
    assert default_artifact_name("predictor", "gbr", None, 3) == (
        "predict-gbr-all-3d"
    )


class TestRegistry:
    """Store layout contract; :class:`TestDatasetRegistry` reruns it."""

    registry_cls = ModelRegistry

    def test_publish_versions_and_latest(self, store_case):
        reg = store_case.registry
        assert store_case.publish("m") == "v000001"
        assert store_case.publish("m") == "v000002"
        assert reg.versions("m") == ["v000001", "v000002"]
        assert reg.latest("m") == "v000002"
        assert reg.names() == ["m"]
        assert store_case.doc(reg.load("m")) == store_case.doc(store_case.item)

    def test_old_versions_stay_loadable(self, store_case):
        reg = store_case.registry
        store_case.publish("m")
        first = reg.path("m", "v000001").read_bytes()
        store_case.publish("m")
        assert reg.path("m", "v000001").read_bytes() == first
        loaded = reg.load("m", "v000001")
        assert store_case.doc(loaded) == store_case.doc(store_case.item)

    def test_missing_latest_tag_falls_back(self, store_case):
        reg = store_case.registry
        store_case.publish("m")
        store_case.publish("m")
        (reg.root / "m" / "LATEST").unlink()
        assert reg.latest("m") == "v000002"

    def test_dangling_latest_tag_rejected(self, store_case):
        reg = store_case.registry
        store_case.publish("m")
        (reg.root / "m" / "LATEST").write_text("v000009\n")
        with pytest.raises(reg.error, match="LATEST"):
            reg.latest("m")

    def test_unknown_name_rejected(self, store_case):
        reg = store_case.registry
        with pytest.raises(reg.error, match=f"no {reg.noun} named"):
            reg.versions("ghost")
        store_case.publish("m")
        with pytest.raises(reg.error, match="not found"):
            reg.path("m", "v000009")

    def test_path_traversal_rejected(self, store_case):
        reg = store_case.registry
        with pytest.raises(reg.error, match=f"bad {reg.noun} name"):
            reg.versions("../escape")
        with pytest.raises(reg.error, match=f"bad {reg.noun} name"):
            store_case.publish("../escape")

    def test_corrupt_published_artifact_fails_closed(self, store_case):
        reg = store_case.registry
        version = store_case.publish("m")
        p = reg.path("m", version)
        p.write_text(p.read_text().replace('"kind"', '"kinb"', 1))
        with pytest.raises(reg.error):
            reg.load("m")

    @pytest.mark.parametrize("mangle", ["truncate", "array"])
    def test_unparseable_version_fails_closed(self, store_case, mangle):
        reg = store_case.registry
        p = reg.path("m", store_case.publish("m"))
        text = p.read_text()
        p.write_text(text[: len(text) // 2] if mangle == "truncate" else "[]")
        with pytest.raises(reg.error):
            reg.load("m")


class TestDatasetRegistry(TestRegistry):
    registry_cls = DatasetRegistry
