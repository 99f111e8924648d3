"""Frozen checksums: the store's digest is part of every artifact's bytes.

Published model artifacts and campaign datasets embed
:func:`repro.store.checksum`; a change to its canonical encoding would
orphan every document already on disk.  These goldens pin the hex
digests, not agreement between two copies of the formula.
"""

from repro.ml.analytical import AnalyticalPredictor
from repro.serve import ModelArtifact
from repro.store import checksum


def test_model_artifact_checksum_golden():
    artifact = ModelArtifact(
        kind="predictor",
        method="analytical",
        ndim=2,
        model=AnalyticalPredictor(grid=(256, 256)),
        meta={"source": "golden"},
    )
    assert artifact.to_dict()["checksum"] == "a64cb212cea16118035e274f92cb4911"


def test_canonical_json_checksum_golden():
    doc = {"b": [1, 2.5, None], "a": {"z": "é", "y": True}}
    reordered = {"a": {"y": True, "z": "é"}, "b": [1, 2.5, None]}
    assert checksum(doc) == "e1efbbff49b3d665038b9babbce38a4a"
    assert checksum(reordered) == checksum(doc)
