"""Directory-backed model registry with ``latest`` tagging.

A :class:`~repro.store.VersionedStore` of model artifacts, one name per
trained model; see :mod:`repro.store` for the on-disk layout and the
fail-closed rules.
"""

from __future__ import annotations

import json

from ..errors import ArtifactError
from ..store import VersionedStore
from .artifacts import ModelArtifact, load_artifact


class ModelRegistry(VersionedStore):
    """Publish/resolve/load versioned model artifacts under one root."""

    error = ArtifactError
    noun = "artifact"

    def publish(self, artifact: ModelArtifact, name: str) -> str:
        """Write *artifact* as the next version of *name*; returns it."""
        return self.publish_text(name, json.dumps(artifact.to_dict()))

    def load(self, name: str, version: "str | None" = None) -> ModelArtifact:
        """Load and checksum-verify ``name@version`` (default latest)."""
        return load_artifact(self.path(name, version))


def default_artifact_name(kind: str, method: str, gpu: "str | None",
                          ndim: int) -> str:
    """The conventional registry name for a trained model.

    Selectors are per-GPU (``select-gbdt-V100-2d``); cross-architecture
    predictors use ``all`` in the GPU slot.
    """
    stem = "select" if kind == "selector" else "predict"
    return f"{stem}-{method}-{gpu or 'all'}-{ndim}d"
