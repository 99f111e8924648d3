"""Versioned, checksummed model artifacts.

An artifact is one JSON document holding a trained estimator plus the
metadata needed to serve it without the training campaign in hand:
task kind, method, dimensionality, target GPU, feature schema, and --
for selectors -- the merged-class representative OCs the class indices
decode to.

Integrity contract:

- ``format`` follows the store convention (:func:`repro.store.check_format`):
  documents written by a newer library version are rejected with a
  message naming both versions; anything else malformed raises
  :class:`ArtifactError`.
- ``checksum`` is :func:`repro.store.checksum` over the whole payload.
  A flipped bit in a weight matrix, an edited metadata field or a
  truncated file all fail closed at load time.
- The embedded model uses :mod:`repro.ml.serialize`, so a loaded
  artifact predicts bit-identically to the in-memory model it was saved
  from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..config import MAX_ORDER
from ..errors import ArtifactError
from ..ml.serialize import model_from_state, model_state
from ..stencil.features import feature_names
from ..store import atomic_write_text, check_format, checksum, read_document

#: Format version written into every artifact document.
SERVE_FORMAT_VERSION = 1

#: Artifact kinds: OC selection (classifier) or time prediction
#: (regressor).
KINDS = ("selector", "predictor")


@dataclass
class ModelArtifact:
    """A trained model plus everything needed to serve it.

    ``gpu`` is the target GPU for selectors; predictors trained across
    architectures record their training GPUs in ``meta`` and keep
    ``gpu`` as ``None``.  ``representatives`` decodes selector class
    indices to OC names; it is empty for predictors.
    """

    kind: str
    method: str
    ndim: int
    model: object
    gpu: "str | None" = None
    max_order: int = MAX_ORDER
    representatives: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ArtifactError(
                f"unknown artifact kind {self.kind!r}; known: {KINDS}"
            )
        if self.kind == "selector" and not self.representatives:
            raise ArtifactError("selector artifacts need representatives")

    # ------------------------------------------------------------------
    @property
    def feature_schema(self) -> list[str]:
        """Names of the flat feature vector this model consumes."""
        return feature_names(self.max_order)

    def describe(self) -> str:
        target = self.gpu or "cross-arch"
        return f"{self.kind}/{self.method} ({self.ndim}d, {target})"

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready document, checksummed over every other field."""
        payload = {
            "format": SERVE_FORMAT_VERSION,
            "kind": self.kind,
            "method": self.method,
            "ndim": self.ndim,
            "gpu": self.gpu,
            "max_order": self.max_order,
            "representatives": list(self.representatives),
            "feature_schema": self.feature_schema,
            "meta": dict(self.meta),
            "model": model_state(self.model),
        }
        return {**payload, "checksum": checksum(payload)}

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelArtifact":
        """Validate and rebuild an artifact from :meth:`to_dict` output."""
        check_format(doc, SERVE_FORMAT_VERSION, "artifact", ArtifactError)
        recorded = doc.get("checksum")
        payload = {k: v for k, v in doc.items() if k != "checksum"}
        actual = checksum(payload)
        if recorded != actual:
            raise ArtifactError(
                f"artifact checksum mismatch: recorded {recorded!r}, "
                f"computed {actual!r} (corrupt or hand-edited document)"
            )
        try:
            return cls(
                kind=str(doc["kind"]),
                method=str(doc["method"]),
                ndim=int(doc["ndim"]),
                gpu=doc["gpu"],
                max_order=int(doc["max_order"]),
                representatives=[str(r) for r in doc["representatives"]],
                meta=dict(doc.get("meta", {})),
                model=model_from_state(doc["model"]),
            )
        except KeyError as e:
            raise ArtifactError(f"malformed artifact: missing {e}") from None


def save_artifact(artifact: ModelArtifact, path: "str | Path") -> None:
    """Write an artifact to *path* atomically."""
    atomic_write_text(path, json.dumps(artifact.to_dict()))


def load_artifact(path: "str | Path") -> ModelArtifact:
    """Read, checksum-verify and rebuild an artifact from *path*."""
    return ModelArtifact.from_dict(read_document(path, ArtifactError, "artifact"))
