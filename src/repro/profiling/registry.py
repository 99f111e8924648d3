"""Directory-backed registry for versioned campaign datasets.

The paper's headline artifact is the profiling campaign itself (~65k
instances per GPU); at that scale the dataset deserves the same
publishing discipline the serving layer gives trained models.
:class:`DatasetRegistry` is a :class:`~repro.store.VersionedStore` of
campaigns; see :mod:`repro.store` for the on-disk layout and the
fail-closed rules.

Each version file is a **campaign-dataset document**: the ordinary
:func:`~repro.profiling.storage.campaign_to_dict` payload wrapped with
its :func:`~repro.store.checksum` plus free-form provenance metadata
(host, worker count, wall time -- whatever the producer records).
:func:`~repro.profiling.storage.load_campaign` understands the wrapper
directly, so ``repro train --campaign
<registry>/<name>/v000001.json`` -- or just the registry directory --
consumes a published dataset with no extra tooling.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import DatasetError
from ..store import VersionedStore, check_format
from ..store import checksum as checksum_campaign_doc
from .profiler import ProfileCampaign
from .storage import FORMAT_VERSION, campaign_from_dict, campaign_to_dict

#: ``kind`` field of the wrapper document.
DATASET_KIND = "campaign-dataset"


def dataset_document(campaign: ProfileCampaign, meta: "dict | None" = None) -> dict:
    """Wrap a campaign as a checksummed dataset document."""
    campaign_doc = campaign_to_dict(campaign)
    return {
        "format": FORMAT_VERSION,
        "kind": DATASET_KIND,
        "meta": dict(meta or {}),
        "checksum": checksum_campaign_doc(campaign_doc),
        "campaign": campaign_doc,
    }


def unwrap_dataset_document(doc: dict) -> ProfileCampaign:
    """Verify and decode a campaign-dataset document.

    A flipped bit anywhere in the campaign payload -- or a truncated or
    hand-edited file -- fails closed with a :class:`DatasetError` naming
    both digests.
    """
    check_format(doc, FORMAT_VERSION, "dataset", DatasetError)
    if doc.get("kind") != DATASET_KIND:
        raise DatasetError(f"not a campaign dataset: kind={doc.get('kind')!r}")
    campaign_doc = doc.get("campaign")
    if not isinstance(campaign_doc, dict):
        raise DatasetError("campaign dataset has no 'campaign' payload")
    expected = doc.get("checksum")
    actual = checksum_campaign_doc(campaign_doc)
    if expected != actual:
        raise DatasetError(
            f"campaign dataset checksum mismatch: document says "
            f"{expected!r}, payload hashes to {actual!r}"
        )
    return campaign_from_dict(campaign_doc)


class DatasetRegistry(VersionedStore):
    """Publish/resolve/load versioned campaign datasets under one root."""

    error = DatasetError
    noun = "dataset"

    def publish(
        self, campaign: ProfileCampaign, name: str, meta: "dict | None" = None
    ) -> str:
        """Write *campaign* as the next version of *name*; returns it."""
        return self.publish_text(
            name, json.dumps(dataset_document(campaign, meta))
        )

    def meta(self, name: str, version: "str | None" = None) -> dict:
        """Provenance metadata of ``name@version`` (default latest)."""
        return dict(self.read(name, version).get("meta") or {})

    def load(self, name: str, version: "str | None" = None) -> ProfileCampaign:
        """Load and checksum-verify ``name@version`` (default latest)."""
        return unwrap_dataset_document(self.read(name, version))


def resolve_dataset_path(path: "str | Path") -> Path:
    """Resolve a campaign argument that may point into a registry.

    Accepts, in order of specificity: a dataset document (or plain
    campaign) file, a registry *dataset directory* (``<root>/<name>`` --
    resolves its latest version), or a registry root containing exactly
    one dataset.  This is what lets ``repro train --campaign`` consume
    a published dataset directly.
    """
    p = Path(path)
    if p.is_file():
        return p
    if p.is_dir():
        if DatasetRegistry._versions_in(p):
            reg = DatasetRegistry(p.parent)
            return reg.path(p.name)
        reg = DatasetRegistry(p)
        names = reg.names()
        if len(names) == 1:
            return reg.path(names[0])
        raise DatasetError(
            f"{p} is not a dataset: expected a campaign file, a registry "
            f"dataset directory, or a registry root with exactly one "
            f"dataset (found {names or 'none'})"
        )
    raise DatasetError(f"no such campaign file or dataset directory: {p}")
