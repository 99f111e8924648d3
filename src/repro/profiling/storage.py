"""Persistence for stencil populations and profiling campaigns.

Profiling campaigns are the expensive artifact of the pipeline (the paper
collects ~65k/76k instances per GPU); this module serializes them to a
single JSON document so training runs and notebooks can reload them
without re-simulating.  JSON keeps the format inspectable and
diff-friendly; measurement volume at reproduction scale stays well within
what the text codec handles comfortably.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import DatasetError
from ..optimizations.combos import OC_BY_NAME
from ..optimizations.params import PARAM_NAMES, ParamSetting
from ..stencil.stencil import Stencil
from ..store import atomic_write_text, check_format, read_document
from .profiler import ProfileCampaign
from .records import Measurement, OCResult, StencilProfile

#: Format version written into every document.
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# stencil (de)serialization
# ----------------------------------------------------------------------
def stencil_to_dict(stencil: Stencil) -> dict:
    """JSON-ready description of a stencil."""
    return {
        "ndim": stencil.ndim,
        "name": stencil.name,
        "offsets": [list(p) for p in stencil.sorted_offsets],
    }


def stencil_from_dict(doc: dict) -> Stencil:
    """Inverse of :func:`stencil_to_dict`."""
    try:
        return Stencil(
            ndim=int(doc["ndim"]),
            offsets=frozenset(tuple(p) for p in doc["offsets"]),
            name=str(doc.get("name", "")),
        )
    except KeyError as e:
        raise DatasetError(f"malformed stencil document: missing {e}") from None


# ----------------------------------------------------------------------
# setting (de)serialization
# ----------------------------------------------------------------------
def _setting_to_list(setting: ParamSetting) -> list[int]:
    return list(setting.as_tuple())


def _setting_from_list(values: list[int]) -> ParamSetting:
    if len(values) != len(PARAM_NAMES):
        raise DatasetError(
            f"setting vector has {len(values)} entries, expected {len(PARAM_NAMES)}"
        )
    return ParamSetting(**dict(zip(PARAM_NAMES, values)))


def _setting_decoder():
    """:func:`_setting_from_list` that decodes each distinct vector once.

    A campaign stores the same setting many times (every OC result and
    every measurement of it); settings are immutable, so repeats share
    the first decode's instance.
    """
    decoded: dict[tuple, ParamSetting] = {}

    def decode(values: list[int]) -> ParamSetting:
        key = tuple(values)
        setting = decoded.get(key)
        if setting is None:
            setting = decoded[key] = _setting_from_list(values)
        return setting

    return decode


# ----------------------------------------------------------------------
# profile-row (de)serialization -- shared by campaigns and checkpoints
# ----------------------------------------------------------------------
def profile_to_row(profile: StencilProfile) -> dict:
    """JSON-ready description of one stencil's results on one GPU."""
    return {
        "stencil_id": profile.stencil_id,
        "oc_results": {
            name: {
                "setting": _setting_to_list(r.best_setting),
                "time_ms": r.best_time_ms,
                "n_settings": r.n_settings,
                "crashed": r.crashed,
            }
            for name, r in profile.oc_results.items()
        },
        "measurements": [
            [m.oc, _setting_to_list(m.setting), m.time_ms]
            for m in profile.measurements
        ],
    }


def profile_from_row(row: dict, stencil: Stencil, gpu: str) -> StencilProfile:
    """Inverse of :func:`profile_to_row`."""
    return _profile_from_row(row, stencil, gpu, _setting_decoder())


def _profile_from_row(row: dict, stencil: Stencil, gpu: str, decode) -> StencilProfile:
    sid = int(row["stencil_id"])
    profile = StencilProfile(stencil=stencil, stencil_id=sid, gpu=gpu)
    for name, r in row["oc_results"].items():
        profile.oc_results[name] = OCResult(
            oc=name,
            best_setting=decode(r["setting"]),
            best_time_ms=float(r["time_ms"]),
            n_settings=int(r["n_settings"]),
            crashed=int(r["crashed"]),
        )
    for oc_name, values, t in row["measurements"]:
        profile.measurements.append(
            Measurement(
                stencil_id=sid,
                oc=oc_name,
                setting=decode(values),
                gpu=gpu,
                time_ms=float(t),
            )
        )
    return profile


# ----------------------------------------------------------------------
# campaign (de)serialization
# ----------------------------------------------------------------------
def campaign_to_dict(campaign: ProfileCampaign) -> dict:
    """JSON-ready description of a full profiling campaign."""
    return {
        "format": FORMAT_VERSION,
        "gpus": list(campaign.gpus),
        "ocs": [oc.name for oc in campaign.ocs],
        "n_settings": campaign.n_settings,
        "seed": campaign.seed,
        "stencils": [stencil_to_dict(s) for s in campaign.stencils],
        "profiles": {
            gpu: [profile_to_row(p) for p in profiles]
            for gpu, profiles in campaign.profiles.items()
        },
    }


def campaign_from_dict(doc: dict) -> ProfileCampaign:
    """Inverse of :func:`campaign_to_dict`."""
    check_format(doc, FORMAT_VERSION, "campaign", DatasetError)
    stencils = [stencil_from_dict(d) for d in doc["stencils"]]
    try:
        ocs = tuple(OC_BY_NAME[name] for name in doc["ocs"])
    except KeyError as e:
        raise DatasetError(f"unknown OC in document: {e}") from None
    campaign = ProfileCampaign(
        stencils=stencils,
        gpus=tuple(doc["gpus"]),
        ocs=ocs,
        n_settings=int(doc["n_settings"]),
        seed=int(doc["seed"]),
    )
    decode = _setting_decoder()
    for gpu, rows in doc["profiles"].items():
        campaign.profiles[gpu] = [
            _profile_from_row(row, stencils[int(row["stencil_id"])], gpu, decode)
            for row in rows
        ]
    return campaign


def save_campaign(campaign: ProfileCampaign, path: "str | Path") -> None:
    """Write a campaign to *path* as JSON (atomically; see
    :func:`repro.store.atomic_write_text`)."""
    atomic_write_text(path, json.dumps(campaign_to_dict(campaign)))


def load_campaign(path: "str | Path") -> ProfileCampaign:
    """Read a campaign written by :func:`save_campaign` -- or a published
    campaign-dataset document (checksum-verified; see
    :mod:`repro.profiling.registry`)."""
    doc = read_document(path, DatasetError, "campaign")
    if doc.get("kind") == "campaign-dataset":
        from .registry import unwrap_dataset_document

        return unwrap_dataset_document(doc)
    return campaign_from_dict(doc)
