"""Regenerate the frozen pin of :func:`repro.profiling.build_regression_dataset`.

``test_golden_regression_dataset.py`` checks that the regression dataset
built from one fixed two-GPU campaign is byte-identical to the arrays
this script recorded: a digest of each array's dtype, shape and raw
bytes (``features``, ``aux``, ``tensors``, ``times_ms``,
``stencil_ids``), the per-row ``gpus`` list (as runs of one GPU name),
a digest of the per-row ``ocs`` list, and a digest of every row's
``setting.encode()``.  ``golden_regression_dataset.json`` was
written by this script from the per-row loop that assembled the dataset
one measurement at a time; regenerate it only from a commit known to
reproduce that loop's output::

    PYTHONPATH=src python tests/profiling/make_golden_regression_dataset.py
"""

from __future__ import annotations

import hashlib
import json
from itertools import groupby
from pathlib import Path

import numpy as np

from repro.profiling import build_regression_dataset, run_campaign
from repro.stencil import generate_population
from repro.store import checksum

GOLDEN_PATH = Path(__file__).with_name("golden_regression_dataset.json")

#: The campaign: 2-D random stencils on two GPUs of different vendors.
CAMPAIGN = dict(ndim=2, count=6, pop_seed=11, gpus=("V100", "MI210"), n_settings=4, seed=3)

ARRAYS = ("features", "aux", "tensors", "times_ms", "stencil_ids")


def campaign():
    stencils = generate_population(CAMPAIGN["ndim"], CAMPAIGN["count"], seed=CAMPAIGN["pop_seed"])
    return run_campaign(
        stencils, gpus=CAMPAIGN["gpus"], n_settings=CAMPAIGN["n_settings"], seed=CAMPAIGN["seed"]
    )


def array_digest(a: np.ndarray) -> str:
    """Digest of an array's dtype, shape and C-order bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def dataset_pin(ds) -> dict:
    """Everything the golden records about one dataset."""
    encoded = np.stack([s.encode() for s in ds.settings])
    return {
        "arrays": {name: array_digest(getattr(ds, name)) for name in ARRAYS},
        "settings_encoded": array_digest(encoded),
        "gpus": [[gpu, len(list(run))] for gpu, run in groupby(ds.gpus)],
        "ocs": checksum(list(ds.ocs)),
    }


def pins() -> dict:
    """The pins of the full two-GPU dataset and of a one-GPU build."""
    c = campaign()
    return {
        "all_gpus": dataset_pin(build_regression_dataset(c)),
        "mi210_only": dataset_pin(build_regression_dataset(c, gpus=("MI210",))),
    }


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
