"""Regenerate the frozen persistent-cache directory (``golden_cache/``).

The directory pins the on-disk layout of ``CachingBackend(root=)``: one
format-1 JSON document per (GPU, sigma, stencil, OC, grid) group, named
by the BLAKE2b digest of that identity, with ``"v1,v2,..."`` entries
mapping to a float time or ``{"crash": msg}``.  It holds three groups on
V100: sampled ``star2d2r`` / ``ST`` settings, sampled ``box(3, 4)`` /
``TB`` settings (all of them launch crashes) and ``star2d2r`` / ``ST``
on a reduced grid::

    PYTHONPATH=src python tests/tuning/make_cache_golden.py

The committed files were written from these same requests by the
separate disk-only tuning cache (``repro.tuning.cache``) that
``CachingBackend(root=)`` replaced.  ``test_cache.py`` checks that the
current code replays them as all hits, bit-identical to re-measuring,
and that a cold fill writes byte-identical files.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from repro.engine import CachingBackend, EvalRequest, VectorBackend
from repro.optimizations import OC
from repro.optimizations.params import sample_setting
from repro.stencil import box, get

GOLDEN_DIR = Path(__file__).with_name("golden_cache")
GPU = "V100"


def _sampled(stencil, oc, n, seed, grid=None) -> list[EvalRequest]:
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < n:
        s = sample_setting(oc, stencil.ndim, rng)
        if s.as_tuple() not in seen:
            seen.add(s.as_tuple())
            out.append(EvalRequest(stencil, oc, s, grid=grid))
    return out


def batches() -> list[list[EvalRequest]]:
    """The pinned requests, one batch per group."""
    star, st = get("star2d2r"), OC.parse("ST")
    return [
        _sampled(star, st, 8, seed=0),
        _sampled(box(3, 4), OC.parse("TB"), 8, seed=3),
        _sampled(star, st, 4, seed=1, grid=(256, 256)),
    ]


def fill(root) -> None:
    """Measure every pinned request on V100 into a cache rooted at *root*."""
    cache = CachingBackend(VectorBackend(GPU), root=root)
    for batch in batches():
        cache.evaluate_batch(batch)
    cache.flush()


def main() -> None:
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    fill(GOLDEN_DIR)
    print(f"wrote {len(list(GOLDEN_DIR.glob('*.json')))} groups to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
