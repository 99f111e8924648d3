"""Regenerate the pre-refactor golden tuning results.

The equivalence suite (``test_equivalence.py``) pins the unified
``repro.tuning.tune()`` front door to the behavior of the three legacy
search paths -- ``RandomSearch`` (with and without coordinate-descent
refinement), ``GeneticSearch`` and whole profiling campaigns -- as they
stood *before* the refactor.  This script produced
``golden_pre_refactor.json`` by running the pre-refactor code on the
4-GPU slice; it is kept so the fixture can be regenerated from any
commit known to reproduce the legacy behavior::

    PYTHONPATH=src python tests/tuning/make_golden.py

Every float is stored via ``repr`` (exact round trip through JSON) and
measurement lists are collapsed to a BLAKE2b digest over their full
content, so a comparison failure means a real bit-level divergence.

The fixture was regenerated once since, when the per-point timing chain
was folded into the batched array pipeline: this script ran on
``VectorBackend`` on the code just before that change, because the per-point
chain it replaced differed from the batched one by 1-3 ulp on some
points (NumPy's array ``**`` and libm ``pow`` round differently).  That
moved 18 best times by 1 ulp, 109 measurement digests and the campaign
digest (now ``121af6fa0b1e769d20b4a58ddcb137de``); no best setting or
evaluation count changed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.gpu.specs import GPU_ORDER
from repro.engine import VectorBackend
from repro.optimizations import OC
from repro.profiling import RandomSearch, run_campaign
from repro.profiling.storage import campaign_to_dict
from repro.stencil import generate_population, get
from repro.tuning import GeneticSearch

#: The slice: named stencils x OCs exercising every parameter family.
STENCILS = ("star2d2r", "box2d1r", "star3d1r", "box3d2r")
OCS = ("naive", "ST", "ST_RT", "BM", "ST_CM_RT_TB", "ST_TB")

N_SETTINGS = 6
SEED = 7


def _digest_measurements(measurements) -> str:
    h = hashlib.blake2b(digest_size=16)
    for m in measurements:
        h.update(
            repr(
                (m.stencil_id, m.oc, m.setting.as_tuple(), m.gpu, m.time_ms)
            ).encode()
        )
    return h.hexdigest()


def _oc_result_row(result, measurements) -> dict:
    if result is None:
        return {"crashed_out": True}
    return {
        "crashed_out": False,
        "best_setting": list(result.best_setting.as_tuple()),
        "best_time_ms": repr(result.best_time_ms),
        "n_settings": result.n_settings,
        "crashed": result.crashed,
        "measurements": _digest_measurements(measurements),
    }


def main() -> None:
    golden: dict = {
        "n_settings": N_SETTINGS,
        "seed": SEED,
        "stencils": list(STENCILS),
        "ocs": list(OCS),
        "random": {},
        "random_unrefined": {},
        "genetic": {},
    }
    for gpu in GPU_ORDER:
        sim = VectorBackend(gpu)
        refined = RandomSearch(sim, N_SETTINGS, seed=SEED)
        raw = RandomSearch(sim, N_SETTINGS, seed=SEED, refine=False)
        ga = GeneticSearch(sim, population=8, generations=4, seed=SEED)
        for name in STENCILS:
            stencil = get(name)
            sid = STENCILS.index(name)
            for oc_name in OCS:
                oc = OC.parse(oc_name)
                key = f"{gpu}/{name}/{oc_name}"
                r, ms = refined.tune_oc(stencil, sid, oc)
                golden["random"][key] = _oc_result_row(r, ms)
                r, ms = raw.tune_oc(stencil, sid, oc)
                golden["random_unrefined"][key] = _oc_result_row(r, ms)
                g = ga.tune_oc(stencil, oc)
                if g is None:
                    golden["genetic"][key] = {"crashed_out": True}
                else:
                    golden["genetic"][key] = {
                        "crashed_out": False,
                        "best_setting": list(g.best_setting.as_tuple()),
                        "best_time_ms": repr(g.best_time_ms),
                        "evaluations": g.trials,
                    }

    # Whole-campaign digest: random 2-D population on all four GPUs.
    pop = generate_population(2, 4, seed=SEED)
    campaign = run_campaign(
        pop, gpus=GPU_ORDER, n_settings=4, seed=SEED, backend="vector"
    )
    doc = json.dumps(campaign_to_dict(campaign), sort_keys=True)
    golden["campaign_digest"] = hashlib.blake2b(
        doc.encode(), digest_size=16
    ).hexdigest()

    out = Path(__file__).with_name("golden_pre_refactor.json")
    out.write_text(json.dumps(golden, indent=1, sort_keys=True))
    print(f"wrote {out} ({len(golden['random'])} random slots)")


if __name__ == "__main__":
    main()
