"""Regenerate the frozen golden of the timing model (``golden_model.json``).

The golden pins :class:`~repro.engine.VectorBackend` -- the batched view
of the one cost model in :mod:`repro.gpu.model` -- over a sweep of random
stencils x every OC x sampled settings on all seven GPUs, at two noise
levels, plus a crash-heavy slice (streaming + temporal blocking on a 3-D
stencil).  ``golden_model.json`` was produced by this script on the code
as it stood just before the scalar timing chain was folded into the
array pipeline, so the pins record the behaviour that refactor had to
preserve::

    PYTHONPATH=src python tests/engine/make_golden.py

Each case stores, per noise level, one ``repr`` per point (exact round
trip through JSON; ``null`` where the point crashes) and, once, the
crashes as ``"<type name>: <message>"`` keyed by point index -- a crash does
not depend on the noise level.  A comparison failure is therefore a
real bit-level or message-level divergence.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.engine import EvalRequest, VectorBackend
from repro.gpu.specs import ALL_GPU_ORDER
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.params import default_setting, sample_setting
from repro.stencil.generator import generate_population

GOLDEN_PATH = Path(__file__).with_name("golden_model.json")

#: Noise levels of the sweep: the campaign default and a heavy one that
#: makes any drift in the keyed jitter obvious.
SIGMAS = (0.03, 0.25)

#: The crash-heavy slice: GPU, stencil population seed, draws per OC.
CRASH_GPU = "P100"
CRASH_SEED = 3
CRASH_DRAWS = 12


def sweep_requests(ndim: int, n_stencils: int = 2, n_settings: int = 4, seed=None):
    """Random stencils x all OCs x sampled settings (+ the default)."""
    seed = 17 + ndim if seed is None else seed
    rng = np.random.default_rng(seed)
    requests = []
    for stencil in generate_population(ndim, n_stencils, seed=seed):
        for oc in ALL_OCS:
            settings = [default_setting()] + [
                sample_setting(oc, stencil.ndim, rng) for _ in range(n_settings)
            ]
            requests.extend(EvalRequest(stencil, oc, s) for s in settings)
    return requests


def crash_heavy_requests():
    """Streaming + temporal OCs on a 3-D stencil: most settings crash."""
    rng = np.random.default_rng(99)
    (stencil,) = generate_population(3, 1, seed=CRASH_SEED)
    ocs = [oc for oc in ALL_OCS if "ST" in oc.name.split("_") and "TB" in oc.name]
    return [
        EvalRequest(stencil, oc, sample_setting(oc, 3, rng))
        for oc in ocs
        for _ in range(CRASH_DRAWS)
    ]


def describe_crash(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def encode(gpu: str, requests, sigmas=SIGMAS) -> dict:
    """One case as stored in the golden: times per noise level + crashes."""
    case: dict = {"crashes": {}}
    for sigma in sigmas:
        results = VectorBackend(gpu, sigma=sigma).evaluate_batch(requests)
        case[f"sigma={sigma}"] = [repr(r.time_ms) if r.ok else None for r in results]
        for i, r in enumerate(results):
            if not r.ok:
                case["crashes"][str(i)] = describe_crash(r.error)
    return case


def main() -> None:
    cases: dict[str, dict] = {}
    for gpu in ALL_GPU_ORDER:
        for ndim in (2, 3):
            cases[f"{gpu}/{ndim}d"] = encode(gpu, sweep_requests(ndim))
    cases[f"{CRASH_GPU}/crash-heavy"] = encode(
        CRASH_GPU, crash_heavy_requests(), sigmas=SIGMAS[:1]
    )
    GOLDEN_PATH.write_text(json.dumps(cases, indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
