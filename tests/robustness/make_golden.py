"""Regenerate the frozen fault schedule (``golden_faults.json``).

The golden pins :class:`~repro.engine.FaultBackend` -- the one fault
injector -- over a fixed request stream::

    PYTHONPATH=src python tests/robustness/make_golden.py

For every fault configuration (``FaultConfig.uniform(0.2)`` and each
fault class alone at rates 0.5 and 1.0), two seeds and two unit keys,
the stream is driven two ways: one request per call, and the whole
stream as one batch, three times over.  The stream repeats one request,
so a batch carries a repeated identity.  Each call records its outcome:
either one entry per request (the time's ``repr`` or ``"<error class>:
<message>"``) or, when the device was lost, the lost row and the error.
Either way the call also records the attempt counter of every request's
identity as committed after the call.

The file also freezes the health counters and the campaign digest of
one faulted campaign shaped like ``repro profile --ndim 2 --count 2
--gpus V100 P100 --n-settings 2 --fault-rate 0.1``.

``golden_faults.json`` was produced on the code as it stood while a
second, per-point injector still existed, and every row was checked
against that injector driven one request at a time: the pins record the
schedule the batched injector must keep.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.config import DEFAULT_SEED
from repro.engine import EvalRequest, FaultBackend, VectorBackend
from repro.errors import DeviceLostError
from repro.gpu.faults import FaultConfig
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.params import sample_setting
from repro.profiling import CampaignRunner
from repro.profiling.storage import campaign_to_dict
from repro.stencil import generate_population, star

GOLDEN_PATH = Path(__file__).with_name("golden_faults.json")

GPU = "V100"
SEEDS = (0, 7)
UNITS = ((GPU, 0), (GPU, 1))
BATCH_ROUNDS = 3


def configs() -> dict[str, FaultConfig]:
    out = {"uniform=0.2": FaultConfig.uniform(0.2)}
    for kind in ("timeout", "transient", "device_lost", "corrupt"):
        for rate in (0.5, 1.0):
            out[f"{kind}={rate}"] = FaultConfig(**{f"{kind}_rate": rate})
    return out


def request_stream() -> list[EvalRequest]:
    """Sampled settings over several OCs, a crash-prone 3-D slice and a
    repeated request (one identity twice in one batch)."""
    rng = np.random.default_rng(41)
    stencil = star(2, 1)
    reqs = [
        EvalRequest(stencil, oc, sample_setting(oc, 2, rng))
        for oc in ALL_OCS[::3]
        for _ in range(2)
    ]
    (cube,) = generate_population(3, 1, seed=3)
    crashy = [oc for oc in ALL_OCS if "ST" in oc.name.split("_") and "TB" in oc.name]
    reqs += [EvalRequest(cube, oc, sample_setting(oc, 3, rng)) for oc in crashy[:4]]
    reqs.insert(5, reqs[2])
    return reqs


def describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _outcome(res) -> str:
    return repr(res.time_ms) if res.ok else describe(res.error)


def _committed(be: FaultBackend, identities) -> dict:
    attempts = be._attempts
    return {i: attempts.get(i, 0) for i in identities}


def drive(be: FaultBackend, requests, shape: str) -> list[dict]:
    """Every call of one stream, as stored in the golden."""
    if shape == "single":
        calls = [[r] for r in requests]
    else:
        calls = [list(requests)] * BATCH_ROUNDS
    out = []
    for batch in calls:
        idents = be.batch_identities(batch)
        before = _committed(be, idents)
        try:
            call = {"rows": [_outcome(r) for r in be.evaluate_batch(batch)]}
        except DeviceLostError as e:
            call = {"error": describe(e)}
        after = _committed(be, idents)
        if "error" in call:
            # Each row the batch got through advanced its counter once,
            # so the lost row is the total advance minus one.
            call["lost"] = sum(after[i] - before[i] for i in after) - 1
        call["attempts"] = [after[i] for i in idents]
        out.append(call)
    return out


def streams() -> dict[str, list[dict]]:
    requests = request_stream()
    out = {}
    for name, cfg in configs().items():
        for seed in SEEDS:
            for unit in UNITS:
                for shape in ("single", "batch"):
                    be = FaultBackend(VectorBackend(GPU), cfg, seed=seed)
                    be.begin_unit(unit)
                    key = f"{name}/seed={seed}/unit={unit[1]}/{shape}"
                    out[key] = drive(be, requests, shape)
    return out


def campaign_case(faults: FaultConfig) -> dict:
    """Health counters and digest of the CLI-shaped campaign."""
    pop = generate_population(2, 2, seed=DEFAULT_SEED)
    runner = CampaignRunner(
        pop, gpus=("V100", "P100"), n_settings=2, seed=DEFAULT_SEED,
        backend="vector", faults=faults,
    )
    campaign = runner.run()
    text = json.dumps(campaign_to_dict(campaign))
    return {
        "health": runner.health.to_dict(),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main() -> None:
    campaign = campaign_case(FaultConfig.uniform(0.1))
    assert campaign["sha256"] == campaign_case(FaultConfig())["sha256"]
    doc = {"streams": streams(), "campaign": campaign}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(doc['streams'])} streams)")


if __name__ == "__main__":
    main()
