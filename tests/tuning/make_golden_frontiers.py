"""Regenerate the frozen frontier-size pin (``golden_frontiers.json``).

The pin records the size of every engine batch a tuning strategy
sends to an array-math backend, so a change to how its speculative
frontiers are sized shows up as a diff::

    PYTHONPATH=src python tests/tuning/make_golden_frontiers.py

Cases: one ``tune_lockstep`` call tuning five OCs of ``star2d2r`` at
once (``RandomStrategy(6)`` each, the campaign's shape) on
``VectorBackend``, on ``CachingBackend(VectorBackend)`` and on the faulted
campaign stack (one unit of ``FaultConfig.uniform(0.1)`` under the
retry guard, as ``repro profile --fault-rate 0.1`` runs it),
one on a 3-D stencil, a single ``tune(strategy="random", budget=24)``
and a budgeted ``CoordinateDescentStrategy``.  Each entry is ``[case,
[batch sizes in call order]]``.  The faulted and budgeted entries keep
exact per-parameter descent frontiers; the other lockstep entries
record the whole-pass frontiers.  Every entry but the faulted one runs
on a pure backend, so its batches leave out settings the job has
already been sent and its random phase speculates ``max(2*need, 8)``
settings; the faulted entry re-asks every repeat with ``max(4*need,
32)``-setting random frontiers and has not moved since it was first
pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine import CachingBackend, VectorBackend
from repro.gpu.faults import FaultConfig
from repro.optimizations import OC
from repro.profiling import CampaignHealth, RetryPolicy
from repro.profiling.runner import build_search, run_unit
from repro.stencil import get
from repro.tuning import RandomStrategy, tune, tune_lockstep

GOLDEN_PATH = Path(__file__).with_name("golden_frontiers.json")

OCS = ("naive", "ST", "ST_RT", "ST_BM", "TB")


class BatchLog:
    """A backend that forwards to *inner* (``spec``, ``info``,
    ``begin_unit``, ...) and records each batch size."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes: list[int] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate_batch(self, requests):
        self.sizes.append(len(requests))
        return self.inner.evaluate_batch(requests)


def _lockstep(stencil: str, backend) -> list[int]:
    log = BatchLog(backend)
    tune_lockstep(
        get(stencil),
        [(OC.parse(name), RandomStrategy(6)) for name in OCS],
        backend=log, seed=1, stencil_id=0,
    )
    return log.sizes


def _single(backend, strategy: str = "random", budget: int = 24) -> list[int]:
    log = BatchLog(backend)
    tune(get("star2d2r"), oc=OC.parse("ST"), backend=log, strategy=strategy, budget=budget, seed=1)
    return log.sizes


def _faulted_unit() -> list[int]:
    """One faulted campaign unit, as ``repro profile --fault-rate 0.1``
    runs it: each OC a group of its own on retry(faults(vector)),
    re-run after a device loss."""
    faults = FaultConfig.uniform(0.1)
    policy, health = RetryPolicy(), CampaignHealth()
    search = build_search("vector", "V100", 0.03, faults, 1, 6, policy, health)
    log = search.backend = BatchLog(search.backend)
    ocs = tuple(OC.parse(name) for name in OCS)
    run_unit(search, "V100", get("star2d2r"), 0, ocs, faults, policy, health)
    return log.sizes


def cases() -> list[tuple[str, object]]:
    """``(case, thunk)`` pairs; each thunk returns the batch sizes."""
    return [
        ("lockstep star2d2r vector V100", lambda: _lockstep("star2d2r", VectorBackend("V100"))),
        (
            "lockstep star2d2r cached V100",
            lambda: _lockstep("star2d2r", CachingBackend(VectorBackend("V100"))),
        ),
        ("lockstep box3d1r vector A100", lambda: _lockstep("box3d1r", VectorBackend("A100"))),
        ("tune random budget=24 vector V100", lambda: _single(VectorBackend("V100"))),
        ("unit star2d2r faulted V100", _faulted_unit),
        (
            "tune coordinate budget=40 vector V100",
            lambda: _single(VectorBackend("V100"), "coordinate", 40),
        ),
    ]


def main() -> None:
    doc = {"entries": [[name, run()] for name, run in cases()]}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['entries'])} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
