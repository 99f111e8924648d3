"""Regenerate the frozen frontier-size pin (``golden_frontiers.json``).

The pin records the size of every engine batch the random strategy
sends to an array-math backend, so a change to how its speculative
frontiers are sized shows up as a diff::

    PYTHONPATH=src python tests/tuning/make_golden_frontiers.py

Cases: one ``tune_lockstep`` call tuning five OCs of ``star2d2r`` at
once (``RandomStrategy(6)`` each, the campaign's shape) on
``VectorBackend`` and on ``make_backend("cached")``, one on a 3-D
stencil, and a single ``tune(strategy="random", budget=24)``.  Each
entry is ``[case, [batch sizes in call order]]``.  The file was
produced on the code as it stood before frontier sizing read only
``BackendInfo.vectorized``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine import VectorBackend, make_backend
from repro.optimizations import OC
from repro.stencil import get
from repro.tuning import RandomStrategy, tune, tune_lockstep

GOLDEN_PATH = Path(__file__).with_name("golden_frontiers.json")

OCS = ("naive", "ST", "ST_RT", "ST_BM", "TB")


class BatchLog:
    """A backend that forwards to *inner* and records each batch size."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes: list[int] = []

    @property
    def spec(self):
        return self.inner.spec

    @property
    def sigma(self):
        return self.inner.sigma

    @property
    def info(self):
        return self.inner.info

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


def _single(backend) -> list[int]:
    log = BatchLog(backend)
    tune(get("star2d2r"), oc=OC.parse("ST"), backend=log, strategy="random", budget=24, seed=1)
    return log.sizes


def cases() -> list[tuple[str, object]]:
    """``(case, thunk)`` pairs; each thunk returns the batch sizes."""
    return [
        ("lockstep star2d2r vector V100", lambda: _lockstep("star2d2r", VectorBackend("V100"))),
        (
            "lockstep star2d2r cached V100",
            lambda: _lockstep("star2d2r", make_backend("cached", "V100")),
        ),
        ("lockstep box3d1r vector A100", lambda: _lockstep("box3d1r", VectorBackend("A100"))),
        ("tune random budget=24 vector V100", lambda: _single(VectorBackend("V100"))),
    ]


def main() -> None:
    doc = {"entries": [[name, run()] for name, run in cases()]}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['entries'])} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
