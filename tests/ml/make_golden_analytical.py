"""Regenerate the frozen analytical-selector golden (``golden_analytical.json``).

The golden pins :meth:`repro.ml.AnalyticalSelector.recommend` -- the
static autotuning of every candidate OC and the pick among them --
end to end::

    PYTHONPATH=src:. python tests/ml/make_golden_analytical.py

Cases: the four fixed 2-D stencils outside the library that the
``analytical`` benchmark workload selects for (shared with
``tests/analysis/make_golden.py``), six library stencils (2-D and 3-D),
each on MI210 and V100, plus two selections on a non-default grid.
Each entry records ``[stencil, gpu, grid, oc, setting values in
PARAM_NAMES order, repr(time_ms), trials]`` of ``AnalyticalSelector(
seed=1, grid=grid).recommend(stencil, gpu)``.  The stencils' offsets
are stored in the file, so the test reads its inputs from the pin
rather than regenerating them.  The file was produced on the code as
it stood when the selector still ran one ``tune()`` per candidate OC
and generated one whole source per tuning setting.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ml.analytical import AnalyticalSelector
from repro.stencil.library import LIBRARY
from tests.analysis.make_golden import new_stencils, stencil_to_json, stencils_from_json

GOLDEN_PATH = Path(__file__).with_name("golden_analytical.json")

SEED = 1
GPUS = ("MI210", "V100")
LIBRARY_STENCILS = ("star2d2r", "box2d3r", "cross2d1r", "star3d1r", "box3d2r", "cross3d3r")
#: (stencil, gpu, grid) selections on a grid other than the paper default.
GRID_CASES = (("star2d1r", "V100", (1024, 512)), ("box3d1r", "MI210", (128, 128, 64)))


def cases() -> list[tuple]:
    """(stencil name, gpu, grid) of every pinned selection."""
    names = [s.name for s in new_stencils()] + list(LIBRARY_STENCILS)
    return [(n, gpu, None) for n in names for gpu in GPUS] + list(GRID_CASES)


def recommend(stencil, gpu: str, grid) -> list:
    """The pinned fields of one cold selection."""
    rec = AnalyticalSelector(seed=SEED, grid=grid).recommend(stencil, gpu)
    return [rec.oc, list(rec.setting.as_tuple()), repr(rec.time_ms), rec.trials]


def main() -> None:
    stencil_docs = {s.name: stencil_to_json(s) for s in new_stencils()}
    stencil_docs.update(
        (n, stencil_to_json(LIBRARY[n]))
        for n in LIBRARY_STENCILS + tuple(c[0] for c in GRID_CASES)
    )
    stencils = stencils_from_json(stencil_docs)
    entries = [
        [name, gpu, list(grid) if grid else None]
        + recommend(stencils[name], gpu, grid)
        for name, gpu, grid in cases()
    ]
    head = json.dumps({"seed": SEED, "stencils": stencil_docs}, sort_keys=True)
    GOLDEN_PATH.write_text(
        head[:-1] + ', "entries": [\n'
        + ",\n".join(json.dumps(e) for e in entries) + "\n]}\n"
    )
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
