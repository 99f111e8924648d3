"""Regenerate the frozen metric-extraction golden (``golden_metrics.json``).

The golden pins :func:`repro.analysis.perfmodel.extract_metrics` over
generated sources::

    PYTHONPATH=src python tests/analysis/make_golden.py

Two groups of sources are covered:

- the analytical selector's first tuning round: four fixed 2-D stencils
  outside the stencil library (one per order 1..4, drawn by Algorithm 1
  from seed 2022, as the ``analytical`` benchmark workload draws them),
  each of the selector's candidate OCs, and every setting in the first
  frontier that ``tune()`` asks for that OC with seed 1;
- every seventh source of the library codegen sweep (each library
  stencil x OC x first feasible setting), in CUDA and in HIP.

Each entry is one line ``[stencil, oc, dialect, setting values in
PARAM_NAMES order, result]``.  The result is the values of
``extract_metrics(...).to_dict()``, followed by the metric fields that
``to_dict`` leaves out, in the file's ``fields`` order; or
``"<error class>: <message>"`` for the exception that generation or
extraction raised.  The file was produced on the code as
it stood before the parse cache shared kernel bodies across sources and
before the extractor memoized structural facts per body.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.analysis.backend import AnalyticalBackend
from repro.analysis.lint import feasible_settings
from repro.analysis.perfmodel import KernelMetrics, extract_metrics
from repro.codegen import generate_cuda, generate_hip
from repro.ml.analytical import DEFAULT_CANDIDATES
from repro.optimizations.combos import ALL_OCS, OC
from repro.optimizations.params import PARAM_NAMES, ParamSetting
from repro.stencil.generator import generate_stencil
from repro.stencil.library import LIBRARY
from repro.stencil.stencil import Stencil
from repro.tuning import tune

GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")

GPU = "MI210"
TUNE_SEED = 1
STENCIL_SEED = 2022
#: (order, min taps, max taps) of each fixed new stencil.
SHAPES = ((1, 5, 9), (2, 9, 15), (3, 13, 21), (4, 17, 27))
SWEEP_STRIDE = 7
GENERATORS = {"cuda": generate_cuda, "hip": generate_hip}


def new_stencils() -> list[Stencil]:
    rng = np.random.default_rng(STENCIL_SEED)
    out = []
    for order, lo, hi in SHAPES:
        while True:
            s = generate_stencil(2, order, rng)
            if lo <= s.nnz <= hi:
                break
        out.append(Stencil(ndim=2, offsets=s.offsets, name=f"new2d-{order}"))
    return out


class _FirstFrontier(AnalyticalBackend):
    """Records the settings of the first batch it evaluates."""

    def __init__(self, gpu):
        super().__init__(gpu)
        self.first = None

    def evaluate_batch(self, requests):
        if self.first is None:
            self.first = [r.setting for r in requests]
        return super().evaluate_batch(requests)


def frontier_cases() -> list[tuple]:
    cases = []
    for stencil in new_stencils():
        for name in DEFAULT_CANDIDATES:
            backend = _FirstFrontier(GPU)
            tune(stencil, oc=OC.parse(name), backend=backend, strategy="random",
                 seed=TUNE_SEED, n_settings=2, refine=True)
            cases += [(stencil, name, s, "cuda") for s in backend.first]
    return cases


def sweep_cases() -> list[tuple]:
    sweep = [
        (s, oc.name, st)
        for s in LIBRARY.values()
        for oc in ALL_OCS
        for st in feasible_settings(s, oc, 1, seed=0)
    ]
    return [
        (s, oc, st, dialect)
        for s, oc, st in sweep[::SWEEP_STRIDE]
        for dialect in GENERATORS
    ]


def stencil_to_json(stencil: Stencil) -> dict:
    return {"ndim": stencil.ndim, "offsets": sorted(list(p) for p in stencil.offsets)}


def stencils_from_json(doc: dict) -> dict:
    return {
        name: Stencil(ndim=s["ndim"], offsets=[tuple(p) for p in s["offsets"]], name=name)
        for name, s in doc.items()
    }


def source_of(entry: list, stencils: dict) -> str:
    """Regenerate an entry's source (raises what the generator raises)."""
    name, oc, dialect, values = entry[:4]
    setting = ParamSetting(**dict(zip(PARAM_NAMES, values)))
    return GENERATORS[dialect](stencils[name], OC.parse(oc), setting)


def record(m: KernelMetrics) -> dict:
    """``m.to_dict()`` plus every field it leaves out."""
    out = m.to_dict()
    for f in dataclasses.fields(m):
        out.setdefault(f.name, getattr(m, f.name))
    return out


def outcome(entry: list, stencils: dict) -> "dict | str":
    """The :func:`record` of an entry's extracted metrics, or the
    ``"<error class>: <message>"`` of what generation or extraction raised."""
    try:
        return record(extract_metrics(source_of(entry, stencils)))
    except Exception as e:  # the pin records every failure mode
        return f"{type(e).__name__}: {e}"


def encode(result: "dict | str", fields: list) -> str:
    """One result as canonical JSON text: the values in *fields* order, or
    the error string (text comparison also matches NaN strides)."""
    value = result if isinstance(result, str) else [result[k] for k in fields]
    return json.dumps(value, sort_keys=True)


def main() -> None:
    cases = frontier_cases() + sweep_cases()
    stencil_docs = {s.name: stencil_to_json(s) for s, _, _, _ in cases}
    stencils = stencils_from_json(stencil_docs)
    entries = [[s.name, oc, dialect, list(st.as_tuple())] for s, oc, st, dialect in cases]
    results = [outcome(e, stencils) for e in entries]
    fields = list(record(KernelMetrics()))
    lines = [
        json.dumps(e + [json.loads(encode(r, fields))]) for e, r in zip(entries, results)
    ]
    head = json.dumps({"fields": fields, "stencils": stencil_docs}, sort_keys=True)
    GOLDEN_PATH.write_text(
        head[:-1] + ', "entries": [\n' + ",\n".join(lines) + "\n]}\n"
    )
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
