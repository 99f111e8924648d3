"""Regenerate the frozen answers of every model method.

Each model method -- the selectors ``gbdt``/``convnet``/``fcnet`` and
the predictors ``gbr``/``mlp``/``convmlp``/``hybrid``, plus the
training-free ``analytical`` pair -- follows one contract: which
representation it consumes, whether its target is log-time, how the
aux row is laid out and how class indices decode to OCs.
``test_golden_methods.py`` holds every entry point that trains or
answers through that contract to these records:

- ``fit``: ``repro.store.checksum(model_state(model))`` of every
  ``StencilMART.fit_selector`` / ``fit_predictor`` method;
- ``artifacts``: the same digest of every ``train_selector_artifact`` /
  ``train_predictor_artifact`` model;
- ``predict_time`` / ``predict_best_oc``: ``StencilMART``'s answers on
  fixed requests (floats as ``repr``, exact through JSON);
- ``service``: ``PredictionService.select_many`` / ``predict_many`` on
  the same requests, one artifact installed at a time, ``analytical``
  included;
- ``evaluate``: the ``evaluate_selector("gbdt")`` and
  ``evaluate_predictor("gbr")`` fold scores.

The campaign is tiny (six generated 2-D stencils, two GPUs, eight OCs,
two settings) and the neural methods train for a few epochs, so the
whole record takes seconds.  Regenerate only for an intended change of
model behaviour::

    PYTHONPATH=src python tests/core/make_golden_methods.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import StencilMART
from repro.ml.serialize import model_state
from repro.optimizations import OC_BY_NAME, sample_setting
from repro.profiling import (
    merge_ocs,
    run_campaign,
    train_predictor_artifact,
    train_selector_artifact,
)
from repro.serve import PredictionService
from repro.serve.service import PredictRequest, SelectRequest
from repro.stencil import generate_population, get
from repro.store import checksum

GOLDEN_PATH = Path(__file__).with_name("golden_methods.json")

SEED = 7
GPUS = ("V100", "A100")
SELECT_GPU = "V100"
N_CLASSES = 4
OCS = ("naive", "ST", "ST_RT", "ST_RT_PR", "ST_PR", "CM", "TB", "ST_RT_TB")
#: Predictor rows are capped below the campaign's row count so the
#: deterministic subsample is part of what is pinned.
MAX_ROWS = 300

SELECTORS = {
    "gbdt": dict(n_rounds=20),
    "convnet": dict(epochs=2, batch_size=16),
    "fcnet": dict(epochs=2, batch_size=16),
}
PREDICTORS = {
    "gbr": dict(n_rounds=20),
    "mlp": dict(epochs=3, batch_size=64),
    "convmlp": dict(epochs=2, batch_size=64),
    "hybrid": dict(n_rounds=20),
}

#: Fixed queries: library stencils never seen in training, three OCs,
#: one seeded setting each, on a training GPU and an unseen one.
QUERY_STENCILS = ("star2d1r", "box2d1r", "star2d2r")
QUERY_OCS = ("naive", "ST_RT", "CM")
QUERY_GPUS = ("V100", "MI100")


def build_campaign():
    stencils = generate_population(2, 6, seed=SEED)
    return run_campaign(
        stencils, gpus=GPUS, ocs=[OC_BY_NAME[n] for n in OCS],
        n_settings=2, seed=SEED,
    )


def build_mart(campaign) -> StencilMART:
    mart = StencilMART(2, gpus=GPUS, n_settings=2, n_classes=N_CLASSES, seed=SEED)
    mart.campaign = campaign
    mart.grouping = merge_ocs(campaign, n_classes=N_CLASSES)
    return mart


def select_stencils() -> list:
    return [get(n) for n in QUERY_STENCILS]


def predict_queries() -> "list[tuple]":
    """``(stencil, oc_name, setting, gpu)`` tuples, settings seeded."""
    rng = np.random.default_rng(SEED)
    out = []
    for name in QUERY_STENCILS:
        s = get(name)
        for oc in QUERY_OCS:
            setting = sample_setting(OC_BY_NAME[oc], s.ndim, rng)
            out.extend((s, oc, setting, gpu) for gpu in QUERY_GPUS)
    return out


def fitted(mart: StencilMART) -> dict:
    """Fit every method once; digests and StencilMART's answers."""
    fit, best, times = {}, {}, {}
    for method, hyper in SELECTORS.items():
        mart.fit_selector(method, SELECT_GPU, **hyper)
        fit[f"selector/{method}"] = checksum(
            model_state(mart._selectors[(method, SELECT_GPU)])
        )
        best[method] = [
            mart.predict_best_oc(s, SELECT_GPU, method=method).name
            for s in select_stencils()
        ]
    for method, hyper in PREDICTORS.items():
        mart.fit_predictor(method, max_rows=MAX_ROWS, **hyper)
        fit[f"predictor/{method}"] = checksum(model_state(mart._predictors[method]))
        times[method] = [
            repr(mart.predict_time(s, oc, setting, gpu, method=method))
            for s, oc, setting, gpu in predict_queries()
        ]
    return {"fit": fit, "predict_best_oc": best, "predict_time": times}


def artifacts(campaign) -> dict:
    """Every selector and predictor artifact, ``analytical`` included."""
    out = {}
    for method, hyper in {**SELECTORS, "analytical": {}}.items():
        out[f"selector/{method}"] = train_selector_artifact(
            campaign, SELECT_GPU, method=method, n_classes=N_CLASSES,
            seed=SEED, **hyper,
        )
    for method, hyper in {**PREDICTORS, "analytical": {}}.items():
        out[f"predictor/{method}"] = train_predictor_artifact(
            campaign, method=method, seed=SEED, max_rows=MAX_ROWS, **hyper,
        )
    return out


def service_answers(arts: dict) -> dict:
    """Each artifact alone in a fresh service, asked the fixed queries."""
    out = {}
    for key, art in arts.items():
        service = PredictionService()
        service.install(art)
        if art.kind == "selector":
            results = service.select_many(
                [SelectRequest(s, SELECT_GPU) for s in select_stencils()]
            )
            out[key] = [[r.oc, r.source, r.cls] for r in results]
        else:
            times = service.predict_many(
                [PredictRequest(*q) for q in predict_queries()]
            )
            out[key] = [repr(t) for t in times]
    return out


def evaluations(mart: StencilMART) -> dict:
    sel = mart.evaluate_selector("gbdt", SELECT_GPU, n_folds=3, **SELECTORS["gbdt"])
    pred = mart.evaluate_predictor(
        "gbr", SELECT_GPU, n_folds=3, max_rows=MAX_ROWS // 2, **PREDICTORS["gbr"]
    )
    return {
        "selector/gbdt": [repr(a) for a in sel.fold_accuracies],
        "predictor/gbr": [repr(m) for m in pred.fold_mapes],
    }


def record() -> dict:
    campaign = build_campaign()
    arts = artifacts(campaign)
    mart = build_mart(campaign)
    return {
        **fitted(mart),
        "artifacts": {
            k: checksum(model_state(a.model)) for k, a in arts.items()
        },
        "service": service_answers(arts),
        "evaluate": evaluations(mart),
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
