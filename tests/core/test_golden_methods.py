"""Every model method's fits and answers, pinned bit for bit.

``golden_methods.json`` was frozen by ``make_golden_methods.py`` while
``StencilMART``, ``repro train``, the CV folds and ``PredictionService``
each carried their own copy of the model contract.  They now share one
(:mod:`repro.profiling.train`), so any mismatch here is a real change
in an input row, a target transform or a class decoding.
"""

import json

import pytest

from repro.optimizations import OC_BY_NAME
from tests.core.make_golden_methods import (
    GOLDEN_PATH,
    SELECT_GPU,
    build_campaign,
    build_mart,
    predict_queries,
    record,
    select_stencils,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
SECTIONS = ("fit", "artifacts", "predict_best_oc", "predict_time", "service", "evaluate")


@pytest.fixture(scope="module")
def got():
    return record()


@pytest.mark.parametrize(
    "section,key", [(s, k) for s in SECTIONS for k in sorted(GOLDEN[s])]
)
def test_matches_golden(got, section, key):
    assert got[section][key] == GOLDEN[section][key]


def test_stencilmart_answers_analytical_like_the_service():
    """An installed ``analytical`` pair answers through StencilMART
    exactly as the service answered with the same artifacts."""
    from repro.profiling import train_predictor_artifact, train_selector_artifact

    campaign = build_campaign()
    sel = train_selector_artifact(campaign, SELECT_GPU, method="analytical")
    pred = train_predictor_artifact(campaign, method="analytical")
    mart = build_mart(campaign)
    mart.install_selector("analytical", SELECT_GPU, sel.model, sel.representatives)
    mart.install_predictor("analytical", pred.model)
    picks = [
        mart.predict_best_oc(s, SELECT_GPU, method="analytical")
        for s in select_stencils()
    ]
    assert picks == [
        OC_BY_NAME[oc] for oc, _, _ in GOLDEN["service"]["selector/analytical"]
    ]
    times = [
        repr(mart.predict_time(s, oc, setting, gpu, method="analytical"))
        for s, oc, setting, gpu in predict_queries()
    ]
    assert times == GOLDEN["service"]["predictor/analytical"]
