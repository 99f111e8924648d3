"""The analytical selector against its frozen golden.

``golden_analytical.json`` (see ``make_golden_analytical.py``) was
written before the selector tuned its candidates in lockstep and before
the estimator parsed one source per kernel-body shape; every pick, tuned
setting, time (by ``repr``) and trial count must still match it, from a
cold process state.
"""

import json

import pytest

from repro.analysis import clear_parse_cache
from repro.analysis import perfmodel
from repro.ml.analytical import AnalyticalSelector

from .make_golden_analytical import GOLDEN_PATH, SEED, stencils_from_json


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _cold():
    perfmodel._metrics_for.cache_clear()
    perfmodel._shape_source.cache_clear()
    clear_parse_cache()


def test_recommendations_match_golden(golden):
    assert golden["seed"] == SEED
    stencils = stencils_from_json(golden["stencils"])
    for name, gpu, grid, oc, setting, time_ms, trials in golden["entries"]:
        _cold()
        rec = AnalyticalSelector(seed=SEED, grid=grid).recommend(stencils[name], gpu)
        got = [rec.oc, list(rec.setting.as_tuple()), repr(rec.time_ms), rec.trials]
        assert got == [oc, setting, time_ms, trials], (name, gpu, grid)
