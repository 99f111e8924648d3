"""The refactor's contract: tune() reproduces every legacy path bit for bit.

``golden_pre_refactor.json`` was generated (``make_golden.py``) from the
search code as it stood before the unified front door landed: the
paper's ``RandomSearch`` with and without coordinate-descent refinement,
``GeneticSearch``, and a whole profiling campaign.  Every slot stores
the best setting, the ``repr`` of the best time (exact float round
trip), and a BLAKE2b digest over the full measurement list, so any
assertion failure here is a real bit-level behavior change -- which for
the random path is also a campaign-format break.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.gpu import GPUSimulator
from repro.gpu.specs import GPU_ORDER
from repro.optimizations import OC
from repro.profiling import RandomSearch, run_campaign
from repro.profiling.storage import campaign_to_dict
from repro.stencil import generate_population, get
from repro.tuning import GeneticSearch

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_pre_refactor.json").read_text()
)


def _digest_measurements(measurements) -> str:
    h = hashlib.blake2b(digest_size=16)
    for m in measurements:
        h.update(
            repr(
                (m.stencil_id, m.oc, m.setting.as_tuple(), m.gpu, m.time_ms)
            ).encode()
        )
    return h.hexdigest()


def _slots(gpu):
    for name in GOLDEN["stencils"]:
        stencil = get(name)
        sid = GOLDEN["stencils"].index(name)
        for oc_name in GOLDEN["ocs"]:
            yield stencil, sid, OC.parse(oc_name), f"{gpu}/{name}/{oc_name}"


@pytest.mark.parametrize("gpu", GPU_ORDER)
@pytest.mark.parametrize("refine", (True, False), ids=("refined", "unrefined"))
def test_random_search_is_bit_identical(gpu, refine):
    """Random walk (+ coordinate descent) through tune() == legacy."""
    table = GOLDEN["random" if refine else "random_unrefined"]
    search = RandomSearch(
        GPUSimulator(gpu), GOLDEN["n_settings"], seed=GOLDEN["seed"],
        refine=refine,
    )
    for stencil, sid, oc, key in _slots(gpu):
        want = table[key]
        result, measurements = search.tune_oc(stencil, sid, oc)
        if want["crashed_out"]:
            assert result is None and measurements == [], key
            continue
        assert result is not None, key
        assert list(result.best_setting.as_tuple()) == want["best_setting"], key
        assert repr(result.best_time_ms) == want["best_time_ms"], key
        assert result.n_settings == want["n_settings"], key
        assert result.crashed == want["crashed"], key
        assert _digest_measurements(measurements) == want["measurements"], key


@pytest.mark.parametrize("gpu", GPU_ORDER)
def test_genetic_search_is_bit_identical(gpu):
    """GeneticSearch through tune() (legacy RNG stream) == legacy."""
    ga = GeneticSearch(
        GPUSimulator(gpu), population=8, generations=4, seed=GOLDEN["seed"]
    )
    for stencil, _sid, oc, key in _slots(gpu):
        want = GOLDEN["genetic"][key]
        got = ga.tune_oc(stencil, oc)
        if want["crashed_out"]:
            assert got is None, key
            continue
        assert got is not None, key
        assert list(got.best_setting.as_tuple()) == want["best_setting"], key
        assert repr(got.best_time_ms) == want["best_time_ms"], key
        assert got.trials == want["evaluations"], key


def test_campaign_digest_is_unchanged():
    """A whole profiling campaign hashes exactly as before the refactor."""
    pop = generate_population(2, 4, seed=GOLDEN["seed"])
    campaign = run_campaign(
        pop, gpus=GPU_ORDER, n_settings=4, seed=GOLDEN["seed"]
    )
    doc = json.dumps(campaign_to_dict(campaign), sort_keys=True)
    digest = hashlib.blake2b(doc.encode(), digest_size=16).hexdigest()
    assert digest == GOLDEN["campaign_digest"]
