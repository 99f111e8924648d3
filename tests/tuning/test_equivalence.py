"""The refactor's contract: tune() reproduces every legacy path bit for bit.

``golden_pre_refactor.json`` was generated (``make_golden.py``) from the
search code as it stood before the unified front door landed: the
paper's random search with and without coordinate-descent refinement,
the genetic search on its pre-zoo stream, and a whole profiling
campaign.  Every slot stores the best setting, the ``repr`` of the best
time (exact float round trip), and a BLAKE2b digest over the full
measurement list, so any assertion failure here is a real bit-level
behavior change -- which for the random path is also a campaign-format
break.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.gpu import GPUSimulator
from repro.gpu.specs import GPU_ORDER
from repro.optimizations import OC
from repro.profiling import run_campaign
from repro.profiling.storage import campaign_to_dict
from repro.stencil import generate_population, get
from repro.tuning import RandomStrategy, tune

from .legacy_stream import LegacyGeneticStrategy

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_pre_refactor.json").read_text()
)


def _digest_measurements(gpu, sid, oc, measurements) -> str:
    h = hashlib.blake2b(digest_size=16)
    for setting, time_ms in measurements:
        h.update(
            repr((sid, oc.name, setting.as_tuple(), gpu, time_ms)).encode()
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
    sim = GPUSimulator(gpu)
    for stencil, sid, oc, key in _slots(gpu):
        want = table[key]
        strategy = RandomStrategy(GOLDEN["n_settings"], refine=refine)
        result = tune(
            stencil, oc=oc, backend=sim, strategy=strategy,
            seed=GOLDEN["seed"], stencil_id=sid,
        )
        if want["crashed_out"]:
            assert not result.ok, key
            continue
        assert result.ok, key
        assert list(result.best_setting.as_tuple()) == want["best_setting"], key
        assert repr(result.best_time_ms) == want["best_time_ms"], key
        assert len(strategy.measurements) == want["n_settings"], key
        assert strategy.walk_crashed == want["crashed"], key
        assert _digest_measurements(
            gpu, sid, oc, strategy.measurements
        ) == want["measurements"], key


@pytest.mark.parametrize("gpu", GPU_ORDER)
def test_genetic_search_is_bit_identical(gpu):
    """The genetic strategy through tune() (legacy RNG stream) == legacy."""
    sim = GPUSimulator(gpu)
    for stencil, _sid, oc, key in _slots(gpu):
        want = GOLDEN["genetic"][key]
        got = tune(
            stencil, oc=oc, backend=sim, seed=GOLDEN["seed"],
            strategy=LegacyGeneticStrategy(population=8, generations=4),
        )
        if want["crashed_out"]:
            assert not got.ok, key
            continue
        assert got.ok, key
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
