"""Crash results are stored without tracebacks.

A caught launch error keeps the traceback it was raised with, and that
traceback keeps every frame between the raise and the catch -- the
backend's batch loop and, through the strategy generators and the
lockstep driver, a whole tuning round.  Stored in a result, the error
turns that round into cyclic garbage, and a caching backend keeps the
frames alive for the life of its cache.  Each backend that catches
launch errors must store them with ``__traceback__`` cleared.
"""

import gc
import types

import pytest

from repro.analysis.backend import AnalyticalBackend
from repro.engine import CachingBackend, EvalRequest, ScalarBackend
from repro.optimizations import OC
from repro.stencil import get
from repro.tuning import tune

STENCIL = get("star3d4r")
OC_TB = OC.parse("ST_RT_TB")


def _garbage_after(run):
    """``run()`` with the collector off, then the objects that one
    collection finds unreachable."""
    gc.collect()
    gc.disable()
    try:
        value = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return value, garbage


@pytest.mark.parametrize("inner", (ScalarBackend, AnalyticalBackend))
def test_stored_crashes_keep_no_frames(inner):
    backend = CachingBackend(inner("V100"))

    def run():
        result = tune(
            STENCIL, oc=OC_TB, backend=backend, strategy="random", n_settings=4,
            seed=0,
        )
        replay = backend.evaluate_batch(
            [EvalRequest(STENCIL, OC_TB, r.setting) for r in result.trial_log]
        )
        return [r.error for r in replay if r.error is not None]

    errors, garbage = _garbage_after(run)
    assert errors, "the configuration must crash for the check to mean anything"
    assert all(e.__traceback__ is None for e in errors)
    frames = [o for o in garbage if isinstance(o, (types.FrameType, types.TracebackType))]
    assert frames == []
