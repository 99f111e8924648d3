"""Per-point adapter: any ``time``-shaped object behind the batched protocol.

``ScalarBackend`` loops a simulator-shaped object's ``time`` over a
batch, one request at a time.  It is what lets a test stub with a
``time`` method serve a batched caller.  Wrapped around a
:class:`~repro.gpu.simulator.GPUSimulator` it is a per-point reference
over the same array pipeline as :class:`~repro.engine.VectorBackend`
(each call a batch of one), so the two agree bit for bit and differ only
in speed.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import KernelLaunchError
from .core import BackendBase, BackendInfo, EvalRequest, EvalResult


class ScalarBackend(BackendBase):
    """Wraps a per-point simulator behind the batched protocol.

    Parameters
    ----------
    sim:
        GPU name, :class:`~repro.gpu.specs.GPUSpec` or any object with a
        simulator-compatible ``time(stencil, oc, setting, grid=None)``.
    sigma:
        Noise level, used only when *sim* is a name/spec and a simulator
        must be constructed.
    """

    def __init__(self, sim, sigma: float = 0.03):
        if isinstance(sim, str) or not hasattr(sim, "time"):
            from ..gpu.simulator import GPUSimulator

            sim = GPUSimulator(sim, sigma=sigma)
        self.sim = sim

    @property
    def spec(self):
        return self.sim.spec

    @property
    def sigma(self) -> float:
        return self.sim.sigma

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(name="scalar")

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> list[EvalResult]:
        """Evaluate requests sequentially through the wrapped simulator.

        Deterministic launch failures become crash results; anything else
        the simulator raises (transient faults, geometry errors)
        propagates and voids the batch, exactly as the pre-engine
        sequential code path behaved.
        """
        out: list[EvalResult] = []
        for req in requests:
            try:
                t = self.sim.time(req.stencil, req.oc, req.setting, grid=req.grid)
            except KernelLaunchError as e:
                # Stored without its traceback, whose frames a caching
                # backend would otherwise keep alive with the result.
                out.append(EvalResult(error=e.with_traceback(None)))
            else:
                out.append(EvalResult(time_ms=t))
        return out
