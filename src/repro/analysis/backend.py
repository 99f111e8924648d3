"""Estimator-driven measurement backend: static autotuning.

:class:`AnalyticalBackend` implements the engine's :class:`Backend
<repro.engine.Backend>` protocol on top of
:func:`~repro.analysis.perfmodel.estimate_kernel` instead of a
simulator.  Every search strategy in :mod:`repro.tuning` -- the paper's
random walk with coordinate refinement, coordinate descent, the
genetic algorithm -- can therefore run *without a single measurement*:
``tune(stencil, oc=oc, backend=AnalyticalBackend(gpu))`` autotunes the
parameter space purely from generated source.

Semantics mirror the simulator-backed backends:

- a configuration the code generator rejects or the model knows cannot
  launch surfaces as a crash result (:class:`KernelLaunchError` carried
  as data), so one bad point never aborts a frontier;
- a kernel the static analyzer cannot parse or price is *also* reported
  as a crash result rather than an exception -- from the search's point
  of view the point is simply unusable, and strategies already know how
  to route around crashes;
- estimates are deterministic and noise-free (``sigma == 0``);
- it is not ``vectorized``: each point costs code generation (one
  source per kernel-body shape), a macro binding and metric extraction,
  so the random walk and coordinate descent send it exactly the
  settings they observe rather than speculative frontiers.
"""

from __future__ import annotations

from typing import Sequence

from ..engine.core import BackendBase, BackendInfo, EvalRequest, EvalResult
from ..errors import KernelLaunchError
from ..gpu.specs import get_gpu

__all__ = ["AnalyticalBackend"]


class AnalyticalBackend(BackendBase):
    """Batched evaluation backed by the static performance model.

    Parameters
    ----------
    gpu:
        GPU name or :class:`~repro.gpu.specs.GPUSpec` whose machine
        parameters the roofline composition uses.
    """

    def __init__(self, gpu):
        self._spec = get_gpu(gpu) if isinstance(gpu, str) else gpu

    @property
    def spec(self):
        return self._spec

    @property
    def sigma(self) -> float:
        return 0.0

    @property
    def info(self) -> BackendInfo:
        # Metric extraction is memoized per configuration inside
        # perfmodel, so repeats are near-free even across batches; a
        # new point is not (see the module docstring).
        return BackendInfo(name="analytical")

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> list[EvalResult]:
        from .perfmodel import estimate_kernels

        estimates = estimate_kernels(
            [(r.stencil, r.oc, r.setting, r.grid) for r in requests], self._spec.name
        )
        out: list[EvalResult] = []
        for est in estimates:
            if isinstance(est, KernelLaunchError):
                out.append(EvalResult(error=est))
            elif isinstance(est, Exception):
                out.append(EvalResult(error=KernelLaunchError(f"analytical: {est}")))
            else:
                out.append(EvalResult(time_ms=est.time_ms))
        return out
