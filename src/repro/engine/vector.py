"""Batched evaluation over the timing model's array pipeline.

``VectorBackend`` evaluates whole frontiers of tuning points at once:
requests are grouped by (stencil, grid) -- OCs mix freely within a group,
their flags becoming per-point masks -- and each group is one pass of the
array pipeline in :mod:`repro.gpu.model` (profile, limits, phases), so a
campaign slice covering every OC amortizes the pipeline's fixed cost over
hundreds of points.  The per-point
:class:`~repro.gpu.simulator.GPUSimulator` is a batch of one over the
same pipeline, so the two agree bit for bit.

- Measurement noise is keyed by content through
  :func:`repro.gpu.noise.noise_factors`.  The (GPU, stencil) prefix is
  hashed once per stencil content (a one-entry memo on the backend,
  compared by ``cache_key()``, not by identity) and its digest state
  copied per OC.
- A point whose configuration cannot launch carries its
  :class:`~repro.errors.KernelLaunchError` as data; a point whose
  geometry cannot be expressed raises its
  :class:`~repro.errors.OptimizationError` and voids the batch, as a
  per-point call would.
- Results are per-point pure: every expression is elementwise, so a
  request's result never depends on what else shares its batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import KernelLaunchError
from ..gpu import model
from ..gpu.noise import _hasher, noise_factors
from ..gpu.simulator import GPUSimulator
from .core import BackendBase, BackendInfo, EvalRequest, EvalResult


class VectorBackend(BackendBase):
    """Vectorized analytical backend for one GPU.

    Parameters mirror :class:`~repro.gpu.simulator.GPUSimulator`; an
    existing simulator may be passed in place of the GPU.
    """

    def __init__(self, gpu, sigma: float = 0.03):
        self.sim = gpu if isinstance(gpu, GPUSimulator) else GPUSimulator(gpu, sigma=sigma)
        # (stencil cache_key, blake2b state of (GPU name, cache_key))
        self._prefix: "tuple[tuple, object] | None" = None

    @property
    def spec(self):
        return self.sim.spec

    @property
    def sigma(self) -> float:
        return self.sim.sigma

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(name="vector", vectorized=True)

    # ------------------------------------------------------------------
    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> list[EvalResult]:
        out: list[EvalResult | None] = [None] * len(requests)
        # Identity-based grouping: results are per-point pure, so finer
        # groups are never wrong, and id() avoids hashing stencil content
        # per request on the hot path.
        groups: dict[tuple, list[int]] = {}
        for i, req in enumerate(requests):
            groups.setdefault((id(req.stencil), req.grid), []).append(i)
        spec = self.spec
        for idxs in groups.values():
            first = requests[idxs[0]]
            ocs = [requests[i].oc for i in idxs]
            tuples = [requests[i].setting.as_tuple() for i in idxs]
            prof = model.profile(first.stencil, ocs, tuples, first.grid, spec.warp_size)
            _, valid, ph = model.evaluate(spec, prof)
            times = np.zeros(len(idxs))
            times[valid] = ph.time_ms
            if self.sigma > 0:
                times[valid] *= self._noise(first.stencil, ocs, tuples, np.arange(len(idxs))[valid])
            for j, i in enumerate(idxs):
                error = prof.crashes.errors[j]
                if error is None:
                    out[i] = EvalResult(time_ms=float(times[j]))
                elif isinstance(error, KernelLaunchError):
                    out[i] = EvalResult(error=error)
                else:
                    raise error
        return out  # type: ignore[return-value]

    def _noise(self, stencil, ocs, tuples, valid_idx) -> np.ndarray:
        """Jitter for the valid points of a group, keyed exactly as
        :meth:`GPUSimulator.run` keys it."""
        by_oc: dict[str, list[int]] = {}
        for j, i in enumerate(valid_idx.tolist()):
            by_oc.setdefault(ocs[i].name, []).append(j)
        key = stencil.cache_key()
        memo = self._prefix
        if memo is None or memo[0] != key:
            memo = self._prefix = (key, _hasher((self.spec.name, key)))
        out = np.empty(len(valid_idx))
        for name, js in by_oc.items():
            out[js] = noise_factors(
                (name,),
                [tuples[valid_idx[j]] for j in js],
                self.sigma,
                base=memo[1],
            )
        return out
