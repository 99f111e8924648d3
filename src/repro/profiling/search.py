"""Random parameter search per optimization combination (Section IV-A).

"The StencilMART randomly searches the parameter settings under each OC and
selects the shortest execution time for performance comparison."  Settings
whose simulated launch crashes are resampled (bounded attempts), mirroring a
profiling harness that records only successful runs; an OC with no valid
setting at all is reported as crashed for that stencil/GPU, matching the
paper's note that "there are some cases where OC crashes under certain
stencils".

This module is a *compatibility wrapper*: the actual search lives in
:class:`repro.tuning.RandomStrategy` and runs through
:func:`repro.tuning.tune_lockstep`, which owns the ask/evaluate/tell
loop and result packaging.  ``RandomSearch`` keeps the historical
surface -- ``tune_oc`` returning ``(OCResult, measurements)`` and
``profile_stencil`` -- that the campaign runner, baselines and
framework still speak.  ``tune_oc`` also takes a sequence of OCs and
tunes them in lockstep, one engine batch per round for all of them.

**RNG stream-key convention.**  Each (stencil, OC) tuning batch owns one
independent random stream, derived as::

    SeedSequence((seed, stencil_id & 0x7FFFFFFF, zlib.crc32(oc.name)))

and drawn from exactly once, up front, when the tuning batch is
assembled (see :func:`repro.tuning.stream_rng`).  Because the stream is
keyed by content -- never by evaluation order -- profiles are identical
no matter how the backend batches, caches or reorders measurements, and
identical across processes.  Campaign digests are pinned to this exact
stream, which is why :class:`~repro.tuning.RandomStrategy` keys it with
no strategy-name component.
"""

from __future__ import annotations

from typing import Sequence

from ..engine import as_backend
from ..optimizations.combos import ALL_OCS, OC
from ..stencil.stencil import Stencil
from ..tuning import RandomStrategy, tune_lockstep
from ..tuning.random_search import ATTEMPTS_PER_SETTING, REFINE_PASSES
from .records import Measurement, OCResult, StencilProfile


class RandomSearch:
    """Best-of-N random tuner over one simulated GPU.

    Parameters
    ----------
    simulator:
        The measurement substrate: a :class:`~repro.engine.Backend`, or
        any simulator-like object with a ``time`` method (wrapped in a
        :class:`~repro.engine.ScalarBackend` for compatibility).
    n_settings:
        Valid parameter settings to measure per OC (the paper keeps this
        budget identical across compared methods).
    seed:
        Base seed; the per-(stencil, OC) stream is derived from it so
        profiles are independent of evaluation order (see the module
        docstring for the stream-key convention).
    refine:
        When true (default), the best random sample of each
        (use_smem, stream_dim, temporal_steps) basin is polished by
        coordinate descent.  Pure best-of-N over this parameter space is
        high-variance (narrow optima next to crash cliffs), which would
        make best-OC labels depend on sampling luck rather than the
        stencil; the deterministic refinement step recovers the per-OC
        optimum the paper's larger profiling budget effectively reaches.
    """

    def __init__(
        self,
        simulator,
        n_settings: int,
        seed: int,
        refine: bool = True,
    ):
        self.backend = as_backend(simulator)
        # Backends satisfy the simulator surface (spec/sigma/time), so the
        # historical attribute keeps working for callers that poke at it.
        self.sim = self.backend
        self.n_settings = int(n_settings)
        self.seed = int(seed)
        self.refine = bool(refine)

    def tune_oc(
        self, stencil: Stencil, stencil_id: int, oc: "OC | Sequence[OC]"
    ) -> "tuple[OCResult | None, list[Measurement]] | list[tuple]":
        """Measure up to ``n_settings`` valid settings of *oc*.

        Returns ``(OCResult, measurements)``, or ``(None, [])`` when
        every attempted setting crashes.  Given a sequence of OCs, tunes
        them in lockstep (see :func:`repro.tuning.tune_lockstep`) and
        returns one such pair per OC, in OC order; each pair equals what
        a one-OC call returns.
        """
        jobs = [
            (
                one,
                RandomStrategy(
                    n_settings=self.n_settings,
                    refine=self.refine,
                    attempts_per_setting=ATTEMPTS_PER_SETTING,
                    refine_passes=REFINE_PASSES,
                ),
            )
            for one in ([oc] if isinstance(oc, OC) else oc)
        ]
        results = tune_lockstep(
            stencil,
            jobs,
            backend=self.backend,
            seed=self.seed,
            stencil_id=stencil_id,
        )
        gpu_name = self.backend.spec.name
        pairs = []
        for (_, strategy), result in zip(jobs, results):
            if not result.ok:
                pairs.append((None, []))
                continue
            measurements = [
                Measurement(
                    stencil_id=stencil_id,
                    oc=result.oc,
                    setting=setting,
                    gpu=gpu_name,
                    time_ms=time_ms,
                )
                for setting, time_ms in strategy.measurements
            ]
            oc_result = OCResult(
                oc=result.oc,
                best_setting=result.best_setting,
                best_time_ms=result.best_time_ms,
                n_settings=len(measurements),
                crashed=strategy.walk_crashed,
            )
            pairs.append((oc_result, measurements))
        return pairs[0] if isinstance(oc, OC) else pairs

    # ------------------------------------------------------------------
    def profile_stencil(
        self,
        stencil: Stencil,
        stencil_id: int,
        ocs: "tuple[OC, ...] | list[OC]" = ALL_OCS,
    ) -> StencilProfile:
        """Profile *stencil* under every OC in *ocs* on this GPU, all
        OCs in lockstep."""
        profile = StencilProfile(
            stencil=stencil, stencil_id=stencil_id, gpu=self.backend.spec.name
        )
        for oc, (result, ms) in zip(ocs, self.tune_oc(stencil, stencil_id, ocs)):
            if result is not None:
                profile.oc_results[oc.name] = result
                profile.measurements.extend(ms)
        return profile
