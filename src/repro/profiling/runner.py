"""Fault-tolerant, resumable campaign execution.

The profiling campaign is the pipeline's expensive artifact (the paper
collects ~65k/76k instances per GPU), so it must behave like a harness,
not a script: transient measurement failures are retried with bounded
exponential backoff, persistently failing points are quarantined and
recorded as crashed (the paper's "OC crashes under certain stencils")
rather than aborting the run, progress is checkpointed atomically, and an
interrupted campaign resumes from its checkpoint to the bit-identical
result an uninterrupted run would have produced.

Execution is organised as **work units** of one stencil on one GPU.  A
unit's OCs are tuned in lockstep: every round, each OC's search asks
for its next frontier and the union goes to the engine as one batch
(see :func:`~repro.tuning.tune_lockstep`).  With fault injection on,
each OC is its own group instead, so one device loss voids one OC's
tuning point rather than the whole unit's.  The per-(stencil, OC)
sampling streams are derived from the seed independent of order (see
:class:`UnitTuner`), and fault draws are scoped per unit (see
:meth:`~repro.engine.fault.FaultBackend.begin_unit`), so units are
self-contained: a tuning point re-run from scratch -- after
a device loss, or in a resumed process -- converges to exactly the
timings the fault-free campaign records.  That is what makes the
determinism and kill--resume equivalence properties testable instead of
hopeful.

Time never comes from the wall clock: backoff waits advance a
:class:`SimClock`, keeping every retry schedule deterministic and tests
instant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..config import DEFAULT_SEED
from ..engine import BACKEND_KINDS, FaultBackend, RetryBackend, make_backend
from ..errors import (
    CampaignInterrupted,
    DatasetError,
    TransientError,
    WorkerLostError,
)
from ..gpu.faults import FaultConfig
from ..parallel import WorkerPool, resolve_workers
from ..gpu.specs import GPU_ORDER
from ..optimizations.combos import ALL_OCS, OC
from ..stencil.stencil import Stencil
from ..store import atomic_write_text, check_format, read_document
from ..tuning import RandomStrategy, tune_lockstep
from .profiler import ProfileCampaign
from .records import Measurement, OCResult, StencilProfile
from .storage import (
    FORMAT_VERSION,
    profile_from_row,
    profile_to_row,
    stencil_to_dict,
)


def write_checkpoint(
    path: Path, kind: str, config: dict, rows_by_gpu: dict, health
) -> None:
    """Atomically write a campaign checkpoint document.

    The main checkpoint (``kind="campaign-checkpoint"``) and per-shard
    checkpoints (``kind="campaign-shard"``) share this one layout:
    the campaign config, completed :func:`profile_to_row` rows per GPU
    (GPUs without rows left out) and the health counters.
    """
    doc = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "completed": {gpu: list(r) for gpu, r in rows_by_gpu.items() if r},
        "health": health.to_dict(),
    }
    atomic_write_text(path, json.dumps(doc))


class SimClock:
    """A monotonically advancing simulated clock for backoff waits."""

    def __init__(self) -> None:
        self.now_s = 0.0

    def sleep(self, seconds: float) -> None:
        self.now_s += float(seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry and exponential-backoff parameters.

    Per-call retries absorb :class:`MeasurementTimeout`,
    :class:`TransientMeasurementError` and corrupted-sample rejections;
    point retries re-run a whole group of (stencil, OC) tuning points
    after a :class:`DeviceLostError` (which voids all in-flight
    measurements) or after a call exhausted its per-call budget.
    Backoff doubles from ``backoff_base_s`` up to ``backoff_max_s`` on
    the simulated clock.

    Budgets that would drop or hang work are rejected: a negative point
    budget never tries a group, and a negative call budget never runs
    out.
    """

    max_call_retries: int = 8
    max_point_retries: int = 5
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("max_call_retries", self.max_call_retries >= 0, ">= 0"),
            ("max_point_retries", self.max_point_retries >= 0, ">= 0"),
            ("backoff_base_s", self.backoff_base_s >= 0, ">= 0"),
            ("backoff_factor", self.backoff_factor >= 1, ">= 1"),
            ("backoff_max_s", self.backoff_max_s >= self.backoff_base_s,
             ">= backoff_base_s"),
        ):
            if not ok:
                raise ValueError(f"{name}={getattr(self, name)} must be {rule}")


#: Integer counter fields of :class:`CampaignHealth` (everything but
#: ``backoff_s`` and ``quarantined``); shared by serialization and the
#: shard-merge path.
_HEALTH_COUNTERS = (
    "call_retries", "timeouts", "transients", "device_lost",
    "corrupt_rejected", "point_retries", "units_completed",
    "units_resumed", "worker_deaths",
)


@dataclass
class CampaignHealth:
    """Counters describing how rough a campaign run was.

    ``quarantined`` lists ``{"gpu", "stencil_id", "oc", "reason"}``
    records for (gpu, stencil, OC) tuning points that exhausted their
    retry budget and were recorded as crashed.  ``worker_deaths`` counts
    pool worker processes that died mid-shard; each death is absorbed by
    re-dispatching the dead worker's remaining units, never by failing
    the campaign.
    """

    call_retries: int = 0
    timeouts: int = 0
    transients: int = 0
    device_lost: int = 0
    corrupt_rejected: int = 0
    point_retries: int = 0
    units_completed: int = 0
    units_resumed: int = 0
    worker_deaths: int = 0
    backoff_s: float = 0.0
    quarantined: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in _HEALTH_COUNTERS}
        doc["backoff_s"] = self.backoff_s
        doc["quarantined"] = list(self.quarantined)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignHealth":
        out = cls()
        for name in _HEALTH_COUNTERS:
            setattr(out, name, int(doc.get(name, 0)))
        out.backoff_s = float(doc.get("backoff_s", 0.0))
        out.quarantined = list(doc.get("quarantined", []))
        return out

    def merge_dict(self, doc: dict) -> None:
        """Accumulate another run's counters (a shard's, typically).

        ``units_completed`` / ``units_resumed`` are bookkept by whoever
        coordinates units, so shard documents carry them as zero; the
        remaining counters and the quarantine ledger add up.
        """
        for name in _HEALTH_COUNTERS:
            setattr(self, name, getattr(self, name) + int(doc.get(name, 0)))
        self.backoff_s += float(doc.get("backoff_s", 0.0))
        self.quarantined.extend(doc.get("quarantined", []))

    def summary(self) -> str:
        """Multi-line health report for CLI output."""
        lines = [
            "campaign health:",
            f"  units completed: {self.units_completed} "
            f"(recovered from checkpoint: {self.units_resumed})",
            f"  transient faults absorbed: {self.timeouts} timeouts, "
            f"{self.transients} sporadic, {self.device_lost} device losses",
            f"  corrupted samples rejected: {self.corrupt_rejected}",
            f"  retries: {self.call_retries} call-level, "
            f"{self.point_retries} point-level "
            f"({self.backoff_s:.2f} s simulated backoff)",
            f"  worker deaths absorbed: {self.worker_deaths}",
            f"  quarantined points: {len(self.quarantined)}",
        ]
        for q in self.quarantined:
            lines.append(
                f"    {q['gpu']} stencil {q['stencil_id']} "
                f"{q['oc']}: {q['reason']}"
            )
        return "\n".join(lines)


class UnitTuner:
    """The paper's per-OC random search (Section IV-A) on one backend:
    a :class:`~repro.tuning.RandomStrategy` of ``n_settings`` per OC,
    whose stream ``(seed, stencil_id, oc.name)`` is keyed by content,
    never by evaluation order."""

    def __init__(self, backend, n_settings: int, seed: int):
        self.backend = backend
        self.n_settings = int(n_settings)
        self.seed = int(seed)

    def tune_oc(
        self, stencil: Stencil, stencil_id: int, ocs: "Sequence[OC]"
    ) -> "list[tuple[OCResult | None, list[Measurement]]]":
        """Tune every OC of *ocs* in lockstep (see
        :func:`~repro.tuning.tune_lockstep`).

        Returns one ``(OCResult, measurements)`` pair per OC, in OC
        order; an OC whose every attempted setting crashes yields
        ``(None, [])``.
        """
        jobs = [(oc, RandomStrategy(self.n_settings)) for oc in ocs]
        results = tune_lockstep(
            stencil, jobs, backend=self.backend, seed=self.seed,
            stencil_id=stencil_id,
        )
        gpu = self.backend.spec.name
        pairs = []
        for (_, strategy), result in zip(jobs, results):
            if not result.ok:
                pairs.append((None, []))
                continue
            measurements = [
                Measurement(stencil_id, result.oc, setting, gpu, time_ms)
                for setting, time_ms in strategy.measurements
            ]
            pairs.append((
                OCResult(
                    oc=result.oc,
                    best_setting=result.best_setting,
                    best_time_ms=result.best_time_ms,
                    n_settings=len(measurements),
                    crashed=strategy.walk_crashed,
                ),
                measurements,
            ))
        return pairs


def build_search(
    backend_kind: str,
    gpu: str,
    sigma: float,
    faults: FaultConfig,
    seed: int,
    n_settings: int,
    policy: RetryPolicy,
    clock: SimClock,
    health: CampaignHealth,
) -> UnitTuner:
    """One GPU's measurement stack, wrapped in a :class:`UnitTuner`.

    Module-level (rather than a runner method) so shard worker processes
    build the *same* stack from the same code path: backend, then --
    when injection is enabled -- faults wrapped *around* any cache
    (transients must not be memoized) and the retry guard wrapped around
    the faults.
    """
    be: object = make_backend(backend_kind, gpu, sigma=sigma)
    if faults.enabled:
        be = RetryBackend(
            FaultBackend(be, faults, seed=seed), policy, clock, health
        )
    return UnitTuner(be, n_settings, seed)


def run_unit(
    search: UnitTuner,
    gpu: str,
    stencil: Stencil,
    sid: int,
    ocs: "tuple[OC, ...]",
    faults: FaultConfig,
    policy: RetryPolicy,
    clock: SimClock,
    health: CampaignHealth,
) -> StencilProfile:
    """One (gpu, stencil) work unit, its OCs tuned in lockstep with retries.

    Without fault injection all OCs form one group: a single
    ``search.tune_oc`` call advances every OC's search together, one
    engine batch per round.  With injection on, each OC is a group of
    its own: a merged attempt measures the whole unit, about 2,800
    points at ``n_settings=6``, and at a device-loss rate of 0.001 per
    request (``--fault-rate 0.1``) it survives only 0.999**2800, about
    6%, of the time, so merged groups would quarantine whole units.

    A :class:`DeviceLostError` (or a call that exhausted its per-call
    budget) voids the in-flight group; the group re-runs from scratch
    after a backoff -- its sampling streams are re-derived from the
    seed, and the fault injector's advanced attempt counters make the
    retry draw fresh fault decisions, so a recovered group yields
    exactly the fault-free measurements.  A group that keeps failing has
    each of its OCs quarantined, in OC order, and recorded as crashed
    (no :class:`OCResult`, the same shape an all-crashing OC already
    produces), never aborting the campaign.

    Shared verbatim by the sequential runner and shard workers: both
    call this function, so the parallel campaign is the sequential
    campaign with only the unit-to-process mapping changed.
    """
    begin_unit = getattr(search.backend, "begin_unit", None)
    if begin_unit is not None:
        begin_unit((gpu, sid))
    profile = StencilProfile(stencil=stencil, stencil_id=sid, gpu=gpu)
    groups = [(oc,) for oc in ocs] if faults.enabled else [tuple(ocs)]
    for group in groups:
        delay = policy.backoff_base_s
        for attempt in range(policy.max_point_retries + 1):
            try:
                pairs = search.tune_oc(stencil, sid, group)
            except TransientError as e:
                if attempt == policy.max_point_retries:
                    health.quarantined.extend(
                        {
                            "gpu": gpu,
                            "stencil_id": sid,
                            "oc": oc.name,
                            "reason": str(e),
                        }
                        for oc in group
                    )
                    break
                health.point_retries += 1
                clock.sleep(delay)
                health.backoff_s += delay
                delay = min(delay * policy.backoff_factor,
                            policy.backoff_max_s)
            else:
                for oc, (result, ms) in zip(group, pairs):
                    if result is not None:
                        profile.oc_results[oc.name] = result
                        profile.measurements.extend(ms)
                break
    return profile


class CampaignRunner:
    """Executes a profiling campaign as retryable (gpu, stencil) units.

    Parameters
    ----------
    stencils, gpus, ocs, n_settings, seed, sigma:
        Campaign definition, identical in meaning to
        :func:`~repro.profiling.profiler.run_campaign`.  One that can
        measure nothing (no stencils, GPUs or OCs, or ``n_settings < 1``)
        is a :class:`DatasetError`.
    backend:
        Measurement backend kind, one of
        :data:`repro.engine.BACKEND_KINDS` (any other is a
        :class:`DatasetError` at construction).  All kinds evaluate the
        same array pipeline and produce identical campaigns; ``cached``
        trades memory for repeat throughput.  Part of the checkpoint
        identity.
    faults:
        Optional :class:`FaultConfig`; ``None`` or an all-zero config
        runs the bare simulator with no injection layer at all.
    policy:
        Retry/backoff parameters (:class:`RetryPolicy`).
    checkpoint_path:
        When set, completed units are checkpointed to this JSON file
        atomically every ``checkpoint_every`` units (and at interruption
        and completion), and ``run(resume=True)`` continues from it.
    max_units:
        Process at most this many units *in this run*, then checkpoint
        and raise :class:`CampaignInterrupted`.  Exists to exercise the
        kill--resume path deterministically.
    workers:
        Process count for sharded execution.  ``1`` (default) runs the
        sequential path; ``>1`` partitions pending units into contiguous
        shards executed by a :class:`~repro.parallel.WorkerPool`, with
        bit-identical results for every worker count (units are
        self-contained, see the module docstring).  ``0``/``None``
        auto-sizes to the CPU count.  Not part of the checkpoint
        identity: a campaign may be started with one worker count and
        resumed with another.
    chunk_size:
        Units per shard; default splits pending work evenly across
        workers.  Smaller shards checkpoint (and survive worker deaths)
        at finer granularity at the cost of more dispatch overhead.
    mp_context:
        ``"spawn"`` (portable default) or ``"fork"`` (fast startup,
        POSIX only).
    transport:
        Ignored.  Accepted only so existing callers that still pass it
        keep working; campaigns parallelize by sharding units alone.
    max_shard_retries:
        How many worker-death recovery rounds to attempt before giving
        up and re-raising :class:`~repro.errors.WorkerLostError`.
    worker_crash_units:
        Test hook: shard workers call ``os._exit`` when about to process
        one of these (gpu, stencil_id) units, simulating a killed
        worker.  Fires only on first dispatch; recovery re-runs the unit
        normally.
    """

    def __init__(
        self,
        stencils: list[Stencil],
        gpus: "tuple[str, ...] | list[str]" = GPU_ORDER,
        ocs: "tuple[OC, ...] | list[OC]" = ALL_OCS,
        n_settings: int = 8,
        seed: int = DEFAULT_SEED,
        sigma: float = 0.03,
        backend: str = "vector",
        faults: "FaultConfig | None" = None,
        policy: "RetryPolicy | None" = None,
        checkpoint_path: "str | Path | None" = None,
        checkpoint_every: int = 16,
        max_units: "int | None" = None,
        workers: "int | None" = 1,
        chunk_size: "int | None" = None,
        mp_context: str = "spawn",
        transport: str = "shm",
        max_shard_retries: int = 3,
        worker_crash_units: "tuple | list | None" = None,
    ):
        if not stencils:
            raise DatasetError("empty stencil population")
        ndims = {s.ndim for s in stencils}
        if len(ndims) != 1:
            raise DatasetError(
                f"mixed dimensionalities in campaign: {sorted(ndims)}"
            )
        if not gpus:
            raise DatasetError("no GPUs to profile on")
        if not ocs:
            raise DatasetError("no OCs to profile")
        if int(n_settings) < 1:
            raise DatasetError(f"n_settings must be >= 1, got {n_settings}")
        if backend not in BACKEND_KINDS:
            raise DatasetError(
                f"unknown backend kind {backend!r} "
                f"(choose from {BACKEND_KINDS})"
            )
        if chunk_size is not None and int(chunk_size) < 1:
            raise DatasetError(f"chunk_size must be >= 1, got {chunk_size}")
        self.stencils = list(stencils)
        self.gpus = tuple(gpus)
        self.ocs = tuple(ocs)
        self.n_settings = int(n_settings)
        self.seed = int(seed)
        self.sigma = float(sigma)
        self.backend = str(backend)
        self.faults = faults if faults is not None else FaultConfig()
        self.policy = policy if policy is not None else RetryPolicy()
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = int(checkpoint_every)
        self.max_units = max_units
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.mp_context = mp_context
        self.max_shard_retries = int(max_shard_retries)
        self.worker_crash_units = tuple(
            (str(g), int(s)) for g, s in (worker_crash_units or ())
        )
        self.clock = SimClock()
        self.health = CampaignHealth()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _config_doc(self) -> dict:
        return {
            "gpus": list(self.gpus),
            "ocs": [oc.name for oc in self.ocs],
            "n_settings": self.n_settings,
            "seed": self.seed,
            "sigma": self.sigma,
            "backend": self.backend,
            "faults": self.faults.to_dict(),
            "stencils": [stencil_to_dict(s) for s in self.stencils],
        }

    def _write_checkpoint(
        self, completed: dict[str, dict[int, StencilProfile]]
    ) -> None:
        if self.checkpoint_path is None:
            return
        write_checkpoint(
            self.checkpoint_path,
            "campaign-checkpoint",
            self._config_doc(),
            {
                gpu: [profile_to_row(units[sid]) for sid in sorted(units)]
                for gpu, units in completed.items()
            },
            self.health,
        )

    def _fold_rows(
        self, completed: dict[str, dict[int, StencilProfile]], rows_by_gpu: dict
    ) -> int:
        """Fold storage rows into *completed*; returns the units added.

        Rows for GPUs outside *completed* and stencils already present
        are skipped, so folding the same rows twice adds nothing.
        """
        added = 0
        for gpu, rows in rows_by_gpu.items():
            if gpu not in completed:
                continue
            for row in rows:
                sid = int(row["stencil_id"])
                if sid in completed[gpu]:
                    continue
                completed[gpu][sid] = profile_from_row(
                    row, self.stencils[sid], gpu
                )
                added += 1
        return added

    def _load_checkpoint(self) -> dict[str, dict[int, StencilProfile]]:
        """Load completed units from the checkpoint, validating identity.

        A checkpoint written under a different campaign definition (other
        seed, GPUs, OCs, fault schedule or population) must never be
        silently merged -- the result would be an untraceable chimera.
        """
        assert self.checkpoint_path is not None
        doc = read_document(self.checkpoint_path, DatasetError, "checkpoint")
        check_format(doc, FORMAT_VERSION, "checkpoint", DatasetError)
        if doc.get("kind") != "campaign-checkpoint":
            raise DatasetError(
                f"not a campaign checkpoint: kind={doc.get('kind')!r}"
            )
        mine, theirs = self._config_doc(), doc.get("config", {})
        if theirs != mine:
            diff = [k for k in mine if theirs.get(k) != mine[k]]
            raise DatasetError(
                "checkpoint belongs to a different campaign "
                f"(mismatched: {', '.join(diff) or 'unknown fields'})"
            )
        self.health = CampaignHealth.from_dict(doc.get("health", {}))
        completed: dict[str, dict[int, StencilProfile]] = {
            gpu: {} for gpu in self.gpus
        }
        self.health.units_resumed += self._fold_rows(
            completed, doc.get("completed", {})
        )
        # A killed parallel run may have shard progress the main
        # checkpoint never saw; fold it in (workers-count independent).
        self._merge_shard_files(completed, resumed=True)
        return completed

    # ------------------------------------------------------------------
    # shard checkpoint files
    # ------------------------------------------------------------------
    def _shard_path(self, idx: int) -> "Path | None":
        if self.checkpoint_path is None:
            return None
        return self.checkpoint_path.parent / (
            f"{self.checkpoint_path.name}.shard-{idx:03d}"
        )

    def _shard_files(self) -> "list[Path]":
        if self.checkpoint_path is None:
            return []
        return sorted(
            self.checkpoint_path.parent.glob(
                self.checkpoint_path.name + ".shard-*"
            )
        )

    def _cleanup_shard_files(self) -> None:
        for path in self._shard_files():
            path.unlink(missing_ok=True)

    def _merge_shard_files(
        self,
        completed: dict[str, dict[int, StencilProfile]],
        resumed: bool = False,
    ) -> int:
        """Fold leftover per-shard checkpoints into *completed*.

        Called on resume (a killed sharded run leaves shard files behind
        -- they merge regardless of the current ``workers`` value) and
        after a worker death (the dead pool's partial progress lives
        only in shard files).  Shard documents from a *different*
        campaign config are ignored, mirroring :meth:`_load_checkpoint`.
        Health counters merge only when a file contributes at least one
        new unit, so a shard already folded into the main checkpoint is
        not double-counted.  Files are consumed (deleted) either way.
        """
        config = self._config_doc()
        merged = 0
        for path in self._shard_files():
            try:
                doc = read_document(path, DatasetError, "shard checkpoint")
            except DatasetError:
                continue
            if doc.get("kind") != "campaign-shard" \
                    or doc.get("config") != config:
                continue
            new_units = self._fold_rows(completed, doc.get("completed", {}))
            if new_units:
                self.health.merge_dict(doc.get("health", {}))
                if resumed:
                    self.health.units_resumed += new_units
                else:
                    self.health.units_completed += new_units
                merged += new_units
            path.unlink(missing_ok=True)
        return merged

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _pending_units(
        self, completed: dict[str, dict[int, StencilProfile]]
    ) -> "list[tuple[str, int]]":
        """Unprocessed (gpu, stencil_id) units in canonical gpu-major order."""
        return [
            (gpu, sid)
            for gpu in self.gpus
            for sid in range(len(self.stencils))
            if sid not in completed[gpu]
        ]

    def _interrupt(
        self, completed: dict[str, dict[int, StencilProfile]], processed: int
    ) -> CampaignInterrupted:
        self._write_checkpoint(completed)
        self._cleanup_shard_files()
        done = sum(len(u) for u in completed.values())
        total = len(self.gpus) * len(self.stencils)
        return CampaignInterrupted(
            f"stopped after {processed} units this run "
            f"({done}/{total} total); resume from {self.checkpoint_path}"
        )

    def _run_sequential(
        self, completed: dict[str, dict[int, StencilProfile]]
    ) -> None:
        searches = {
            gpu: build_search(
                self.backend, gpu, self.sigma, self.faults, self.seed,
                self.n_settings, self.policy, self.clock, self.health,
            )
            for gpu in self.gpus
        }
        processed = 0
        since_checkpoint = 0
        for gpu, sid in self._pending_units(completed):
            if self.max_units is not None and processed >= self.max_units:
                raise self._interrupt(completed, processed)
            completed[gpu][sid] = run_unit(
                searches[gpu], gpu, self.stencils[sid], sid, self.ocs,
                self.faults, self.policy, self.clock, self.health,
            )
            self.health.units_completed += 1
            processed += 1
            since_checkpoint += 1
            if since_checkpoint >= self.checkpoint_every:
                self._write_checkpoint(completed)
                since_checkpoint = 0

    def _quarantine_key(self, q: dict) -> tuple:
        gpu = q.get("gpu")
        gpu_idx = self.gpus.index(gpu) if gpu in self.gpus else len(self.gpus)
        oc_idx = next(
            (i for i, oc in enumerate(self.ocs) if oc.name == q.get("oc")),
            len(self.ocs),
        )
        return (gpu_idx, int(q.get("stencil_id", -1)), oc_idx)

    def _merge_shard_result(
        self, completed: dict[str, dict[int, StencilProfile]], result: dict
    ) -> int:
        n = self._fold_rows(completed, result.get("completed", {}))
        self.health.merge_dict(result.get("health", {}))
        self.health.units_completed += n
        return n

    def _run_sharded(
        self, completed: dict[str, dict[int, StencilProfile]]
    ) -> None:
        """Execute pending units as contiguous shards on a worker pool.

        Each shard runs :func:`run_unit` over its units with a fresh
        clock/health/search stack -- units are self-contained, so the
        merged result is bit-identical to the sequential run for any
        worker count, chunk size or completion order.  Worker deaths are
        absorbed: partial progress is recovered from per-shard
        checkpoint files, the pool restarts, and the remaining units are
        re-dispatched (bounded by ``max_shard_retries``).
        """
        from .shard import _init_shard_worker, run_shard

        work = self._pending_units(completed)
        deferred = 0
        if self.max_units is not None and len(work) > self.max_units:
            deferred = len(work) - self.max_units
            work = work[: self.max_units]
        processed_cap = len(work)
        crash = set(self.worker_crash_units)
        pool = WorkerPool(
            self.workers,
            context=self.mp_context,
            initializer=_init_shard_worker,
            initargs=(self._config_doc(), self.policy, self.checkpoint_every),
        )
        deaths = 0
        try:
            while work:
                size = self.chunk_size or max(
                    1, math.ceil(len(work) / self.workers)
                )
                tasks = []
                for i, lo in enumerate(range(0, len(work), size)):
                    shard = work[lo:lo + size]
                    hook = tuple(u for u in shard if u in crash)
                    path = self._shard_path(i)
                    tasks.append(
                        (i, shard, hook, str(path) if path else None)
                    )
                try:
                    for _, result in pool.map_unordered(run_shard, tasks):
                        self._merge_shard_result(completed, result)
                        self._write_checkpoint(completed)
                        path = self._shard_path(result["shard"])
                        if path is not None:
                            path.unlink(missing_ok=True)
                except WorkerLostError:
                    self.health.worker_deaths += 1
                    deaths += 1
                    crash = set()  # the crash hook fires once
                    self._merge_shard_files(completed)
                    self._write_checkpoint(completed)
                    if deaths > self.max_shard_retries:
                        raise
                    work = [
                        (g, s) for g, s in work if s not in completed[g]
                    ]
                    continue
                work = []
        finally:
            pool.close()
        # Shard completion order is nondeterministic; restore the
        # sequential runner's gpu-major, stencil, OC quarantine order so
        # health reports compare equal across worker counts.
        self.health.quarantined.sort(key=self._quarantine_key)
        if deferred:
            raise self._interrupt(completed, processed_cap)

    def run(self, resume: bool = False) -> ProfileCampaign:
        """Execute the campaign, optionally resuming from the checkpoint.

        With ``resume=True`` and an existing checkpoint file, completed
        units are loaded and skipped (leftover per-shard checkpoints
        from a killed parallel run merge in too, regardless of the
        current worker count); a missing checkpoint simply starts fresh.
        Raises :class:`CampaignInterrupted` when ``max_units`` is
        exhausted before the campaign completes.
        """
        completed: dict[str, dict[int, StencilProfile]]
        if resume and self.checkpoint_path is not None \
                and self.checkpoint_path.exists():
            completed = self._load_checkpoint()
        else:
            completed = {gpu: {} for gpu in self.gpus}
            if resume and self.checkpoint_path is not None:
                # No main checkpoint, but a killed first parallel run may
                # have left shard files worth resuming from.
                self._merge_shard_files(completed, resumed=True)
            else:
                self._cleanup_shard_files()

        if self.workers > 1:
            self._run_sharded(completed)
        else:
            self._run_sequential(completed)

        campaign = ProfileCampaign(
            stencils=self.stencils,
            gpus=self.gpus,
            ocs=self.ocs,
            n_settings=self.n_settings,
            seed=self.seed,
        )
        for gpu in self.gpus:
            campaign.profiles[gpu] = [
                completed[gpu][sid] for sid in range(len(self.stencils))
            ]
        self._write_checkpoint(completed)
        self._cleanup_shard_files()
        return campaign
