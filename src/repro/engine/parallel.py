"""Multi-core evaluation: sharding request batches across a process pool.

``ParallelBackend`` is a :class:`~repro.engine.core.Backend` decorator
that splits an :class:`EvalRequest` batch into chunks, ships them to a
persistent worker pool (:class:`repro.parallel.WorkerPool`), and
reassembles the per-chunk results in request order.  Each worker builds
its own inner backend once, from a declarative :class:`BackendSpec`.
Fault injection and retries compose *around* a ``ParallelBackend``
(see :func:`repro.profiling.runner.build_search`), never inside its
workers, so workers hold no unit-scoped state.

Why this is allowed to exist: results are pure, content-keyed functions
of (GPU, stencil, OC, setting, grid) -- the measurement noise is keyed
by blake2b over the same identity, never by call order or process --
so any partition of a batch across any number of workers reassembles to
**bit-identical** results (times, crash classes, crash messages).  The
determinism suite (``tests/engine/test_parallel.py``) verifies this
against :class:`~repro.engine.scalar.ScalarBackend` for every worker
count, chunk size and transport it sweeps.

Two transports move requests across the process boundary:

``shm`` (default)
    The batch is packed **once** into flat NumPy arrays in a
    ``multiprocessing.shared_memory`` segment (stencil-table indices, OC
    ids, setting columns, grid ids); workers attach and evaluate slices
    by index, writing times into a shared ``(time_ms, status)`` array.
    Only chunk bounds, two segment names and a short error side-table
    travel over the pipe.  See :mod:`repro.engine.shm` for the layout
    and segment lifecycle.  Falls back to ``pickle`` automatically where
    POSIX shared memory is unavailable.

``pickle``
    The original codec (:func:`encode_requests` / ``decode_requests``):
    stencils deduplicated into a table of offset lists -- built once per
    batch and shared across its chunks -- OCs by name, settings as
    layout-order tuples; results return as ``(time | error-class +
    message)`` rows (:func:`encode_results` / :func:`decode_results`).

Both transports reassemble to bit-identical results; the choice is pure
throughput plumbing and is therefore *not* part of any checkpoint
identity.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

from .. import errors as _errors
from ..errors import ReproError, TransientError, WorkerLostError
from ..parallel import WorkerPool
from ..stencil.stencil import Stencil
from . import shm as shm_transport
from .core import BackendBase, BackendInfo, EvalRequest, EvalResult

#: Per-transport caps on requests per worker task.  The effective chunk
#: is ``min(cap, ceil(n / workers))``, so small batches still spread
#: across every worker.  The pickle codec pays a per-row encode/decode
#: cost, so its chunks stay small enough to load balance; shm chunks are
#: index ranges -- near-zero marginal cost -- so they run larger to
#: amortize pool dispatch.
DEFAULT_CHUNK_SIZE = 256
SHM_CHUNK_SIZE = 1024
TRANSPORT_CHUNK_CAPS = {"pickle": DEFAULT_CHUNK_SIZE, "shm": SHM_CHUNK_SIZE}

#: Request transports selectable on :class:`ParallelBackend`.
TRANSPORTS = ("shm", "pickle")

#: Exit status of the worker-crash test hook (any nonzero breaks the
#: pool identically; the value aids debugging).
CRASH_EXIT_CODE = 19

#: Test hook: when set (pre-fork, inherited by fork-context workers) the
#: next worker to start a chunk creates this flag file and ``_exit``\ s,
#: simulating a mid-chunk kill.  ``O_EXCL`` on the flag file makes the
#: crash fire exactly once across the pool and across pool restarts.
_CRASH_FLAG_PATH: "str | None" = None


def _maybe_crash() -> None:
    if _CRASH_FLAG_PATH is None:
        return
    try:
        fd = os.open(_CRASH_FLAG_PATH, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(CRASH_EXIT_CODE)


# ----------------------------------------------------------------------
# declarative backend construction (what a worker builds at startup)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendSpec:
    """A picklable recipe for one worker's measurement backend.

    The recipe -- not a live backend -- crosses the process boundary, so
    every worker owns an isolated backend (its own cache, for
    ``cached``) while all of them are content-identical.
    """

    kind: str = "vector"
    gpu: str = "V100"
    sigma: float = 0.03

    def __post_init__(self) -> None:
        gpu = self.gpu
        if not isinstance(gpu, str):  # accept a GPUSpec for convenience
            object.__setattr__(self, "gpu", gpu.name)

    def build(self):
        """Construct the backend this spec describes."""
        from . import make_backend

        return make_backend(self.kind, self.gpu, sigma=self.sigma)


# ----------------------------------------------------------------------
# request / result codec (pickle transport)
# ----------------------------------------------------------------------
def encode_requests(requests: Sequence[EvalRequest]) -> dict:
    """Compact picklable form of a request batch.

    Stencils are deduplicated (by object identity, then content) into a
    table of ``(ndim, offsets, name)`` rows; each request becomes
    ``(stencil_index, oc_name, setting_tuple, grid)``.
    ``ParallelBackend`` encodes the whole batch once and slices the row
    list per chunk, so the table is built once per batch, not per chunk.
    """
    table: list[tuple] = []
    index_by_id: dict[int, int] = {}
    index_by_key: dict[tuple, int] = {}
    rows: list[tuple] = []
    for req in requests:
        s = req.stencil
        idx = index_by_id.get(id(s))
        if idx is None:
            key = s.cache_key()
            idx = index_by_key.get(key)
            if idx is None:
                idx = len(table)
                table.append((s.ndim, s.sorted_offsets, s.name))
                index_by_key[key] = idx
            index_by_id[id(s)] = idx
        rows.append((idx, req.oc.name, req.setting.as_tuple(), req.grid))
    return {"stencils": table, "requests": rows}


def decode_requests(doc: dict) -> "list[EvalRequest]":
    """Inverse of :func:`encode_requests`.

    Reconstruction is content-exact: stencil offsets, OC identity (via
    the canonical registry) and setting tuples reproduce the same cache
    keys -- hence the same noise, crashes and times -- as the originals.
    """
    from ..optimizations.combos import OC_BY_NAME
    from ..optimizations.params import PARAM_NAMES, ParamSetting

    stencils = [
        Stencil(ndim=ndim, offsets=frozenset(offs), name=name)
        for ndim, offs, name in doc["stencils"]
    ]
    settings: dict[tuple, ParamSetting] = {}
    out: list[EvalRequest] = []
    for idx, oc_name, values, grid in doc["requests"]:
        setting = settings.get(values)
        if setting is None:
            setting = ParamSetting(**dict(zip(PARAM_NAMES, values)))
            settings[values] = setting
        out.append(EvalRequest(stencils[idx], OC_BY_NAME[oc_name], setting, grid))
    return out


def encode_results(results: Sequence[EvalResult]) -> list:
    """Picklable rows: ``(0, time_ms)`` or ``(1, error_class, args)``."""
    rows: list[tuple] = []
    for res in results:
        if res.error is None:
            rows.append((0, res.time_ms))
        else:
            rows.append((1, type(res.error).__name__, res.error.args))
    return rows


def decode_results(rows: list) -> "list[EvalResult]":
    """Inverse of :func:`encode_results` (error classes by name)."""
    out: list[EvalResult] = []
    for row in rows:
        if row[0] == 0:
            out.append(EvalResult(time_ms=row[1]))
        else:
            cls = getattr(_errors, row[1], ReproError)
            out.append(EvalResult(error=cls(*row[2])))
    return out


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_WORKER_BACKEND = None
#: Attached request segments, decoded once per (worker, batch); at most
#: one batch is live at a time, so a new segment evicts the old views.
_WORKER_SHM: "dict[str, shm_transport.DecodedBatch]" = {}
_WORKER_RES: "dict[str, dict]" = {}


def _init_worker(spec: BackendSpec) -> None:
    """Pool initializer: build this worker's backend stack once."""
    global _WORKER_BACKEND
    _WORKER_BACKEND = spec.build()
    _WORKER_SHM.clear()
    _WORKER_RES.clear()


def _eval_chunk(doc: dict) -> tuple:
    """Evaluate one pickle-encoded chunk through the worker's backend.

    Returns ``("ok", rows)`` or ``("err", class, args)`` for transient
    exceptions the parent must re-raise.
    """
    _maybe_crash()
    backend = _WORKER_BACKEND
    assert backend is not None, "worker used before initialization"
    try:
        results = backend.evaluate_batch(decode_requests(doc))
    except TransientError as e:
        return ("err", type(e).__name__, e.args)
    return ("ok", encode_results(results))


def _attached_batch(req_name: str) -> "shm_transport.DecodedBatch":
    batch = _WORKER_SHM.get(req_name)
    if batch is None:
        for name in list(_WORKER_SHM):
            _WORKER_SHM.pop(name).close()
        batch = shm_transport.DecodedBatch(shm_transport.attach_segment(req_name))
        _WORKER_SHM[req_name] = batch
    return batch


def _attached_results(res_name: str, n: int) -> dict:
    entry = _WORKER_RES.get(res_name)
    if entry is None:
        for name in list(_WORKER_RES):
            old = _WORKER_RES.pop(name)
            old["times"] = old["status"] = None
            old["seg"].close()
        seg = shm_transport.attach_segment(res_name)
        times, status = shm_transport.result_views(seg, n)
        entry = {"seg": seg, "times": times, "status": status}
        _WORKER_RES[res_name] = entry
    return entry


def _eval_chunk_shm(payload: tuple) -> tuple:
    """Evaluate one shared-memory chunk: attach, slice by index, write back.

    Returns ``("ok", error_rows)`` -- times land directly in the shared
    result array; only ``(index, class, args)`` error rows return over
    the pipe -- or ``("err", class, args)`` exactly like
    :func:`_eval_chunk`.
    """
    req_name, res_name, n, lo, hi = payload
    _maybe_crash()
    backend = _WORKER_BACKEND
    assert backend is not None, "worker used before initialization"
    batch = _attached_batch(req_name)
    res = _attached_results(res_name, n)
    try:
        results = backend.evaluate_batch(batch.requests(lo, hi))
    except TransientError as e:
        return ("err", type(e).__name__, e.args)
    errors = shm_transport.write_results(res["times"], res["status"], lo, results)
    return ("ok", errors)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ParallelBackend(BackendBase):
    """Shard request batches across a persistent worker pool.

    Parameters
    ----------
    spec:
        The :class:`BackendSpec` every worker builds its inner stack
        from (also built once in-parent for metadata and the
        ``workers=1`` bypass).
    workers:
        Process count; ``1`` evaluates inline through the parent-built
        stack (exactly the wrapped backend's behavior), ``None``/``0``
        auto-sizes to the CPU count.
    chunk_size:
        Max requests per worker task.  ``None`` picks
        ``min(cap, ceil(n / workers))`` per batch, where the cap is
        transport-dependent (:data:`TRANSPORT_CHUNK_CAPS`).  Results are
        chunking-invariant; this knob trades IPC overhead against load
        balance only.
    context:
        Pool context (``"spawn"`` default, ``"fork"`` for cheap startup
        on POSIX).
    transport:
        ``"shm"`` (default): zero-copy shared-memory arrays, see the
        module docstring; ``"pickle"``: the per-row codec.  Results are
        bit-identical either way; ``shm`` silently falls back to
        ``pickle`` where POSIX shared memory is unavailable.
    max_pool_restarts:
        Times a batch survives a worker death (the pool is restarted and
        the batch re-dispatched) before :class:`WorkerLostError`
        propagates.  Shared segments stay alive across restarts -- a
        re-dispatched chunk overwrites its slice with the same
        deterministic values -- and are unlinked when the batch settles,
        success or failure.
    """

    def __init__(
        self,
        spec: BackendSpec,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        context: str = "spawn",
        transport: str = "shm",
        max_pool_restarts: int = 2,
    ):
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r} (choose from {TRANSPORTS})"
            )
        self.backend_spec = spec
        self._local = spec.build()
        self._pool = WorkerPool(
            workers, context=context, initializer=_init_worker, initargs=(spec,)
        )
        self.workers = self._pool.workers
        self.chunk_size = None if chunk_size is None else max(1, int(chunk_size))
        self.requested_transport = transport
        if transport == "shm" and not shm_transport.shm_available():
            transport = "pickle"
        self.transport = transport
        self.max_pool_restarts = int(max_pool_restarts)
        self.worker_deaths = 0

    # -- metadata ------------------------------------------------------
    @property
    def spec(self):
        return self._local.spec

    @property
    def sigma(self) -> float:
        return self._local.sigma

    @property
    def info(self) -> BackendInfo:
        inner = self._local.info
        return BackendInfo(
            name=(
                f"parallel({inner.name}, workers={self.workers}, "
                f"transport={self.transport})"
            ),
            vectorized=inner.vectorized,
            caching=inner.caching,
            batch_limit=inner.batch_limit,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "ParallelBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- evaluation ----------------------------------------------------
    def _chunks(self, n: int) -> "list[tuple[int, int]]":
        size = self.chunk_size
        if size is None:
            cap = TRANSPORT_CHUNK_CAPS[self.transport]
            size = min(cap, math.ceil(n / self.workers))
        return [(i, min(i + size, n)) for i in range(0, n, size)]

    def _dispatch(self, fn, payloads: list) -> list:
        """Pool-map with worker-death recovery (restart + re-dispatch)."""
        for restart in range(self.max_pool_restarts + 1):
            try:
                return self._pool.map(fn, payloads)
            except WorkerLostError:
                self.worker_deaths += 1
                if restart == self.max_pool_restarts:
                    raise
        raise AssertionError("unreachable")

    @staticmethod
    def _raise_first_failure(replies: list) -> None:
        """Re-raise the first failing chunk's error, in request order,
        matching where the sequential path would have stopped."""
        for reply in replies:
            if reply[0] == "err":
                raise getattr(_errors, reply[1], TransientError)(*reply[2])

    def _evaluate_pickle(
        self, requests: Sequence[EvalRequest], spans: list
    ) -> "list[EvalResult]":
        doc = encode_requests(requests)  # stencil table built once per batch
        table, rows = doc["stencils"], doc["requests"]
        payloads = [{"stencils": table, "requests": rows[a:b]} for a, b in spans]
        replies = self._dispatch(_eval_chunk, payloads)
        self._raise_first_failure(replies)
        out: list[EvalResult] = []
        for reply in replies:
            out.extend(decode_results(reply[1]))
        return out

    def _evaluate_shm(
        self, requests: Sequence[EvalRequest], spans: list
    ) -> "list[EvalResult]":
        n = len(requests)
        req_seg = shm_transport.pack_requests(requests)
        res_seg = shm_transport.create_segment(
            shm_transport.result_segment_size(n), tag="res"
        )
        times = status = None
        try:
            times, status = shm_transport.result_views(res_seg, n)
            payloads = [(req_seg.name, res_seg.name, n, a, b) for a, b in spans]
            replies = self._dispatch(_eval_chunk_shm, payloads)
            self._raise_first_failure(replies)
            error_rows = [row for reply in replies for row in reply[1]]
            return shm_transport.read_results(times, status, error_rows)
        finally:
            # Release the array views before closing the buffer they alias.
            times = status = None
            shm_transport.unlink_segment(req_seg)
            shm_transport.unlink_segment(res_seg)

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> "list[EvalResult]":
        n = len(requests)
        if self.workers <= 1 or n <= 1:
            return self._local.evaluate_batch(requests)
        spans = self._chunks(n)
        if self.transport == "shm":
            return self._evaluate_shm(requests, spans)
        return self._evaluate_pickle(requests, spans)
