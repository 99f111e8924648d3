"""Shared multi-core worker-pool utility.

Work fans out across processes only in whole units: the sharded
:class:`~repro.profiling.runner.CampaignRunner` dispatches (gpu, stencil)
shards and :func:`~repro.profiling.crossval.cross_validate` dispatches
folds.  Both go through one :class:`WorkerPool` and its one dispatch
method, :meth:`WorkerPool.map_unordered`, so process lifecycle, context
selection and worker-death reporting behave identically everywhere.
Finer grains, such as a boosting round's per-class trees (about a
millisecond each), cost more to ship than to compute, so they run
in-process.

Design rules:

- ``workers=1`` never touches :mod:`multiprocessing` at all: tasks run
  in-process, in order, through exactly the same function objects, so
  the sequential path *is* the parallel path with the pool removed.
- The pool is **spawn-safe**: task functions and payloads must be
  picklable (module-level functions, plain-data arguments).  ``spawn``
  is the default context because it works on every platform and never
  inherits ad-hoc parent state; ``fork`` is available where process
  startup cost matters (tests, Linux-only tools).
- A worker that dies (killed, segfaulted, OOM) surfaces as
  :class:`~repro.errors.WorkerLostError` -- a :class:`TransientError`
  subclass -- so callers treat it like any other retryable fault
  instead of a crashed program.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence

from .errors import WorkerLostError

#: Worker-pool contexts supported everywhere a ``context`` parameter
#: appears.  ``spawn`` is the portable default; ``fork`` starts workers
#: far faster on POSIX (no interpreter + NumPy re-import per worker).
POOL_CONTEXTS = ("spawn", "fork")


def resolve_workers(workers: "int | None") -> int:
    """Normalize a worker-count argument.

    ``None`` or ``0`` means "one worker per usable CPU"; negative counts
    are rejected.  Callers that want the sequential path pass ``1``.
    """
    if workers is None or workers == 0:
        import os

        try:
            n = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            n = os.cpu_count() or 1
        return max(1, n)
    w = int(workers)
    if w < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    return w


class WorkerPool:
    """A persistent process pool with an exact ``workers=1`` bypass.

    Parameters
    ----------
    workers:
        Process count.  ``1`` runs everything in-process (no pool, no
        pickling); ``None``/``0`` auto-sizes to the CPU count.
    context:
        ``"spawn"`` (default, portable) or ``"fork"`` (fast startup,
        POSIX only).
    initializer, initargs:
        Run once in every worker before any task; used to ship large
        shared payloads (datasets, backend specs) exactly once per
        worker instead of once per task.  With ``workers=1`` the
        initializer runs in-process, once, before the first task.
    """

    def __init__(
        self,
        workers: "int | None" = 1,
        context: str = "spawn",
        initializer: "Callable | None" = None,
        initargs: tuple = (),
    ):
        if context not in POOL_CONTEXTS:
            raise ValueError(
                f"unknown pool context {context!r} (choose from {POOL_CONTEXTS})"
            )
        self.workers = resolve_workers(workers)
        self.context = context
        self._initializer = initializer
        self._initargs = initargs
        self._executor: "ProcessPoolExecutor | None" = None
        self._initialized_inline = False

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self.context),
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._executor

    def restart(self) -> None:
        """Discard a (possibly broken) executor; the next dispatch builds
        a fresh one.  Used by callers that treat a worker death as a
        retryable fault."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def map_unordered(self, fn: Callable, tasks: "Sequence | Iterable"):
        """Yield ``(index, result)`` pairs as tasks finish.

        With ``workers=1`` this is a plain loop in task order (after
        running the initializer in-process once).  Otherwise the tasks
        go to the pool and pairs arrive in completion order; callers that
        need task order place each result by its index.  A worker death
        raises :class:`WorkerLostError` after restarting the pool, and
        the tasks still pending are cancelled.
        """
        tasks = list(tasks)
        if self.workers <= 1:
            if self._initializer is not None and not self._initialized_inline:
                self._initializer(*self._initargs)
                self._initialized_inline = True
            for i, t in enumerate(tasks):
                yield i, fn(t)
            return
        ex = self._ensure_executor()
        pending = {ex.submit(fn, t): i for i, t in enumerate(tasks)}
        try:
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    i = pending.pop(fut)
                    try:
                        yield i, fut.result()
                    except BrokenProcessPool as e:
                        lost = WorkerLostError(
                            "worker process died while executing "
                            f"{getattr(fn, '__name__', fn)!r}"
                        )
                        lost.__cause__ = e
                        self.restart()
                        raise lost
        finally:
            for fut in pending:
                fut.cancel()
