"""WorkerPool: sequential bypass, pooled execution, worker-death semantics."""

import os

import pytest

from repro.errors import TransientError, WorkerLostError
from repro.parallel import POOL_CONTEXTS, WorkerPool, resolve_workers

# Task/initializer functions must be module-level to be picklable.
_INIT_VALUE = None
_SEEN_PIDS = []


def _square(x):
    return x * x


def _record_pid(x):
    _SEEN_PIDS.append(os.getpid())
    return x


def _in_task_order(pool, fn, tasks):
    """Gather ``map_unordered`` pairs back into task order."""
    out = [None] * len(tasks)
    for i, result in pool.map_unordered(fn, tasks):
        out[i] = result
    return out


def _init_with(value):
    global _INIT_VALUE
    _INIT_VALUE = value


def _read_init(_):
    return _INIT_VALUE


def _die_on_three(x):
    if x == 3:
        os._exit(1)
    return x


class TestResolveWorkers:
    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5

    def test_auto_sizes_to_at_least_one(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError, match="context"):
            WorkerPool(2, context="thread")
        assert "spawn" in POOL_CONTEXTS and "fork" in POOL_CONTEXTS


class TestSequentialBypass:
    def test_map_is_a_plain_loop(self):
        _SEEN_PIDS.clear()
        pool = WorkerPool(1)
        assert list(pool.map_unordered(_record_pid, [1, 2, 3])) == [
            (0, 1), (1, 2), (2, 3)
        ]
        assert _SEEN_PIDS == [os.getpid()] * 3  # ran here, in order
        assert pool._executor is None  # never touched multiprocessing

    def test_initializer_runs_in_process_once(self):
        global _INIT_VALUE
        _INIT_VALUE = None
        pool = WorkerPool(1, initializer=_init_with, initargs=(42,))
        assert list(pool.map_unordered(_read_init, [0])) == [(0, 42)]
        _INIT_VALUE = 7  # a second dispatch must NOT re-run the initializer
        assert list(pool.map_unordered(_read_init, [0])) == [(0, 7)]

    def test_map_unordered_yields_in_task_order(self):
        pool = WorkerPool(1)
        assert list(pool.map_unordered(_square, [3, 2])) == [(0, 9), (1, 4)]


class TestPooled:
    def test_map_matches_sequential(self):
        tasks = list(range(20))
        with WorkerPool(2, context="fork") as pool:
            got = _in_task_order(pool, _square, tasks)
        assert got == _in_task_order(WorkerPool(1), _square, tasks)

    def test_initializer_state_reaches_workers(self):
        with WorkerPool(2, context="fork", initializer=_init_with,
                        initargs=("shipped",)) as pool:
            got = _in_task_order(pool, _read_init, [0, 1])
        assert got == ["shipped", "shipped"]

    def test_map_unordered_covers_every_task(self):
        with WorkerPool(2, context="fork") as pool:
            got = dict(pool.map_unordered(_square, [5, 6, 7]))
        assert got == {0: 25, 1: 36, 2: 49}

    def test_worker_death_raises_retryable_error(self):
        with WorkerPool(2, context="fork") as pool:
            with pytest.raises(WorkerLostError):
                _in_task_order(pool, _die_on_three, [1, 2, 3, 4])
            # WorkerLostError is a TransientError: campaign machinery
            # treats a killed worker like any other retryable fault.
            assert issubclass(WorkerLostError, TransientError)
            # The pool restarts itself; the next dispatch works.
            assert _in_task_order(pool, _square, [2, 3]) == [4, 9]

    def test_spawn_context_is_importable(self):
        # spawn workers re-import task functions from scratch; one tiny
        # dispatch proves the codepath is spawn-safe end to end.
        with WorkerPool(2, context="spawn") as pool:
            assert list(pool.map_unordered(_square, [4])) == [(0, 16)]
