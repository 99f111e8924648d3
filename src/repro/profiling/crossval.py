"""K-fold cross-validation utilities (Section V-A3).

The paper evaluates every model with 5-fold cross validation: the dataset
is shuffled into five folds; each fold serves once as the test set with the
other four as training data.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from ..errors import DatasetError
from ..parallel import WorkerPool


def kfold_indices(
    n: int, n_folds: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_idx, test_idx)`` pairs for shuffled k-fold CV.

    Fold sizes differ by at most one element; every index appears in
    exactly one test fold.
    """
    if n_folds < 2:
        raise DatasetError(f"n_folds must be >= 2, got {n_folds}")
    if n < n_folds:
        raise DatasetError(f"cannot split {n} samples into {n_folds} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, n_folds)
    for k in range(n_folds):
        test = np.sort(folds[k])
        train = np.sort(np.concatenate([folds[i] for i in range(n_folds) if i != k]))
        yield train, test


def stratified_kfold_indices(
    labels: np.ndarray, n_folds: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """K-fold CV preserving class proportions per fold.

    Used for OC-selection evaluation so that rare best-OC classes appear
    in every training split.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n_folds < 2:
        raise DatasetError(f"n_folds must be >= 2, got {n_folds}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = rng.permutation(idx)
        # Rotate the starting fold per class so small classes do not all
        # land in fold 0.
        start = int(rng.integers(n_folds))
        for pos, i in enumerate(idx):
            fold_of[i] = (start + pos) % n_folds
    for k in range(n_folds):
        test = np.flatnonzero(fold_of == k)
        train = np.flatnonzero(fold_of != k)
        if test.size == 0:
            raise DatasetError(f"fold {k} is empty; too few samples")
        yield train, test


# ----------------------------------------------------------------------
# fold-parallel execution
# ----------------------------------------------------------------------

# Per-worker fold context: the (potentially large) shared data object
# ships once per worker via the pool initializer; fold tasks then carry
# only index arrays.
_FOLD_FN: "Callable | None" = None
_FOLD_DATA = None


def _init_fold_worker(fold_fn: Callable, data) -> None:
    global _FOLD_FN, _FOLD_DATA
    _FOLD_FN = fold_fn
    _FOLD_DATA = data


def _run_fold(task: tuple) -> object:
    train, test = task
    assert _FOLD_FN is not None
    return _FOLD_FN(_FOLD_DATA, train, test)


def cross_validate(
    fold_fn: Callable,
    data,
    folds: "Iterable[tuple[np.ndarray, np.ndarray]]",
    workers: int = 1,
    context: str = "spawn",
) -> list:
    """Run ``fold_fn(data, train_idx, test_idx)`` over every fold.

    The k-fold loop every evaluation in this repo runs, factored so the
    folds -- which are independent by construction (each fits a freshly
    seeded model on its own split) -- can execute on a
    :class:`~repro.parallel.WorkerPool`.  Results come back in fold
    order regardless of completion order, so ``workers`` never changes
    the outcome; ``workers=1`` is a plain in-process loop over the same
    function.

    *fold_fn* must be a module-level (picklable) callable and *data* a
    picklable object; both ship once per worker through the pool
    initializer, so fold tasks stay small.
    """
    folds = list(folds)
    if workers is not None and int(workers) == 1:
        return [fold_fn(data, train, test) for train, test in folds]
    with WorkerPool(
        workers,
        context=context,
        initializer=_init_fold_worker,
        initargs=(fold_fn, data),
    ) as pool:
        results: list = [None] * len(folds)
        for i, result in pool.map_unordered(_run_fold, folds):
            results[i] = result
    return results
