"""Content-keyed memoization of evaluation results, optionally on disk.

``CachingBackend`` wraps any backend and serves repeated requests from
memory.  Results are pure functions of the (stencil, OC, setting, grid)
identity (noise included), so replays are free.  Strategies price each
setting once per job on a pure backend, so the memo pays only where a
point is asked for again: under the campaign's fault layer (one work
unit at a time) and across processes with ``root=``.

Only settled outcomes are cached -- times and deterministic
:class:`~repro.errors.KernelLaunchError` crashes.  Transient errors a
fault-injecting backend may record are *not* cached (a retry must re-hit
the device), which is also why fault decorators wrap *around* the cache,
never inside it.

With ``root=`` the memo also persists: one JSON document per (GPU,
sigma, stencil, OC, grid) group, mapping ``"v1,v2,..."`` settings to a
float time or ``{"crash": msg}`` (layout and format rule in
``docs/tuning.md``).  A group is read into the memo the first time a
miss touches it, so its later hits are plain dict lookups.  An
unreadable or garbled document is a miss the next flush rebuilds; one
of another ``format`` raises :class:`~repro.errors.TuningError`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

from ..errors import KernelLaunchError, TuningError
from ..store import atomic_write_text, check_format
from .core import BackendBase, BackendInfo, EvalRequest, EvalResult, as_backend

#: Format version written into every persisted group document.
CACHE_FORMAT = 1


class CachingBackend(BackendBase):
    """Memoizing decorator around another backend.

    The cache key is equivalent to :meth:`EvalRequest.key` -- GPU
    identity is implicit because a backend instance measures exactly one
    GPU.  Duplicate requests inside one batch are deduplicated before
    reaching the inner backend (the first occurrence is the miss; the
    rest are hits).  With *root*, the memo is persisted there (see the
    module docstring); call :meth:`flush` to write it.

    Key construction is the cache's hot path (on a cold workload it runs
    once per request with zero amortizing hits), so stencil identities
    are interned to small integer tokens: hashing a key then costs a few
    machine words instead of re-hashing the stencil's full offset tuple
    on every lookup.  The intern table is keyed by object id with the
    stencil kept referenced (ids are only stable while the object is
    alive), falling back to content identity so equal stencils behind
    different objects share one token.
    """

    def __init__(self, inner, root: "str | Path | None" = None):
        self.inner = as_backend(inner)
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._cache: dict[tuple, EvalResult] = {}
        self._token_by_id: dict[int, tuple] = {}
        self._token_by_content: dict[tuple, int] = {}
        # Persisted groups, keyed (token, oc name, grid): read -> file path.
        self._groups: dict[tuple, Path] = {}
        self._dirty: set[tuple] = set()
        self.hits = 0
        self.misses = 0

    def _stencil_token(self, stencil) -> int:
        entry = self._token_by_id.get(id(stencil))
        if entry is not None:
            return entry[1]
        content = stencil.cache_key()
        token = self._token_by_content.get(content)
        if token is None:
            token = len(self._token_by_content)
            self._token_by_content[content] = token
        self._token_by_id[id(stencil)] = (stencil, token)
        return token

    @property
    def spec(self):
        return self.inner.spec

    @property
    def sigma(self) -> float:
        return self.inner.sigma

    @property
    def info(self) -> BackendInfo:
        inner = self.inner.info
        return BackendInfo(
            name=f"cached({inner.name})",
            vectorized=inner.vectorized,
            pure=inner.pure,
        )

    def cache_info(self) -> dict:
        """Hit/miss accounting: ``{"hits", "misses", "size"}``."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._cache)}

    def clear(self) -> None:
        """Forget the in-memory memo (persisting unsaved results first)."""
        self.flush()
        self._cache.clear()
        self._token_by_id.clear()
        self._token_by_content.clear()
        self._groups.clear()
        self.hits = 0
        self.misses = 0

    def begin_unit(self, unit_key: object) -> None:
        """Forget the memo at the start of a campaign work unit: units are
        self-contained, so no hit is lost and memory holds one unit."""
        self.clear()

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> list[EvalResult]:
        # Cold-path discipline: each request's key is hashed at most
        # three times (lookup, miss registration, result insertion) and
        # the per-request work is inlined -- on an all-miss batch this
        # loop is pure overhead on top of the inner backend, so it must
        # stay a small fraction of the inner backend's per-point cost.
        out: list[EvalResult | None] = [None] * len(requests)
        cache = self._cache
        token_by_id = self._token_by_id
        intern = self._stencil_token
        miss_pos: dict[tuple, int] = {}
        miss_requests: list[EvalRequest] = []
        miss_keys: list[tuple] = []
        slots: list[tuple[int, int]] = []
        hits = 0
        for i, r in enumerate(requests):
            entry = token_by_id.get(id(r.stencil))
            token = entry[1] if entry is not None else intern(r.stencil)
            key = (token, r.oc.name, r.setting.as_tuple(), r.grid)
            cached = cache.get(key)
            if cached is not None:
                hits += 1
                out[i] = cached
                continue
            n_miss = len(miss_requests)
            pos = miss_pos.setdefault(key, n_miss)
            if pos == n_miss:
                miss_requests.append(r)
                miss_keys.append(key)
            else:
                hits += 1  # intra-batch duplicate of a pending miss
            slots.append((i, pos))
        if miss_requests and self.root is not None:
            if self._read_groups(miss_requests, miss_keys):
                # Groups just read from disk may settle these misses.
                return self.evaluate_batch(requests)
        self.hits += hits
        self.misses += len(miss_requests)
        if miss_requests:
            results = self.inner.evaluate_batch(miss_requests)
            for key, res in zip(miss_keys, results):
                if res.ok or res.crashed:
                    cache[key] = res
            if self.root is not None:
                self._dirty.update(
                    (key[0], key[1], key[3])
                    for key, res in zip(miss_keys, results)
                    if res.ok or res.crashed
                )
            for i, pos in slots:
                out[i] = results[pos]
        return out  # type: ignore[return-value]

    # -- persistence ---------------------------------------------------
    def _read_groups(self, requests, keys) -> bool:
        """Read every not-yet-read group these misses touch into the memo;
        True when that added any entry."""
        added = False
        for r, key in zip(requests, keys):
            group = (key[0], key[1], key[3])
            if group in self._groups:
                continue
            ident = (
                self.inner.spec.name,
                repr(float(self.inner.sigma)),
                r.stencil.cache_key(),
                r.oc.name,
                r.grid,
            )
            digest = hashlib.blake2b(repr(ident).encode(), digest_size=12)
            path = self.root / f"{digest.hexdigest()}.json"
            added |= self._read_group(path, group)
            self._groups[group] = path  # only once the read did not raise
        return added

    def _read_group(self, path: Path, group: tuple) -> bool:
        token, oc, grid = group
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return False  # missing, unreadable or garbled: re-measure
        if not isinstance(doc, dict):
            return False
        check_format(doc, CACHE_FORMAT, f"tuning-cache group {path}", TuningError)
        try:
            entries = {
                (token, oc, tuple(map(int, text.split(","))), grid): (
                    EvalResult(time_ms=float(value))
                    if isinstance(value, (int, float))
                    else EvalResult(error=KernelLaunchError(str(value["crash"])))
                )
                for text, value in doc["entries"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError):
            return False  # garbled entries: re-measure, rebuild on flush
        self._cache.update(entries)
        return bool(entries)

    def flush(self) -> None:
        """Write every persisted group that gained settled results."""
        if not self._dirty:
            return
        tables: dict[tuple, dict] = {group: {} for group in self._dirty}
        for (token, oc, setting, grid), res in self._cache.items():
            table = tables.get((token, oc, grid))
            if table is not None:
                table[",".join(map(str, setting))] = (
                    res.time_ms if res.ok else {"crash": str(res.error)}
                )
        for group, table in tables.items():
            _, oc, grid = group
            doc = {
                "format": CACHE_FORMAT,
                "gpu": self.inner.spec.name,
                "sigma": repr(float(self.inner.sigma)),
                "oc": oc,
                "grid": list(grid) if grid else None,
                "entries": table,
            }
            atomic_write_text(self._groups[group], json.dumps(doc, sort_keys=True))
        self._dirty.clear()
