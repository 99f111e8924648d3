"""Persistent, content-keyed tuning cache.

A disk-backed sibling of :class:`repro.engine.CachingBackend`: results
are pure functions of (GPU, sigma, stencil, OC, setting, grid) --
deterministic noise included -- so settled outcomes can be replayed
across processes and sessions, making a repeated ``tune()`` call
near-free.

Layout: one JSON document per (GPU, sigma, stencil, OC, grid) *group*,
named by a BLAKE2b digest of that identity, holding a ``settings ->
outcome`` table (a float time, or a crash marker carrying the original
:class:`~repro.errors.KernelLaunchError` message).  Floats round-trip
through JSON exactly (``repr`` semantics), so a cache replay is
bit-identical to re-measuring.  Documents are written atomically
(tmp + ``os.replace``, PR 1's storage convention) and format-versioned;
an unreadable or newer-format document is treated as a miss for reads
and rebuilt on the next flush, never trusted.

Only settled outcomes are stored -- times and deterministic launch
crashes.  Transient faults a fault-injecting backend may record are
never persisted (a retry must re-hit the device), the same rule the
in-memory cache follows.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

from ..engine import BackendBase, BackendInfo, EvalRequest, EvalResult, as_backend
from ..errors import KernelLaunchError
from ..store import atomic_write_text

__all__ = ["TuningCache"]

#: Format version written into every cache document.
CACHE_FORMAT = 1


class TuningCache(BackendBase):
    """Disk-backed memoizing decorator around another backend.

    Wraps the measurement substrate exactly like
    :class:`~repro.engine.CachingBackend`, but the memo table lives
    under ``root`` and survives the process.  ``flush()`` persists dirty
    groups; :func:`repro.tuning.tune` flushes automatically after every
    call (including on error).
    """

    def __init__(self, inner, root: "str | Path"):
        self.inner = as_backend(inner)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        # group key -> {"path": Path, "entries": dict, "dirty": bool}
        self._groups: dict[tuple, dict] = {}

    # -- Backend surface ----------------------------------------------
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
            name=f"tuning-cache({inner.name})",
            vectorized=inner.vectorized,
            caching=True,
            batch_limit=inner.batch_limit,
        )

    def cache_info(self) -> dict:
        """Hit/miss accounting for this instance's lifetime."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "groups": len(self._groups),
        }

    # -- group management ---------------------------------------------
    def _group_key(self, r: EvalRequest) -> tuple:
        return (
            self.inner.spec.name,
            repr(float(self.inner.sigma)),
            r.stencil.cache_key(),
            r.oc.name,
            r.grid,
        )

    def _group_path(self, key: tuple) -> Path:
        digest = hashlib.blake2b(
            repr(key).encode(), digest_size=12
        ).hexdigest()
        return self.root / f"{digest}.json"

    def _load_group(self, key: tuple) -> dict:
        group = self._groups.get(key)
        if group is not None:
            return group
        path = self._group_path(key)
        entries: dict[str, object] = {}
        if path.exists():
            try:
                doc = json.loads(path.read_text())
                if (
                    isinstance(doc, dict)
                    and doc.get("format") == CACHE_FORMAT
                ):
                    entries = dict(doc.get("entries", {}))
            except (OSError, ValueError):
                entries = {}  # unreadable document: start over, re-measure
        group = {"path": path, "entries": entries, "dirty": False, "key": key}
        self._groups[key] = group
        return group

    @staticmethod
    def _entry_key(r: EvalRequest) -> str:
        return ",".join(map(str, r.setting.as_tuple()))

    @staticmethod
    def _decode(entry) -> EvalResult:
        if isinstance(entry, (int, float)):
            return EvalResult(time_ms=float(entry))
        return EvalResult(error=KernelLaunchError(str(entry["crash"])))

    def flush(self) -> None:
        """Persist every dirty group atomically."""
        for group in self._groups.values():
            if not group["dirty"]:
                continue
            key = group["key"]
            doc = {
                "format": CACHE_FORMAT,
                "gpu": key[0],
                "sigma": key[1],
                "oc": key[3],
                "grid": list(key[4]) if key[4] else None,
                "entries": group["entries"],
            }
            atomic_write_text(group["path"], json.dumps(doc, sort_keys=True))
            group["dirty"] = False

    # -- evaluation ---------------------------------------------------
    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> list[EvalResult]:
        out: list[EvalResult | None] = [None] * len(requests)
        miss_requests: list[EvalRequest] = []
        miss_slots: list[int] = []
        miss_pending: dict[tuple, int] = {}
        dupes: list[tuple[int, int]] = []
        # A batch usually spans one (stencil, oc, grid) group; resolving
        # it once per distinct identity keeps replay per-request cost at
        # dict-lookup level.  id() keys are safe here: the request
        # objects stay alive for the whole scope.
        group_memo: dict[tuple, dict] = {}
        for i, r in enumerate(requests):
            mkey = (id(r.stencil), id(r.oc), r.grid)
            group = group_memo.get(mkey)
            if group is None:
                group = self._load_group(self._group_key(r))
                group_memo[mkey] = group
            ekey = self._entry_key(r)
            entry = group["entries"].get(ekey)
            if entry is not None:
                self.hits += 1
                out[i] = self._decode(entry)
                continue
            pending = (id(group), ekey)
            pos = miss_pending.get(pending)
            if pos is not None:
                self.hits += 1  # intra-batch duplicate of a pending miss
                dupes.append((i, pos))
                continue
            miss_pending[pending] = len(miss_requests)
            miss_requests.append(r)
            miss_slots.append(i)
        self.misses += len(miss_requests)
        if miss_requests:
            results = self.inner.evaluate_batch(miss_requests)
            for r, slot, res in zip(miss_requests, miss_slots, results):
                out[slot] = res
                if res.ok:
                    value: object = res.time_ms
                elif res.crashed:
                    value = {"crash": str(res.error)}
                else:
                    continue  # transient fault: never persisted
                group = group_memo[(id(r.stencil), id(r.oc), r.grid)]
                group["entries"][self._entry_key(r)] = value
                group["dirty"] = True
            for i, pos in dupes:
                out[i] = results[pos]
        return out  # type: ignore[return-value]
