"""Worker-process side of the sharded campaign runner.

A shard is a contiguous slice of a campaign's pending (gpu, stencil)
units.  The parent :class:`~repro.profiling.runner.CampaignRunner` ships
the campaign config once per worker through the pool initializer
(:func:`_init_shard_worker`), then dispatches shards as small picklable
tasks; :func:`run_shard` executes each one with a **fresh** clock,
health ledger and per-GPU search stack built by the same
:func:`~repro.profiling.runner.build_search` /
:func:`~repro.profiling.runner.run_unit` code the sequential runner
uses.

Determinism: every unit derives its sampling streams from the campaign
seed and its own (gpu, stencil_id) identity, and fault draws are scoped
per unit (:meth:`~repro.engine.fault.FaultBackend.begin_unit` resets
the attempt counters), so a unit computes the same profile no matter which
process runs it, in what order, after what history.  That is why the
parent can merge shard results into a campaign bit-identical to the
sequential one.

Fault tolerance: shards checkpoint their completed units atomically
every ``checkpoint_every`` units to a sibling file of the main
checkpoint (``<checkpoint>.shard-NNN``).  If the worker dies mid-shard,
the parent recovers everything up to the last shard checkpoint and
re-dispatches only the rest.  Profiles cross the process boundary as
:func:`~repro.profiling.storage.profile_to_row` rows -- the same schema
the main checkpoint uses -- so merge and resume share one codec.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..gpu.faults import FaultConfig
from ..optimizations.combos import OC_BY_NAME
from .storage import profile_to_row, stencil_from_dict

#: Per-process campaign context, populated once by the pool initializer.
_CFG: "dict | None" = None

#: Exit status used by the worker-crash test hook; any nonzero status
#: breaks the pool the same way, the value just aids debugging.
CRASH_EXIT_CODE = 17


def _init_shard_worker(config_doc: dict, policy, checkpoint_every: int) -> None:
    """Pool initializer: decode the campaign config once per worker.

    *config_doc* is the runner's ``_config_doc()`` -- already a plain
    JSON document, so it ships cheaply; stencils, OCs and the fault
    schedule are rebuilt here so tasks only need to carry unit ids.
    """
    global _CFG
    _CFG = {
        "config_doc": config_doc,
        "stencils": [stencil_from_dict(d) for d in config_doc["stencils"]],
        "ocs": tuple(OC_BY_NAME[name] for name in config_doc["ocs"]),
        "faults": FaultConfig.from_dict(config_doc["faults"]),
        "backend": config_doc["backend"],
        "sigma": float(config_doc["sigma"]),
        "seed": int(config_doc["seed"]),
        "n_settings": int(config_doc["n_settings"]),
        "policy": policy,
        "checkpoint_every": int(checkpoint_every),
    }


def run_shard(task: tuple) -> dict:
    """Execute one shard; the pool task function.

    *task* is ``(shard_index, units, crash_units, checkpoint_path)``
    where ``units`` is a list of (gpu, stencil_id) pairs and
    ``crash_units`` is the test hook's subset of units at which to kill
    this worker (normally empty).  Returns the completed profiles as
    storage rows plus this shard's health counters;
    ``units_completed``/``units_resumed`` stay zero -- unit bookkeeping
    belongs to the parent (see
    :meth:`~repro.profiling.runner.CampaignHealth.merge_dict`).
    """
    # Late import: runner imports this module inside _run_sharded, so a
    # top-level back-import would be circular in the parent process.
    from .runner import (
        CampaignHealth,
        SimClock,
        build_search,
        run_unit,
        write_checkpoint,
    )

    assert _CFG is not None, "shard worker used before initialization"
    cfg = _CFG
    shard_idx, units, crash_units, ckpt_path = task
    crash = {(str(g), int(s)) for g, s in crash_units}
    clock = SimClock()
    health = CampaignHealth()
    searches: dict = {}
    rows: "dict[str, list]" = {}
    since = 0
    for gpu, sid in units:
        if (gpu, sid) in crash:
            os._exit(CRASH_EXIT_CODE)
        search = searches.get(gpu)
        if search is None:
            search = build_search(
                cfg["backend"], gpu, cfg["sigma"], cfg["faults"],
                cfg["seed"], cfg["n_settings"], cfg["policy"],
                clock, health,
            )
            searches[gpu] = search
        profile = run_unit(
            search, gpu, cfg["stencils"][sid], sid, cfg["ocs"],
            cfg["faults"], cfg["policy"], clock, health,
        )
        rows.setdefault(gpu, []).append(profile_to_row(profile))
        since += 1
        if ckpt_path is not None and since >= cfg["checkpoint_every"]:
            write_checkpoint(
                Path(ckpt_path), "campaign-shard", cfg["config_doc"], rows,
                health,
            )
            since = 0
    if ckpt_path is not None and since:
        write_checkpoint(
            Path(ckpt_path), "campaign-shard", cfg["config_doc"], rows, health
        )
    return {"shard": shard_idx, "completed": rows, "health": health.to_dict()}
