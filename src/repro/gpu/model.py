"""The GPU timing model: one array pipeline for every kernel configuration.

This is the measurement substrate standing in for the paper's four
physical GPUs (and the AMD-class targets).  It evaluates whole groups of
(stencil, OC, setting) points on one (stencil, grid) pair with NumPy
array expressions; the per-point entry points
(:func:`~repro.optimizations.kernelmodel.build_profile`,
:func:`~repro.gpu.occupancy.compute_occupancy`,
:class:`~repro.gpu.simulator.GPUSimulator`) are batches of one over the
same arrays, so every formula and constant below exists once.

The pipeline has three stages:

:func:`profile`
    Kernel characterisation per point: launch geometry, registers,
    shared memory, DRAM/L2/smem traffic, FLOPs, coalescing and streaming
    structure (the mechanics of each optimization are described in
    :mod:`repro.optimizations.kernelmodel`).  Optimization flags become
    per-point masks, so OCs mix freely inside a group, and per-stencil
    quantities (extents, tap sets, reuse windows, row-access counts) are
    computed once per group.
:func:`limits`
    CUDA-style occupancy: resident blocks per SM from the thread,
    block, register and shared-memory limits, with register and smem
    allocation rounded to the vendor's granules.
:func:`phases`
    The timing of the points that launch:

    1. *latency hiding* -- achieved DRAM bandwidth and issue throughput
       are saturating functions of resident warps;
    2. *memory hierarchy* -- DRAM time from the base reads plus an
       L2-capacity-dependent re-read amplification, L2 time from the
       SM<->L2 transaction volume, coalescing scaling DRAM bandwidth;
    3. *shared memory* and *compute* -- scratchpad bandwidth and the
       FP64 roofline (the CUDA 10.0 / PTX-JIT penalty on A100 lives in
       the spec);
    4. *wave quantization* -- the smooth-max of the phases is stretched
       by the tail when the blocks do not fill whole waves;
    5. *streaming stalls* -- per-plane synchronization plus exposed load
       latency, mostly hidden by prefetching;
    6. *launch overhead* -- per kernel invocation, amortized by temporal
       blocking.

Crashes are per-point data.  Each stage records, for the points it
rejects, the exact exception the point raises, in precedence order:
:class:`~repro.errors.OptimizationError` for geometry the kernel cannot
express, then :class:`~repro.errors.KernelLaunchError` for a temporal
halo that consumes the tile, an oversized block, registers, shared
memory, zero occupancy and an empty grid.  A later check never replaces
an earlier error.  Every expression is elementwise, so a point's result
never depends on what else shares its batch.

Measurement noise is not part of the model; see :mod:`repro.gpu.noise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, Sequence

import numpy as np

from ..errors import KernelLaunchError, OptimizationError
from ..optimizations.kernelmodel import (
    TIME_STEPS,
    WORD,
    KernelProfile,
    _worst_case_amplification,
    default_grid,
    reuse_window_bytes,
    row_accesses,
    smem_traffic_taps,
)
from ..optimizations.params import PARAM_NAMES
from ..optimizations.passes import Opt

#: Half-saturation occupancies for the latency-hiding curves: DRAM traffic
#: needs more parallelism to saturate than the issue pipelines do.
_BW_HALF_OCC = 0.15
_COMPUTE_HALF_OCC = 0.10

#: DRAM efficiency derating for cache-served schemes, whose warps keep many
#: concurrent row streams alive (DRAM page thrash, sector overfetch).
_SCATTER_EFF = 0.70

#: Fraction of nominal L2 capacity usable for stencil reuse windows.
_L2_USABLE = 0.80

#: Streaming per-iteration costs in cycles.
_SYNC_CYCLES = 25.0
_EXPOSED_LATENCY_CYCLES = 320.0
_PREFETCH_HIDING = 0.70

#: Exponent of the smooth-max combining the roofline phases.
_SMOOTH_P = 4.0

#: Scratchpad bandwidth derating for bank conflicts and issue overhead.
_SMEM_EFF = 0.35

#: Hardware ceiling on registers per thread; the excess spills.
_MAX_REGS = 255

_COL = {name: i for i, name in enumerate(PARAM_NAMES)}
_PROFILE_FIELDS = tuple(f.name for f in fields(KernelProfile))

#: Occupancy limiter names in tie-break order.
_LIMITERS = ("threads", "blocks", "registers", "smem")


class Crashes:
    """Per-point errors, first writer wins (the stages' precedence order)."""

    def __init__(self, n: int):
        self.errors: list = [None] * n
        self.mask = np.zeros(n, dtype=bool)

    def add(self, mask: np.ndarray, make: Callable[[int], Exception]) -> None:
        """Record ``make(i)`` for every point of *mask* not yet failed."""
        if not np.count_nonzero(mask):
            return
        new = mask & ~self.mask
        for i in np.flatnonzero(new):
            self.errors[i] = make(i)
        self.mask |= new

    def raise_first(self) -> None:
        """Raise the first recorded error (the batch-of-one views)."""
        for e in self.errors:
            if e is not None:
                raise e


class Profiles:
    """Kernel characterisation of a batch: one array per
    :class:`~repro.optimizations.kernelmodel.KernelProfile` field, plus
    the points' crashes."""

    def __init__(self, crashes: Crashes, **arrays: np.ndarray):
        self.crashes = crashes
        self.__dict__.update(arrays)

    @classmethod
    def stack(cls, profiles: "Sequence[KernelProfile]") -> "Profiles":
        """A batch of pre-built profiles (none of them failed)."""
        return cls(
            Crashes(len(profiles)),
            **{f: np.array([getattr(p, f) for p in profiles]) for f in _PROFILE_FIELDS},
        )

    def row(self, i: int) -> KernelProfile:
        return KernelProfile(**{f: getattr(self, f)[i].item() for f in _PROFILE_FIELDS})


@dataclass(frozen=True)
class Occupancy:
    """Result of an occupancy calculation for one kernel on one GPU.

    Attributes
    ----------
    blocks_per_sm:
        Resident thread blocks per SM.
    warps_per_sm:
        Resident warps per SM.
    occupancy:
        ``warps_per_sm / max_warps_per_sm`` in [0, 1].
    limiter:
        Which resource bounds residency: ``"threads"``, ``"registers"``,
        ``"smem"`` or ``"blocks"``.
    """

    blocks_per_sm: int
    warps_per_sm: int
    occupancy: float
    limiter: str


@dataclass
class Limits:
    """Occupancy of a batch: warps per block, resident blocks per SM (the
    least of the thread, block, register and smem limits) and the
    per-resource limits behind it."""

    spec: object
    warps_per_block: np.ndarray
    blocks_per_sm: np.ndarray
    by_threads: np.ndarray
    by_registers: np.ndarray
    by_smem: np.ndarray
    crashes: Crashes

    def limiter(self, i: int) -> str:
        """The resource bounding point *i*; ties go to the most benign
        (a light kernel saturating several limits reads naturally)."""
        limits = (
            self.by_threads[i],
            self.spec.max_blocks_per_sm,
            self.by_registers[i],
            self.by_smem[i],
        )
        return _LIMITERS[limits.index(min(limits))]

    def occupancy(self, i: int) -> Occupancy:
        blocks = int(self.blocks_per_sm[i])
        warps = blocks * int(self.warps_per_block[i])
        return Occupancy(
            blocks_per_sm=blocks,
            warps_per_sm=warps,
            occupancy=warps / self.spec.max_warps_per_sm,
            limiter=self.limiter(i),
        )


@dataclass
class Phases:
    """Per-launch phase times (seconds, noise-free) of the points that
    launch, their wave utilization and their per-step time in ms."""

    dram_s: np.ndarray
    l2_s: np.ndarray
    smem_s: np.ndarray
    compute_s: np.ndarray
    stream_s: np.ndarray
    launch_s: float
    utilization: np.ndarray
    time_ms: np.ndarray


def _round_up(values: np.ndarray, unit: int) -> np.ndarray:
    return ((values + unit - 1) // unit) * unit


def _per_key(keys: np.ndarray, value) -> np.ndarray:
    """``value(key)`` for each entry of *keys*, computed once per distinct key."""
    keys = keys.tolist()
    table = {k: value(k) for k in set(keys)}
    return np.array([table[k] for k in keys], dtype=np.float64)


def registers(
    nnz, merge_factor, block_merge, streaming, use_smem, retiming,
    stream_extent, unroll, prefetch, temporal_steps, temporal,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-thread register pressure from the kernel's structure alone.

    Arguments are arrays (or scalars: a batch of one) broadcast together;
    ``merge_factor`` is 1 and ``temporal_steps`` 1 where the OC does not
    merge or fuse.  Returns ``(regs_per_thread, spilled)`` with the
    per-thread count capped at the hardware's 255.  Masked terms add
    ``0.0`` or keep their value, so each point sees exactly the
    operations its structure implies.
    """
    root = math.sqrt(nnz)
    regs = np.full(np.shape(streaming), 24.0 + 3.0 * root)
    per_point = 5.0 + 1.1 * root
    regs = regs + np.where(
        merge_factor > 1,
        (merge_factor - 1) * per_point * np.where(block_merge, 1.1, 0.85),
        0.0,
    )
    queue = (2 * stream_extent + 1) * unroll * 2.2
    queue = np.where(use_smem, queue * 0.35, queue)
    queue = np.where(retiming, queue * 0.45, queue)
    regs = regs + np.where(streaming & retiming, 6.0, 0.0)
    regs = regs + np.where(streaming, np.where(use_smem, queue * 1.0, queue * 1.6), 0.0)
    regs = regs + np.where(streaming, (unroll - 1) * 5.0, 0.0)
    regs = regs + np.where(streaming & prefetch, 8.0 * unroll + 6.0, 0.0)
    regs = np.where(
        temporal & streaming,
        regs + 10.0 * temporal_steps,
        np.where(temporal, regs * (1.0 + 0.4 * (temporal_steps - 1)), regs),
    )
    needed = np.rint(regs).astype(np.int64)
    return np.minimum(needed, _MAX_REGS), np.maximum(0, needed - _MAX_REGS)


# ----------------------------------------------------------------------
# stage 1: kernel characterisation
# ----------------------------------------------------------------------
@cache
def _oc_flags(oc) -> tuple[bool, ...]:
    """*oc*'s flags: streaming, merging, block merging, retiming,
    prefetching, temporal blocking."""
    opts = oc.opts
    return (
        Opt.ST in opts,
        Opt.BM in opts or Opt.CM in opts,
        Opt.BM in opts,
        Opt.RT in opts,
        Opt.PR in opts,
        Opt.TB in opts,
    )


def profile(stencil, ocs, tuples, grid=None, warp_size: int = 32) -> Profiles:
    """Characterise the kernels of one (stencil, grid) group.

    *ocs* and *tuples* give each point's OC and parameter setting
    (``ParamSetting.as_tuple()`` layout).  *warp_size* (32 for NVIDIA,
    64 for AMD wavefronts) only affects the coalescing estimate.
    """
    ndim = stencil.ndim
    dims = default_grid(ndim) if grid is None else tuple(grid)
    n = len(tuples)
    crashes = Crashes(n)
    if len(dims) != ndim:
        crashes.add(
            np.ones(n, dtype=bool),
            lambda i: OptimizationError(f"grid rank {len(dims)} != stencil ndim {ndim}"),
        )
        zero = np.zeros(n, dtype=np.int64)
        return Profiles(crashes, **{f: zero for f in _PROFILE_FIELDS})

    extents = stencil.axis_extents
    ext_arr = np.asarray(extents, dtype=np.int64)
    dims_arr = np.asarray(dims, dtype=np.int64)

    # Per-point optimization flags: one row of booleans per distinct OC,
    # fancy-indexed out to the group.
    oc_index: dict[int, int] = {}
    oc_list: list = []
    oc_idx = np.empty(n, dtype=np.int64)
    for j, oc in enumerate(ocs):
        k = oc_index.get(id(oc))
        if k is None:
            k = oc_index[id(oc)] = len(oc_list)
            oc_list.append(oc)
        oc_idx[j] = k
    flags = np.array([_oc_flags(oc) for oc in oc_list], dtype=bool).reshape(-1, 6)
    per_oc = flags[oc_idx]
    streaming = per_oc[:, 0]
    merging = per_oc[:, 1]
    block_merge = per_oc[:, 2]
    retiming = per_oc[:, 3]
    prefetch = per_oc[:, 4]
    temporal = per_oc[:, 5]

    S = np.asarray(tuples, dtype=np.int64).reshape(n, len(PARAM_NAMES))
    bx = S[:, _COL["block_x"]]
    by = S[:, _COL["block_y"]]
    bz = S[:, _COL["block_z"]]
    ones = np.ones(n, dtype=np.int64)

    # --- inexpressible geometry -------------------------------------
    t = np.where(temporal, S[:, _COL["temporal_steps"]], 1)
    crashes.add(
        (t < 1) | (TIME_STEPS % np.maximum(t, 1) != 0),
        lambda i: OptimizationError(f"temporal_steps={t[i]} does not divide {TIME_STEPS}"),
    )
    t = np.maximum(t, 1)
    launches = TIME_STEPS // t

    # Axis -1 (the parameter default, ``merge_dim``/``stream_dim`` 0)
    # is legal: wherever an axis is *indexed* it selects the last axis
    # (Python wrap semantics), while ``== axis`` comparisons keep the
    # raw -1 (matching no axis).
    m = np.where(merging, S[:, _COL["merge_factor"]], 1)
    merge_axis = np.where(merging, S[:, _COL["merge_dim"]] - 1, -1)
    crashes.add(
        merging & (merge_axis >= ndim),
        lambda i: OptimizationError(f"merge_dim={S[i, _COL['merge_dim']]} on {ndim}-D grid"),
    )
    stream_axis = np.where(streaming, S[:, _COL["stream_dim"]] - 1, -1)
    crashes.add(
        streaming & (stream_axis >= ndim),
        lambda i: OptimizationError(f"stream_dim={S[i, _COL['stream_dim']]} on {ndim}-D grid"),
    )
    # Failed points are still computed (and ignored): park their axes.
    merge_axis = np.where(merge_axis >= ndim, -1, merge_axis)
    stream_axis = np.where(stream_axis >= ndim, -1, stream_axis)

    use_smem = (S[:, _COL["use_smem"]] != 0) | temporal
    su = S[:, _COL["stream_unroll"]]
    stl = S[:, _COL["stream_tiles"]]

    # Merging along the stream axis cannot be expressed: the stream loop
    # already walks that axis, so codegen emits a plain streaming kernel
    # (see ``CudaEmitter._merge_loop``).  Price what is actually emitted.
    phantom = merging & streaming & (merge_axis == stream_axis)
    merging = merging & ~phantom
    block_merge = block_merge & ~phantom
    m = np.where(phantom, 1, m)
    merge_axis = np.where(phantom, -1, merge_axis)
    ma_pos = np.where(merge_axis < 0, merge_axis + ndim, merge_axis)

    # --- launch geometry ---------------------------------------------
    # Streaming points launch planes: block_x/block_y land on the
    # first/second surviving axes (all axes survive for axis -1); others
    # use the block dims directly.
    first_plane = np.where(stream_axis == 0, 1, 0)
    if ndim == 3:
        second_plane = np.where((stream_axis == 0) | (stream_axis == 1), 2, 1)
    else:
        # Two surviving axes only when no axis is consumed.
        second_plane = np.where(stream_axis < 0, 1, ndim)
    plain = [bx, by, bz]
    bd = []
    for a in range(ndim):
        val = np.where(first_plane == a, bx, ones)
        val = np.where(second_plane == a, by, val)
        bd.append(np.where(streaming, val, plain[a]))

    threads = bd[0].copy()
    for a in range(1, ndim):
        threads = threads * bd[a]

    # Cyclic merging strides the merged outputs by the block extent; a
    # unit block dimension degenerates the stride to 1, which is exactly
    # adjacent (block) merging -- price the structure the kernel has.
    bd_ma = np.stack(bd)[ma_pos, np.arange(n)]
    block_merge = block_merge | (merging & (bd_ma == 1))

    cov = []
    for a in range(ndim):
        c = np.where((ma_pos == a) & (merge_axis != stream_axis), bd[a] * m, bd[a])
        cov.append(np.maximum(c, 1))

    nb = ones.copy()
    for a in range(ndim):
        term = np.ceil(dims[a] / cov[a]).astype(np.int64)
        nb = nb * np.where(stream_axis == a, 1, term)
    nb = nb * np.where(streaming, stl, 1)
    points = math.prod(dims)

    # Temporal blocking shrinks a tile's valid interior by the extent per
    # fused step; a tile whose halo consumes it computes nothing, so the
    # configuration cannot run (why temporal blocking without streaming
    # fails for high-order 3-D stencils, Section III-A).  Reported for
    # the first failing axis.
    if temporal.any():
        for a in range(ndim):
            halo = 2 * extents[a] * (t - 1)
            crashes.add(
                (t > 1) & (stream_axis != a) & (cov[a] <= halo),
                lambda i, a=a, halo=halo: KernelLaunchError(
                    f"temporal halo {halo[i]} consumes the tile "
                    f"(coverage {cov[a][i]}) along axis {a}"
                ),
            )

    # --- registers per thread ------------------------------------------
    regs_pt, spilled = registers(
        stencil.nnz, m, block_merge, streaming, use_smem, retiming,
        ext_arr[stream_axis], su, prefetch, t, temporal,
    )

    # --- shared memory per block ---------------------------------------
    plane_cells = ones.copy()
    tile_cells = ones.copy()
    for a in range(ndim):
        cells = cov[a] + 2 * extents[a] * t
        plane_cells = plane_cells * np.where(stream_axis == a, 1, cells)
        tile_cells = tile_cells * cells
    # The codegen contract (``smem_plane_count``): the reuse queue plus a
    # prefetch landing plane plus two staging planes per fused step.
    planes = 2 * ext_arr[stream_axis] + 1
    planes = np.where(retiming, np.maximum(2, ext_arr[stream_axis] + 1), planes)
    planes = planes + np.where(prefetch, 1, 0)
    planes = planes + 2 * (t - 1)
    smem = np.where(
        streaming,
        plane_cells * planes * WORD,
        tile_cells * WORD * np.where(temporal, 2, 1),
    )
    smem = np.where(use_smem, smem, 0)

    # --- floating-point work per launch --------------------------------
    red = np.ones(n)
    if temporal.any():
        for a in range(ndim):
            factor = (cov[a] + 2 * extents[a] * (t - 1)) / cov[a]
            red = red * np.where(stream_axis == a, 1.0, factor)
    flops = points * float(stencil.flops_per_point()) * t * red

    # --- memory traffic per launch -------------------------------------
    write_bytes = float(WORD * points)  # final time plane of the fused group

    halo_f = np.ones(n)
    for a in range(ndim):
        f = (cov[a] + 2 * extents[a] * t) / cov[a]
        halo_f = halo_f * np.where(stream_axis == a, 1.0, f)
    rb_smem = WORD * points * halo_f

    # Cache-served schemes: worst-case amplification and reuse window
    # depend only on the stream axis (index 0 = not streaming) -- small
    # per-group tables.  Register streaming rides the cache like the
    # naive scheme restricted to the plane axes.
    amp_tab = np.empty(ndim + 1)
    win_tab = np.empty(ndim + 1)
    amp_tab[0] = _worst_case_amplification(stencil, list(range(ndim)))
    win_tab[0] = reuse_window_bytes(stencil, dims, None)
    for s in range(ndim):
        amp_tab[s + 1] = _worst_case_amplification(stencil, [a for a in range(ndim) if a != s])
        win_tab[s + 1] = reuse_window_bytes(stencil, dims, s)

    # SM<->L2 row-access multipliers and smem taps depend on small
    # discrete keys (packed into one int): the per-stencil helpers run
    # once per distinct key.
    def rows(packed):
        s_ = packed // 64 - 1
        axes = tuple(a for a in range(ndim) if a != s_)
        return row_accesses(stencil.offsets, axes, packed // 4 % 16, packed % 4 - 1)

    ra = _per_key(((stream_axis + 1) * 16 + m) * 4 + (merge_axis + 1), rows)
    read_base = np.where(use_smem, rb_smem, float(WORD * points))
    read_amp = np.where(use_smem, 1.0, amp_tab[stream_axis + 1])
    window = np.where(use_smem, 0.0, win_tab[stream_axis + 1])
    l2_read = np.where(use_smem, rb_smem, WORD * points * ra)

    # Shared-memory traffic: tiled kernels re-read each accessed neighbor
    # from shared memory (see ``smem_traffic_taps``).
    def taps(packed):
        s_ = packed // 128 - 1
        return smem_traffic_taps(
            stencil.offsets,
            stream_axis=s_ if s_ >= 0 else None,
            retiming=s_ >= 0,
            block_merge=bool(packed // 64 % 2),
            merge_axis=packed // 16 % 4 - 1,
            merge_factor=packed % 16,
        )

    sa_pos = np.where(stream_axis < 0, stream_axis + ndim, stream_axis)
    rt_axis = np.where(retiming & streaming, sa_pos + 1, 0)
    tap_key = ((rt_axis * 2 + block_merge) * 4 + merge_axis + 1) * 16 + m
    smem_bytes = np.where(use_smem, _per_key(tap_key, taps) * WORD * points * t * red, 0.0)

    # Register spills round-trip through L1/L2 (and partly DRAM); adding
    # the zero spill term is exact.
    spill = spilled * WORD * 2 * 0.25 * points * t
    l2_read = l2_read + spill
    read_base = read_base + 0.3 * spill
    l2_bytes = np.maximum(l2_read, read_base) + write_bytes

    # --- coalescing efficiency -----------------------------------------
    # Streaming along x: threads cover (y[,z]) while x is swept, so every
    # warp access is a strided row fetch using a quarter of each sector.
    x_threads = bd[0]
    warp = float(warp_size)
    coalesce = np.where(x_threads >= warp, 1.0, np.maximum(x_threads / warp, 0.25))
    coalesce = np.where(stream_axis == 0, 0.25, coalesce)
    coalesce = np.where(
        block_merge & (merge_axis == 0), coalesce * (1.0 / np.minimum(m, 4)), coalesce
    )
    coalesce = np.maximum(coalesce, 0.15)

    # --- streaming synchronization structure ---------------------------
    tile_len = np.ceil(dims_arr[stream_axis] / stl).astype(np.int64)
    stream_iters = np.where(streaming, np.ceil(tile_len / su).astype(np.int64), 0)

    return Profiles(
        crashes,
        threads_per_block=threads,
        n_blocks=nb,
        launches=launches,
        regs_per_thread=regs_pt,
        spilled_regs=spilled,
        smem_per_block=smem,
        flops=flops,
        read_bytes_base=read_base,
        read_amplification=read_amp,
        reuse_window_bytes=window,
        write_bytes=np.full(n, write_bytes),
        l2_bytes=l2_bytes,
        smem_bytes=smem_bytes,
        coalescing=coalesce,
        scattered=~use_smem,
        stream_iters=stream_iters,
        prefetch=prefetch,
        temporal_steps=t,
        points=np.full(n, points),
    )


# ----------------------------------------------------------------------
# stage 2: occupancy and hardware limits
# ----------------------------------------------------------------------
def limits(spec, threads, regs, smem, n_blocks=None, crashes: "Crashes | None" = None) -> Limits:
    """Resident blocks per SM for each point, recording launch failures.

    A point fails when its block is empty or exceeds the thread limit,
    its registers per thread or shared memory per block exceed the
    device's limit, no block fits on an SM, or (given *n_blocks*) its
    grid is empty.  *crashes* carries earlier stages' errors, which take
    precedence.
    """
    crashes = Crashes(len(threads)) if crashes is None else crashes
    crashes.add(threads < 1, lambda i: KernelLaunchError(f"block of {threads[i]} threads"))
    crashes.add(
        threads > spec.max_threads_per_block,
        lambda i: KernelLaunchError(
            f"block of {threads[i]} threads exceeds "
            f"{spec.max_threads_per_block} on {spec.name}"
        ),
    )
    crashes.add(
        regs > spec.max_registers_per_thread,
        lambda i: KernelLaunchError(
            f"{regs[i]} registers/thread exceeds "
            f"{spec.max_registers_per_thread} on {spec.name}"
        ),
    )
    crashes.add(
        smem > spec.smem_per_block_max,
        lambda i: KernelLaunchError(
            f"{smem[i]} B shared memory/block exceeds "
            f"{spec.smem_per_block_max} B on {spec.name}"
        ),
    )

    wpb = np.ceil(threads / spec.warp_size).astype(np.int64)
    wpb_safe = np.maximum(wpb, 1)
    lim_threads = spec.max_warps_per_sm // wpb_safe
    regs_per_warp = _round_up(np.maximum(regs, 1) * spec.warp_size, spec.reg_alloc_unit)
    lim_regs = spec.registers_per_sm // np.maximum(regs_per_warp * wpb_safe, 1)
    lim_smem = np.where(
        smem > 0,
        spec.smem_per_sm // np.maximum(_round_up(smem, spec.smem_alloc_unit), 1),
        spec.max_blocks_per_sm,
    )
    blocks = np.minimum(
        np.minimum(lim_threads, spec.max_blocks_per_sm), np.minimum(lim_regs, lim_smem)
    )
    lim = Limits(spec, wpb, blocks, lim_threads, lim_regs, lim_smem, crashes)
    crashes.add(
        blocks < 1,
        lambda i: KernelLaunchError(
            f"zero occupancy on {spec.name}: limited by {lim.limiter(i)} "
            f"(threads/block={threads[i]}, regs={regs[i]}, smem={smem[i]})"
        ),
    )
    if n_blocks is not None:
        crashes.add(n_blocks < 1, lambda i: KernelLaunchError("empty grid: zero thread blocks"))
    return lim


# ----------------------------------------------------------------------
# stage 3: phases
# ----------------------------------------------------------------------
def phases(spec, prof: Profiles, lim: Limits, v) -> Phases:
    """Time the points selected by *v* (a mask, index array or slice of
    points that launch)."""
    blocks = lim.blocks_per_sm[v]
    wpb = lim.warps_per_block[v]
    nb = prof.n_blocks[v]

    # Resident parallelism may be supply-limited when few blocks exist.
    eff = np.minimum(blocks, np.maximum(1, -(-nb // spec.sms)))
    occ = np.minimum(1.0, eff * wpb / spec.max_warps_per_sm)
    bw_frac = occ / (occ + _BW_HALF_OCC)
    comp_frac = occ / (occ + _COMPUTE_HALF_OCC)

    # Wave quantization / tail effect.
    slots = blocks * spec.sms
    n_waves = -(-nb // slots)
    util = np.maximum(nb / (n_waves * slots), 1e-3)

    # DRAM: base reads, re-read amplified by the part of the reuse
    # window the L2 cannot hold.
    window = prof.reuse_window_bytes[v]
    p_hit = np.where(
        window > 0,
        np.minimum(1.0, _L2_USABLE * spec.l2_bytes / np.where(window > 0, window, 1.0)),
        1.0,
    )
    reads = prof.read_bytes_base[v] * (
        1.0 + (prof.read_amplification[v] - 1.0) * (1.0 - p_hit)
    )
    dram_bw = spec.dram_bytes_per_s * spec.memory_efficiency * bw_frac * prof.coalescing[v]
    dram_bw = np.where(prof.scattered[v], dram_bw * _SCATTER_EFF, dram_bw)
    dram_s = (reads + prof.write_bytes[v]) / dram_bw

    l2_s = prof.l2_bytes[v] / (spec.dram_bytes_per_s * spec.l2_bw_ratio * bw_frac)

    # Aggregate scratchpad (smem/LDS) bandwidth: bytes/cycle per SM/CU
    # from the vendor layer.
    smem_bw = (
        spec.sms * spec.smem_bytes_per_clk * spec.boost_clock_mhz * 1e6 * _SMEM_EFF * comp_frac
    )
    smem_s = prof.smem_bytes[v] / smem_bw

    compute_s = prof.flops[v] / (spec.peak_fp64_flops * spec.compute_efficiency * comp_frac)

    p = _SMOOTH_P
    main_s = (dram_s**p + l2_s**p + compute_s**p + smem_s**p) ** (1.0 / p)
    main_s = main_s / util

    # Streaming stalls: stream_iters is zero off the streaming points, so
    # their cycle count (and stall time) is exactly zero.
    exposed = np.where(
        prof.prefetch[v],
        _EXPOSED_LATENCY_CYCLES * (1.0 - _PREFETCH_HIDING),
        _EXPOSED_LATENCY_CYCLES,
    )
    exposed = exposed / np.maximum(1.0, wpb / 4.0)
    cycles = prof.stream_iters[v] * (_SYNC_CYCLES + exposed)
    stream_s = n_waves * cycles / (spec.boost_clock_mhz * 1e6)

    launch_s = spec.kernel_launch_us * 1e-6
    per_launch_s = main_s + stream_s + launch_s
    return Phases(
        dram_s=dram_s,
        l2_s=l2_s,
        smem_s=smem_s,
        compute_s=compute_s,
        stream_s=stream_s,
        launch_s=launch_s,
        utilization=util,
        time_ms=per_launch_s * prof.launches[v] / TIME_STEPS * 1e3,
    )


def evaluate(spec, prof: Profiles) -> "tuple[Limits, np.ndarray, Phases]":
    """Limits and phases of a profiled batch.

    Returns ``(limits, valid, phases)``: *valid* selects the points that
    launch (a mask, or every point), and the phase arrays cover those
    points only.
    """
    lim = limits(
        spec,
        prof.threads_per_block,
        prof.regs_per_thread,
        prof.smem_per_block,
        n_blocks=prof.n_blocks,
        crashes=prof.crashes,
    )
    valid = ~lim.crashes.mask if np.count_nonzero(lim.crashes.mask) else slice(None)
    return lim, valid, phases(spec, prof, lim, valid)
