"""Analytical kernel characterization for (stencil, OC, parameter setting).

This module is the bridge between the optimization layer and the GPU
timing model: :class:`KernelProfile` records, for one kernel variant, the
quantities a timing model needs -- launch geometry, per-thread registers,
per-block shared memory, DRAM and L2 traffic, floating-point work,
coalescing efficiency and streaming synchronization structure.  The
arithmetic lives in the array pipeline of :mod:`repro.gpu.model`;
:func:`build_profile` and :func:`register_estimate` are batches of one
over it.  What stays here is per-stencil (reuse windows, row accesses,
tap overlap) or the contract with the code generator (queue planes).

The model captures the first-order mechanics of each optimization:

Streaming (ST)
    Blocks become (d-1)-dimensional tiles swept along the stream axis; each
    input plane is loaded once, removing the stream-axis redundancy.
    Concurrent streaming (``stream_tiles``) splits the stream axis to
    restore block-level parallelism; ``stream_unroll`` adds register-level
    reuse at register cost.  A per-plane ``__syncthreads()`` exposes memory
    latency, modeled as a per-iteration stall.
Block merging (BM) / cyclic merging (CM)
    A thread computes ``merge_factor`` outputs.  BM merges *adjacent*
    points, so neighbor loads overlap and are reused from registers, but
    merging along the contiguous axis breaks coalescing.  CM merges
    *strided* points: coalescing is preserved for any merge axis and the
    register cost is lower, but there is no load overlap to harvest.
Retiming (RT)
    Decomposes the stencil into accumulating sub-computations along the
    stream axis, shrinking the live register queue (a win for high-order
    stencils, a small constant loss for low-order ones).
Prefetching (PR)
    Double-buffers the next plane into registers, hiding most of the
    per-iteration synchronization stall at a register cost.
Temporal blocking (TB)
    Fuses ``temporal_steps`` sweeps per launch: DRAM traffic divides by the
    fuse degree while halos grow by ``extent x (t-1)`` per blocked axis,
    adding redundant compute and loads.  Staging the time planes requires
    shared memory, so TB kernels always allocate it -- which is exactly why
    temporal blocking crashes for 3-D order-4 stencils without streaming
    (Section III-A): the widened 3-D tile exceeds the per-block shared
    memory limit on every evaluated GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..config import GRID_2D, GRID_3D
from ..stencil.stencil import Stencil
from .combos import OC
from .params import ParamSetting
from .passes import Opt

#: Number of time steps a profiling run sweeps (execution time is reported
#: per step).  Must be divisible by every temporal fuse degree.
TIME_STEPS = 8

#: Bytes per grid cell (double precision throughout the paper).
WORD = 8


def default_grid(ndim: int) -> tuple[int, ...]:
    """The paper's input grids: 8192^2 for 2-D, 512^3 for 3-D."""
    return (GRID_2D,) * 2 if ndim == 2 else (GRID_3D,) * 3


def register_queue_planes(stencil: Stencil, oc: OC, setting: ParamSetting) -> int:
    """Stream-axis planes the reuse queue must hold (register streaming).

    This is the **contract** with the code generator: the emitted register
    queue (or the reuse portion of the shared plane buffer) must hold
    exactly this many planes.  Plain streaming keeps the full stencil
    footprint ``2*extent + 1``; retiming accumulates partial sums so only
    the leading ``extent + 1`` planes (at least a rolling pair) stay live.
    """
    stream_axis = setting["stream_dim"] - 1
    es = stencil.axis_extents[stream_axis]
    planes = 2 * es + 1
    if Opt.RT in oc.opts:
        planes = max(2, es + 1)
    return planes


def smem_plane_count(stencil: Stencil, oc: OC, setting: ParamSetting) -> int:
    """Planes of the shared-memory queue of a streaming smem kernel.

    Also part of the codegen contract: the reuse queue
    (:func:`register_queue_planes`) plus one prefetch landing plane (PR)
    plus two staging planes per fused time step beyond the first (TB).
    """
    planes = register_queue_planes(stencil, oc, setting)
    if Opt.PR in oc.opts:
        planes += 1
    if Opt.TB in oc.opts:
        planes += 2 * (setting["temporal_steps"] - 1)
    return planes


@dataclass(frozen=True)
class KernelProfile:
    """Everything the timing simulator needs to know about one kernel.

    Traffic and FLOP counts are totals *per launch*; ``launches`` says how
    many launches cover :data:`TIME_STEPS` sweeps.  Axis 0 of the grid is
    the innermost (contiguous) dimension.
    """

    # Launch geometry.
    threads_per_block: int
    n_blocks: int
    launches: int

    # Per-thread / per-block resources.
    regs_per_thread: int
    spilled_regs: int
    smem_per_block: int

    # Work and traffic per launch.  DRAM reads depend on the GPU's L2
    # capacity for cache-served schemes, so they are carried as a base
    # (perfect-reuse) volume plus a worst-case amplification and the L2
    # window needed to avoid it; the simulator combines them.
    flops: float
    read_bytes_base: float
    read_amplification: float
    reuse_window_bytes: float
    write_bytes: float
    l2_bytes: float
    smem_bytes: float

    # Memory behaviour.
    coalescing: float  # in (0, 1]
    scattered: bool  # cache-served scheme: many concurrent row streams

    # Streaming synchronization structure (zeros when not streaming).
    stream_iters: int
    prefetch: bool

    # Bookkeeping for reports.
    temporal_steps: int
    points: int


@lru_cache(maxsize=262144)
def build_profile(
    stencil: Stencil,
    oc: OC,
    setting: ParamSetting,
    grid: tuple[int, ...] | None = None,
    warp_size: int = 32,
) -> KernelProfile:
    """Characterise the kernel implementing *stencil* under *oc*/*setting*.

    A batch of one through :func:`repro.gpu.model.profile`.  Profiles are
    GPU-*model*-independent given the scheduling width, so results are
    memoized: a multi-GPU campaign re-times the same (stencil, OC,
    setting) triples on each architecture and pays the characterization
    cost once per ``warp_size`` (32 for every NVIDIA device, 64 for AMD
    wavefronts -- the width only affects the coalescing estimate).

    Raises
    ------
    OptimizationError
        For geometry that cannot be expressed (e.g. a merge/stream
        dimension beyond the grid's rank).
    KernelLaunchError
        When a temporal halo consumes the tile.  Other hardware limits
        are *not* checked here; they depend on the GPU.
    """
    from ..gpu import model

    prof = model.profile(stencil, (oc,), (setting.as_tuple(),), grid, warp_size)
    prof.crashes.raise_first()
    return prof.row(0)


@lru_cache(maxsize=4096)
def register_estimate(
    nnz: int,
    *,
    merge_factor: int = 1,
    block_merge: bool = False,
    streaming: bool = False,
    use_smem: bool = False,
    retiming: bool = False,
    stream_extent: int = 0,
    unroll: int = 1,
    prefetch: bool = False,
    temporal_steps: int = 1,
    temporal: "bool | None" = None,
) -> "tuple[int, int]":
    """Per-thread register pressure from the kernel's *structure* alone.

    Returns ``(regs_per_thread, spilled)`` with the per-thread count
    capped at the hardware's 255: a batch of one through
    :func:`repro.gpu.model.registers`, the register model
    :func:`build_profile` prices occupancy with.  The static analyzer's
    register pass calls it with the same facts recovered from generated
    source, so both sides price occupancy identically.
    """
    from ..gpu.model import registers

    if temporal is None:
        temporal = temporal_steps > 1
    regs, spilled = registers(
        nnz, merge_factor, block_merge, streaming, use_smem, retiming,
        stream_extent, unroll, prefetch, temporal_steps, temporal,
    )
    return regs.item(), spilled.item()


def smem_traffic_taps(
    taps: "tuple[tuple[int, ...], ...]",
    *,
    stream_axis: "int | None" = None,
    retiming: bool = False,
    block_merge: bool = False,
    merge_axis: "int | None" = None,
    merge_factor: int = 1,
) -> float:
    """Shared-memory reads per output point for a tiled kernel.

    Tiled kernels re-read each accessed neighbor from shared memory
    (plus ~2 accesses for the store/rotate bookkeeping), so dense
    stencils become smem-bandwidth-bound.  Retiming accumulates
    stream-axis taps in registers, leaving only the in-plane taps plus
    the rolling update; block merging serves overlapping taps of the
    merged outputs from registers.  Shared between :func:`build_profile`
    (stencil offsets) and the analyzer's volume pass (extracted taps).
    """
    eff = float(len(taps))
    if retiming and stream_axis is not None:
        off_stream = sum(1 for p in taps if p[stream_axis] == 0)
        eff = float(off_stream) + 2.0
    if block_merge and merge_axis is not None and merge_factor > 1:
        eff /= tap_overlap_factor(tuple(taps), merge_axis, merge_factor)
    return eff + 2.0


@lru_cache(maxsize=65536)
def tap_overlap_factor(
    taps: "tuple[tuple[int, ...], ...]", axis: int, m: int
) -> float:
    """Tap-reuse factor of block merging *m* outputs along *axis*.

    Adjacent outputs share exactly the taps whose translates along the
    merge axis are also taps, so the per-output tap count of the merged
    thread is ``|union of m shifted tap sets| / m``.  Dense-along-axis
    stencils (boxes) overlap heavily and love BM; stencils sparse along
    the axis gain nothing (and then cyclic merging's lower register cost
    wins instead).
    """
    union: set = set()
    for k in range(m):
        union.update(tuple(c + k if d == axis else c for d, c in enumerate(p)) for p in taps)
    return m * len(taps) / len(union)


@lru_cache(maxsize=65536)
def row_accesses(
    taps: "tuple[tuple[int, ...], ...]",
    axes: tuple[int, ...],
    merge: int,
    merge_axis: "int | None",
) -> float:
    """SM <-> L2 traffic multiplier: distinct offset rows touched per point.

    Accesses that differ only along the contiguous axis coalesce into the
    same cache lines, so the L2 transaction count per point is the number
    of unique tap projections onto the remaining axes.  Block merging
    along a non-contiguous axis overlaps adjacent points' rows and serves
    the repeats from registers.  Shared between the timing model (stencil
    offsets) and the analyzer's volume pass (extracted taps).
    """
    outer = [a for a in axes if a != 0]
    if not outer:
        return 1.0
    rows = {tuple(p[a] for a in outer) for p in taps}
    n_rows = float(len(rows))
    if merge > 1 and merge_axis in outer:
        # Adjacent merged points share all but ~2*extent of their rows.
        n_rows = 1.0 + (n_rows - 1.0) / merge
    return n_rows


def _worst_case_amplification(stencil: Stencil, axes: list[int]) -> float:
    """DRAM read amplification for cache-served schemes with a cold L2.

    Reuse along the outermost axis requires the L2 to hold a window of
    ``2*extent + 1`` inner slabs; when it cannot, each of the extra slab
    visits becomes a re-fetch.  The simulator interpolates between 1 and
    this value using the actual L2 capacity against
    :func:`reuse_window_bytes`.
    """
    if len(axes) == 1:
        return 1.0
    outer_axis = axes[-1]
    return 1.0 + 2.0 * stencil.axis_extents[outer_axis]


def reuse_window_bytes(
    stencil: Stencil, dims: tuple[int, ...], streaming_axis: int | None
) -> float:
    """Bytes the L2 must hold to serve outer-axis reuse for cache schemes.

    For the naive scheme on a 3-D grid this is ``(2*ez + 1)`` full planes;
    with streaming along ``z`` the relevant window drops to ``(2*ey + 1)``
    rows of the 2-D plane, and so on.
    """
    ndim = stencil.ndim
    axes = [a for a in range(ndim) if a != streaming_axis]
    outer_axis = axes[-1]
    inner = 1.0
    for a in axes[:-1]:
        inner *= dims[a]
    return (2 * stencil.axis_extents[outer_axis] + 1) * inner * WORD
