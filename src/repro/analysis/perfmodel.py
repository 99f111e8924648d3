"""Analytical performance estimation from generated kernel source.

Where :mod:`repro.optimizations.kernelmodel` characterizes a kernel from
the *intent* (stencil, OC, parameter setting), this module recovers the
same first-order quantities from the *emitted CUDA source alone*: a
static-analysis pass pipeline over the structural IR
(:mod:`repro.analysis.ir` / :mod:`repro.analysis.expr` /
:mod:`repro.analysis.semantics`) extracts per-kernel metrics --

- launch geometry (block/grid dims, launch count) from the host
  launcher and macros;
- the tap set (per-axis offsets of every global load) via row-major
  flat-index decomposition, giving footprints, halos and per-cache-level
  memory volumes through the same interval/footprint reasoning the
  bounds checker uses;
- warp-level coalescing classification from the affine
  ``threadIdx.x``-stride of the contiguous-axis coordinate, resolved
  through declaration chains;
- shared-memory bytes, queue depth and bank-conflict estimates from the
  ``__shared__`` declarations;
- FLOP counts from the accumulation statements;
- streaming / merge / retiming / prefetch / temporal structure from the
  loop nest and the staging intrinsics.

The metrics are composed into a roofline-style time estimate by reusing
the centralized composition in :class:`repro.gpu.simulator.GPUSimulator`
(occupancy-derived latency hiding, smooth-max phase combination, wave
quantization, streaming stalls) -- so the analytical estimate and the
measurement substrate share one timing formulation, and the estimate
needs **no profiling campaign**: source in, milliseconds out.

Nothing here inspects the generator's inputs: remove the stencil/OC
provenance comments from the source and the estimate is unchanged.

Because that composition is the simulator's own with ``sigma=0``, and
the extracted metrics equal ``build_profile``'s on generator output, the
estimate is the measurement substrate's noise ceiling rather than an
independent predictor.

Extraction has three stages, the first two memoized on the parsed
:class:`~repro.analysis.ir.Kernel`:

- facts of the kernel body alone (:class:`_Body`, :class:`_Accesses`:
  declarations, taps, loop roles), once per parsed body;
- what the body and its other macros fix for every value of the
  macro-only parameters' macros (:class:`_Binding`: the locals that
  fold without reading one, and the trip counts and ``_linear_coeff``
  coefficients whose computation reads none), once per body and macro
  set;
- per source, the locals that read a bound macro are re-folded and only
  the quantities that read one are re-evaluated; a coefficient or trip
  count is also memoized on the bound values it read (a block-coverage
  coefficient that reads ``BLOCK_X`` alone is computed once per
  ``BLOCK_X`` value).

The estimator goes one step further: tuning settings that differ only
in macro values share one generated and parsed source, and each binds
its own macros onto it (:func:`_metrics_for`).  Each point still costs
a binding and the passes, so the analytical backend is priced point by
point: the random strategy sends it only the settings its walk
observes (see :mod:`repro.analysis.backend`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

from ..codegen.core import MACRO_ONLY_PARAMS
from ..errors import KernelLaunchError, ReproError
from ..optimizations.kernelmodel import KernelProfile
from ..optimizations.params import PARAM_NAMES, PARAM_SPECS, ParamSetting
from . import expr as E
from . import ir
from . import semantics as S

#: Bytes per grid cell (double precision throughout).
WORD = 8


class EstimateError(ReproError):
    """The source is outside the shape the metric extractor understands."""


# ----------------------------------------------------------------------
# extracted metrics
# ----------------------------------------------------------------------
@dataclass
class KernelMetrics:
    """Source-level facts about one generated kernel.

    Everything is derived from the translation unit text; axis 0 is the
    contiguous dimension, offsets follow ``(off_x, off_y[, off_z])``.
    """

    kernel_name: str = ""
    ndim: int = 0
    dims: tuple[int, ...] = ()  # grid extents from the N* macros
    block_dims: tuple[int, ...] = (1, 1, 1)  # hardware block shape
    threads_per_block: int = 1
    n_blocks: int = 1
    launches: int = 1
    time_steps: int = 1  # TIME_STEPS macro (sweeps per run)

    # Access structure.
    taps: tuple[tuple[int, ...], ...] = ()  # per-axis load offsets
    stores: int = 0
    extents: tuple[int, ...] = ()  # per-axis max |offset|
    coverage: tuple[int, ...] = ()  # per-axis outputs per block
    tx_stride: float = 0.0  # threadIdx.x stride in the flat index
    coalescing: float = 1.0

    # Optimization structure recovered from the loop nest.
    scheme: str = "cache"  # cache | register-stream | smem-stream | smem-tile
    stream_axis: int | None = None
    stream_tiles: int = 1
    stream_unroll: int = 1
    stream_iters: int = 0
    merge_axis: int | None = None
    merge_factor: int = 1
    merge_step: int = 0  # 1 = adjacent (BM), >1 = cyclic (CM)
    prefetch: bool = False
    retimed: bool = False
    temporal_steps: int = 1

    # Resources.
    smem_per_block: int = 0
    smem_queue_planes: int = 0
    smem_footprint: tuple[int, ...] = ()  # staged cells per axis, x first
    bank_conflict_factor: float = 1.0
    register_array_cells: int = 0
    scalar_decls: int = 0
    regs_per_thread: int = 0
    spilled_regs: int = 0

    # Work.
    flops_per_point: float = 0.0  # roofline convention (2*taps - 1)
    source_flops_per_point: float = 0.0  # literal source operation count

    # Derived per-launch volumes (filled by the volume pass).
    points: int = 0
    read_bytes_base: float = 0.0
    read_amplification: float = 1.0
    reuse_window_bytes: float = 0.0
    write_bytes: float = 0.0
    l2_bytes: float = 0.0
    smem_bytes: float = 0.0
    flops: float = 0.0
    redundancy: float = 1.0

    notes: list[str] = field(default_factory=list)

    @property
    def footprint_cells(self) -> int:
        """Cells one block touches per stream position (halo included)."""
        if self.smem_footprint:
            return math.prod(self.smem_footprint)
        cells = 1
        for a in range(self.ndim):
            if a == self.stream_axis:
                continue
            cells *= self.coverage[a] + 2 * self.extents[a]
        return cells

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "ndim": self.ndim,
            "dims": list(self.dims),
            "block_dims": list(self.block_dims),
            "threads_per_block": self.threads_per_block,
            "n_blocks": self.n_blocks,
            "launches": self.launches,
            "taps": sorted(list(t) for t in self.taps),
            "extents": list(self.extents),
            "coverage": list(self.coverage),
            "footprint_cells": self.footprint_cells,
            "tx_stride": self.tx_stride,
            "coalescing": round(self.coalescing, 4),
            "scheme": self.scheme,
            "stream_axis": self.stream_axis,
            "stream_iters": self.stream_iters,
            "merge_factor": self.merge_factor,
            "merge_axis": self.merge_axis,
            "prefetch": self.prefetch,
            "retimed": self.retimed,
            "temporal_steps": self.temporal_steps,
            "smem_per_block": self.smem_per_block,
            "smem_queue_planes": self.smem_queue_planes,
            "bank_conflict_factor": self.bank_conflict_factor,
            "regs_per_thread": self.regs_per_thread,
            "flops_per_point": self.flops_per_point,
            "source_flops_per_point": self.source_flops_per_point,
            "points": self.points,
            "read_bytes_base": self.read_bytes_base,
            "read_amplification": self.read_amplification,
            "reuse_window_bytes": self.reuse_window_bytes,
            "write_bytes": self.write_bytes,
            "l2_bytes": self.l2_bytes,
            "smem_bytes": self.smem_bytes,
            "flops": self.flops,
        }


# ----------------------------------------------------------------------
# expression helpers
# ----------------------------------------------------------------------
def _linear_coeff(node, var: str, decls, env, _seen=frozenset()):
    """Coefficient of *var* in *node*, resolving declaration chains.

    Returns ``None`` when the expression is not affine in *var*; names
    that are neither *var* nor resolvable declarations contribute 0
    (loop counters and other builtins are warp-uniform or handled by
    their own axis).
    """
    if isinstance(node, E.Num):
        return 0.0
    if isinstance(node, E.Name):
        if node.id == var:
            return 1.0
        decl = decls.get(node.id)
        if decl is not None and decl.init is not None and node.id not in _seen:
            return _linear_coeff(decl.init, var, decls, env, _seen | {node.id})
        return 0.0
    if isinstance(node, E.Unary):
        inner = _linear_coeff(node.operand, var, decls, env, _seen)
        if inner is None:
            return None
        return -inner if node.op == "-" else (0.0 if inner == 0 else None)
    if isinstance(node, E.Bin):
        lhs = _linear_coeff(node.lhs, var, decls, env, _seen)
        rhs = _linear_coeff(node.rhs, var, decls, env, _seen)
        if lhs is None or rhs is None:
            return None
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            coeff = 0.0
            if lhs:
                c = E.eval_const(node.rhs, env)
                if c is None:
                    return None
                coeff += lhs * c
            if rhs:
                c = E.eval_const(node.lhs, env)
                if c is None:
                    return None
                coeff += rhs * c
            return coeff
        if node.op in ("/", "%"):
            return 0.0 if lhs == 0 and rhs == 0 else None
        return 0.0 if lhs == 0 and rhs == 0 else None
    if isinstance(node, E.Call):
        coeffs = [_linear_coeff(a, var, decls, env, _seen) for a in node.args]
        if any(c is None for c in coeffs):
            return None
        return 0.0 if all(c == 0 for c in coeffs) else None
    return None


def _count_flops(node) -> tuple[int, int]:
    """(adds, muls) in an expression, skipping index arithmetic."""
    if isinstance(node, E.Index):
        return 0, 0  # subscript arithmetic is address, not FLOPs
    if isinstance(node, E.Bin):
        la, lm = _count_flops(node.lhs)
        ra, rm = _count_flops(node.rhs)
        return la + ra + (1 if node.op in ("+", "-") else 0), lm + rm + (
            1 if node.op == "*" else 0
        )
    if isinstance(node, E.Unary):
        return _count_flops(node.operand)
    if isinstance(node, E.Call):
        adds = muls = 0
        for a in node.args:
            x, y = _count_flops(a)
            adds, muls = adds + x, muls + y
        return adds, muls
    return 0, 0


# ----------------------------------------------------------------------
# structural facts: one derivation per parsed kernel body
# ----------------------------------------------------------------------
def _memo(kernel: ir.Kernel, key, build):
    """``build(kernel)``, memoized on the kernel.

    Settings whose sources differ only in macro values share one parsed
    kernel (:func:`~repro.analysis.framework.parse_unit_cached`), so the
    facts below are derived once per body; only the macro-dependent
    quantities are evaluated per extraction.
    """
    value = kernel.memo.get(key)
    if value is None:
        value = kernel.memo.setdefault(key, build(kernel))
    return value


@dataclass(frozen=True)
class _Body:
    """Macro-independent facts about one kernel body."""

    decls: dict  # name -> ir.VarDecl, as Kernel.declarations()
    inits: tuple  # (name, init AST) of initialized declarations, in order
    shared: dict  # name -> ir.VarDecl, as Kernel.shared_arrays()
    register_arrays: tuple  # dims of the non-shared array declarations
    scalar_decls: int
    prefetch: bool
    retimed: bool
    time_update: bool  # a staged time-update intrinsic is called
    source_flops: int  # literal adds + muls of the assignments

    @classmethod
    def of(cls, kernel: ir.Kernel) -> "_Body":
        stmts = [s for s, _ in ir.walk_stmts(kernel.body)]
        decls = kernel.declarations()
        calls = {s.call.func for s in stmts if isinstance(s, ir.CallStmt)}
        value_calls = {
            n.func
            for s in stmts
            if isinstance(s, (ir.Assign, ir.VarDecl))
            for n in E.walk(s.value if isinstance(s, ir.Assign) else (s.init or E.Num(0)))
            if isinstance(n, E.Call)
        }
        # Retiming: a scalar accumulator that is folded in and reset.
        folded = set()
        reset = set()
        flops = 0
        for stmt in stmts:
            if not isinstance(stmt, ir.Assign):
                continue
            if (
                stmt.op == "+="
                and isinstance(stmt.value, E.Name)
                and stmt.value.id in decls
            ):
                folded.add(stmt.value.id)
            if (
                stmt.op == "="
                and isinstance(stmt.target, E.Name)
                and isinstance(stmt.value, E.Num)
                and stmt.value.value == 0
            ):
                reset.add(stmt.target.id)
            adds, muls = _count_flops(stmt.value)
            if stmt.op in ("+=", "-="):
                adds += 1
            elif stmt.op == "*=":
                muls += 1
            flops += adds + muls
        local = [d for d in decls.values() if not d.shared]
        return cls(
            decls=decls,
            inits=tuple(
                (s.name, s.init)
                for s in stmts
                if isinstance(s, ir.VarDecl) and s.init is not None
            ),
            shared=kernel.shared_arrays(),
            register_arrays=tuple(d.dims for d in local if d.is_array),
            scalar_decls=sum(
                1 for d in local if not d.is_array and d.ctype in ("double", "float")
            ),
            prefetch="_queue_rotate" in calls or "next_plane" in decls,
            retimed=bool(folded & reset),
            time_update=bool(
                {"_plane_time_update", "_tile_update"} & (calls | value_calls)
            ),
            source_flops=flops,
        )


@dataclass(frozen=True)
class _Accesses:
    """Global loads and stores of one kernel body on an ``ndim`` grid."""

    taps: tuple  # sorted per-axis load offsets
    extents: tuple  # per-axis max |offset| of the taps
    stores: int
    store_coords: "tuple | None"  # per-axis base variable of the last store
    stream_axis: "int | None"  # axis whose coordinate is a surrounding loop's variable
    merge_loops: tuple  # (loop, ((axis, coordinate init), ...)): loops feeding coordinates

    @classmethod
    def of(cls, kernel: ir.Kernel, ndim: int, decls: dict) -> "_Accesses":
        store_coords = None
        store_ancestors = ()
        taps: set[tuple[int, ...]] = set()
        stores = 0
        for stmt, ancestors in ir.walk_stmts(kernel.body):
            if not isinstance(stmt, ir.Assign):
                continue
            for node in E.walk(stmt.value) + E.walk(stmt.target):
                if not (isinstance(node, E.Index) and isinstance(node.base, E.Name)):
                    continue
                if node.base.id not in S.GLOBAL_ARRAYS or len(node.indices) != 1:
                    continue
                coords = S.decompose_flat_index(node.indices[0], ndim)
                if coords is None:
                    continue  # staging access (e.g. prefetch _plane_index)
                parts = [S.coord_parts(c) for c in coords]
                if any(p is None for p in parts):
                    continue
                offsets = tuple(int(p[1]) for p in parts)
                if node.base.id == "out":
                    stores += 1
                    store_coords = tuple(p[0] for p in parts)
                    store_ancestors = ancestors
                else:
                    taps.add(offsets)
        # Loop roles: a surrounding loop whose variable *is* a coordinate
        # base streams that axis; a loop whose variable feeds coordinate
        # declarations merges those axes when its trip count is constant.
        stream_axis = None
        merge_loops = []
        for loop in (s for s in store_ancestors if isinstance(s, ir.For)):
            if loop.var in store_coords:
                stream_axis = store_coords.index(loop.var)
                continue
            links = []
            for axis, base in enumerate(store_coords):
                decl = decls.get(base)
                if decl is not None and decl.init is not None and loop.var in E.names_in(decl.init):
                    links.append((axis, decl.init))
            if links:
                merge_loops.append((loop, tuple(links)))
        return cls(
            taps=tuple(sorted(taps)),
            extents=tuple(max((abs(t[a]) for t in taps), default=0) for a in range(ndim)),
            stores=stores,
            store_coords=store_coords,
            stream_axis=stream_axis,
            merge_loops=tuple(merge_loops),
        )


#: The macros a tuning setting binds onto its kernel-body shape's one
#: parsed source (:func:`_metrics_for`): each macro-only parameter's.
_BOUND = frozenset(p.upper() for p in MACRO_ONLY_PARAMS)

_UNSET = object()


@dataclass(frozen=True)
class _Binding:
    """What one kernel body and its unbound macros fix for every value
    of the :data:`_BOUND` macros.

    ``bound_by`` holds the names whose value may read a bound macro: the
    bound macros, every local whose initializer reads one of these
    names, and -- so that folding the others once stays exact -- every
    local declared twice, shadowing a macro or read before its
    declaration.  The other locals fold once into ``env``; :meth:`bind`
    re-folds only ``replay``, the initializers of ``bound_by`` locals
    that can fold, in source order.  :meth:`derived` memoizes what the
    passes compute from the environment on the bound values it read.
    """

    env: dict  # unbound macros plus the locals that fold without a bound macro
    replay: tuple  # (name, init AST) re-folded per setting, in source order
    bound_by: frozenset
    memo: dict = field(default_factory=dict)  # key -> (bound names read, {values: result})

    @classmethod
    def of(cls, body: _Body, unbound: dict) -> "_Binding":
        inits = [(name, init, E.names_in(init)) for name, init in body.inits]
        names = [name for name, _, _ in inits]
        bound_by = set(_BOUND)
        for i, (name, _, read) in enumerate(inits):
            if name in unbound or names.count(name) > 1:
                bound_by.add(name)
            bound_by |= read.intersection(names[i:])
        _grow(bound_by, inits, lambda read: not read.isdisjoint(bound_by))
        env = dict(unbound)
        replay = []
        for name, init, read in inits:
            if name in bound_by:
                replay.append((name, init, read))
                continue
            v = E.eval_const(init, env)
            if v is not None:
                env[name] = v
        # An initializer that reads a name no binding defines (a builtin,
        # a loop counter, a local that never folds) never folds either.
        defined = set(env) | _BOUND
        _grow(defined, replay, lambda read: read <= defined)
        return cls(
            env=env,
            replay=tuple((name, init) for name, init, read in replay if read <= defined),
            bound_by=frozenset(bound_by),
        )

    def bind(self, macros: dict) -> dict[str, float]:
        """Macros plus every kernel-local declaration that folds to a
        constant, for the bound macro values in *macros*."""
        env = dict(self.env)
        for name in _BOUND.intersection(macros):
            env[name] = macros[name]
        for name, init in self.replay:
            v = E.eval_const(init, env)
            if v is not None:
                env[name] = v
        return env

    def derived(self, key, env: dict, compute):
        """``compute(env)``, memoized under *key* on the values of the
        :attr:`bound_by` names it looks up in *env*.

        Every other name has one value for every setting, so equal
        values of the bound names read give an equal result, and a
        quantity that reads none is computed once.  A computation that
        reads a bound name the earlier ones did not starts a wider table.
        """
        entry = self.memo.get(key)
        if entry is not None:
            value = entry[1].get(tuple([env.get(n) for n in entry[0]]), _UNSET)
            if value is not _UNSET:
                return value
        log = _ReadLog(env)
        value = compute(log)
        read = log.names & self.bound_by
        if entry is None or not read.issubset(entry[0]):
            entry = self.memo[key] = (tuple(read.union(entry[0] if entry else ())), {})
        entry[1][tuple([env.get(n) for n in entry[0]])] = value
        return value


def _grow(names: set, inits, joins) -> None:
    """Add to *names* the name of each ``(name, init, read)`` of *inits*
    whose ``joins(read)`` holds, until no further one does."""
    grew = True
    while grew:
        grew = False
        for name, _, read in inits:
            if name not in names and joins(read):
                names.add(name)
                grew = True


class _ReadLog:
    """A read-only view of an environment that records the names looked
    up in it."""

    __slots__ = ("env", "names")

    def __init__(self, env: dict):
        self.env = env
        self.names: set[str] = set()

    def __len__(self) -> int:
        return len(self.env)

    def get(self, name, default=None):
        self.names.add(name)
        return self.env.get(name, default)


# ----------------------------------------------------------------------
# extraction passes
# ----------------------------------------------------------------------
@dataclass
class Extraction:
    """What the passes see of one translation unit."""

    unit: ir.TranslationUnit
    kernel: ir.Kernel
    body: _Body  # structural facts of the kernel body
    binding: _Binding  # what the body and the unbound macros fix
    macros: dict  # the unit's macros with extract_metrics' overlay bound
    env: dict  # macros plus constant-folded locals (_Binding.bind)


class MetricPass:
    """One step of the extraction pipeline; mutates the metrics record."""

    name = "metric"

    def run(self, x: Extraction, m: KernelMetrics) -> None:
        raise NotImplementedError


class LaunchPass(MetricPass):
    """Grid extents, block/grid geometry and launch count."""

    name = "launch"

    def run(self, x, m):
        unit, macros = x.unit, x.macros
        m.kernel_name = x.kernel.name
        m.ndim = S.grid_rank(macros)
        if m.ndim == 0:
            raise EstimateError("no N* grid macros: cannot size the problem")
        m.dims = tuple(int(macros[S.axis_macro(a)]) for a in range(m.ndim))
        m.points = math.prod(m.dims)
        m.time_steps = int(macros.get("TIME_STEPS", 1))
        if unit.host is None:
            raise EstimateError("no host launcher: launch geometry unknown")
        block = [E.eval_const(d, macros) for d in unit.host.block_dims]
        grid = [E.eval_const(d, macros) for d in unit.host.grid_dims]
        if any(v is None or v < 1 for v in block + grid):
            raise EstimateError("non-constant block/grid dimensions")
        m.block_dims = tuple(int(v) for v in block)
        m.threads_per_block = math.prod(m.block_dims)
        m.n_blocks = math.prod(int(v) for v in grid)
        launches = None
        if unit.host.launches is not None:
            launches = E.eval_const(unit.host.launches, macros)
        m.launches = int(launches) if launches else 1
        m.stream_tiles = int(macros.get("STREAM_TILES", 1))
        m.stream_unroll = int(macros.get("STREAM_UNROLL", 1))
        m.temporal_steps = int(macros.get("TSTEPS", 1))


class AccessPass(MetricPass):
    """Tap set, store, loop roles (stream / merge) and coverage."""

    name = "access"

    def run(self, x, m):
        decls, env, derived = x.body.decls, x.env, x.binding.derived
        acc = _memo(
            x.kernel, ("perfmodel.access", m.ndim), lambda k: _Accesses.of(k, m.ndim, decls)
        )
        store_coords = acc.store_coords
        if store_coords is None or not acc.taps:
            raise EstimateError(
                f"kernel {x.kernel.name!r} has no decomposable global accesses"
            )
        m.taps = acc.taps
        m.stores = acc.stores
        m.extents = acc.extents

        # Loop roles (see _Accesses): the stream axis is structural; a
        # loop feeding coordinates merges them when its trip count is a
        # constant of at least 2.
        m.stream_axis = acc.stream_axis
        for i, (loop, links) in enumerate(acc.merge_loops):
            trip = derived(("trip", i), env, lambda e: self._trip_count(loop, e))
            if trip is None or trip < 2:
                continue
            for axis, init in links:
                m.merge_axis = axis
                m.merge_factor = int(trip)
                step = derived(
                    ("merge step", i, axis), env,
                    lambda e: _linear_coeff(init, loop.var, decls, e),
                )
                m.merge_step = int(step) if step else 0

        # Per-axis coverage: the blockIdx coefficient of each coordinate;
        # the stream axis is covered by the per-block tile length instead.
        coverage = []
        for axis, base in enumerate(store_coords):
            if axis == m.stream_axis:
                tile_len = env.get("tile_len")
                if tile_len is None:
                    tile_len = m.dims[axis] / max(1, m.stream_tiles)
                coverage.append(int(tile_len))
                continue
            cov = derived(
                ("coverage", base), env, lambda e: self._block_coverage(base, decls, e)
            )
            if not cov:
                raise EstimateError(
                    f"coordinate {base!r} has no blockIdx coverage"
                )
            coverage.append(int(cov))
        m.coverage = tuple(coverage)

        # Streaming iteration count per launch.
        if m.stream_axis is not None:
            tile_len = m.coverage[m.stream_axis]
            m.stream_iters = math.ceil(tile_len / max(1, m.stream_unroll))

        # Warp-level coalescing: the threadIdx.x stride of the flat index.
        stride = derived(
            ("threadIdx.x",), env, lambda e: self._tx_stride(store_coords, m.dims, decls, e)
        )
        m.tx_stride = float("nan") if stride is None else stride
        m.coalescing = self._coalescing(stride, m.block_dims[0])

    @staticmethod
    def _tx_stride(store_coords, dims, decls, env) -> "float | None":
        """threadIdx.x coefficient of the flat store index, ``None`` when
        a coordinate is not affine in it."""
        pitch = 1.0
        stride = 0.0
        for axis, base in enumerate(store_coords):
            c = _linear_coeff(E.Name(base), "threadIdx.x", decls, env)
            if c is None:
                return None
            stride += c * pitch
            pitch *= dims[axis]
        return stride

    @staticmethod
    def _block_coverage(base: str, decls, env) -> "float | None":
        """|blockIdx coefficient| of coordinate *base*, first nonzero axis."""
        for bdim in ("x", "y", "z"):
            c = _linear_coeff(E.Name(base), f"blockIdx.{bdim}", decls, env)
            if c:
                return abs(c)
        return None

    @staticmethod
    def _trip_count(loop: ir.For, env) -> float | None:
        if loop.init is None or loop.cond is None:
            return None
        lo = E.eval_const(loop.init, env)
        if not (isinstance(loop.cond, E.Bin) and loop.cond.op == "<"):
            return None
        hi = E.eval_const(loop.cond.rhs, env)
        if lo is None or hi is None:
            return None
        return hi - lo

    @staticmethod
    def _coalescing(stride: float | None, x_threads: int, warp: int = 32) -> float:
        """Warp transaction efficiency of one global access pattern.

        ``stride`` is the address step (in elements) between adjacent
        ``threadIdx.x`` lanes: 0 broadcasts, 1 is fully coalesced, small
        strides waste a proportional sector fraction, and row-pitch
        strides (streaming along x) degrade to strided row fetches.
        ``warp`` is the scheduling width of the target device (32 for
        NVIDIA warps, 64 for AMD wavefronts): narrower-than-warp blocks
        waste proportionally more of each transaction on wider machines.
        """
        if stride is None:
            return 0.25
        stride = abs(stride)
        if stride == 0:
            return 1.0
        base = 1.0 if x_threads >= warp else max(x_threads / float(warp), 0.25)
        if stride == 1:
            eff = base
        elif stride <= 8:
            # Small strides come from adjacent merging along x (stride =
            # merge factor): each extra lane gap splits the transaction,
            # saturating at a quarter sector -- the centralized model's
            # 1/min(m, 4) merge penalty.
            eff = base / min(stride, 4.0)
        else:
            eff = 0.25
        return max(eff, 0.15)


class SchemePass(MetricPass):
    """Classify the data-movement scheme and shared-memory staging."""

    name = "scheme"

    def run(self, x, m):
        body, env = x.body, x.env
        shared = body.shared
        m.prefetch = body.prefetch
        streaming = m.stream_axis is not None

        if shared:
            total = 0
            footprint: tuple[int, ...] = ()
            planes = 0
            conflict = 1.0
            for decl in shared.values():
                dims = [E.eval_const(d, env) for d in decl.dims]
                if any(d is None or d < 1 for d in dims):
                    raise EstimateError(
                        f"shared array {decl.name!r} has non-constant dims"
                    )
                dims = [int(d) for d in dims]
                total += math.prod(dims) * ir.CTYPE_SIZE.get(decl.ctype, WORD)
                if streaming:
                    planes, stage = dims[0], dims[1:]
                elif len(dims) == m.ndim + 1:
                    planes, stage = dims[0], dims[1:]  # time double-buffer
                else:
                    planes, stage = 1, dims
                # Declarations are outermost-first; axis 0 is innermost.
                footprint = tuple(reversed(stage))
                # 8-byte words over 32 4-byte banks: a row length that is
                # a multiple of 32 words puts same-lane rows in the same
                # bank pair (no padding in the generated source).  Both
                # modeled vendors expose 32 scratchpad banks, so the
                # modulus is vendor-independent.
                if footprint and footprint[0] % 32 == 0:
                    conflict = 2.0
            m.smem_per_block = total
            m.smem_queue_planes = planes
            m.smem_footprint = footprint
            m.bank_conflict_factor = conflict
            m.scheme = "smem-stream" if streaming else "smem-tile"
        elif streaming:
            m.scheme = "register-stream"
        else:
            m.scheme = "cache"

        m.retimed = body.retimed

        if m.temporal_steps > 1 and not body.time_update:
            m.notes.append("TSTEPS defined but no staged time update found")

        # Register plane queue (register streaming).
        cells = 0
        for array_dims in body.register_arrays:
            dims = [E.eval_const(d, env) for d in array_dims]
            if all(d is not None for d in dims):
                cells += int(math.prod(dims))
        m.register_array_cells = cells
        m.scalar_decls = body.scalar_decls


class FlopPass(MetricPass):
    """FLOPs per output point, in the roofline accounting convention.

    The generated source folds the tap coefficients into a single final
    ``COEFF`` multiply, so counting its literal operations undercounts
    the arithmetic the cost model prices.  The roofline convention --
    one multiply and one add per tap, shared with
    ``Stencil.flops_per_point`` -- is recovered from the extracted tap
    set instead; the literal source operation count is kept as
    ``source_flops_per_point`` for feature/reporting use.
    """

    name = "flops"

    def run(self, x, m):
        m.source_flops_per_point = float(x.body.source_flops)
        if m.taps:
            m.flops_per_point = float(2 * len(m.taps) - 1)
        else:
            m.flops_per_point = float(x.body.source_flops)


class RegisterPass(MetricPass):
    """Per-thread register estimate via the centralized pressure model.

    Registers are not visible in the source, so the pass feeds the
    structural facts it *can* see -- tap count, merge shape, streaming
    queue, retiming, prefetch, temporal staging -- into
    :func:`~repro.optimizations.kernelmodel.register_estimate`, the same
    formula :func:`~repro.optimizations.kernelmodel.build_profile`
    prices occupancy with.  Agreement here is what lets the analytical
    ranking separate register-hungry merge variants from cheap ones.
    """

    name = "registers"

    def run(self, x, m):
        from ..optimizations.kernelmodel import register_estimate

        streaming = m.stream_axis is not None
        m.regs_per_thread, m.spilled_regs = register_estimate(
            max(1, len(m.taps)),
            merge_factor=m.merge_factor,
            block_merge=m.merge_step == 1,
            streaming=streaming,
            use_smem=m.scheme.startswith("smem"),
            retiming=m.retimed,
            stream_extent=m.extents[m.stream_axis] if streaming else 0,
            unroll=m.stream_unroll if streaming else 1,
            prefetch=m.prefetch,
            temporal_steps=m.temporal_steps,
        )


class VolumePass(MetricPass):
    """Per-cache-level memory volumes from footprint analysis."""

    name = "volumes"

    def run(self, x, m):
        from ..optimizations.kernelmodel import row_accesses, smem_traffic_taps

        t = m.temporal_steps
        points = m.points
        m.write_bytes = float(WORD * points)

        axes = [a for a in range(m.ndim) if a != m.stream_axis]

        # Redundant halo work of temporal blocking, from extracted
        # extents: each fused step shrinks the valid interior.
        redundancy = 1.0
        if t > 1:
            for a in axes:
                cov = m.coverage[a]
                halo = 2 * m.extents[a] * (t - 1)
                if cov <= halo:
                    raise KernelLaunchError(
                        f"temporal halo {halo} consumes the tile "
                        f"(coverage {cov}) along axis {a}"
                    )
                redundancy *= (cov + halo) / cov
        m.redundancy = redundancy
        m.flops = points * m.flops_per_point * t * redundancy

        if m.scheme in ("smem-stream", "smem-tile"):
            # Every staged cell (tile or plane window, halo included) is
            # fetched from DRAM once per block: the halo factor is the
            # staged footprint over the block's output coverage.
            halo = 1.0
            for a, cells in zip(axes, m.smem_footprint or ()):
                halo *= cells / m.coverage[a]
            if not m.smem_footprint:
                for a in axes:
                    halo *= (m.coverage[a] + 2 * m.extents[a] * t) / m.coverage[a]
            m.read_bytes_base = WORD * points * halo
            m.read_amplification = 1.0
            m.reuse_window_bytes = 0.0
            l2 = m.read_bytes_base

            # Bank conflicts throttle achievable smem bandwidth rather
            # than adding traffic, so ``bank_conflict_factor`` stays a
            # reported metric and does not scale the volume.
            m.smem_bytes = (
                smem_traffic_taps(
                    m.taps,
                    stream_axis=m.stream_axis,
                    retiming=m.retimed,
                    block_merge=m.merge_step == 1,
                    merge_axis=m.merge_axis,
                    merge_factor=m.merge_factor,
                )
                * WORD
                * points
                * t
                * redundancy
            )
        else:
            # Cache-served: stream-axis reuse (if any) is perfect, the
            # remaining axes ride the L2.  Worst case re-fetches every
            # outer-axis visit; the reuse window says when that happens.
            m.read_bytes_base = float(WORD * points)
            if not axes:
                m.read_amplification = 1.0
                m.reuse_window_bytes = 0.0
            else:
                outer = axes[-1]
                m.read_amplification = (
                    1.0 + 2.0 * m.extents[outer] if len(axes) > 1 else 1.0
                )
                inner = math.prod(m.dims[a] for a in axes[:-1])
                m.reuse_window_bytes = (2 * m.extents[outer] + 1) * inner * WORD
            l2 = WORD * points * row_accesses(
                m.taps, tuple(axes), m.merge_factor, m.merge_axis
            )
            m.smem_bytes = 0.0

        if m.spilled_regs:
            spill = m.spilled_regs * WORD * 2 * 0.25 * points * t
            l2 += spill
            m.read_bytes_base += 0.3 * spill
        m.l2_bytes = max(l2, m.read_bytes_base) + m.write_bytes


#: The extraction pipeline, in dependency order.
METRIC_PASSES: tuple[MetricPass, ...] = (
    LaunchPass(),
    AccessPass(),
    SchemePass(),
    FlopPass(),
    RegisterPass(),
    VolumePass(),
)


def extract_metrics(
    source: "str | ir.TranslationUnit", macros: "dict | None" = None
) -> KernelMetrics:
    """Run the metric-extraction pipeline over one translation unit.

    *macros* binds other values to macros the source defines, as if
    their ``#define`` lines carried them; names the source does not
    define are ignored.  Bound values must be what
    :func:`~repro.analysis.ir.scan_header` would read from such a line
    (value and type), and no other macro may be defined in terms of a
    bound one.  :func:`_metrics_for` prices each tuning setting this way
    on the one parsed source of its kernel-body shape.
    """
    if isinstance(source, ir.TranslationUnit):
        unit = source
    else:
        from .framework import parse_unit_cached

        unit = parse_unit_cached(source)
    if not unit.kernels:
        raise EstimateError("translation unit has no __global__ kernel")
    values = unit.macros
    if macros:
        values = {k: macros.get(k, v) for k, v in values.items()}
    kernel = unit.kernel
    body = _memo(kernel, "perfmodel.body", _Body.of)
    unbound = {k: v for k, v in values.items() if k not in _BOUND}
    binding = _memo(
        kernel, ("perfmodel.binding", *unbound.items()), lambda k: _Binding.of(body, unbound)
    )
    x = Extraction(
        unit=unit, kernel=kernel, body=body, binding=binding, macros=values,
        env=binding.bind(values),
    )
    metrics = KernelMetrics()
    for pipeline_pass in METRIC_PASSES:
        pipeline_pass.run(x, metrics)
    return metrics


# ----------------------------------------------------------------------
# roofline composition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerfEstimate:
    """Analytical timing for one kernel on one GPU (per time step)."""

    gpu: str
    time_ms: float
    dram_ms: float
    l2_ms: float
    smem_ms: float
    compute_ms: float
    stream_ms: float
    launch_ms: float
    occupancy: float
    utilization: float
    metrics: KernelMetrics

    def to_dict(self) -> dict:
        return {
            "gpu": self.gpu,
            "time_ms": self.time_ms,
            "phases_ms": {
                "dram": self.dram_ms,
                "l2": self.l2_ms,
                "smem": self.smem_ms,
                "compute": self.compute_ms,
                "stream": self.stream_ms,
                "launch": self.launch_ms,
            },
            "occupancy": round(self.occupancy, 4),
            "utilization": round(self.utilization, 4),
        }


#: The :class:`~repro.optimizations.kernelmodel.KernelProfile` fields
#: :func:`_to_profile` copies from the metric of the same name.
_PROFILE_METRICS = tuple(f.name for f in fields(KernelProfile) if f.name != "scattered")


def _to_profile(m: KernelMetrics, spec):
    """Package extracted metrics as a simulator-compatible profile.

    Every profile field is the metric of the same name, except the
    scheme-derived ``scattered`` flag and, for scheduling widths other
    than the default 32 lanes at which ``coalescing`` was classified,
    the coalescing factor re-derived from the recorded threadIdx.x
    stride (matching build_profile's warp_size-parameterized clause on
    generator output).
    """
    values = {name: getattr(m, name) for name in _PROFILE_METRICS}
    values["scattered"] = m.scheme in ("cache", "register-stream")
    if spec.warp_size != 32:
        stride = m.tx_stride if math.isfinite(m.tx_stride) else None
        values["coalescing"] = AccessPass._coalescing(stride, m.block_dims[0], warp=spec.warp_size)
    return KernelProfile(**values)


def _estimate(metrics: KernelMetrics, spec, result) -> PerfEstimate:
    """Package a timed profile as the estimate.

    The simulator normalizes per-step time by its own ``TIME_STEPS``
    constant; the source carries the macro, so re-scale when they
    differ (they agree for all generator output).
    """
    from ..optimizations.kernelmodel import TIME_STEPS

    return PerfEstimate(
        gpu=spec.name,
        time_ms=result.time_ms * (TIME_STEPS / max(1, metrics.time_steps)),
        dram_ms=result.dram_ms,
        l2_ms=result.l2_ms,
        smem_ms=result.smem_ms,
        compute_ms=result.compute_ms,
        stream_ms=result.stream_ms,
        launch_ms=result.launch_ms,
        occupancy=result.occupancy.occupancy,
        utilization=result.utilization,
        metrics=metrics,
    )


def _compose(metrics: KernelMetrics, gpu: str) -> PerfEstimate:
    """Time extracted metrics on one GPU via the centralized roofline."""
    from ..gpu.simulator import GPUSimulator
    from ..gpu.specs import get_gpu

    spec = get_gpu(gpu)
    result = GPUSimulator(spec, sigma=0.0).time_profile(_to_profile(metrics, spec))
    return _estimate(metrics, spec, result)


def estimate_source(source: "str | ir.TranslationUnit", gpu: str) -> PerfEstimate:
    """Roofline time estimate for generated source on one GPU.

    Composes the extracted metrics with the centralized occupancy /
    latency-hiding / phase model.  Raises
    :class:`~repro.errors.KernelLaunchError` when the configuration
    cannot launch on *gpu* and :class:`EstimateError` when the source is
    outside the extractable subset.
    """
    return _compose(extract_metrics(source), gpu)


#: ``(position in the setting tuple, macro name, value in the shape's
#: one generated source)`` of each
#: :data:`~repro.codegen.core.MACRO_ONLY_PARAMS` entry.
_MACRO_SLOTS = tuple(
    (PARAM_NAMES.index(s.name), s.name.upper(), s.default)
    for s in PARAM_SPECS
    if s.name in MACRO_ONLY_PARAMS
)


@lru_cache(maxsize=65536)
def _shape_source(stencil, oc, shape: tuple, grid) -> str:
    """The CUDA source of one kernel-body shape (a setting tuple with
    every macro-only parameter at its :data:`_MACRO_SLOTS` value; see
    :func:`_metrics_for`)."""
    from ..codegen import generate_cuda

    return generate_cuda(stencil, oc, ParamSetting(**dict(zip(PARAM_NAMES, shape))), grid=grid)


@lru_cache(maxsize=65536)
def _metrics_for(stencil, oc, setting, grid) -> KernelMetrics:
    """Metrics of the CUDA source for (stencil, OC, setting, grid).

    Settings that differ only in macro-only parameters share a kernel
    body and host launcher, so one source is generated and parsed per
    shape -- the setting with those parameters at their
    :data:`_MACRO_SLOTS` values -- and each setting binds its own macro
    values onto it (:func:`extract_metrics`' *macros*).  The result
    equals extracting the setting's own source.
    """
    values = setting.as_tuple()
    shape = list(values)
    for i, _, default in _MACRO_SLOTS:
        shape[i] = default
    source = _shape_source(stencil, oc, tuple(shape), grid)
    return extract_metrics(source, macros={name: values[i] for i, name, _ in _MACRO_SLOTS})


def estimate_kernel(
    stencil,
    oc,
    setting,
    gpu: str,
    grid: tuple[int, ...] | None = None,
) -> PerfEstimate:
    """Generate the kernel for (stencil, OC, setting) and estimate it.

    Code generation and parsing run once per kernel-body shape, which
    the settings of one (stencil, OC) mostly share (see
    :func:`_metrics_for`); extraction is memoized per configuration, so
    only the (cheap) per-GPU composition runs on repeat calls.
    """
    return _compose(_metrics_for(stencil, oc, setting, grid), gpu)


def estimate_kernels(points, gpu: str) -> list:
    """:func:`estimate_kernel` for many ``(stencil, oc, setting, grid)``
    points, composed in one array pass.

    Each entry is the point's :class:`PerfEstimate`, or the exception
    :func:`estimate_kernel` raises for it (a launch failure, an
    inexpressible configuration, or source outside the extractable
    subset).
    """
    from ..errors import OptimizationError
    from ..gpu.simulator import GPUSimulator
    from ..gpu.specs import get_gpu

    spec = get_gpu(gpu)
    out: list = [None] * len(points)
    extracted: list = []
    for i, (stencil, oc, setting, grid) in enumerate(points):
        try:
            extracted.append((i, _metrics_for(stencil, oc, setting, grid)))
        except (KernelLaunchError, OptimizationError, EstimateError, ir.ParseError) as e:
            # A stored traceback would keep this frame and its callers'
            # (the whole tuning round) alive as cyclic garbage.
            out[i] = e.with_traceback(None)
    results = GPUSimulator(spec, sigma=0.0).time_profiles(
        [_to_profile(m, spec) for _, m in extracted]
    )
    for (i, m), result in zip(extracted, results):
        out[i] = result if isinstance(result, Exception) else _estimate(m, spec, result)
    return out


# ----------------------------------------------------------------------
# feature extraction for the hybrid predictor
# ----------------------------------------------------------------------
ANALYTICAL_FEATURE_NAMES: tuple[str, ...] = (
    "ana_log_time_ms",
    "ana_log_dram_ms",
    "ana_log_l2_ms",
    "ana_log_smem_ms",
    "ana_log_compute_ms",
    "ana_log_stream_ms",
    "ana_occupancy",
    "ana_utilization",
    "ana_coalescing",
    "ana_log_read_bytes",
    "ana_log_smem_bytes",
    "ana_log_flops",
    "ana_crashed",
)


def analytical_features(stencil, oc, setting, gpu: str) -> list[float]:
    """Fixed-width analytical feature vector for hybrid models.

    Configurations the analytical model rejects (launch-infeasible or
    outside the extractable subset) get a zero vector with the crash
    flag set, so downstream models see failure as a feature rather than
    an exception.
    """

    def _log(v: float) -> float:
        return math.log2(1.0 + max(0.0, v))

    from ..errors import OptimizationError

    try:
        est = estimate_kernel(stencil, oc, setting, gpu)
    except (KernelLaunchError, OptimizationError, EstimateError, ir.ParseError):
        return [0.0] * (len(ANALYTICAL_FEATURE_NAMES) - 1) + [1.0]
    m = est.metrics
    return [
        _log(est.time_ms),
        _log(est.dram_ms),
        _log(est.l2_ms),
        _log(est.smem_ms),
        _log(est.compute_ms),
        _log(est.stream_ms),
        est.occupancy,
        est.utilization,
        m.coalescing,
        _log(m.read_bytes_base),
        _log(m.smem_bytes),
        _log(m.flops),
    ] + [0.0]
