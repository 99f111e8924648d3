"""Vendor-neutral kernel source generation core.

StencilMART's pipeline profiles *generated stencil programs*; this module
is the code-generation half of that story: given an access pattern, an
optimization combination and a concrete parameter setting, emit the kernel
(plus host launcher) a real harness would compile.  The repository's
simulator consumes the analytical profile instead of running this source,
but the generator keeps the optimization semantics honest and demonstrates
each transformation concretely:

- global-memory (naive) and shared-memory/LDS tiled bodies,
- streaming plane loops with a register/scratchpad queue,
- block/cyclic merging loops,
- retimed accumulation along the stream axis,
- prefetch double-buffering,
- temporal-blocking step loops with widened halos.

Everything the optimizations dictate -- loop structure, tiling, boundary
guards, merge/stream logic, queue lengths -- is vendor-neutral and lives
in :class:`KernelEmitter`.  What differs between CUDA and HIP is a thin
:class:`Dialect`: the runtime header, the kernel-launch statement and the
host-side sync/error calls.  The device code itself (``__global__``,
``__shared__``, ``__syncthreads()``) is source-compatible across both
toolchains, so the emitted kernel bodies are byte-identical and only the
host launcher and includes change (the single-core/thin-emitter layout of
Sai et al., arXiv:2309.04671).

Tests validate the emitted source structurally (declarations, barriers,
tap counts, loop structure), since no CUDA/ROCm toolchain is available
offline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OptimizationError
from ..optimizations.combos import OC
from ..optimizations.kernelmodel import (
    default_grid,
    register_queue_planes,
    smem_plane_count,
)
from ..optimizations.params import ParamSetting
from ..optimizations.passes import Opt
from ..stencil.stencil import Stencil

_AXES = ("x", "y", "z")


@dataclass(frozen=True)
class Dialect:
    """The vendor-specific surface of a translation unit.

    Attributes
    ----------
    name:
        Dialect tag (``"cuda"`` / ``"hip"``), recorded in the source
        metadata comment for non-default dialects.
    runtime_header:
        The runtime include (``cuda_runtime.h`` / ``hip/hip_runtime.h``).
    source_suffix:
        Conventional file suffix for emitted sources.
    device_sync:
        Host-side device synchronization statement.
    last_error_ok:
        Boolean C expression that is true when no launch error occurred.
    chevron_launch:
        ``True`` for CUDA's ``<<< >>>`` syntax; ``False`` emits the
        portable ``hipLaunchKernelGGL`` macro call.
    emit_dialect_comment:
        Whether the header carries a ``// dialect:`` metadata line.  The
        default (CUDA) dialect does not, keeping its output byte-for-byte
        identical to the pre-split generator.
    """

    name: str
    runtime_header: str
    source_suffix: str
    device_sync: str
    last_error_ok: str
    chevron_launch: bool
    emit_dialect_comment: bool

    def launch(self, kernel: str, args: str) -> str:
        """The kernel-launch statement for ``grid``/``block`` dims."""
        if self.chevron_launch:
            return f"{kernel}<<<grid, block>>>({args});"
        return f"hipLaunchKernelGGL({kernel}, grid, block, 0, 0, {args});"


CUDA_DIALECT = Dialect(
    name="cuda",
    runtime_header="cuda_runtime.h",
    source_suffix=".cu",
    device_sync="cudaDeviceSynchronize();",
    last_error_ok="cudaGetLastError() == cudaSuccess",
    chevron_launch=True,
    emit_dialect_comment=False,
)

HIP_DIALECT = Dialect(
    name="hip",
    runtime_header="hip/hip_runtime.h",
    source_suffix=".hip.cpp",
    device_sync="hipDeviceSynchronize();",
    last_error_ok="hipGetLastError() == hipSuccess",
    chevron_launch=False,
    emit_dialect_comment=True,
)

DIALECTS: dict[str, Dialect] = {
    "cuda": CUDA_DIALECT,
    "hip": HIP_DIALECT,
}


def get_dialect(name: str) -> Dialect:
    """Look up a dialect by name (``"cuda"`` or ``"hip"``)."""
    try:
        return DIALECTS[name]
    except KeyError:
        known = ", ".join(sorted(DIALECTS))
        raise OptimizationError(
            f"unknown codegen dialect {name!r}; known: {known}"
        ) from None


#: Setting parameters that reach the source only as ``#define`` values:
#: each is emitted (where its OC uses it) as the macro of its upper-cased
#: name, which the kernel body and host launcher refer to by name alone.
#: Settings that differ only in these share one kernel body and host
#: launcher, byte for byte; every other parameter shapes the body.
MACRO_ONLY_PARAMS = ("block_x", "block_y", "block_z", "stream_tiles", "stream_unroll")


def _idx_expr(ndim: int, coords: "list[str]", dims: "list[str]") -> str:
    """Row-major flat index: x fastest."""
    if ndim == 2:
        return f"({coords[1]}) * {dims[0]} + ({coords[0]})"
    return (
        f"(({coords[2]}) * {dims[1]} + ({coords[1]})) * {dims[0]} + ({coords[0]})"
    )


class KernelEmitter:
    """Emit one kernel variant in a given dialect.

    Parameters mirror the analytical model: the same (stencil, OC,
    setting) triple that the simulator times.  The dialect only touches
    the header includes and the host launcher; the kernel body is
    identical for every dialect.
    """

    dialect: Dialect = CUDA_DIALECT

    def __init__(
        self,
        stencil: Stencil,
        oc: OC,
        setting: ParamSetting,
        grid: "tuple[int, ...] | None" = None,
        dialect: "Dialect | None" = None,
    ):
        if dialect is not None:
            self.dialect = dialect
        self.stencil = stencil
        self.oc = oc
        self.setting = setting
        self.ndim = stencil.ndim
        self.dims = default_grid(self.ndim) if grid is None else tuple(grid)

        self.streaming = Opt.ST in oc.opts
        self.merging = Opt.BM in oc.opts or Opt.CM in oc.opts
        self.block_merge = Opt.BM in oc.opts
        self.retiming = Opt.RT in oc.opts
        self.prefetch = Opt.PR in oc.opts
        self.temporal = Opt.TB in oc.opts

        self.stream_axis = setting["stream_dim"] - 1 if self.streaming else -1
        self.merge_axis = setting["merge_dim"] - 1 if self.merging else -1
        self.m = setting["merge_factor"] if self.merging else 1
        self.t = setting["temporal_steps"] if self.temporal else 1
        self.use_smem = bool(setting["use_smem"]) or self.temporal
        if self.streaming and self.stream_axis >= self.ndim:
            raise OptimizationError("stream_dim beyond grid rank")
        if self.merging and self.merge_axis >= self.ndim:
            raise OptimizationError("merge_dim beyond grid rank")

        self.coeff = 1.0 / stencil.nnz
        self.kernel_name = f"stencil_{oc.name.lower()}_{self.ndim}d"

    # ------------------------------------------------------------------
    def generate(self) -> str:
        """Full translation unit: header, kernel, host launcher."""
        parts = [self._header(), self.kernel_source(), self._host_source()]
        return "\n\n".join(parts) + "\n"

    # ------------------------------------------------------------------
    def _header(self) -> str:
        dims = ", ".join(f"{_AXES[d].upper()}N={self.dims[d]}" for d in range(self.ndim))
        lines = [
            "// Auto-generated by the StencilMART reproduction.",
            f"// stencil: {self.stencil.name or 'anonymous'} "
            f"(ndim={self.ndim}, order={self.stencil.order}, nnz={self.stencil.nnz})",
            f"// optimization combination: {self.oc.name}",
            f"// grid: {dims}",
        ]
        if self.dialect.emit_dialect_comment:
            lines.append(f"// dialect: {self.dialect.name}")
        lines += [
            f"#include <{self.dialect.runtime_header}>",
            "#include <stdio.h>",
            "",
            f"#define COEFF {self.coeff!r}",
            self._define("block_x"),
            self._define("block_y"),
        ]
        if self.ndim == 3:
            lines.append(self._define("block_z"))
        for d in range(self.ndim):
            lines.append(f"#define N{_AXES[d].upper()} {self.dims[d]}")
        if self.temporal:
            lines.append(f"#define TSTEPS {self.t}")
        if self.streaming:
            lines.append(self._define("stream_tiles"))
            lines.append(self._define("stream_unroll"))
        return "\n".join(lines)

    def _define(self, param: str) -> str:
        """The ``#define`` of one :data:`MACRO_ONLY_PARAMS` entry."""
        return f"#define {param.upper()} {self.setting[param]}"

    # ------------------------------------------------------------------
    def _tap_sum(self, coords: "list[str]", array: str = "in") -> "list[str]":
        """One fused-multiply-add line per accessed neighbor."""
        dims = [f"N{_AXES[d].upper()}" for d in range(self.ndim)]
        lines = []
        for p in self.stencil.sorted_offsets:
            shifted = [
                f"{coords[d]} + ({p[d]})" if p[d] else coords[d]
                for d in range(self.ndim)
            ]
            lines.append(f"acc += {array}[{_idx_expr(self.ndim, shifted, dims)}];")
        return lines

    def _guard(self, coords: "list[str]") -> str:
        # Clip by the *per-axis* extent, not the uniform Chebyshev order:
        # an anisotropic stencil guarded by its largest radius on every
        # axis skips interior points the analytical model prices.
        ext = self.stencil.axis_extents
        checks = [
            f"{coords[d]} >= {ext[d]} && {coords[d]} < N{_AXES[d].upper()} - {ext[d]}"
            for d in range(self.ndim)
        ]
        return " && ".join(checks)

    # ------------------------------------------------------------------
    def kernel_source(self) -> str:
        if self.streaming:
            body = self._streaming_body()
        elif self.use_smem:
            body = self._tiled_body()
        else:
            body = self._naive_body()
        sig_dims = ", ".join(f"int n{_AXES[d]}" for d in range(self.ndim))
        lines = [
            "__global__ void "
            f"{self.kernel_name}(const double* __restrict__ in, "
            f"double* __restrict__ out, {sig_dims})",
            "{",
        ]
        lines += ["    " + b for b in body]
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _thread_coords(self) -> "list[str]":
        """Declarations mapping thread/block ids to grid coordinates."""
        out = []
        if self.streaming:
            plane_axes = [a for a in range(self.ndim) if a != self.stream_axis]
            block_vars = ["BLOCK_X", "BLOCK_Y"]
            tids = ["threadIdx.x", "threadIdx.y"]
            bids = ["blockIdx.x", "blockIdx.y"]
            for k, a in enumerate(plane_axes):
                cover, tid = block_vars[k], tids[k]
                if self.merging and a == self.merge_axis:
                    # A merged block covers m x the threads along this axis
                    # (the model's coverage and the host grid both say so).
                    cover = f"({block_vars[k]} * {self.m})"
                    if self.block_merge:
                        tid = f"{tids[k]} * {self.m}"
                out.append(f"const int {_AXES[a]}0 = {bids[k]} * {cover} + {tid};")
        else:
            block_vars = ["BLOCK_X", "BLOCK_Y", "BLOCK_Z"][: self.ndim]
            tids = ["threadIdx.x", "threadIdx.y", "threadIdx.z"][: self.ndim]
            bids = ["blockIdx.x", "blockIdx.y", "blockIdx.z"][: self.ndim]
            for a in range(self.ndim):
                # Both merge flavours widen the block's coverage; only BM
                # additionally strides the per-thread origin (CM threads
                # stay adjacent and revisit the axis at BLOCK stride).
                cover, tid = block_vars[a], tids[a]
                if self.merging and a == self.merge_axis:
                    cover = f"({block_vars[a]} * {self.m})"
                    if self.block_merge:
                        tid = f"{tids[a]} * {self.m}"
                out.append(f"const int {_AXES[a]}0 = {bids[a]} * {cover} + {tid};")
        return out

    def _merge_loop(self, inner: "list[str]") -> "list[str]":
        """Wrap *inner* in the block/cyclic merging loop when enabled."""
        if not self.merging or self.merge_axis == self.stream_axis:
            return inner
        axis = _AXES[self.merge_axis]
        stride = "1" if self.block_merge else f"BLOCK_{axis.upper()}"
        out = [
            "#pragma unroll",
            f"for (int mi = 0; mi < {self.m}; ++mi) {{",
            f"    const int {axis} = {axis}0 + mi * {stride};",
        ]
        out += ["    " + line for line in inner]
        out.append("}")
        return out

    def _coords_with_merge(self) -> "list[str]":
        coords = [f"{_AXES[d]}0" for d in range(self.ndim)]
        if self.merging and self.merge_axis != self.stream_axis:
            coords[self.merge_axis] = _AXES[self.merge_axis]
        return coords

    # ------------------------------------------------------------------
    def _naive_body(self) -> "list[str]":
        coords = self._coords_with_merge()
        inner = [
            f"if ({self._guard(coords)}) {{",
            "    double acc = 0.0;",
        ]
        dims = [f"N{_AXES[d].upper()}" for d in range(self.ndim)]
        inner += ["    " + l for l in self._tap_sum(coords)]
        inner += [
            f"    out[{_idx_expr(self.ndim, coords, dims)}] = COEFF * acc;",
            "}",
        ]
        return self._thread_coords() + self._merge_loop(inner)

    # ------------------------------------------------------------------
    def _tiled_body(self) -> "list[str]":
        ext = self.stencil.axis_extents
        halo = [e * self.t for e in ext]
        tile_dims = []
        for a in range(self.ndim):
            base = f"BLOCK_{_AXES[a].upper()}"
            cover = f"({base} * {self.m})" if self.merging and a == self.merge_axis else base
            tile_dims.append(f"({cover} + {2 * halo[a]})")
        tile_decl = "".join(f"[{d}]" for d in reversed(tile_dims))
        # Temporal blocking double-buffers the tile (read plane t, write
        # plane t+1), exactly the factor the model's smem claim carries.
        buf = "[2]" if self.temporal else ""
        body = self._thread_coords()
        body += [
            f"__shared__ double tile{buf}{tile_decl};",
            "// cooperative load of the tile plus halo",
            "for (int l = _flat_tid(); l < _tile_cells(); l += _block_threads()) {",
            "    _tile_store(tile, l, in, " + ", ".join(f"{_AXES[d]}0" for d in range(self.ndim)) + ");",
            "}",
            "__syncthreads();",
        ]
        if self.temporal:
            body += [
                "#pragma unroll",
                "for (int step = 0; step < TSTEPS; ++step) {",
                "    _tile_update(tile, step);  // trapezoidal interior shrinks per step",
                "    __syncthreads();",
                "}",
            ]
        coords = self._coords_with_merge()
        dims = [f"N{_AXES[d].upper()}" for d in range(self.ndim)]
        inner = [
            f"if ({self._guard(coords)}) {{",
            "    double acc = 0.0;",
        ]
        inner += ["    " + l for l in self._tap_sum(coords, array="in")]
        inner += [
            f"    out[{_idx_expr(self.ndim, coords, dims)}] = COEFF * acc;",
            "}",
        ]
        return body + self._merge_loop(inner)

    # ------------------------------------------------------------------
    def _streaming_body(self) -> "list[str]":
        s = self.stream_axis
        axis = _AXES[s]
        es = self.stencil.axis_extents[s]
        # Queue lengths come from the analytical model so the two sides
        # cannot drift: the reuse queue shrinks under retiming, and the
        # shared variant grows by the prefetch landing plane and the
        # temporal staging planes.
        reuse = register_queue_planes(self.stencil, self.oc, self.setting)
        body = self._thread_coords()
        body += [
            f"const int tile_len = N{axis.upper()} / STREAM_TILES;",
            f"const int {axis}_begin = blockIdx.z * tile_len;",
            f"const int {axis}_end = {axis}_begin + tile_len;",
        ]
        if self.use_smem:
            plane_axes = [a for a in range(self.ndim) if a != s]
            plane_dims = []
            for k, a in enumerate(plane_axes):
                base = f"BLOCK_{['X', 'Y'][k]}"
                cover = (
                    f"({base} * {self.m})"
                    if self.merging and a == self.merge_axis
                    else base
                )
                plane_dims.append(f"({cover} + {2 * self.stencil.axis_extents[a] * self.t})")
            decl = "".join(f"[{d}]" for d in reversed(plane_dims))
            planes = smem_plane_count(self.stencil, self.oc, self.setting)
            body.append(f"__shared__ double planes[{planes}]{decl};")
        else:
            body.append(
                f"double q[{reuse} * STREAM_UNROLL];  // register plane queue"
            )
        if self.retiming:
            body.append(
                "double partial = 0.0;  // retimed accumulation along the stream axis"
            )
        if self.prefetch:
            body.append("double next_plane;  // prefetch double buffer")
        body += [
            "// prologue: fill the plane queue",
            f"for (int {axis} = {axis}_begin; {axis} < {axis}_begin + {reuse - 1}; ++{axis}) {{",
            "    _queue_push(/* load plane */);",
            "}",
        ]
        if self.use_smem:
            body.append("__syncthreads();  // queue visible before first read")
        body += [
            "#pragma unroll STREAM_UNROLL",
            f"for (int {axis} = {axis}_begin + {es}; {axis} < {axis}_end - {es}; ++{axis}) {{",
        ]
        if self.prefetch:
            body.append(
                f"    next_plane = in[_plane_index(min({axis} + {es + 1}, {axis}_end - 1))];  "
                "// overlap next load with compute"
            )
        if self.temporal:
            body += [
                "    #pragma unroll",
                "    for (int step = 1; step < TSTEPS; ++step) {",
                "        _plane_time_update(step);  // advance staged time planes",
                "        __syncthreads();",
                "    }",
            ]
        coords = self._coords_with_merge()
        coords[s] = axis
        dims = [f"N{_AXES[d].upper()}" for d in range(self.ndim)]
        inner = [
            f"if ({self._guard([c for c in coords])}) {{",
            "    double acc = 0.0;",
        ]
        inner += ["    " + l for l in self._tap_sum(coords)]
        if self.retiming:
            inner.append("    acc += partial; partial = 0.0;")
        inner += [
            f"    out[{_idx_expr(self.ndim, coords, dims)}] = COEFF * acc;",
            "}",
        ]
        body += ["    " + l for l in self._merge_loop(inner)]
        if self.prefetch:
            body.append("    _queue_rotate(next_plane);")
        else:
            body.append("    _queue_push(/* load plane */);")
        if self.use_smem:
            body.append("    __syncthreads();")
        body.append("}")
        return body

    # ------------------------------------------------------------------
    def _host_source(self) -> str:
        if self.streaming:
            plane_axes = [a for a in range(self.ndim) if a != self.stream_axis]
            grid_terms = []
            for k, a in enumerate(plane_axes):
                base = ["BLOCK_X", "BLOCK_Y"][k]
                cover = (
                    f"({base} * {self.m})"
                    if self.merging and a == self.merge_axis
                    else base
                )
                grid_terms.append(f"(N{_AXES[a].upper()} + {cover} - 1) / {cover}")
            while len(grid_terms) < 2:
                grid_terms.append("1")
            grid_terms.append("STREAM_TILES")
            block = "dim3 block(BLOCK_X, BLOCK_Y, 1);" if len(plane_axes) > 1 else "dim3 block(BLOCK_X, 1, 1);"
        else:
            grid_terms = []
            for a in range(self.ndim):
                base = f"BLOCK_{_AXES[a].upper()}"
                cover = (
                    f"({base} * {self.m})"
                    if self.merging and a == self.merge_axis
                    else base
                )
                grid_terms.append(f"(N{_AXES[a].upper()} + {cover} - 1) / {cover}")
            while len(grid_terms) < 3:
                grid_terms.append("1")
            block = (
                "dim3 block(BLOCK_X, BLOCK_Y, BLOCK_Z);"
                if self.ndim == 3
                else "dim3 block(BLOCK_X, BLOCK_Y, 1);"
            )
        steps = "TIME_STEPS / TSTEPS" if self.temporal else "TIME_STEPS"
        dims_args = ", ".join(f"N{_AXES[d].upper()}" for d in range(self.ndim))
        return "\n".join(
            [
                "#define TIME_STEPS 8",
                "",
                "int run(double* d_in, double* d_out)",
                "{",
                f"    {block}",
                f"    dim3 grid({', '.join(grid_terms)});",
                f"    for (int step = 0; step < {steps}; ++step) {{",
                f"        {self.dialect.launch(self.kernel_name, f'd_in, d_out, {dims_args}')}",
                f"        {self.dialect.device_sync}",
                "        double* tmp = d_in; d_in = d_out; d_out = tmp;",
                "    }",
                f"    return {self.dialect.last_error_ok} ? 0 : 1;",
                "}",
            ]
        )


def generate_source(
    stencil: Stencil,
    oc: "OC | str",
    setting: ParamSetting,
    grid: "tuple[int, ...] | None" = None,
    dialect: "Dialect | str" = CUDA_DIALECT,
) -> str:
    """Translation unit for one kernel variant in the requested dialect.

    Dispatches through the dialect's registered generator class
    (:class:`~repro.codegen.cuda.CudaKernelGenerator` /
    :class:`~repro.codegen.hip.HipKernelGenerator`) so per-dialect
    subclass customizations -- including test stubs patched onto them --
    take effect.
    """
    oc_obj = OC.parse(oc) if isinstance(oc, str) else oc
    d = get_dialect(dialect) if isinstance(dialect, str) else dialect
    if d.name == "hip":
        from .hip import HipKernelGenerator as cls
    else:
        from .cuda import CudaKernelGenerator as cls
    return cls(stencil, oc_obj, setting, grid).generate()
