"""Tests for the structural IR parser over generated and handwritten CUDA."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import clear_parse_cache
from repro.analysis import expr as E
from repro.analysis import ir
from repro.codegen.cuda import generate_cuda
from repro.optimizations.combos import OC
from repro.optimizations.params import ParamSetting
from repro.stencil import library

SNIPPET = """\
// stencil: demo
// optimization combination: naive
// grid: 64 x 32
#define NX 64
#define NY 32
#define BLOCK_X 32
#define BLOCK_Y 4
#define STEPS (4 + 4)

__global__ void demo_kernel(const double* __restrict__ in, double* __restrict__ out)
{
    const int x = blockIdx.x * BLOCK_X + threadIdx.x;
    const int y = blockIdx.y * BLOCK_Y + threadIdx.y;
    __shared__ double tile[BLOCK_Y][BLOCK_X];
    tile[threadIdx.y][threadIdx.x] = in[(y) * NX + (x)];
    __syncthreads();
    if (x >= 1 && x < NX - 1 && y >= 1 && y < NY - 1) {
        double acc = 0.0;
        #pragma unroll
        for (int mi = 0; mi < 2; ++mi) {
            acc += tile[threadIdx.y][threadIdx.x]; acc *= 0.5;
        }
        out[(y) * NX + (x)] = acc;
    }
}

int run(double* d_in, double* d_out)
{
    dim3 block(BLOCK_X, BLOCK_Y, 1);
    dim3 grid(NX / BLOCK_X, NY / BLOCK_Y, 1);
    for (int step = 0; step < STEPS; ++step) {
        demo_kernel<<<grid, block>>>(d_in, d_out);
    }
    return 0;
}
"""


class TestSnippet:
    def setup_method(self):
        self.unit = ir.parse_unit(SNIPPET)

    def test_macros_resolved_in_order(self):
        assert self.unit.macros["NX"] == 64
        assert self.unit.macros["STEPS"] == 8

    def test_meta_comments(self):
        assert self.unit.meta["stencil"] == "demo"
        assert self.unit.meta["optimization combination"] == "naive"
        assert self.unit.meta["grid"] == "64 x 32"

    def test_kernel_header(self):
        k = self.unit.kernel
        assert k.name == "demo_kernel"
        assert k.params == ("in", "out")

    def test_declarations(self):
        decls = self.unit.kernel.declarations()
        assert decls["x"].const and not decls["x"].is_array
        assert decls["acc"].ctype == "double"
        tile = decls["tile"]
        assert tile.shared and tile.is_array
        dims = [E.eval_const(d, self.unit.macros) for d in tile.dims]
        assert dims == [4, 32]
        assert self.unit.kernel.shared_arrays() == {"tile": tile}

    def test_barrier_and_pragma(self):
        assert len(self.unit.kernel.barriers()) == 1
        pragmas = [
            s for s, _ in ir.walk_stmts(self.unit.kernel.body)
            if isinstance(s, ir.Pragma)
        ]
        assert pragmas and "unroll" in pragmas[0].text

    def test_fused_statements_split_on_semicolon(self):
        loops = [
            s for s, _ in ir.walk_stmts(self.unit.kernel.body)
            if isinstance(s, ir.For) and s.var == "mi"
        ]
        assert len(loops) == 1
        ops = [s.op for s in loops[0].body if isinstance(s, ir.Assign)]
        assert ops == ["+=", "*="]

    def test_guard_condition(self):
        guards = [
            s for s, _ in ir.walk_stmts(self.unit.kernel.body)
            if isinstance(s, ir.If)
        ]
        assert len(guards) == 1
        assert len(E.conjuncts(guards[0].cond)) == 4

    def test_host_geometry(self):
        host = self.unit.host
        assert host is not None
        assert host.launched_kernel == "demo_kernel"
        block = [E.eval_const(d, self.unit.macros) for d in host.block_dims]
        grid = [E.eval_const(d, self.unit.macros) for d in host.grid_dims]
        assert block == [32, 4, 1]
        assert grid == [2, 8, 1]
        assert E.eval_const(host.launches, self.unit.macros) == 8

    def test_statements_carry_line_numbers(self):
        decls = self.unit.kernel.declarations()
        assert decls["tile"].line == SNIPPET.splitlines().index(
            "    __shared__ double tile[BLOCK_Y][BLOCK_X];"
        ) + 1


class TestGeneratedSources:
    def test_naive_kernel_parses(self):
        source = generate_cuda(
            library.get("star2d1r"), OC.parse("naive"), ParamSetting()
        )
        unit = ir.parse_unit(source)
        assert unit.kernels and unit.host is not None
        assert unit.meta.get("optimization combination") == "naive"
        assert unit.kernel.params[:2] == ("in", "out")

    def test_streaming_kernel_parses(self):
        setting = ParamSetting(stream_dim=3, use_smem=1)
        source = generate_cuda(
            library.get("star3d1r"), OC.parse("ST"), setting
        )
        unit = ir.parse_unit(source)
        assert unit.kernel.shared_arrays()
        assert any(
            isinstance(s, ir.CallStmt)
            and s.call.func in ("_queue_push", "_queue_rotate")
            for s, _ in ir.walk_stmts(unit.kernel.body)
        )


class TestParseErrors:
    def test_unsupported_construct(self):
        src = "__global__ void k(double* in)\n{\n    while (1) {\n    }\n}\n"
        with pytest.raises(ir.ParseError):
            ir.parse_unit(src)

    def test_unterminated_block(self):
        src = "__global__ void k(double* in)\n{\n    double a = 0.0;\n"
        with pytest.raises(ir.ParseError):
            ir.parse_unit(src)

    def test_empty_unit_has_no_kernel(self):
        unit = ir.parse_unit("#define NX 4\n")
        with pytest.raises(ir.ParseError):
            unit.kernel


class TestRepeatedLines:
    """Equal statement lines parse once per process; each occurrence is
    its own statement at its own line, and errors name their line."""

    SOURCE = (
        "__global__ void k(const double* __restrict__ in, double* __restrict__ out)\n"
        "{\n"
        "    double acc = 0.0;\n"
        "    acc += in[0]; acc *= 0.5;\n"
        "    acc += in[0]; acc *= 0.5;\n"
        "    out[0] = acc;\n"
        "}\n"
    )

    def test_each_occurrence_is_its_own_statement(self):
        first = ir.parse_unit(self.SOURCE).kernel.body
        again = ir.parse_unit("\n" + self.SOURCE).kernel.body
        assert [s.line for s in first] == [3, 4, 4, 5, 5, 6]
        assert [s.line for s in again] == [4, 5, 5, 6, 6, 7]
        assert first[1] == ir._parse_simple("acc += in[0];", 4)
        assert first[3] == ir._parse_simple("acc += in[0];", 5)
        assert first[1] is not first[3]
        assert first[1].value is first[3].value is again[1].value

    def test_clear_parse_cache_drops_the_lines(self):
        ir.parse_unit(self.SOURCE)
        assert ir._parse_line_text.cache_info().currsize > 0
        clear_parse_cache()
        assert ir._parse_line_text.cache_info().currsize == 0

    @pytest.mark.parametrize("pad", [0, 2])
    def test_error_names_the_line(self, pad):
        bad = self.SOURCE.replace("out[0] = acc;", "acc;")
        with pytest.raises(ir.ParseError, match=f"^line {6 + pad}: cannot classify"):
            ir.parse_unit("\n" * pad + bad)


def _split_top_by_char(text, sep):
    """The character walk ``ir.split_top`` must agree with."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


class TestSplitTop:
    @given(
        st.text(alphabet="ab +-*=,;()[]", max_size=40),
        st.sampled_from(list(";+-*=,([)]") + ["", "ab", "a"]),
    )
    def test_matches_character_walk(self, text, sep):
        assert ir.split_top(text, sep) == _split_top_by_char(text, sep)

    @pytest.mark.parametrize(
        "text, sep, parts",
        [
            ("a + b", ";", ["a + b"]),
            ("a + b + c", "+", ["a ", " b ", " c"]),
            ("f(a, b), c[i, j], d", ",", ["f(a, b)", " c[i, j]", " d"]),
            ("x) + y + (z", "+", ["x) + y + (z"]),
        ],
    )
    def test_cases(self, text, sep, parts):
        assert ir.split_top(text, sep) == parts

