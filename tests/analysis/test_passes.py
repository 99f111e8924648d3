"""Golden tests: each pass must flag its deliberately broken snippet."""

import dataclasses


from repro.analysis.framework import Analyzer, all_rules, build_context
from repro.analysis.lint import feasible_settings, lint_kernel
from repro.analysis.rules_bounds import BoundsPass
from repro.analysis.rules_conformance import ConformancePass
from repro.analysis.rules_memory import MemoryAccessPass
from repro.analysis.rules_race import RacePass
from repro.analysis.rules_resources import ResourcePass
from repro.errors import KernelLaunchError
from repro.optimizations import kernelmodel
from repro.optimizations.combos import OC
from repro.stencil import library


def run_pass(pass_obj, source, **ctx_kw):
    return pass_obj.run(build_context(source, **ctx_kw))


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# races
# ----------------------------------------------------------------------
RACE_WRITE_THEN_READ = """\
#define BLOCK_X 32
__global__ void k(const double* __restrict__ in, double* __restrict__ out)
{
    __shared__ double buf[BLOCK_X];
    buf[threadIdx.x] = in[threadIdx.x];
    out[threadIdx.x] = buf[threadIdx.x + 1];
}
"""

RACE_LOOP_CARRIED = """\
__global__ void k(const double* __restrict__ in, double* __restrict__ out)
{
    __shared__ double buf[32];
    for (int i = 0; i < 8; ++i) {
        double v = buf[i];
        buf[i] = in[i];
    }
}
"""

RACE_DIVERGENT_BARRIER = """\
__global__ void k(const double* __restrict__ in, double* __restrict__ out)
{
    __shared__ double buf[32];
    if (threadIdx.x < 16) {
        __syncthreads();
    }
}
"""


class TestRacePass:
    def test_write_then_read_without_barrier(self):
        findings = run_pass(RacePass(), RACE_WRITE_THEN_READ)
        assert rules_of(findings) == ["RACE001"]
        assert "buf" in findings[0].message

    def test_barrier_between_write_and_read_is_clean(self):
        fixed = RACE_WRITE_THEN_READ.replace(
            "    out[threadIdx.x]",
            "    __syncthreads();\n    out[threadIdx.x]",
        )
        assert run_pass(RacePass(), fixed) == []

    def test_loop_carried_race_found_by_second_pass(self):
        findings = run_pass(RacePass(), RACE_LOOP_CARRIED)
        assert rules_of(findings) == ["RACE001"]

    def test_loop_with_trailing_barrier_is_clean(self):
        fixed = RACE_LOOP_CARRIED.replace(
            "        buf[i] = in[i];",
            "        buf[i] = in[i];\n        __syncthreads();",
        )
        assert run_pass(RacePass(), fixed) == []

    def test_barrier_under_divergent_branch(self):
        findings = run_pass(RacePass(), RACE_DIVERGENT_BARRIER)
        assert rules_of(findings) == ["RACE002"]
        assert "deadlock" in findings[0].message

    def test_barrier_under_uniform_branch_is_clean(self):
        uniform = RACE_DIVERGENT_BARRIER.replace("threadIdx.x < 16", "blockIdx.x < 16")
        assert run_pass(RacePass(), uniform) == []


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------
BOUNDS_TEMPLATE = """\
#define NX 64
#define NY 32
#define BLOCK_X 32
#define BLOCK_Y 4

__global__ void k(const double* __restrict__ in, double* __restrict__ out)
{{
    const int x = blockIdx.x * BLOCK_X + threadIdx.x;
    const int y = blockIdx.y * BLOCK_Y + threadIdx.y;
    if ({guard}) {{
        double acc = 0.0;
{taps}
        out[(y) * NX + (x)] = acc;
    }}
}}

int run(double* d_in, double* d_out)
{{
    dim3 block(BLOCK_X, BLOCK_Y, 1);
    dim3 grid(NX / BLOCK_X, NY / BLOCK_Y, 1);
    k<<<grid, block>>>(d_in, d_out);
    return 0;
}}
"""

GUARD_R1 = "x >= 1 && x < NX - 1 && y >= 1 && y < NY - 1"
TAPS_R1 = "\n".join(
    f"        acc += in[{idx}];"
    for idx in (
        "(y) * NX + (x + (-1))",
        "(y) * NX + (x + (1))",
        "(y + (-1)) * NX + (x)",
        "(y + (1)) * NX + (x)",
        "(y) * NX + (x)",
    )
)


def bounds_unit(guard=GUARD_R1, taps=TAPS_R1):
    return BOUNDS_TEMPLATE.format(guard=guard, taps=taps)


class TestBoundsPass:
    def test_guarded_taps_are_clean(self):
        assert run_pass(BoundsPass(), bounds_unit()) == []

    def test_tap_beyond_guard_radius_is_oob(self):
        src = bounds_unit(
            taps=TAPS_R1 + "\n        acc += in[(y) * NX + (x + (-2))];"
        )
        findings = run_pass(BoundsPass(), src)
        assert "BOUNDS001" in rules_of(findings)
        oob = next(f for f in findings if f.rule == "BOUNDS001")
        assert "axis 0" in oob.message
        # The guard contract also fails: taps imply extent 2, guard clips 1.
        assert "BOUNDS002" in rules_of(findings)

    def test_over_guarded_axis_flags_model_drift(self):
        src = bounds_unit(
            guard="x >= 2 && x < NX - 2 && y >= 1 && y < NY - 1"
        )
        findings = run_pass(BoundsPass(), src)
        assert rules_of(findings) == ["BOUNDS002"]
        assert "over-guarded" in findings[0].message

    def test_unguarded_global_access_is_oob(self):
        src = bounds_unit(guard="x >= 0 && x < NX && y >= 0 && y < NY")
        findings = run_pass(BoundsPass(), src)
        assert "BOUNDS001" in rules_of(findings)

    def test_unanalyzable_index_is_info(self):
        src = bounds_unit(taps=TAPS_R1 + "\n        acc += in[x * 7 + y];")
        findings = run_pass(BoundsPass(), src)
        assert rules_of(findings) == ["BOUNDS003"]

    def test_local_array_overrun(self):
        src = bounds_unit(
            taps=TAPS_R1
            + "\n        __shared__ double tile[BLOCK_Y][BLOCK_X];"
            + "\n        acc += tile[threadIdx.y][threadIdx.x + 1];"
        )
        findings = run_pass(BoundsPass(), src)
        assert "BOUNDS001" in rules_of(findings)
        oob = next(f for f in findings if f.rule == "BOUNDS001")
        assert "tile" in oob.message


# ----------------------------------------------------------------------
# resources (codegen <-> kernelmodel consistency)
# ----------------------------------------------------------------------
class TestResourcePass:
    def test_smem_claim_drift_is_flagged(self, monkeypatch):
        stencil = library.get("star3d2r")
        oc = OC.parse("ST")
        setting = feasible_settings(stencil, oc, 1)[0]
        real = kernelmodel.build_profile

        def perturbed(stencil, oc, setting, grid=None, warp_size=32):
            p = real(stencil, oc, setting, grid, warp_size=warp_size)
            return dataclasses.replace(p, smem_per_block=p.smem_per_block + 64)

        monkeypatch.setattr(kernelmodel, "build_profile", perturbed)
        _, report = lint_kernel(stencil, oc, setting)
        drift = [f for f in report.errors if f.rule == "RES001"]
        assert drift and "drifted" in drift[0].message

    def test_register_queue_claim_drift_is_flagged(self, monkeypatch):
        stencil = library.get("star3d1r")
        oc = OC.parse("ST")
        setting = feasible_settings(stencil, oc, 1)[0].replace(use_smem=0)
        real = kernelmodel.register_queue_planes
        monkeypatch.setattr(
            kernelmodel,
            "register_queue_planes",
            lambda s, o, p: real(s, o, p) + 1,
        )
        try:
            _, report = lint_kernel(stencil, oc, setting)
        finally:
            # build_profile may have cached values computed under the patch.
            kernelmodel.build_profile.cache_clear()
        assert any(f.rule == "RES002" for f in report.errors)

    def test_host_geometry_drift_is_flagged(self):
        stencil = library.get("star2d1r")
        oc = OC.parse("naive")
        setting = feasible_settings(stencil, oc, 1)[0].replace(block_x=32)
        source, report = lint_kernel(stencil, oc, setting)
        assert report.ok
        tampered = source.replace("dim3 block(BLOCK_X,", "dim3 block(48,")
        assert tampered != source
        report = Analyzer().analyze(
            tampered, stencil=stencil, oc=oc, setting=setting
        )
        geo = [f for f in report.errors if f.rule == "RES003"]
        assert geo and "threads/block" in geo[0].message

    def test_oversized_static_smem_warns(self):
        src = (
            "__global__ void k(const double* __restrict__ in, "
            "double* __restrict__ out)\n{\n"
            "    __shared__ double big[128][64];\n}\n"
        )
        findings = run_pass(ResourcePass(), src)
        assert rules_of(findings) == ["RES004"]
        assert "65536" in findings[0].message

    def test_model_rejection_is_info(self, monkeypatch):
        stencil = library.get("star2d1r")
        oc = OC.parse("naive")
        setting = feasible_settings(stencil, oc, 1)[0]
        source, _ = lint_kernel(stencil, oc, setting)

        def refuse(*args, **kwargs):
            raise KernelLaunchError("halo consumes the tile")

        monkeypatch.setattr(kernelmodel, "build_profile", refuse)
        report = Analyzer().analyze(
            source, stencil=stencil, oc=oc, setting=setting
        )
        infos = [f for f in report.findings if f.rule == "RES005"]
        assert infos and "halo consumes the tile" in infos[0].message
        assert report.ok  # info-severity findings never fail the lint


# ----------------------------------------------------------------------
# OC conformance
# ----------------------------------------------------------------------
def conf_snippet(oc_name, body):
    return (
        f"// optimization combination: {oc_name}\n"
        "#define NX 64\n"
        "__global__ void k(const double* __restrict__ in, "
        "double* __restrict__ out)\n{\n" + body + "}\n"
    )


class TestConformancePass:
    def test_streaming_without_queue_structure(self):
        findings = run_pass(
            ConformancePass(), conf_snippet("ST", "    double acc = 0.0;\n")
        )
        assert set(rules_of(findings)) == {"OCST001"}
        assert len(findings) == 3  # no rotation, no queue decl, no plane loop

    def test_queue_rotation_outside_streaming_oc(self):
        body = "    _queue_rotate(q, 0.0);\n"
        findings = run_pass(ConformancePass(), conf_snippet("naive", body))
        assert rules_of(findings) == ["OCXX001"]

    def test_block_merge_with_strided_indexing(self):
        body = (
            "    const int y0 = blockIdx.y * BLOCK_Y + threadIdx.y;\n"
            "    for (int mi = 0; mi < 2; ++mi) {\n"
            "        const int y = y0 + mi * BLOCK_Y;\n"
            "        out[y] = 0.0;\n"
            "    }\n"
        )
        findings = run_pass(ConformancePass(), conf_snippet("BM", body))
        assert rules_of(findings) == ["OCBM001"]
        assert "adjacent" in findings[0].message

    def test_merge_loop_in_merge_free_oc(self):
        body = (
            "    for (int mi = 0; mi < 2; ++mi) {\n"
            "        const int y = 0 + mi * 1;\n"
            "    }\n"
        )
        findings = run_pass(ConformancePass(), conf_snippet("naive", body))
        assert rules_of(findings) == ["OCXX001"]

    def test_retiming_without_partial_accumulator(self):
        findings = run_pass(
            ConformancePass(), conf_snippet("RT", "    double acc = 0.0;\n")
        )
        assert rules_of(findings) == ["OCRT001"]

    def test_prefetch_without_double_buffer(self):
        findings = run_pass(
            ConformancePass(), conf_snippet("PR", "    double acc = 0.0;\n")
        )
        assert rules_of(findings) == ["OCPR001"]

    def test_temporal_without_step_loop(self):
        findings = run_pass(
            ConformancePass(), conf_snippet("TB", "    double acc = 0.0;\n")
        )
        assert rules_of(findings) == ["OCTB001"]

    def test_step_loop_in_non_temporal_oc(self):
        body = (
            "    for (int step = 1; step < 4; ++step) {\n"
            "        double t = 0.0;\n"
            "    }\n"
        )
        findings = run_pass(ConformancePass(), conf_snippet("naive", body))
        assert rules_of(findings) == ["OCXX001"]

    def test_snippet_without_declared_oc_is_skipped(self):
        src = (
            "__global__ void k(const double* __restrict__ in, "
            "double* __restrict__ out)\n{\n    double acc = 0.0;\n}\n"
        )
        assert run_pass(ConformancePass(), src) == []


# ----------------------------------------------------------------------
# coalescing / divergence heuristics
# ----------------------------------------------------------------------
class TestMemoryAccessPass:
    def test_streaming_contiguous_axis_warns(self):
        stencil = library.get("star2d1r")
        oc = OC.parse("ST")
        setting = feasible_settings(stencil, oc, 1)[0].replace(stream_dim=1)
        _, report = lint_kernel(stencil, oc, setting)
        assert any(f.rule == "PERF001" for f in report.warnings)

    def test_block_merge_contiguous_axis_warns(self):
        stencil = library.get("star2d1r")
        oc = OC.parse("BM")
        setting = feasible_settings(stencil, oc, 1)[0].replace(
            merge_dim=1, merge_factor=2
        )
        _, report = lint_kernel(stencil, oc, setting)
        assert any(f.rule == "PERF003" for f in report.warnings)

    def test_narrow_block_warns(self):
        src = (
            "#define BLOCK_X 16\n"
            "__global__ void k(const double* __restrict__ in, "
            "double* __restrict__ out)\n{\n    double acc = 0.0;\n}\n"
        )
        findings = run_pass(MemoryAccessPass(), src)
        assert rules_of(findings) == ["PERF002"]


# ----------------------------------------------------------------------
# analyzer plumbing
# ----------------------------------------------------------------------
class TestAnalyzer:
    def test_unparseable_source_is_parse001(self):
        report = Analyzer().analyze(
            "__global__ void k(double* in)\n{\n    while (1) {\n    }\n}\n"
        )
        assert rules_of(report.findings) == ["PARSE001"]
        assert not report.ok

    def test_inline_suppression_moves_finding_aside(self):
        suppressed = RACE_WRITE_THEN_READ.replace(
            "    out[threadIdx.x] = buf[threadIdx.x + 1];",
            "    out[threadIdx.x] = buf[threadIdx.x + 1];"
            "  // lint: disable=RACE001",
        )
        report = Analyzer(passes=[RacePass()]).analyze(suppressed)
        assert report.findings == []
        assert rules_of(report.suppressed) == ["RACE001"]
        assert report.ok

    def test_file_suppression(self):
        suppressed = "// lint: disable-file=RACE001\n" + RACE_WRITE_THEN_READ
        report = Analyzer(passes=[RacePass()]).analyze(suppressed)
        assert report.findings == []
        assert rules_of(report.suppressed) == ["RACE001"]

    def test_baseline_moves_finding_aside(self):
        from repro.analysis.findings import Baseline

        report = Analyzer(passes=[RacePass()]).analyze(RACE_WRITE_THEN_READ)
        base = Baseline.from_findings(report.findings)
        rerun = Analyzer(passes=[RacePass()]).analyze(
            RACE_WRITE_THEN_READ, baseline=base
        )
        assert rerun.findings == []
        assert rules_of(rerun.baselined) == ["RACE001"]

    def test_rule_catalog_is_complete(self):
        ids = [r.rule for r in all_rules()]
        assert ids == sorted(ids)
        for rule in ("RACE001", "BOUNDS002", "RES001", "OCST001", "PERF001"):
            assert rule in ids
