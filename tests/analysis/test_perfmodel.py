"""The static performance model: metric extraction and time estimates.

Golden fixtures pin hand-computed footprints, volumes and launch
geometry for representative 2D/3D star and box kernels under the main
scheme families (cache, register streaming, shared-memory streaming,
temporal blocking).  The estimate itself must be a pure function of the
source text: bit-identical across repeated runs and across process
pools of any size.
"""

import json
import multiprocessing
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis import expr as E
from repro.analysis import framework as afw
from repro.analysis import ir
from repro.analysis import perfmodel
from repro.analysis.ir import ParseError
from repro.analysis.lint import feasible_settings
from repro.analysis.perfmodel import (
    ANALYTICAL_FEATURE_NAMES,
    analytical_features,
    estimate_kernel,
    estimate_kernels,
    estimate_source,
    KernelMetrics,
    extract_metrics,
)
from repro.codegen.cuda import generate_cuda
from repro.errors import KernelLaunchError
from repro.optimizations.combos import OC
from repro.optimizations.params import PARAM_NAMES, ParamSetting
from repro.stencil import get

from .make_golden import GOLDEN_PATH, encode, outcome, record, source_of, stencils_from_json

WORD = 8


def _fixture(stencil_name: str, oc_name: str):
    """Deterministic (stencil, oc, setting, source) for a fixture id."""
    stencil = get(stencil_name)
    oc = OC.parse(oc_name)
    setting = feasible_settings(stencil, oc, 1, 0)[0]
    return stencil, oc, setting, generate_cuda(stencil, oc, setting)


# Hand-computed golden expectations for seed-0 feasible settings.  The
# derivations: taps = the stencil's offset set; extents = per-axis
# radius; write volume = one word per grid point; smem bytes =
# queue_planes x footprint cells x word; launches = TIME_STEPS /
# temporal_steps; footprint innermost = covered x-range + 2 x halo
# (halo widens to extent x temporal depth under temporal blocking).
GOLDEN = {
    ("star2d1r", "naive"): dict(
        taps=5, extents=(1, 1), scheme="cache", coverage=(32, 4),
        launches=8, n_blocks=524288, threads_per_block=128,
        smem_per_block=0, read_amplification=3.0, coalescing=1.0,
    ),
    ("star2d1r", "ST"): dict(
        taps=5, extents=(1, 1), scheme="register-stream",
        coverage=(8192, 256), stream_axis=0, stream_iters=4096,
        launches=8, n_blocks=32, threads_per_block=256,
        smem_per_block=0, read_amplification=1.0,
    ),
    ("star2d1r", "ST_RT"): dict(
        taps=5, extents=(1, 1), scheme="smem-stream",
        coverage=(128, 1024), stream_axis=1, stream_iters=256,
        retimed=True, launches=8, n_blocks=512,
        smem_queue_planes=2, smem_footprint=(130,),
        smem_per_block=2 * 130 * WORD, coalescing=1.0,
    ),
    ("star2d1r", "ST_RT_TB"): dict(
        taps=5, extents=(1, 1), scheme="smem-stream",
        stream_axis=1, retimed=True, temporal_steps=2, launches=4,
        smem_queue_planes=4, smem_footprint=(132,),
        smem_per_block=4 * 132 * WORD,
    ),
    ("box2d1r", "naive"): dict(
        taps=9, extents=(1, 1), scheme="cache", coverage=(256, 2),
        launches=8, n_blocks=131072, threads_per_block=512,
        smem_per_block=0, read_amplification=3.0, coalescing=1.0,
    ),
    ("box2d1r", "ST"): dict(
        taps=9, extents=(1, 1), scheme="smem-stream",
        stream_axis=1, stream_iters=4096, launches=8,
        smem_queue_planes=3, smem_footprint=(258,),
        smem_per_block=3 * 258 * WORD,
    ),
    ("box2d1r", "ST_RT"): dict(
        taps=9, extents=(1, 1), scheme="register-stream",
        stream_axis=0, retimed=True, launches=8, smem_per_block=0,
    ),
    ("box2d1r", "ST_RT_TB"): dict(
        taps=9, extents=(1, 1), scheme="smem-stream",
        stream_axis=0, retimed=True, temporal_steps=2, launches=4,
        smem_queue_planes=4, smem_footprint=(20,),
        smem_per_block=4 * 20 * WORD,
    ),
    ("star3d1r", "naive"): dict(
        taps=7, extents=(1, 1, 1), scheme="cache", coverage=(16, 2, 8),
        launches=8, n_blocks=524288, threads_per_block=256,
        smem_per_block=0, read_amplification=3.0,
    ),
    ("star3d1r", "ST"): dict(
        taps=7, extents=(1, 1, 1), scheme="smem-stream",
        stream_axis=2, stream_iters=512, launches=8,
        smem_queue_planes=3, smem_footprint=(258, 4),
        smem_per_block=3 * 258 * 4 * WORD, coalescing=1.0,
    ),
    ("star3d1r", "ST_RT"): dict(
        taps=7, extents=(1, 1, 1), scheme="register-stream",
        stream_axis=1, retimed=True, launches=8, smem_per_block=0,
    ),
    ("star3d1r", "ST_RT_TB"): dict(
        taps=7, extents=(1, 1, 1), scheme="smem-stream",
        stream_axis=0, retimed=True, temporal_steps=2, launches=4,
        smem_queue_planes=4, smem_footprint=(132, 8),
        smem_per_block=4 * 132 * 8 * WORD,
    ),
}


class TestGoldenMetrics:
    @pytest.mark.parametrize(
        "stencil_name,oc_name", sorted(GOLDEN), ids="-".join
    )
    def test_fixture(self, stencil_name, oc_name):
        stencil, _, _, source = _fixture(stencil_name, oc_name)
        m = extract_metrics(source)
        expected = GOLDEN[(stencil_name, oc_name)]
        for key, want in expected.items():
            got = len(m.taps) if key == "taps" else getattr(m, key)
            assert got == want, f"{key}: {got} != {want}"
        # Cross-cutting invariants, derivable without the source:
        # one word written per grid point, and the per-block coverage
        # tiles the grid exactly.
        points = 1.0
        for d in m.dims:
            points *= d
        assert m.write_bytes == WORD * points
        covered = m.n_blocks
        for c in m.coverage:
            covered *= c
        assert covered == points

    def test_taps_match_stencil_offsets(self):
        for name in ("star2d1r", "box2d1r", "star3d1r"):
            stencil, _, _, source = _fixture(name, "naive")
            m = extract_metrics(source)
            assert set(m.taps) == set(stencil.offsets)

    def test_extents_are_per_axis_radii(self):
        stencil = get("star2d3r")
        source = generate_cuda(
            stencil, OC.parse("naive"), ParamSetting(block_x=64, block_y=4)
        )
        m = extract_metrics(source)
        assert m.extents == (3, 3)
        assert m.scheme == "cache"
        assert m.read_amplification == 1 + 2 * 3


class TestEstimates:
    def test_estimate_source_equals_estimate_kernel(self):
        stencil, oc, setting, source = _fixture("star2d1r", "ST_RT")
        a = estimate_source(source, "V100")
        b = estimate_kernel(stencil, oc, setting, "V100")
        assert a.time_ms == b.time_ms
        assert a.to_dict() == b.to_dict()

    def test_components_sum_into_time(self):
        _, _, _, source = _fixture("star3d1r", "ST")
        est = estimate_source(source, "A100")
        assert est.time_ms > 0
        # The roofline-style composition is bounded below by its
        # slowest phase and above by the serial sum plus overheads.
        phases = [est.dram_ms, est.l2_ms, est.smem_ms, est.compute_ms]
        assert est.time_ms >= max(phases) * 0.9
        assert 0.0 < est.occupancy <= 1.0

    def test_smem_phase_is_the_phase_that_was_timed(self):
        # smem_ms is the shared-memory phase the smooth-max combined
        # (latency hiding included), so the reported phases reassemble
        # time_ms exactly.
        stencil = get("box3d2r")
        setting = ParamSetting(block_x=32, block_y=4, use_smem=1, stream_dim=3)
        est = estimate_kernel(stencil, OC.parse("ST"), setting, "V100")
        m = est.metrics
        assert est.smem_ms > est.dram_ms > 0
        phases = (est.dram_ms, est.l2_ms, est.compute_ms, est.smem_ms)
        main = sum(p**4 for p in phases) ** 0.25 / est.utilization
        per_launch = main + est.stream_ms + est.launch_ms
        assert est.time_ms == pytest.approx(
            per_launch * m.launches / m.time_steps, rel=1e-12
        )

    @pytest.mark.parametrize("gpu", ["V100", "MI210"])
    def test_batched_estimates_equal_per_point(self, gpu):
        # One array pass over a mixed batch (crashes and inexpressible
        # points included) gives each point exactly its own estimate.
        points = [
            (get(name), OC.parse(oc), setting, None)
            for name in ("star2d1r", "box2d2r", "star3d2r")
            for oc in ("naive", "ST_RT", "BM", "ST_TB")
            for setting in feasible_settings(get(name), OC.parse(oc), 2)
        ]
        points.append((get("star2d1r"), OC.parse("ST"), ParamSetting(stream_dim=3), None))
        batched = estimate_kernels(points, gpu)
        assert len(batched) == len(points)
        for (stencil, oc, setting, grid), got in zip(points, batched):
            try:
                want = estimate_kernel(stencil, oc, setting, gpu, grid=grid)
            except Exception as e:  # noqa: BLE001 - compared below
                assert type(got) is type(e) and str(got) == str(e)
            else:
                assert got.to_dict() == want.to_dict()
                assert got.time_ms == want.time_ms

    def test_gpu_ordering_is_sane(self):
        stencil, oc, setting, _ = _fixture("star2d1r", "naive")
        t = {
            gpu: estimate_kernel(stencil, oc, setting, gpu).time_ms
            for gpu in ("P100", "V100", "A100")
        }
        assert t["A100"] < t["V100"] < t["P100"]


def _estimate_once(args):
    """Module-level worker: spawn-picklable estimate for one fixture."""
    stencil_name, oc_name, gpu = args
    stencil, oc, setting, _ = _fixture(stencil_name, oc_name)
    est = estimate_kernel(stencil, oc, setting, gpu)
    return est.time_ms, est.to_dict()


class TestDeterminism:
    CONFIGS = [
        ("star2d1r", "ST_RT", "V100"),
        ("box2d1r", "naive", "A100"),
        ("star3d1r", "ST_RT_TB", "P100"),
    ]

    def test_repeated_runs_are_bit_identical(self):
        for cfg in self.CONFIGS:
            first = _estimate_once(cfg)
            for _ in range(3):
                assert _estimate_once(cfg) == first

    @pytest.mark.parametrize("workers", [1, 2])
    def test_identical_across_worker_counts(self, workers):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(workers) as pool:
            results = pool.map(_estimate_once, self.CONFIGS)
        expected = [_estimate_once(cfg) for cfg in self.CONFIGS]
        assert results == expected


class TestParseCache:
    def test_hits_and_misses_count(self):
        afw.clear_parse_cache()
        _, _, _, source = _fixture("star2d1r", "naive")
        u1 = afw.parse_unit_cached(source)
        u2 = afw.parse_unit_cached(source)
        assert u1 is u2
        info = afw.parse_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1
        assert info["size"] == 1
        assert info["hit_rate"] == 0.5

    def test_distinct_sources_miss(self):
        afw.clear_parse_cache()
        _, _, _, a = _fixture("star2d1r", "naive")
        _, _, _, b = _fixture("box2d1r", "naive")
        afw.parse_unit_cached(a)
        afw.parse_unit_cached(b)
        assert afw.parse_cache_info()["misses"] == 2

    def test_capacity_evicts_oldest(self, monkeypatch):
        afw.clear_parse_cache()
        monkeypatch.setattr(afw, "PARSE_CACHE_CAPACITY", 2)
        sources = [
            _fixture(name, "naive")[3]
            for name in ("star2d1r", "box2d1r", "star2d2r")
        ]
        for s in sources:
            afw.parse_unit_cached(s)
        assert afw.parse_cache_info()["size"] == 2
        # The oldest entry was evicted: re-parsing it is a miss again.
        afw.parse_unit_cached(sources[0])
        assert afw.parse_cache_info()["misses"] == 4

    def test_clear_resets(self):
        afw.clear_parse_cache()
        info = afw.parse_cache_info()
        assert info == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": afw.PARSE_CACHE_CAPACITY,
            "hit_rate": 0.0,
            "body_hits": 0,
            "body_misses": 0,
        }

    def test_define_only_change_shares_body(self):
        afw.clear_parse_cache()
        _, _, _, a = _fixture("star2d1r", "ST_RT")
        b = a.replace("#define NX 8192", "#define NX 4096")
        assert a != b
        u1 = afw.parse_unit_cached(a)
        u2 = afw.parse_unit_cached(b)
        assert u1.macros["NX"] == 8192 and u2.macros["NX"] == 4096
        assert u2.kernels[0] is u1.kernels[0] and u2.host is u1.host
        info = afw.parse_cache_info()
        assert (info["misses"], info["hits"]) == (2, 0)
        assert (info["body_misses"], info["body_hits"]) == (1, 1)
        assert extract_metrics(b).dims == (4096, 8192)

    def test_malformed_body_is_never_cached(self):
        afw.clear_parse_cache()
        _, _, _, good = _fixture("star2d1r", "naive")
        bad = good.replace("double acc = 0.0;", "switch (acc) {", 1)
        assert bad != good
        for _ in range(2):
            with pytest.raises(ParseError):
                afw.parse_unit_cached(bad)
        info = afw.parse_cache_info()
        assert info["size"] == 0 and len(afw._body_cache) == 0
        assert (info["misses"], info["body_misses"]) == (0, 0)

    def test_clear_empties_body_cache(self):
        afw.clear_parse_cache()
        unit = afw.parse_unit_cached(_fixture("star2d1r", "ST_RT")[3])
        extract_metrics(unit)
        assert len(afw._body_cache) == 1 and unit.kernel.memo
        afw.clear_parse_cache()
        assert len(afw._body_cache) == 0
        again = afw.parse_unit_cached(unit.source)
        assert again.kernel is not unit.kernel and not again.kernel.memo

    def test_capacity_evicts_oldest_body(self, monkeypatch):
        afw.clear_parse_cache()
        monkeypatch.setattr(afw, "PARSE_CACHE_CAPACITY", 2)
        sources = [
            _fixture(name, "naive")[3]
            for name in ("star2d1r", "box2d1r", "star2d2r")
        ]
        first = afw.parse_unit_cached(sources[0])
        for s in sources[1:]:
            afw.parse_unit_cached(s)
        assert len(afw._body_cache) == 2
        # The oldest body was evicted: a macro variant of it parses anew,
        # while one of the newest body is a hit.
        variant = afw.parse_unit_cached(sources[0].replace("#define NX 8192", "#define NX 64"))
        assert variant.kernels[0] is not first.kernels[0]
        afw.parse_unit_cached(sources[2].replace("#define NX 8192", "#define NX 64"))
        info = afw.parse_cache_info()
        assert (info["body_misses"], info["body_hits"]) == (4, 1)

    def test_concurrent_frontier_parses_agree(self):
        afw.clear_parse_cache()
        stencil, oc = get("star2d2r"), OC.parse("ST_RT")
        sources = [generate_cuda(stencil, oc, s) for s in feasible_settings(stencil, oc, 16, 3)]
        barrier = threading.Barrier(4, timeout=60)

        def parse_all(k):
            barrier.wait()
            order = sources[k:] + sources[:k]
            units = {s: afw.parse_unit_cached(s) for s in order}
            return [units[s] for s in sources]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(parse_all, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        expected = [ir.parse_unit(s) for s in sources]
        for units in results:
            assert units == expected
        # No lost counter update: every lookup is counted once per level.
        info = afw.parse_cache_info()
        assert info["hits"] + info["misses"] == 4 * len(sources)
        assert info["body_hits"] + info["body_misses"] == info["misses"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestExtractionGolden:
    """Extraction against frozen pins, from a cold and from a warm cache."""

    def _check(self, golden, order, cold):
        stencils = stencils_from_json(golden["stencils"])
        for i in order:
            entry = golden["entries"][i]
            if cold:
                afw.clear_parse_cache()
            got = encode(outcome(entry, stencils), golden["fields"])
            assert got == json.dumps(entry[4], sort_keys=True), entry[:4]

    def test_fields(self, golden):
        assert list(record(KernelMetrics())) == golden["fields"]

    def test_cold(self, golden):
        self._check(golden, range(len(golden["entries"])), cold=True)

    def test_warm_shuffled(self, golden):
        order = list(range(len(golden["entries"])))
        random.Random(0).shuffle(order)
        afw.clear_parse_cache()
        self._check(golden, order, cold=False)

    @staticmethod
    def _estimate_outcome(args) -> "dict | str":
        try:
            return record(estimate_kernel(*args, "MI210").metrics)
        except KernelLaunchError:
            pass  # rejected in extraction or in composition: see below
        except Exception as e:
            return f"{type(e).__name__}: {e}"
        try:
            return record(perfmodel._metrics_for(*args, None))
        except Exception as e:
            return f"{type(e).__name__}: {e}"

    def test_estimate_path(self, golden):
        """The estimator's per-shape path against the frozen records.

        ``estimate_kernel`` generates and parses one source per
        kernel-body shape and binds each setting's macros onto it; the
        metrics it prices must equal the record extracted from the
        setting's own source.  Where composition rejects the launch on
        the GPU, the metrics are read from the same memoized path.
        """
        stencils = stencils_from_json(golden["stencils"])
        perfmodel._metrics_for.cache_clear()
        perfmodel._shape_source.cache_clear()
        afw.clear_parse_cache()
        checked = 0
        for name, oc, dialect, values, want in golden["entries"]:
            if dialect != "cuda":
                continue
            setting = ParamSetting(**dict(zip(PARAM_NAMES, values)))
            got = self._estimate_outcome((stencils[name], OC.parse(oc), setting))
            assert encode(got, golden["fields"]) == json.dumps(want, sort_keys=True), (
                name, oc, values,
            )
            checked += 1
        assert checked == 802


def _full_fold(macros: dict, kernel) -> dict:
    """Every macro plus each initialized local that folds, in order."""
    env = dict(macros)
    for stmt, _ in ir.walk_stmts(kernel.body):
        if isinstance(stmt, ir.VarDecl) and stmt.init is not None:
            v = E.eval_const(stmt.init, env)
            if v is not None:
                env[stmt.name] = v
    return env


#: Locals that read a bound macro through another local, before their
#: declaration, under a macro's name, twice, or through a builtin.
_TANGLED = """
#define BLOCK_X 32
#define BLOCK_Y 4
#define STREAM_TILES 2
#define NX 64
#define NY 64
#define WIDTH 7
__global__ void tangled(const double* __restrict__ in, double* __restrict__ out)
{
    const int a = BLOCK_X * 2;
    const int b = a + NX;
    const int c = NX / 4;
    const int d = late + 1;
    const int late = c * 2;
    const int w = WIDTH * 3;
    const int WIDTH = BLOCK_Y + 1;
    const int v = WIDTH * 3;
    const int f = threadIdx.x + c;
    const int g = f + BLOCK_X;
    const int tile_len = NY / STREAM_TILES;
    if (c > 0) {
        const int h = c + 1;
        const int k = h * 2;
        const int h = BLOCK_X / 4;
    }
    const int i = h * 2;
    out[0] = in[0];
}
"""


class TestBinding:
    """A kernel body's locals that read no bound macro fold once per
    shape; binding a setting's macro values must give the environment a
    full fold of its own source gives."""

    OVERLAYS = [
        {"BLOCK_X": float(bx), "BLOCK_Y": float(by), "STREAM_TILES": float(st)}
        for bx, by, st in ((32, 4, 2), (16, 1, 1), (256, 16, 8), (64, 8, 4))
    ]

    @staticmethod
    def _binding(unit, values):
        body = perfmodel._Body.of(unit.kernel)
        unbound = {k: v for k, v in values.items() if k not in perfmodel._BOUND}
        return perfmodel._Binding.of(body, unbound)

    def test_tangled_locals(self):
        unit = ir.parse_unit(_TANGLED)
        binding = self._binding(unit, unit.macros)
        assert binding.bound_by - perfmodel._BOUND == {
            "a", "b", "d", "late", "w", "WIDTH", "v", "g", "tile_len", "h", "k", "i",
        }
        assert binding.env["c"] == 16.0 and "f" not in binding.env  # f reads a builtin
        # g reads f, which no binding defines, so it is never re-folded.
        assert [name for name, _ in binding.replay] == [
            "a", "b", "d", "late", "w", "WIDTH", "v", "tile_len", "h", "k", "h", "i",
        ]
        for overlay in self.OVERLAYS:
            values = {k: overlay.get(k, v) for k, v in unit.macros.items()}
            assert binding.bind(values) == _full_fold(values, unit.kernel), overlay

    def test_golden_sources(self, golden):
        """One binding per parsed body serves every source sharing it."""
        stencils = stencils_from_json(golden["stencils"])
        afw.clear_parse_cache()
        bindings = {}
        checked = 0
        for entry in golden["entries"]:
            try:
                unit = afw.parse_unit_cached(source_of(entry, stencils))
            except Exception:
                continue
            if not unit.kernels:
                continue
            unbound = {k: v for k, v in unit.macros.items() if k not in perfmodel._BOUND}
            key = (id(unit.kernel), tuple(unbound.items()))
            if key not in bindings:  # holding the kernel keeps its id unique
                bindings[key] = (unit.kernel, self._binding(unit, unit.macros))
            binding = bindings[key][1]
            assert binding.bind(unit.macros) == _full_fold(unit.macros, unit.kernel), entry[:4]
            checked += 1
        assert checked > len(bindings) > 100

    def test_bound_trip_count_and_strides(self):
        """A merge loop whose trip count, lane stride and block coverage
        read bound macros: binding each setting onto one parsed unit must
        extract what a fresh parse of that setting's source does."""
        source = generate_cuda(
            get("star2d1r"), OC.parse("BM"),
            ParamSetting(block_x=32, block_y=4, merge_factor=2, merge_dim=1),
        )
        for old, new in (
            ("mi < 2", "mi < STREAM_UNROLL"),
            ("threadIdx.x * 2", "threadIdx.x * STREAM_UNROLL"),
            ("(BLOCK_X * 2)", "(BLOCK_X * STREAM_UNROLL)"),
            ("#define BLOCK_X 32", "#define BLOCK_X 32\n#define STREAM_UNROLL 2"),
        ):
            assert old in source
            source = source.replace(old, new)
        unit = ir.parse_unit(source)
        for bx, unroll in ((32, 2), (64, 4), (16, 2), (32, 4), (64, 2)):
            own = source.replace("BLOCK_X 32", f"BLOCK_X {bx}").replace(
                "STREAM_UNROLL 2", f"STREAM_UNROLL {unroll}"
            )
            bound = extract_metrics(unit, macros={"BLOCK_X": bx, "STREAM_UNROLL": unroll})
            want = extract_metrics(ir.parse_unit(own))
            assert (bound.merge_factor, bound.tx_stride) == (unroll, unroll)
            assert record(bound) == record(want), (bx, unroll)

    def test_concurrent_bindings_agree(self):
        """Threads extracting settings that share parsed bodies, and so
        bindings and their memos, get what a fresh parse of each gives."""
        stencil, oc = get("star2d2r"), OC.parse("ST_RT")
        sources = [generate_cuda(stencil, oc, s) for s in feasible_settings(stencil, oc, 24, 5)]

        def text(metrics):
            return json.dumps(record(metrics), sort_keys=True)

        want = [text(extract_metrics(ir.parse_unit(s))) for s in sources]
        afw.clear_parse_cache()
        barrier = threading.Barrier(4, timeout=60)

        def extract_all(k):
            barrier.wait()
            order = list(range(len(sources)))
            got = {i: text(extract_metrics(sources[i])) for i in order[k:] + order[:k]}
            return [got[i] for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(extract_all, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len({id(afw.parse_unit_cached(s).kernel) for s in sources}) < len(sources)
        for got in results:
            assert got == want

    def test_memo_keys_on_the_bound_values_read(self):
        unit = ir.parse_unit(_TANGLED)
        binding = self._binding(unit, unit.macros)
        calls = []

        def twice_a(env):
            calls.append(env.get("a"))
            return 2 * env.get("a")

        def c_plus(env):
            calls.append(env.get("c"))
            return env.get("c") + 1

        for bx in (32.0, 16.0, 32.0, 16.0):
            env = binding.bind({**unit.macros, "BLOCK_X": bx})
            assert binding.derived("a", env, twice_a) == 4 * bx
            assert binding.derived("c", env, c_plus) == 17.0
        # a reads BLOCK_X: once per value; c reads none: once.
        assert calls == [64.0, 16.0, 32.0]


class TestAnalyticalFeatures:
    def test_vector_width_and_finiteness(self):
        stencil, oc, setting, _ = _fixture("star2d1r", "ST_RT")
        v = analytical_features(stencil, oc, setting, "V100")
        assert len(v) == len(ANALYTICAL_FEATURE_NAMES)
        assert all(x == x and abs(x) < 1e9 for x in v)
        assert v[-1] == 0.0  # crash flag clear

    def test_rejected_configuration_sets_crash_flag(self):
        stencil = get("star2d3r")
        oc = OC.parse("ST_RT_TB")
        # Deep temporal halo over a tiny covered range: the launch
        # check must reject it, and the feature vector flags it.
        bad = ParamSetting(
            block_x=16, use_smem=1, stream_dim=2, temporal_steps=4
        )
        v = analytical_features(stencil, oc, bad, "V100")
        assert v[-1] == 1.0
        assert all(x == 0.0 for x in v[:-1])
