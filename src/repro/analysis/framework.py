"""Pass framework: analysis context, rule metadata, the analyzer driver.

A pass is a stateless object with a ``run(ctx)`` method returning
:class:`~repro.analysis.findings.Finding`s.  The :class:`AnalysisContext`
carries everything a pass may consult: the parsed IR, resolved macros,
and -- when the kernel came from the generator rather than a bare
snippet -- the originating ``(stencil, OC, setting)`` triple plus the
:class:`~repro.optimizations.kernelmodel.KernelProfile` the simulator
would price for it.  Passes that cross-check codegen against the model
require that context and skip cleanly without it, so the same analyzer
runs over golden snippets and over the full generated sweep.
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import KernelLaunchError, OptimizationError
from ..optimizations import kernelmodel
from . import ir
from .findings import Baseline, Finding, Report, Severity, Suppressions

# ----------------------------------------------------------------------
# content-keyed parse memoization
# ----------------------------------------------------------------------
#: Maximum cached translation units, and separately cached kernel
#: bodies; a full library sweep is a few hundred sources, so this never
#: evicts in practice.
PARSE_CACHE_CAPACITY = 4096

_parse_lock = threading.Lock()
_parse_cache: "OrderedDict[str, ir.TranslationUnit]" = OrderedDict()
_body_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_parse_hits = 0
_parse_misses = 0
_body_hits = 0
_body_misses = 0


def _remember(cache: OrderedDict, key, value):
    """Store *value* unless another thread stored one first (call under
    the lock); evicts the oldest entries beyond capacity."""
    value = cache.setdefault(key, value)
    cache.move_to_end(key)
    while len(cache) > PARSE_CACHE_CAPACITY:
        cache.popitem(last=False)
    return value


def _parse_body_cached(lines: tuple) -> tuple:
    """:func:`ir.parse_body`, memoized on the body lines."""
    global _body_hits, _body_misses
    with _parse_lock:
        body = _body_cache.get(lines)
        if body is not None:
            _body_hits += 1
            _body_cache.move_to_end(lines)
            return body
    parsed = ir.parse_body(lines)  # parse outside the lock: it can raise
    with _parse_lock:
        _body_misses += 1
        return _remember(_body_cache, lines, parsed)


def parse_unit_cached(source: str) -> ir.TranslationUnit:
    """Parse *source*, memoized at two levels.

    Lint and the performance-model extraction walk the same emitted
    sources; keying on a BLAKE2b digest of the text means each distinct
    unit parses once per process regardless of which pass asks first.
    On a miss only the header (macros and metadata) is read again when
    the kernel body -- the source minus ``#define`` lines and comments,
    keyed with its line numbers -- was parsed before: the tuning
    settings of one (stencil, OC) mostly differ in macros alone, and
    their units then share the same :class:`~repro.analysis.ir.Kernel`
    objects.  Callers treat the returned unit as read-only (every pass
    does); parse errors are never cached.
    """
    global _parse_hits, _parse_misses
    key = hashlib.blake2b(source.encode("utf-8"), digest_size=16).hexdigest()
    with _parse_lock:
        unit = _parse_cache.get(key)
        if unit is not None:
            _parse_hits += 1
            _parse_cache.move_to_end(key)
            return unit
    parsed = ir.parse_unit(source, body_parser=_parse_body_cached)
    with _parse_lock:
        _parse_misses += 1
        return _remember(_parse_cache, key, parsed)


def parse_cache_info() -> dict:
    """Hit/miss counters, mirroring ``CachingBackend.cache_info``.

    ``hits``/``misses``/``size`` count whole sources; ``body_hits`` and
    ``body_misses`` count the kernel-body lookups of whole-source misses.
    """
    with _parse_lock:
        total = _parse_hits + _parse_misses
        return {
            "hits": _parse_hits,
            "misses": _parse_misses,
            "size": len(_parse_cache),
            "capacity": PARSE_CACHE_CAPACITY,
            "hit_rate": _parse_hits / total if total else 0.0,
            "body_hits": _body_hits,
            "body_misses": _body_misses,
        }


def clear_parse_cache() -> None:
    """Drop every cached unit, body, statement line and expression;
    reset the counters.

    Structural facts that analyses memoize on a kernel
    (:attr:`~repro.analysis.ir.Kernel.memo`) go with it: the next parse
    builds fresh kernels.
    """
    global _parse_hits, _parse_misses, _body_hits, _body_misses
    with _parse_lock:
        _parse_cache.clear()
        _body_cache.clear()
        ir._parse_expr.cache_clear()
        ir._parse_line_text.cache_clear()
        _parse_hits = _parse_misses = _body_hits = _body_misses = 0


@dataclass(frozen=True)
class RuleInfo:
    """Documentation record for one rule id."""

    rule: str
    severity: Severity
    title: str
    rationale: str


@dataclass
class AnalysisContext:
    """Everything the passes can see about one translation unit."""

    source: str
    unit: ir.TranslationUnit
    macros: dict = field(default_factory=dict)
    stencil: object = None  # repro.stencil.Stencil | None
    oc: object = None  # repro.optimizations.OC | None
    setting: object = None  # repro.optimizations.ParamSetting | None
    grid: tuple | None = None
    profile: object = None  # KernelProfile | None
    profile_error: str | None = None
    gpu: object = None  # repro.gpu.GPUSpec | None (target device, if any)
    warp_size: int = 32  # scheduling width of the target device
    dialect: str = "cuda"  # source dialect ("cuda" | "hip")

    @property
    def has_model(self) -> bool:
        return self.profile is not None


class AnalysisPass(ABC):
    """Base class for analyzer passes."""

    #: Short machine name, used in ``repro lint --passes``.
    name: str = ""
    #: Rules this pass can emit (id -> documentation).
    rules: tuple = ()

    @abstractmethod
    def run(self, ctx: AnalysisContext) -> list:
        """Return the findings for *ctx* (possibly empty)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<pass {self.name}>"


def build_context(
    source: str,
    *,
    stencil=None,
    oc=None,
    setting=None,
    grid=None,
    gpu=None,
) -> AnalysisContext:
    """Parse *source* and attach model context when the triple is known.

    ``build_profile`` failures are carried as ``profile_error`` instead of
    raising: an infeasible configuration (e.g. a temporal halo consuming
    the tile) is a property of the triple, not a lint crash.

    ``gpu`` (a :class:`~repro.gpu.GPUSpec` or name) selects the target
    device: its scheduling width feeds the profile's coalescing model and
    the warp-sensitive rules, and the parsed ``// dialect:`` metadata (or
    the default ``"cuda"``) is recorded so dialect-aware passes can tell
    HIP from CUDA sources.
    """
    unit = parse_unit_cached(source)
    if gpu is not None and isinstance(gpu, str):
        from ..gpu.specs import get_gpu

        gpu = get_gpu(gpu)
    warp_size = 32 if gpu is None else gpu.warp_size
    profile = None
    profile_error = None
    if stencil is not None and oc is not None and setting is not None:
        try:
            profile = kernelmodel.build_profile(
                stencil, oc, setting, grid, warp_size=warp_size
            )
        except (KernelLaunchError, OptimizationError) as e:
            profile_error = str(e)
    return AnalysisContext(
        source=source,
        unit=unit,
        macros=dict(unit.macros),
        stencil=stencil,
        oc=oc,
        setting=setting,
        grid=grid,
        profile=profile,
        profile_error=profile_error,
        gpu=gpu,
        warp_size=warp_size,
        dialect=unit.meta.get("dialect", "cuda"),
    )


def default_passes() -> list:
    """The standard pass pipeline, in execution order."""
    from .rules_bounds import BoundsPass
    from .rules_conformance import ConformancePass
    from .rules_memory import MemoryAccessPass
    from .rules_race import RacePass
    from .rules_resources import ResourcePass

    return [RacePass(), BoundsPass(), ResourcePass(), ConformancePass(), MemoryAccessPass()]


def all_rules() -> list:
    """Documentation records for every registered rule, sorted by id."""
    return sorted(
        (info for p in default_passes() for info in p.rules),
        key=lambda r: r.rule,
    )


class Analyzer:
    """Runs a pass pipeline over one translation unit."""

    def __init__(self, passes: "list | None" = None):
        self.passes = default_passes() if passes is None else list(passes)

    def analyze(
        self,
        source: str,
        *,
        stencil=None,
        oc=None,
        setting=None,
        grid=None,
        gpu=None,
        baseline: "Baseline | None" = None,
    ) -> Report:
        """Analyze one source (CUDA or HIP); returns the filtered report."""
        suppressions = Suppressions.scan(source)
        try:
            ctx = build_context(
                source, stencil=stencil, oc=oc, setting=setting, grid=grid,
                gpu=gpu,
            )
        except Exception as e:  # ParseError or ExprError from the IR layer
            finding = Finding.make(
                "PARSE001",
                Severity.ERROR,
                f"cannot parse kernel source: {e}",
            )
            return Report.filtered([finding], suppressions, baseline)

        findings: list = []
        for p in self.passes:
            findings.extend(p.run(ctx))
        return Report.filtered(findings, suppressions, baseline)
