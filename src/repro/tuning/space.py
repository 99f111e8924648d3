"""Declarative tuning spaces with kernel_tuner-style restrictions.

A :class:`ParameterSpace` names the parameters a tuner may vary, the
choices each may take, and optional *restrictions* -- boolean constraint
expressions over the parameter names (the shape of kernel_tuner's
``restrictions=`` argument)::

    space = ParameterSpace.for_oc(
        oc, ndim=2,
        restrictions=["block_x * block_y <= 1024", "merge_factor <= block_x"],
    )

Restriction expressions use a small, safe grammar: parameter names,
integer/float/boolean literals, arithmetic (``+ - * / // % **``),
comparisons (chained allowed), ``and / or / not``, parentheses, and the
``min`` / ``max`` / ``abs`` functions.  They are parsed once (AST
whitelist -- no attribute access, no subscripts, no arbitrary calls) and
evaluated per candidate setting.  A callable predicate taking the
setting mapping is accepted wherever an expression string is.

Spaces derived from an OC (:meth:`ParameterSpace.for_oc`) sample with
the exact per-parameter draw sequence of the legacy
:func:`repro.optimizations.params.sample_setting`, so an unrestricted
space reproduces pre-refactor tuning streams bit-for-bit.
"""

from __future__ import annotations

import ast
import itertools
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import TuningError
from ..optimizations.combos import OC
from ..optimizations.params import (
    PARAM_NAMES,
    PARAM_SPECS,
    _SPEC_BY_NAME,
    ParamSetting,
    _choices_for,
    relevant_params,
)

__all__ = ["ParameterSpace", "Restriction", "compile_restriction"]

#: Attempts per requested sample before a restricted space is declared
#: too tight to sample by rejection.
_SAMPLE_ATTEMPTS = 200

_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp, ast.And, ast.Or,
    ast.UnaryOp, ast.Not, ast.USub, ast.UAdd,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
    ast.Mod, ast.Pow,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.Call, ast.Name, ast.Load, ast.Constant,
)

_ALLOWED_FUNCS = {"min": min, "max": max, "abs": abs}


def _trusted(key: "tuple[int, ...]") -> ParamSetting:
    """The setting whose layout-order tuple is *key*, unchecked.

    Only for tuples whose every value is its parameter's default or one
    of its spec choices -- which every value of a
    :class:`ParameterSpace` is (checked at construction).
    """
    return ParamSetting._trusted(dict(zip(PARAM_NAMES, key)), key)


class SampledBlock(Sequence):
    """The settings :meth:`ParameterSpace.sample_block` drew, in order.

    ``keys`` holds every draw's layout-order tuple
    (``ParamSetting.as_tuple()``) up front; a setting is built when it
    is first indexed, and repeated draws share one instance.
    """

    __slots__ = ("keys", "_built")

    def __init__(self, keys: "list[tuple[int, ...]]"):
        self.keys = keys
        self._built: dict[tuple[int, ...], ParamSetting] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self.keys)))]
        key = self.keys[i]
        setting = self._built.get(key)
        if setting is None:
            setting = self._built[key] = _trusted(key)
        return setting


class Restriction:
    """One compiled constraint: the source text plus its predicate."""

    __slots__ = ("source", "_predicate")

    def __init__(self, source: str, predicate: Callable[[Mapping[str, int]], bool]):
        self.source = source
        self._predicate = predicate

    def __call__(self, values: Mapping[str, int]) -> bool:
        return bool(self._predicate(values))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Restriction({self.source!r})"


def compile_restriction(
    expr: "str | Callable[[Mapping[str, int]], bool]",
    names: "Sequence[str]" = PARAM_NAMES,
) -> Restriction:
    """Compile one restriction (expression string or callable).

    Raises :class:`~repro.errors.TuningError` on syntax errors, grammar
    violations, or references to parameters outside *names*.
    """
    if callable(expr):
        label = getattr(expr, "__name__", None) or repr(expr)
        return Restriction(f"<callable {label}>", expr)
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as e:
        raise TuningError(f"bad restriction {expr!r}: {e.msg}") from None
    known = set(names)
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise TuningError(
                f"restriction {expr!r}: {type(node).__name__} is not part "
                "of the restriction grammar"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise TuningError(
                    f"restriction {expr!r}: only "
                    f"{sorted(_ALLOWED_FUNCS)} may be called"
                )
            if node.keywords:
                raise TuningError(
                    f"restriction {expr!r}: keyword arguments are not allowed"
                )
        elif isinstance(node, ast.Name):
            if node.id not in known and node.id not in _ALLOWED_FUNCS:
                raise TuningError(
                    f"restriction {expr!r}: unknown parameter {node.id!r} "
                    f"(known: {', '.join(names)})"
                )
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float, bool)):
                raise TuningError(
                    f"restriction {expr!r}: literal {node.value!r} is not "
                    "numeric"
                )
    code = compile(tree, "<restriction>", "eval")

    def predicate(values: Mapping[str, int]) -> bool:
        scope = dict(_ALLOWED_FUNCS)
        scope.update(values)
        return bool(eval(code, {"__builtins__": {}}, scope))

    return Restriction(expr, predicate)


class ParameterSpace:
    """An ordered set of tunable parameters, their choices, restrictions.

    Parameters
    ----------
    params:
        Ordered ``name -> choices`` mapping.  Iteration order is the
        sampling order (one RNG draw per parameter, in order), so two
        spaces with the same mapping produce identical draw sequences.
    restrictions:
        Constraint expressions or callables; a setting belongs to the
        space only if every restriction holds.

    Every choice must be its parameter's default or one of its
    :data:`~repro.optimizations.params.PARAM_SPECS` choices
    (:class:`TuningError` otherwise), so settings drawn from the space
    are valid by construction.
    """

    def __init__(
        self,
        params: "Mapping[str, Sequence[int]]",
        restrictions: "Sequence[str | Callable] | None" = None,
    ):
        if not params:
            raise TuningError("a ParameterSpace needs at least one parameter")
        clean: dict[str, tuple[int, ...]] = {}
        for name, choices in params.items():
            if name not in PARAM_NAMES:
                raise TuningError(
                    f"unknown parameter {name!r} (known: {', '.join(PARAM_NAMES)})"
                )
            choices = tuple(int(c) for c in choices)
            if not choices:
                raise TuningError(f"parameter {name!r} has no choices")
            spec = _SPEC_BY_NAME[name]
            for c in choices:
                if c != spec.default and c not in spec.choices:
                    raise TuningError(
                        f"parameter {name!r}: choice {c} is not in "
                        f"{spec.choices} (default {spec.default})"
                    )
            clean[name] = choices
        # Fixed layout order regardless of mapping insertion order keeps
        # the draw sequence content-determined.
        order = {n: i for i, n in enumerate(PARAM_NAMES)}
        self._params: dict[str, tuple[int, ...]] = {
            n: clean[n] for n in sorted(clean, key=order.__getitem__)
        }
        self.restrictions: tuple[Restriction, ...] = tuple(
            compile_restriction(r, tuple(self._params)) for r in (restrictions or ())
        )
        # Sampling hot-path precomputation: per-parameter draw bounds,
        # the layout-order default tuple, and each parameter's slot in
        # the global layout.  Settings drawn from the space are valid by
        # construction, so they take ParamSetting's trusted fast path
        # instead of re-validating every value.
        self._bounds = np.array([len(c) for c in self._params.values()])
        self._choice_arrays = tuple(np.array(c) for c in self._params.values())
        self._slot = {n: PARAM_NAMES.index(n) for n in self._params}
        self._defaults = tuple(s.default for s in PARAM_SPECS)

    def _make(self, values: "dict[str, int]") -> ParamSetting:
        """Trusted setting from space-drawn values (defaults elsewhere)."""
        tup = list(self._defaults)
        for name, slot in self._slot.items():
            tup[slot] = values[name]
        return _trusted(tuple(tup))

    # ------------------------------------------------------------------
    @classmethod
    def for_oc(
        cls,
        oc: OC,
        ndim: int,
        restrictions: "Sequence[str | Callable] | None" = None,
    ) -> "ParameterSpace":
        """The OC's relevant parameters with their standard choice lists."""
        space = cls(
            {n: _choices_for(n, ndim) for n in relevant_params(oc, ndim)},
            restrictions,
        )
        return space

    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._params)

    def choices(self, name: str) -> tuple[int, ...]:
        try:
            return self._params[name]
        except KeyError:
            raise TuningError(f"parameter {name!r} is not in this space") from None

    @property
    def size(self) -> int:
        """Cartesian cardinality (restrictions not discounted)."""
        n = 1
        for choices in self._params.values():
            n *= len(choices)
        return n

    def allows(self, setting: "ParamSetting | Mapping[str, int]") -> bool:
        """True when *setting* satisfies every restriction."""
        return all(r(setting) for r in self.restrictions)

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> ParamSetting:
        """Draw one setting uniformly per parameter (rejection under
        restrictions).

        The unrestricted draw sequence -- one ``rng.integers(len(choices))``
        per parameter in layout order -- is exactly the legacy
        ``sample_setting`` sequence, which the profiling stream-key
        convention (and every campaign digest) depends on.
        """
        for _ in range(_SAMPLE_ATTEMPTS):
            values = {
                name: int(choices[rng.integers(len(choices))])
                for name, choices in self._params.items()
            }
            if not self.restrictions or self.allows(values):
                return self._make(values)
        raise TuningError(
            f"could not sample a setting satisfying "
            f"{[r.source for r in self.restrictions]} in "
            f"{_SAMPLE_ATTEMPTS} attempts"
        )

    def sample_block(self, count: int, rng: np.random.Generator) -> SampledBlock:
        """Exactly ``count`` :meth:`sample` calls' worth of settings.

        Bit-identical to ``[self.sample(rng) for _ in range(count)]`` --
        numpy's bounded draw with an array of bounds consumes the
        generator stream exactly like the equivalent scalar sequence --
        but the whole block costs one RNG call and a few array
        operations; random search reads few of the settings it draws,
        so each is built only when it is indexed.  Restricted spaces
        fall back to the scalar rejection loop (their stream is already
        setting-dependent).
        """
        if count <= 0:
            return SampledBlock([])
        if self.restrictions:
            return SampledBlock([self.sample(rng).as_tuple() for _ in range(count)])
        idx = rng.integers(np.tile(self._bounds, (count, 1)))
        layout = np.tile(np.array(self._defaults), (count, 1))
        for j, slot in enumerate(self._slot.values()):
            layout[:, slot] = self._choice_arrays[j][idx[:, j]]
        return SampledBlock(list(map(tuple, layout.tolist())))

    def sample_many(
        self, count: int, rng: np.random.Generator
    ) -> list[ParamSetting]:
        """*count* distinct settings (deduplicated, bounded retries)."""
        out: list[ParamSetting] = []
        seen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(out) < count and attempts < count * 40:
            attempts += 1
            s = self.sample(rng)
            if s.as_tuple() in seen:
                continue
            seen.add(s.as_tuple())
            out.append(s)
        return out

    def enumerate(self) -> Iterator[ParamSetting]:
        """Every setting of the space, restrictions applied, layout order."""
        names = self.names
        for combo in itertools.product(*(self._params[n] for n in names)):
            values = dict(zip(names, combo))
            if not self.restrictions or self.allows(values):
                yield self._make(values)

    def neighbors(self, setting: ParamSetting, name: str) -> list[ParamSetting]:
        """Coordinate frontier: *setting* with *name* set to each other
        allowed choice (choice-list order -- the descent walk order)."""
        choices = self.choices(name)
        slot = self._slot[name]
        tup = list(setting.as_tuple())
        base = tup[slot]
        out = []
        for value in choices:
            if value == base:
                continue
            tup[slot] = value
            candidate = _trusted(tuple(tup))
            if not self.restrictions or self.allows(candidate):
                out.append(candidate)
        return out

    def __contains__(self, setting: ParamSetting) -> bool:
        for name, choices in self._params.items():
            if setting[name] not in choices:
                return False
        return self.allows(setting)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{n}:{len(c)}" for n, c in self._params.items())
        return (
            f"ParameterSpace({parts}; size={self.size}, "
            f"{len(self.restrictions)} restriction(s))"
        )
