"""The macro-only parameter contract of the code generator.

``MACRO_ONLY_PARAMS`` reach the source only as ``#define`` values, so
the static estimator parses one source per kernel-body shape and binds
each setting's values onto it
(:func:`repro.analysis.perfmodel._metrics_for`).  That is exact only if,
for every variant the generator emits, changing such a parameter leaves
the kernel and host text byte-identical, changes no ``#define`` but the
parameter's own, and that ``#define`` reads back (through
:func:`repro.analysis.ir.scan_header`) as the parameter's value with the
same type the binding uses.
"""

import functools

import pytest

from repro.analysis import ir
from repro.analysis.lint import feasible_settings
from repro.codegen import generate_cuda
from repro.codegen.core import MACRO_ONLY_PARAMS
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.params import PARAM_SPECS
from repro.stencil.library import LIBRARY

CHOICES = {s.name: s.choices for s in PARAM_SPECS}


@functools.lru_cache(maxsize=None)
def _sweep():
    return [
        (s, oc, st)
        for s in LIBRARY.values()
        for oc in ALL_OCS
        for st in feasible_settings(s, oc, 1, seed=0)
    ]


def _split(source: str):
    lines = source.splitlines()
    return (
        [line for line in lines if not line.startswith("#define")],
        [line for line in lines if line.startswith("#define")],
    )


@pytest.mark.parametrize("param", MACRO_ONLY_PARAMS)
def test_changing_a_macro_only_param_changes_only_its_define(param):
    macro = f"#define {param.upper()} "
    checked = 0
    for stencil, oc, setting in _sweep():
        base = generate_cuda(stencil, oc, setting)
        base_text, base_defines = _split(base)
        base_macros = ir.scan_header(base).macros
        for value in CHOICES[param]:
            if value == setting[param]:
                continue
            other = setting.replace(**{param: value})
            changed = generate_cuda(stencil, oc, other)
            text, defines = _split(changed)
            assert text == base_text, (stencil.name, oc.name, param, value)
            assert len(defines) == len(base_defines)
            for old, new in zip(base_defines, defines):
                if old != new:
                    assert old.startswith(macro) and new == f"{macro}{value}", (old, new)
            # Binding the setting's macros the way the estimator does
            # gives what the header scan reads, in type too.
            overlay = {p.upper(): other[p] for p in MACRO_ONLY_PARAMS}
            bound = {k: overlay.get(k, v) for k, v in base_macros.items()}
            macros = ir.scan_header(changed).macros
            assert macros == bound
            assert [type(v) for v in macros.values()] == [type(v) for v in bound.values()]
            checked += 1
    assert checked > 0
