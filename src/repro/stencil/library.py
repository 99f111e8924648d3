"""Named benchmark stencils used by the paper's motivation and figures.

The representative set "covers a variety of shapes (star, box and cross),
orders (1-4) and dimensions (2-D and 3-D)" (Section III): 24 stencils,
``{star,box,cross} x {2d,3d} x {1..4}r``.  Figures 1 and 4 plot these by
name (``cross2d1r``, ``box3d4r``, ...).
"""

from __future__ import annotations

from ..config import MAX_ORDER
from ..errors import UnknownStencilError
from . import shapes
from .stencil import Stencil

_SHAPE_BUILDERS = {
    "star": shapes.star,
    "box": shapes.box,
    "cross": shapes.cross,
}


def _build_library() -> dict[str, Stencil]:
    lib: dict[str, Stencil] = {}
    for shape in ("star", "box", "cross"):
        for ndim in (2, 3):
            for order in range(1, MAX_ORDER + 1):
                name = f"{shape}{ndim}d{order}r"
                lib[name] = _SHAPE_BUILDERS[shape](ndim, order, name=name)
    return lib


#: All named benchmark stencils, keyed by name.
LIBRARY: dict[str, Stencil] = _build_library()


def get(name: str) -> Stencil:
    """Look up a named benchmark stencil (e.g. ``"box3d3r"``).

    Raises :class:`~repro.errors.UnknownStencilError` (a ``KeyError``)
    naming every known stencil.
    """
    try:
        return LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(LIBRARY))
        raise UnknownStencilError(
            f"unknown stencil {name!r}; known: {known}"
        ) from None


def names(ndim: int | None = None) -> list[str]:
    """Benchmark stencil names, optionally filtered by dimensionality.

    Ordered shape-major then order, matching the figure x-axes.
    """
    out = [n for n, s in LIBRARY.items() if ndim is None or s.ndim == ndim]
    return sorted(out, key=lambda n: (LIBRARY[n].ndim, _shape_rank(n), LIBRARY[n].order))


def _shape_rank(name: str) -> int:
    for i, shape in enumerate(("star", "box", "cross")):
        if name.startswith(shape):
            return i
    return 99


def benchmark_stencils(ndim: int | None = None) -> list[Stencil]:
    """The benchmark stencils as a list, in figure order."""
    return [LIBRARY[n] for n in names(ndim)]
