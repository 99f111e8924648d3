"""Offset arithmetic for stencil access patterns.

A stencil is a set of integer *offsets* relative to the point being updated
(the *central point*).  Throughout this package an offset is a plain tuple of
``ndim`` Python ints, e.g. ``(-1, 0)`` for the west neighbor of a 2-D
stencil.  The *order* of an offset is its Chebyshev (L-infinity) distance
from the center, matching the paper's definition of stencil order as "the
extent of the neighbors along each dimension": an order-``k`` stencil
touches points whose largest per-dimension displacement is ``k``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

Offset = tuple[int, ...]

#: Dimensionalities supported by the paper's pipeline.
SUPPORTED_NDIMS = (2, 3)


def validate_offset(offset: Sequence[int], ndim: int) -> Offset:
    """Normalise *offset* to a tuple of ints and check its dimensionality."""
    tup = tuple(int(c) for c in offset)
    if len(tup) != ndim:
        raise ValueError(f"offset {tup} has {len(tup)} coords, expected {ndim}")
    return tup


def chebyshev(offset: Offset) -> int:
    """Chebyshev (L-infinity) distance of *offset* from the central point."""
    return max(abs(c) for c in offset)


def manhattan(offset: Offset) -> int:
    """Manhattan (L1) distance of *offset* from the central point."""
    return sum(abs(c) for c in offset)


def euclidean_sq(offset: Offset) -> int:
    """Squared Euclidean distance of *offset* from the central point."""
    return sum(c * c for c in offset)


def order_of(offset: Offset) -> int:
    """The neighbor order of *offset* (alias for :func:`chebyshev`)."""
    return chebyshev(offset)


def moore_neighbors(offset: Offset) -> list[Offset]:
    """All points at Chebyshev distance exactly 1 from *offset*.

    For ``d`` dimensions this is the Moore neighborhood of ``3**d - 1``
    points.  The input point itself is excluded.
    """
    deltas = itertools.product((-1, 0, 1), repeat=len(offset))
    out = []
    for delta in deltas:
        if all(d == 0 for d in delta):
            continue
        out.append(tuple(o + d for o, d in zip(offset, delta)))
    return out


def neighbors_of_set(points: Iterable[Offset]) -> set[Offset]:
    """Union of Moore neighborhoods over *points* (points excluded)."""
    pts = set(points)
    out: set[Offset] = set()
    for p in pts:
        out.update(moore_neighbors(p))
    return out - pts


def shell(ndim: int, order: int) -> list[Offset]:
    """All offsets at Chebyshev distance exactly *order* in *ndim* dims.

    ``shell(2, 0) == [(0, 0)]``; ``shell(2, 1)`` has 8 points, etc.
    Points are returned in lexicographic coordinate order so the result is
    deterministic.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order == 0:
        return [(0,) * ndim]
    rng = range(-order, order + 1)
    return [
        p for p in itertools.product(rng, repeat=ndim) if chebyshev(p) == order
    ]


def shell_size(ndim: int, order: int) -> int:
    """Number of offsets at Chebyshev distance exactly *order*.

    Equals ``(2k+1)^d - (2k-1)^d`` for ``k = order > 0`` and 1 for order 0.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order == 0:
        return 1
    return (2 * order + 1) ** ndim - (2 * order - 1) ** ndim


def ball(ndim: int, order: int) -> list[Offset]:
    """All offsets with Chebyshev distance <= *order* (a full box)."""
    rng = range(-order, order + 1)
    return list(itertools.product(rng, repeat=ndim))


def on_axis(offset: Offset) -> bool:
    """True when *offset* lies on a coordinate axis (<= 1 nonzero coord)."""
    return sum(1 for c in offset if c != 0) <= 1


def is_full_diagonal(offset: Offset) -> bool:
    """True when every coordinate is nonzero with the same magnitude."""
    mags = {abs(c) for c in offset}
    return 0 not in {abs(c) for c in offset} and len(mags) == 1
