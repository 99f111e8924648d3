"""The :class:`Stencil` access-pattern model.

A :class:`Stencil` is the central object of the reproduction: an immutable
set of neighbor offsets (plus the central point) in 2 or 3 dimensions.  It
knows its order, per-shell population, and can apply itself to a NumPy grid
(the reference semantics used by correctness tests and the quickstart
example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import StencilError
from . import offsets as off
from .offsets import Offset


@dataclass(frozen=True)
class Stencil:
    """An immutable stencil access pattern.

    Parameters
    ----------
    ndim:
        Grid dimensionality (2 or 3).
    offsets:
        Neighbor offsets relative to the updated point.  The central point
        (all zeros) is always part of the access pattern and is added
        automatically if missing.
    name:
        Optional human-readable name (e.g. ``"star2d1r"``).

    Notes
    -----
    Coefficients are uniform: the paper's random stencil programs sum the
    accessed neighbors with constant weights, and its representation (binary
    tensor / Table II features) is coefficient-blind, so the model carries
    the access pattern only.
    """

    ndim: int
    offsets: frozenset[Offset]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.ndim not in off.SUPPORTED_NDIMS:
            raise StencilError(f"ndim must be one of {off.SUPPORTED_NDIMS}, got {self.ndim}")
        pts = frozenset(off.validate_offset(p, self.ndim) for p in self.offsets)
        center = (0,) * self.ndim
        pts = pts | {center}
        if len(pts) < 2:
            raise StencilError("a stencil must access at least one neighbor")
        object.__setattr__(self, "offsets", pts)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_points(
        cls, points: "list[tuple[int, ...]] | set[tuple[int, ...]]", name: str = ""
    ) -> "Stencil":
        """Build a stencil from an iterable of offsets, inferring ``ndim``."""
        pts = list(points)
        if not pts:
            raise StencilError("empty point list")
        ndim = len(pts[0])
        return cls(ndim=ndim, offsets=frozenset(tuple(p) for p in pts), name=name)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @cached_property
    def order(self) -> int:
        """Maximum Chebyshev extent of any accessed neighbor."""
        return max(off.chebyshev(p) for p in self.offsets)

    @cached_property
    def nnz(self) -> int:
        """Number of accessed points, central point included."""
        return len(self.offsets)

    @cached_property
    def sorted_offsets(self) -> tuple[Offset, ...]:
        """Offsets in deterministic lexicographic order."""
        return tuple(sorted(self.offsets))

    def shell_counts(self, max_order: int | None = None) -> list[int]:
        """Number of accessed points at each Chebyshev distance ``0..R``.

        ``R`` defaults to the stencil's own order; pass *max_order* to pad
        with zeros (used when featurising against a fixed tensor size).
        """
        R = self.order if max_order is None else max_order
        counts = [0] * (R + 1)
        for p in self.offsets:
            d = off.chebyshev(p)
            if d <= R:
                counts[d] += 1
        return counts

    @cached_property
    def axis_extents(self) -> tuple[int, ...]:
        """Maximum absolute displacement along each dimension."""
        return tuple(
            max(abs(p[d]) for p in self.offsets) for d in range(self.ndim)
        )

    @cached_property
    def is_symmetric(self) -> bool:
        """True when the pattern is invariant under point reflection."""
        return all(tuple(-c for c in p) in self.offsets for p in self.offsets)

    def distances(self) -> np.ndarray:
        """Euclidean distances of all accessed points from the center."""
        pts = np.array(self.sorted_offsets, dtype=np.float64)
        return np.sqrt((pts**2).sum(axis=1))

    # ------------------------------------------------------------------
    # reference execution semantics
    # ------------------------------------------------------------------
    def apply(self, grid: np.ndarray, coefficient: float | None = None) -> np.ndarray:
        """Apply one Jacobi-style sweep of the stencil to *grid*.

        Each interior output point becomes the coefficient-weighted sum of
        its accessed neighbors; boundary points (within ``order`` of an
        edge) are copied through unchanged, matching the paper's
        boundary-free kernels.  This NumPy implementation (shifted views,
        no Python loop over grid points -- see the repository's
        hpc-parallel guide notes) is the correctness oracle for the code
        generator and the quickstart example, not a performance vehicle.

        Parameters
        ----------
        grid:
            Input array with ``ndim`` matching the stencil.
        coefficient:
            Weight applied to every accessed point.  Defaults to
            ``1 / nnz`` (an averaging stencil, which is numerically stable
            under repeated sweeps).
        """
        if grid.ndim != self.ndim:
            raise StencilError(
                f"grid has {grid.ndim} dims, stencil expects {self.ndim}"
            )
        r = self.order
        if any(s <= 2 * r for s in grid.shape):
            raise StencilError(
                f"grid shape {grid.shape} too small for order-{r} stencil"
            )
        c = 1.0 / self.nnz if coefficient is None else float(coefficient)
        out = grid.astype(np.float64, copy=True)
        interior = tuple(slice(r, s - r) for s in grid.shape)
        acc = np.zeros_like(out[interior])
        for p in self.sorted_offsets:
            src = tuple(
                slice(r + d, s - r + d) for d, s in zip(p, grid.shape)
            )
            acc += grid[src]
        out[interior] = c * acc
        return out

    def flops_per_point(self) -> int:
        """Floating-point operations per updated point.

        One multiply per accessed point plus ``nnz - 1`` adds, the cost
        model used by the simulator and by roofline accounting.
        """
        return 2 * self.nnz - 1

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "stencil"
        return (
            f"Stencil({label}, ndim={self.ndim}, order={self.order}, "
            f"nnz={self.nnz})"
        )

    def cache_key(self) -> tuple:
        """A hashable identity used to key deterministic noise and caches."""
        return (self.ndim, self.sorted_offsets)
