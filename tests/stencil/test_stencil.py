"""Unit tests for the Stencil class and reference apply semantics."""

import numpy as np
import pytest

from repro.errors import StencilError
from repro.stencil import Stencil, box, cross, star


class TestConstruction:
    def test_center_added_automatically(self):
        s = Stencil(ndim=2, offsets=frozenset({(1, 0)}))
        assert (0, 0) in s.offsets
        assert s.nnz == 2

    def test_rejects_bad_ndim(self):
        with pytest.raises(StencilError):
            Stencil(ndim=4, offsets=frozenset({(1, 0, 0, 0)}))

    def test_rejects_center_only(self):
        with pytest.raises(StencilError):
            Stencil(ndim=2, offsets=frozenset())

    def test_rejects_mismatched_offsets(self):
        with pytest.raises(ValueError):
            Stencil(ndim=2, offsets=frozenset({(1, 0, 0)}))

    def test_from_points_infers_ndim(self):
        s = Stencil.from_points([(1, 0, 0), (-1, 0, 0)])
        assert s.ndim == 3

    def test_equality_ignores_name(self):
        a = star(2, 1, name="a")
        b = star(2, 1, name="b")
        assert a == b

    def test_hashable(self):
        assert len({star(2, 1), star(2, 1), box(2, 1)}) == 2


class TestProperties:
    def test_star_order_and_nnz(self):
        s = star(2, 2)
        assert s.order == 2
        assert s.nnz == 9  # center + 2 per direction per axis

    def test_box_nnz(self):
        assert box(2, 1).nnz == 9
        assert box(3, 1).nnz == 27
        assert box(3, 4).nnz == 9**3

    def test_cross_nnz_2d(self):
        # star(2,1) has 5 points; diagonals add 4.
        assert cross(2, 1).nnz == 9
        assert cross(2, 2).nnz == 17

    def test_shell_counts_pad(self):
        s = star(2, 1)
        assert s.shell_counts(3) == [1, 4, 0, 0]

    def test_axis_extents_asymmetric(self):
        s = Stencil.from_points([(3, 0), (0, 1)])
        assert s.axis_extents == (3, 1)

    def test_symmetric(self):
        assert star(3, 2).is_symmetric
        assert not Stencil.from_points([(1, 0)]).is_symmetric

    def test_distances_sorted_with_offsets(self):
        s = star(2, 1)
        d = s.distances()
        assert d.shape == (5,)
        assert np.isclose(sorted(d)[0], 0.0)

    def test_flops(self):
        assert star(2, 1).flops_per_point() == 9

    def test_cache_key_distinguishes(self):
        assert star(2, 1).cache_key() != box(2, 1).cache_key()


class TestApply:
    def test_constant_field_fixed_point(self):
        g = np.full((16, 16), 3.0)
        out = star(2, 1).apply(g)
        assert np.allclose(out, 3.0)

    def test_boundary_untouched(self):
        rng = np.random.default_rng(0)
        g = rng.random((12, 12))
        out = star(2, 2).apply(g)
        assert np.array_equal(out[:2, :], g[:2, :])
        assert np.array_equal(out[:, -2:], g[:, -2:])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        g = rng.random((10, 10))
        s = cross(2, 1)
        out = s.apply(g, coefficient=0.5)
        i, j = 4, 5
        expected = 0.5 * sum(g[i + di, j + dj] for (di, dj) in s.offsets)
        assert np.isclose(out[i, j], expected)

    def test_3d_apply(self):
        g = np.ones((8, 8, 8))
        out = star(3, 1).apply(g)
        assert np.allclose(out, 1.0)

    def test_rejects_wrong_ndim_grid(self):
        with pytest.raises(StencilError):
            star(2, 1).apply(np.ones((4, 4, 4)))

    def test_rejects_tiny_grid(self):
        with pytest.raises(StencilError):
            star(2, 4).apply(np.ones((8, 8)))

    def test_input_not_mutated(self):
        g = np.arange(100, dtype=float).reshape(10, 10)
        snapshot = g.copy()
        star(2, 1).apply(g)
        assert np.array_equal(g, snapshot)
