"""Tests for the named benchmark stencil library."""

import pytest

from repro.errors import ReproError, UnknownStencilError
from repro.stencil import LIBRARY, benchmark_stencils, get, names


class TestLibrary:
    def test_size(self):
        # 3 shapes x 2 dims x 4 orders
        assert len(LIBRARY) == 24

    def test_paper_named_stencils_present(self):
        for name in ("cross2d1r", "box3d3r", "box3d4r", "star2d1r"):
            assert name in LIBRARY

    def test_get_known(self):
        s = get("box3d3r")
        assert s.ndim == 3 and s.order == 3

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get("hex2d1r")

    def test_get_unknown_raises_named_error(self):
        with pytest.raises(UnknownStencilError) as info:
            get("nope")
        assert isinstance(info.value, ReproError)
        message = str(info.value)
        assert message.startswith("unknown stencil 'nope'; known: ")
        assert all(name in message for name in LIBRARY)

    def test_names_filter_by_ndim(self):
        n2 = names(2)
        assert len(n2) == 12
        assert all("2d" in n for n in n2)

    def test_names_ordering_shape_major(self):
        n2 = names(2)
        assert n2[0] == "star2d1r"
        assert n2[3] == "star2d4r"
        assert n2[4] == "box2d1r"

    def test_benchmark_stencils_match_names(self):
        ss = benchmark_stencils(3)
        assert [s.name for s in ss] == names(3)

    def test_every_entry_name_consistent(self):
        for name, s in LIBRARY.items():
            assert s.name == name
            assert f"{s.ndim}d" in name
            assert name.endswith(f"{s.order}r")
