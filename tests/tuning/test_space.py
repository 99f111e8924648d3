"""ParameterSpace: layout order, legacy sampling, restriction grammar."""

import numpy as np
import pytest

from repro.errors import TuningError
from repro.optimizations import OC
from repro.optimizations.params import (
    PARAM_NAMES,
    ParamSetting,
    relevant_params,
    sample_setting,
)
from repro.tuning import ParameterSpace, compile_restriction


class TestConstruction:
    def test_for_oc_uses_relevant_params_in_layout_order(self):
        oc = OC.parse("ST_CM_RT_TB")
        space = ParameterSpace.for_oc(oc, ndim=2)
        assert list(space.names) == list(relevant_params(oc, 2))
        order = {n: i for i, n in enumerate(PARAM_NAMES)}
        assert list(space.names) == sorted(space.names, key=order.__getitem__)

    def test_params_reordered_to_layout(self):
        # Insertion order must not matter: same space either way.
        a = ParameterSpace({"stream_dim": (0, 1), "block_x": (32, 64)})
        b = ParameterSpace({"block_x": (32, 64), "stream_dim": (0, 1)})
        assert a.names == b.names == ("block_x", "stream_dim")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TuningError, match="unknown parameter"):
            ParameterSpace({"warp_count": (1, 2)})

    def test_empty_space_rejected(self):
        with pytest.raises(TuningError, match="at least one"):
            ParameterSpace({})
        with pytest.raises(TuningError, match="no choices"):
            ParameterSpace({"block_x": ()})

    @pytest.mark.parametrize(
        "params,bad",
        [
            ({"block_x": (7, 32), "use_smem": (0, 1)}, "'block_x': choice 7"),
            ({"use_smem": (0, 2)}, "'use_smem': choice 2"),
            ({"temporal_steps": (1, 3)}, "'temporal_steps': choice 3"),
        ],
    )
    def test_choice_outside_spec_rejected(self, params, bad):
        # Drawn settings skip validation, so the space checks every
        # choice against PARAM_SPECS (its choices or its default) up front.
        with pytest.raises(TuningError, match=bad):
            ParameterSpace(params)

    def test_default_is_a_valid_choice(self):
        space = ParameterSpace({"merge_factor": (1, 2), "stream_dim": (0, 1)})
        assert space.choices("merge_factor") == (1, 2)

    def test_size_is_cartesian_product(self):
        space = ParameterSpace({"block_x": (32, 64, 128), "use_smem": (0, 1)})
        assert space.size == 6
        assert len(list(space.enumerate())) == 6


class TestLegacySampling:
    @pytest.mark.parametrize("oc_name", ("naive", "ST", "ST_CM_RT_TB", "BM"))
    @pytest.mark.parametrize("ndim", (2, 3))
    def test_sample_matches_legacy_sample_setting(self, oc_name, ndim):
        # The unrestricted draw sequence is the pre-refactor one, bit for
        # bit -- campaign digests depend on it.
        oc = OC.parse(oc_name)
        space = ParameterSpace.for_oc(oc, ndim)
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(32):
            assert space.sample(a).as_tuple() == sample_setting(oc, ndim, b).as_tuple()

    @pytest.mark.parametrize("oc_name", ("naive", "ST_RT", "ST_CM_RT_TB"))
    def test_sample_block_matches_sample(self, oc_name):
        space = ParameterSpace.for_oc(OC.parse(oc_name), 3)
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        block = space.sample_block(64, a)
        expected = [space.sample(b) for _ in range(64)]
        assert block.keys == [s.as_tuple() for s in expected]
        assert list(block) == expected and block[3:5] == expected[3:5]
        assert all(dict(s) == dict(e) for s, e in zip(block, expected))
        assert a.integers(2**32) == b.integers(2**32)  # same stream consumed

    def test_sample_block_repeats_share_an_instance(self):
        space = ParameterSpace({"use_smem": (0, 1)})
        block = space.sample_block(8, np.random.default_rng(0))
        assert block[0] is block[block.keys.index(block.keys[0], 1)]


class TestRestrictionGrammar:
    def test_arithmetic_comparisons_and_bool_ops(self):
        r = compile_restriction(
            "block_x * block_y <= 1024 and (use_smem == 1 or block_x < 64)"
        )
        assert r({"block_x": 32, "block_y": 8, "use_smem": 0})
        assert not r({"block_x": 256, "block_y": 8, "use_smem": 1})

    def test_chained_comparison_and_functions(self):
        r = compile_restriction("16 <= min(block_x, block_y) <= 64")
        assert r({"block_x": 32, "block_y": 64})
        assert not r({"block_x": 8, "block_y": 64})

    def test_callable_accepted(self):
        space = ParameterSpace(
            {"block_x": (32, 64), "use_smem": (0, 1)},
            restrictions=[lambda s: s["use_smem"] == 1],
        )
        assert all(s["use_smem"] == 1 for s in space.enumerate())

    @pytest.mark.parametrize(
        "bad",
        (
            "__import__('os')",                    # call not in whitelist
            "block_x.bit_length() > 2",            # attribute access
            "[1, 2][block_x]",                     # subscript / list literal
            "(lambda: 1)()",                       # lambda
            "block_x == 'fast'",                   # non-numeric literal
            "nblocks > 4",                         # unknown name
            "min(block_x, default=1) > 2",         # keyword arguments
            "block_x >",                           # syntax error
        ),
    )
    def test_grammar_violations_rejected(self, bad):
        with pytest.raises(TuningError):
            compile_restriction(bad, ("block_x", "block_y"))

    def test_unknown_name_limited_to_space_params(self):
        # block_y is a real parameter, but not of this space.
        space_names = ("block_x", "use_smem")
        with pytest.raises(TuningError, match="unknown parameter 'block_y'"):
            compile_restriction("block_y > 1", space_names)


class TestRestrictedSpaces:
    def _space(self):
        return ParameterSpace(
            {"block_x": (16, 32, 64, 128), "stream_unroll": (1, 2, 4)},
            restrictions=["block_x * stream_unroll <= 128"],
        )

    def test_sampling_respects_restrictions(self):
        space = self._space()
        rng = np.random.default_rng(3)
        for _ in range(64):
            s = space.sample(rng)
            assert s["block_x"] * s["stream_unroll"] <= 128

    def test_enumerate_and_contains(self):
        space = self._space()
        allowed = list(space.enumerate())
        assert all(s["block_x"] * s["stream_unroll"] <= 128 for s in allowed)
        assert len(allowed) < space.size  # something was actually filtered
        bad = ParamSetting(block_x=128, stream_unroll=4)
        assert bad not in space
        assert allowed[0] in space

    def test_neighbors_filtered(self):
        space = self._space()
        start = ParamSetting(block_x=64, stream_unroll=2)
        for n in space.neighbors(start, "stream_unroll"):
            assert n["block_x"] * n["stream_unroll"] <= 128

    def test_unsatisfiable_restriction_raises(self):
        space = ParameterSpace(
            {"block_x": (16, 32)}, restrictions=["block_x > 1000"]
        )
        with pytest.raises(TuningError, match="could not sample"):
            space.sample(np.random.default_rng(0))
