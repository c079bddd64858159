"""Tests for protection policies (static / dynamic / DarkneTZ baseline)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DarknetzPolicy,
    DynamicPolicy,
    LayerRef,
    ModelLayout,
    PolicyError,
    StaticPolicy,
    structured_slices,
)

settings.register_profile("ci", max_examples=30, deadline=None)
settings.load_profile("ci")


def flat(n):
    """An ``n``-layer layout without blocks: refs ``L1..Ln``."""
    return ModelLayout([LayerRef(i, f"L{i}") for i in range(1, n + 1)])


class TestContiguousSlices:
    """On a flat layout, protection units are the runs of consecutive layers."""

    @staticmethod
    def runs(indices, n=6):
        layout = flat(n)
        units = structured_slices([layout.ref(i) for i in indices])
        return [(unit[0].index, unit[-1].index) for unit in units]

    def test_empty(self):
        assert self.runs([]) == []

    def test_single_run(self):
        assert self.runs([2, 3, 4]) == [(2, 4)]

    def test_unsorted_input(self):
        assert self.runs([5, 1, 2]) == [(1, 2), (5, 5)]

    def test_duplicates_collapsed(self):
        assert self.runs([3, 3, 4]) == [(3, 4)]


class TestStaticPolicy:
    def test_same_layers_every_cycle(self):
        policy = StaticPolicy(flat(5), ["L2", "L5"])
        assert policy.layers_for_cycle(0) == policy.layers_for_cycle(99) == {2, 5}

    def test_non_contiguous_two_slices_allowed(self):
        StaticPolicy(flat(5), ["L1", "L2", "L4", "L5"])  # two slices — the GradSec feature

    def test_three_slices_rejected_by_default(self):
        with pytest.raises(PolicyError, match="slices"):
            StaticPolicy(flat(7), ["L1", "L3", "L5"])

    def test_max_slices_none_lifts_restriction(self):
        StaticPolicy(flat(7), ["L1", "L3", "L5"], max_slices=None)

    def test_out_of_range_rejected(self):
        with pytest.raises(PolicyError, match="outside"):
            StaticPolicy(flat(5), [LayerRef(6)])

    def test_describe_lists_layers(self):
        assert "L2+L5" in StaticPolicy(flat(5), ["L2", "L5"]).describe()

    def test_empty_set_is_valid(self):
        assert StaticPolicy(flat(5), []).layers_for_cycle(0) == frozenset()


class TestDarknetzPolicy:
    def test_contiguous_accepted(self):
        policy = DarknetzPolicy(flat(5), ["L2", "L3", "L4", "L5"])
        assert policy.layers_for_cycle(0) == {2, 3, 4, 5}

    def test_non_contiguous_rejected(self):
        """The exact capability gap Table 1 quantifies."""
        with pytest.raises(PolicyError, match="successive"):
            DarknetzPolicy(flat(5), ["L2", "L5"])

    def test_single_layer_accepted(self):
        DarknetzPolicy(flat(5), ["L3"])

    def test_is_a_one_unit_static_policy(self):
        policy = DarknetzPolicy(flat(5), ["L4", "L5"])
        assert isinstance(policy, StaticPolicy)
        assert policy.units == StaticPolicy(flat(5), ["L4", "L5"]).units
        assert policy.describe() == "DarkneTZ [L4+L5]"


class TestDynamicPolicy:
    def make(self, v=(0.2, 0.1, 0.6, 0.1), size=2, seed=0):
        return DynamicPolicy(flat(5), size, v, seed=seed)

    def test_window_count(self):
        assert len(self.make().windows) == 4  # n - size + 1

    def test_windows_are_consecutive(self):
        for window in self.make(size=3, v=(0.5, 0.3, 0.2)).windows:
            assert list(window) == list(range(window[0], window[0] + 3))

    def test_v_mw_length_checked(self):
        with pytest.raises(PolicyError, match="entries"):
            DynamicPolicy(flat(5), 2, [0.5, 0.5])

    def test_v_mw_must_sum_to_one(self):
        with pytest.raises(PolicyError, match="sum to 1"):
            DynamicPolicy(flat(5), 2, [0.3, 0.3, 0.3, 0.3])

    def test_negative_probability_rejected(self):
        with pytest.raises(PolicyError):
            DynamicPolicy(flat(5), 2, [-0.1, 0.5, 0.5, 0.1])

    def test_size_bounds(self):
        with pytest.raises(PolicyError, match="size_mw"):
            DynamicPolicy(flat(5), 6, [1.0])

    def test_empirical_distribution_matches_v_mw(self):
        policy = self.make(seed=1)
        counts = np.zeros(4)
        n = 4000
        for cycle in range(n):
            window = policy.window_for_cycle(cycle)
            counts[window[0] - 1] += 1
        np.testing.assert_allclose(counts / n, [0.2, 0.1, 0.6, 0.1], atol=0.03)

    def test_all_possible_sets_skips_zero_probability(self):
        policy = DynamicPolicy(flat(5), 2, [0.5, 0.0, 0.5, 0.0])
        assert len(policy.all_possible_sets()) == 2

    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 100))
    def test_windows_always_inside_model(self, n, size, seed):
        size = min(size, n)
        positions = n - size + 1
        v = np.full(positions, 1.0 / positions)
        policy = DynamicPolicy(flat(n), size, v, seed=seed)
        for cycle in range(10):
            layers = policy.layers_for_cycle(cycle)
            assert len(layers) == size
            assert all(1 <= i <= n for i in layers)


