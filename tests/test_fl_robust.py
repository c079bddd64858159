"""Tests for Byzantine-robust aggregation."""

import numpy as np
import pytest

from repro.fl.robust import (
    apply_rule,
    clipped_mean,
    coordinate_median,
    krum,
    krum_index,
    trimmed_mean,
)


def honest_updates(n=5, d=8, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=d)
    return [base + 0.05 * rng.normal(size=d) for _ in range(n)]


class TestMedian:
    def test_matches_numpy_median(self):
        updates = honest_updates()
        np.testing.assert_array_equal(
            coordinate_median(updates), np.median(np.stack(updates), axis=0)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coordinate_median([])


class TestTrimmedMean:
    def test_equals_mean_without_outliers_when_symmetric(self):
        updates = [np.array([1.0]), np.array([2.0]), np.array([3.0]),
                   np.array([4.0]), np.array([5.0])]
        assert trimmed_mean(updates, trim=1)[0] == pytest.approx(3.0)

    def test_over_trimming_rejected(self):
        with pytest.raises(ValueError, match="trim"):
            trimmed_mean(honest_updates(n=4), trim=2)

    def test_negative_trim_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean(honest_updates(), trim=-1)


class TestKrum:
    def test_selects_an_actual_update(self):
        updates = honest_updates()
        out = krum(updates, num_byzantine=1)
        assert any(np.array_equal(out, u) for u in updates)

    def test_minimum_population_enforced(self):
        with pytest.raises(ValueError, match="f \\+ 3"):
            krum(honest_updates(n=3), num_byzantine=1)


class TestKrumTieBreak:
    def test_duplicate_updates_pick_lowest_index(self):
        # Colluding attackers send bit-identical payloads, so several
        # updates share the exact minimal score; the winner must be the
        # lowest input index, deterministically.
        honest = honest_updates(n=4, d=6, seed=3)
        payload = np.full(6, 7.5)
        updates = [honest[0], payload, payload, payload, honest[1]]
        chosen = krum_index(updates, num_byzantine=1)
        assert chosen == 1
        np.testing.assert_array_equal(
            krum(updates, num_byzantine=1), updates[chosen]
        )

    def test_order_permutation_moves_the_tie(self):
        payload = np.zeros(3)
        far = np.full(3, 100.0)
        assert krum_index([payload, payload, payload, far], num_byzantine=1) == 0
        assert krum_index([far, payload, payload, payload], num_byzantine=1) == 1


class TestClippedMean:
    def test_self_calibrates_to_median_norm(self):
        updates = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([300.0, 0.0])]
        result = clipped_mean(updates)
        # Median norm is 2: the outlier is rescaled from 300 to 2.
        expected = np.mean(
            [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([2.0, 0.0])],
            axis=0,
        )
        np.testing.assert_allclose(result, expected)

    def test_explicit_ceiling(self):
        updates = [np.array([3.0, 4.0]), np.array([0.3, 0.4])]
        result = clipped_mean(updates, clip_norm=1.0)
        np.testing.assert_allclose(result, np.array([0.45, 0.6]))

    def test_zero_ceiling_zeroes_everything(self):
        np.testing.assert_array_equal(
            clipped_mean([np.ones(3), np.full(3, -2.0)], clip_norm=0.0),
            np.zeros(3),
        )

    def test_negative_ceiling_rejected(self):
        with pytest.raises(ValueError):
            clipped_mean([np.ones(2)], clip_norm=-1.0)


class TestApplyRule:
    def test_dispatch_matches_direct_calls(self):
        updates = honest_updates(n=7, d=5, seed=11)
        np.testing.assert_array_equal(
            apply_rule("median", updates), coordinate_median(updates)
        )
        np.testing.assert_array_equal(
            apply_rule("trimmed_mean", updates, trim=2),
            trimmed_mean(updates, trim=2),
        )
        np.testing.assert_array_equal(
            apply_rule("krum", updates, num_byzantine=2),
            krum(updates, num_byzantine=2),
        )
        np.testing.assert_array_equal(
            apply_rule("clipped_fedavg", updates, clip_norm=0.5),
            clipped_mean(updates, clip_norm=0.5),
        )

    def test_trim_clamped_for_small_cohorts(self):
        updates = honest_updates(n=3, d=4, seed=1)
        # trim=5 would drop every row; the clamp keeps one.
        np.testing.assert_array_equal(
            apply_rule("trimmed_mean", updates, trim=5),
            trimmed_mean(updates, trim=1),
        )

    def test_krum_f_clamped_and_tiny_cohort_falls_back(self):
        updates = honest_updates(n=4, d=4, seed=2)
        np.testing.assert_array_equal(
            apply_rule("krum", updates, num_byzantine=10),
            krum(updates, num_byzantine=1),
        )
        pair = honest_updates(n=2, d=4, seed=2)
        np.testing.assert_array_equal(
            apply_rule("krum", pair, num_byzantine=1), coordinate_median(pair)
        )

    def test_fedavg_and_unknown_rules_rejected(self):
        with pytest.raises(ValueError):
            apply_rule("fedavg", [np.ones(2)])
        with pytest.raises(ValueError):
            apply_rule("mode", [np.ones(2)])
        with pytest.raises(ValueError):
            apply_rule("median", [])


class TestBlockedDistances:
    def test_blocked_matches_dense(self, monkeypatch):
        from repro.fl import robust as robust_mod

        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(6, 40))
        dense = robust_mod._pairwise_sq_distances(matrix)
        # Force multiple blocks: 40 columns / 16-element blocks.
        monkeypatch.setattr(robust_mod, "_KRUM_BLOCK_ELEMENTS", 16)
        blocked = robust_mod._pairwise_sq_distances(matrix)
        np.testing.assert_array_equal(dense, blocked)
