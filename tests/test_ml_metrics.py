"""Tests for classification metrics (AUC is the paper's headline measure)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml import roc_auc_score, train_test_split


class TestRocAuc:
    def test_perfect_classifier(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_constant_scores_give_half(self):
        assert roc_auc_score([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_ties_midranked(self):
        # One tie between a positive and a negative contributes 0.5.
        auc = roc_auc_score([0, 1], [0.5, 0.5])
        assert auc == 0.5

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 40)
        y[0], y[1] = 0, 1  # both classes present
        s = rng.normal(size=40)
        pos = s[y == 1]
        neg = s[y == 0]
        pairwise = np.mean(
            [(p > n) + 0.5 * (p == n) for p in pos for n in neg]
        )
        assert roc_auc_score(y, s) == pytest.approx(pairwise)

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc_score([1, 1], [0.1, 0.2])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            roc_auc_score([0, 1], [0.1, 0.2, 0.3])

    @given(st.integers(0, 500))
    def test_complement_symmetry(self, seed):
        """AUC(y, s) + AUC(y, -s) == 1."""
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, 30)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.normal(size=30)
        assert roc_auc_score(y, s) + roc_auc_score(y, -s) == pytest.approx(1.0)


class TestOtherMetrics:
    def test_split_sizes(self):
        x = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        xtr, xte, ytr, yte = train_test_split(x, y, test_fraction=0.3)
        assert len(xte) == 3 and len(xtr) == 7
        assert len(yte) == 3

    def test_split_keeps_rows_aligned(self):
        x = np.arange(10)[:, None] * np.ones((10, 2))
        y = np.arange(10)
        xtr, xte, ytr, yte = train_test_split(x, y, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(xtr[:, 0], ytr)

    def test_split_rejects_misaligned(self):
        with pytest.raises(ValueError, match="equal"):
            train_test_split(np.zeros((5, 2)), np.zeros(4))

    def test_split_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 2)), test_fraction=0.0)
