"""Tests for the attack classifiers (logistic regression, tree, forest)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    LogisticRegression,
    MeanImputer,
    RandomForestClassifier,
    StandardScaler,
    roc_auc_score,
)

settings.register_profile("ci", max_examples=20, deadline=None)
settings.load_profile("ci")


def separable_data(n=200, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
    return x, y


class TestLogisticRegression:
    def test_learns_separable_data(self):
        x, y = separable_data()
        model = LogisticRegression().fit(x[:150], y[:150])
        assert roc_auc_score(y[150:], model.predict_proba(x[150:])) > 0.95

    def test_probabilities_in_unit_interval(self):
        x, y = separable_data()
        p = LogisticRegression().fit(x, y).predict_proba(x)
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            LogisticRegression().fit(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError, match="2-D"):
            LogisticRegression().fit(np.zeros(3), np.zeros(3))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            LogisticRegression().predict_proba(np.zeros((2, 3)))

    def test_extreme_logits_do_not_overflow(self):
        model = LogisticRegression(lr=5.0, iterations=50)
        x = np.array([[100.0], [-100.0]] * 20)
        y = np.array([1, 0] * 20)
        model.fit(x, y)
        p = model.predict_proba(x)
        assert np.isfinite(p).all()


class TestDecisionTree:
    def test_learns_axis_aligned_split(self):
        x, y = separable_data()
        tree = DecisionTreeClassifier(max_depth=4).fit(x[:150], y[:150])
        assert roc_auc_score(y[150:], tree.predict_proba(x[150:])) > 0.8

    def test_depth_limit_respected(self):
        x, y = separable_data(n=300)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert tree.depth() <= 2

    def test_pure_node_becomes_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.depth() == 0
        np.testing.assert_allclose(tree.predict_proba(x), 1.0)

    def test_constant_features_yield_leaf(self):
        x = np.zeros((10, 3))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier().fit(x, y)
        np.testing.assert_allclose(tree.predict_proba(x), 0.5)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict_proba(np.zeros((2, 2)))


class TestRandomForest:
    def test_learns_nonlinear_boundary(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 2))
        y = ((x[:, 0] ** 2 + x[:, 1] ** 2) < 1.0).astype(int)
        forest = RandomForestClassifier(n_estimators=25, seed=0).fit(x[:300], y[:300])
        assert roc_auc_score(y[300:], forest.predict_proba(x[300:])) > 0.85

    def test_deterministic_given_seed(self):
        x, y = separable_data()
        a = RandomForestClassifier(n_estimators=5, seed=3).fit(x, y).predict_proba(x)
        b = RandomForestClassifier(n_estimators=5, seed=3).fit(x, y).predict_proba(x)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        x, y = separable_data()
        a = RandomForestClassifier(n_estimators=5, seed=1).fit(x, y).predict_proba(x)
        b = RandomForestClassifier(n_estimators=5, seed=2).fit(x, y).predict_proba(x)
        assert not np.array_equal(a, b)

    def test_rejects_bad_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_random_labels_score_near_half(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 5))
        y = rng.integers(0, 2, 300)
        forest = RandomForestClassifier(n_estimators=15, seed=0).fit(x[:200], y[:200])
        auc = roc_auc_score(y[200:], forest.predict_proba(x[200:]))
        assert 0.3 < auc < 0.7


class TestPreprocess:
    def test_scaler_zero_mean_unit_var(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        out = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    def test_scaler_constant_column_safe(self):
        x = np.ones((5, 2))
        out = StandardScaler().fit_transform(x)
        assert np.isfinite(out).all()

    def test_imputer_fills_with_column_mean(self):
        x = np.array([[1.0, np.nan], [3.0, 4.0]])
        out = MeanImputer().fit_transform(x)
        assert out[0, 1] == 4.0

    def test_imputer_all_nan_column_fills_zero(self):
        x = np.array([[np.nan], [np.nan]])
        out = MeanImputer().fit_transform(x)
        np.testing.assert_array_equal(out, [[0.0], [0.0]])

    def test_imputer_transform_uses_fit_means(self):
        imputer = MeanImputer().fit(np.array([[2.0], [4.0]]))
        out = imputer.transform(np.array([[np.nan]]))
        assert out[0, 0] == 3.0

    @given(st.integers(0, 100))
    def test_imputer_leaves_finite_values_untouched(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 3))
        out = MeanImputer().fit_transform(x)
        np.testing.assert_array_equal(out, x)
