"""Tests for datasets, batching and the synthetic generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    ArrayDataset,
    class_prototypes,
    flatten_samples,
    image_loss,
    normalize,
    synthetic_cifar,
    synthetic_lfw,
)

settings.register_profile("ci", max_examples=20, deadline=None)
settings.load_profile("ci")


class TestArrayDataset:
    def test_length_and_shape(self, small_dataset):
        assert len(small_dataset) == 64
        assert small_dataset.x.shape[1:] == (3, 32, 32)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="samples"):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4), 2)

    def test_one_hot_width(self, small_dataset):
        assert small_dataset.one_hot_labels().shape == (64, 5)

    def test_subset_copies(self, small_dataset):
        sub = small_dataset.subset([0, 1])
        sub.x[:] = -1
        assert not np.any(small_dataset.x[0] == -1)

    def test_shard_covers_everything(self, small_dataset):
        shards = small_dataset.shard(3)
        assert sum(len(s) for s in shards) == len(small_dataset)

    def test_shard_rejects_nonpositive(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.shard(0)

    def test_batches_cover_dataset(self, small_dataset):
        total = sum(len(b.x) for b in small_dataset.batches(10, shuffle=False))
        assert total == len(small_dataset)

    def test_batches_drop_last(self, small_dataset):
        sizes = [len(b.x) for b in small_dataset.batches(10, drop_last=True)]
        assert all(s == 10 for s in sizes)

    def test_batches_shuffle_deterministic_per_rng(self, small_dataset):
        a = [b.x for b in small_dataset.batches(8, rng=np.random.default_rng(5))]
        b = [b.x for b in small_dataset.batches(8, rng=np.random.default_rng(5))]
        np.testing.assert_array_equal(a[0], b[0])

    def test_batch_rejects_nonpositive_size(self, small_dataset):
        with pytest.raises(ValueError):
            next(small_dataset.batches(0))

    def test_properties_follow_subset(self):
        ds = synthetic_lfw(num_samples=20, seed=0)
        sub = ds.subset([0, 5, 7])
        assert sub.properties.shape == (3,)


class TestSyntheticGenerators:
    def test_cifar_shapes_and_range(self):
        ds = synthetic_cifar(num_samples=10, num_classes=7, seed=0)
        assert ds.x.shape == (10, 3, 32, 32)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        assert ds.num_classes == 7

    def test_cifar_classes_are_separable(self):
        """Same-class samples are closer than cross-class ones on average."""
        ds = synthetic_cifar(num_samples=200, num_classes=4, noise=0.1, seed=0)
        protos = class_prototypes(4, (3, 32, 32), seed=0)
        own = np.array([np.linalg.norm(x - protos[y]) for x, y in zip(ds.x, ds.y)])
        other = np.array(
            [np.linalg.norm(x - protos[(y + 1) % 4]) for x, y in zip(ds.x, ds.y)]
        )
        assert own.mean() < other.mean()

    def test_cifar_deterministic(self):
        a = synthetic_cifar(num_samples=5, seed=3)
        b = synthetic_cifar(num_samples=5, seed=3)
        np.testing.assert_array_equal(a.x, b.x)

    def test_lfw_property_rate(self):
        ds = synthetic_lfw(num_samples=2000, property_rate=0.3, seed=0)
        assert ds.properties.mean() == pytest.approx(0.3, abs=0.05)

    def test_lfw_property_leaves_footprint(self):
        ds = synthetic_lfw(num_samples=800, seed=0, property_strength=0.5, noise=0.05)
        with_p = ds.x[ds.properties == 1].mean(axis=0)
        without = ds.x[ds.properties == 0].mean(axis=0)
        assert np.abs(with_p - without).max() > 0.05

    def test_lfw_sample_seed_changes_samples_not_world(self):
        a = synthetic_lfw(num_samples=50, seed=1, sample_seed=10)
        b = synthetic_lfw(num_samples=50, seed=1, sample_seed=20)
        assert not np.array_equal(a.x, b.x)

    def test_prototypes_deterministic(self):
        np.testing.assert_array_equal(
            class_prototypes(3, seed=5), class_prototypes(3, seed=5)
        )


class TestTransforms:
    def test_normalize_zero_mean_unit_std(self, rng):
        out = normalize(rng.normal(3.0, 2.0, size=1000))
        assert abs(out.mean()) < 1e-9
        assert out.std() == pytest.approx(1.0)

    def test_normalize_constant_input(self):
        out = normalize(np.full(5, 7.0))
        np.testing.assert_allclose(out, 0.0)

    def test_image_loss_is_euclidean(self):
        a = np.zeros((3, 2, 2))
        b = np.ones((3, 2, 2))
        assert image_loss(a, b) == pytest.approx(np.sqrt(12.0))

    def test_image_loss_shape_mismatch(self):
        with pytest.raises(ValueError):
            image_loss(np.zeros(3), np.zeros(4))

    def test_flatten_samples(self):
        assert flatten_samples(np.zeros((4, 3, 2, 2))).shape == (4, 12)

    @given(st.integers(0, 1000))
    def test_image_loss_nonnegative_and_zero_on_self(self, seed):
        x = np.random.default_rng(seed).normal(size=(3, 4, 4))
        assert image_loss(x, x) == 0.0
        y = x + 1.0
        assert image_loss(x, y) > 0.0
