"""Tests for training plans, transport messages and snapshot history."""

import numpy as np
import pytest

from repro.fl import Channel, ClientUpdate, ModelDownload, SnapshotHistory, TrainingPlan
from repro.nn.serialize import flatten_weights


class TestTrainingPlan:
    def test_defaults_valid(self):
        plan = TrainingPlan()
        assert plan.batch_size == 32

    @pytest.mark.parametrize("field,value", [("lr", 0), ("batch_size", 0), ("local_steps", 0)])
    def test_positive_fields(self, field, value):
        with pytest.raises(ValueError):
            TrainingPlan(**{field: value})

    @pytest.mark.parametrize("field", ["protected_layers", "mw_size", "v_mw"])
    def test_protection_lives_on_the_policy(self, field):
        with pytest.raises(TypeError):
            TrainingPlan(**{field: (2,)})

    def test_frozen(self):
        plan = TrainingPlan()
        with pytest.raises(AttributeError):
            plan.lr = 0.5


class TestTransport:
    def make_download(self, sealed=None):
        return ModelDownload(
            cycle=0,
            plain_weights=[{"weight": np.ones((2, 2))}],
            sealed_weights=sealed,
        )

    def test_wire_bytes_counts_plain(self):
        assert self.make_download().wire_bytes() > 0

    def test_wire_bytes_includes_sealed(self):
        plain_only = self.make_download().wire_bytes()
        with_sealed = self.make_download(sealed=b"x" * 100).wire_bytes()
        assert with_sealed == plain_only + 100

    def test_channel_accumulates(self):
        channel = Channel()
        channel.send_download(self.make_download())
        channel.send_update(
            ClientUpdate("c", 0, 4, [{"weight": np.zeros((2, 2))}], None)
        )
        assert channel.downloads == 1
        assert channel.uploads == 1
        assert channel.downlink_bytes > 0
        assert channel.uplink_bytes > 0


class TestSnapshotHistory:
    def make_history(self, values):
        history = SnapshotHistory()
        for v in values:
            history.record([{"weight": np.full((2, 2), float(v))}])
        return history

    def test_record_copies(self):
        weights = [{"weight": np.zeros((2, 2))}]
        history = SnapshotHistory()
        history.record(weights)
        weights[0]["weight"][:] = 9.0
        np.testing.assert_array_equal(history.snapshot(0)[0]["weight"], 0.0)

    def test_aggregated_gradients_formula(self):
        history = self.make_history([1.0, 0.5])
        grads = history.aggregated_gradients(0, lr=0.25)
        np.testing.assert_allclose(grads[0]["weight"], 2.0)  # (1 - 0.5) / 0.25

    def test_aggregated_gradients_range_checked(self):
        history = self.make_history([1.0])
        with pytest.raises(IndexError):
            history.aggregated_gradients(0)

    def test_lr_positive(self):
        history = self.make_history([1.0, 2.0])
        with pytest.raises(ValueError):
            history.aggregated_gradients(0, lr=0.0)

    def test_feature_matrix_shape(self):
        history = self.make_history([1.0, 2.0, 3.0])
        matrix = history.gradient_feature_matrix(lr=1.0)
        assert matrix.shape == (2, 4)

    def test_feature_matrix_empty(self):
        assert SnapshotHistory().gradient_feature_matrix().shape == (0, 0)

    def test_feature_rows_are_flat_gradients(self):
        history = self.make_history([2.0, 1.0])
        row = history.gradient_feature_matrix(lr=0.5)[0]
        expected = flatten_weights(history.aggregated_gradients(0, lr=0.5))
        np.testing.assert_array_equal(row, expected)
