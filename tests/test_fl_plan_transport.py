"""Tests for training plans and transport messages."""

import numpy as np
import pytest

from repro.fl import Channel, ClientUpdate, ModelDownload, TrainingPlan


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
