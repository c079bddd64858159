"""Tests for the typed FLServer configuration (``config=`` is the only spelling)."""

import dataclasses

import pytest

from repro.fl import (
    FLServer,
    RetryPolicy,
    RoundConfig,
    ServerConfig,
    ShardingConfig,
    TrainingPlan,
)
from repro.nn import mlp


def make_server(**kwargs):
    model = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=0)
    return FLServer(model, TrainingPlan(lr=0.1, batch_size=4), **kwargs)


class TestConfigTypes:
    def test_defaults(self):
        config = ServerConfig()
        assert config.allow_legacy is False
        assert config.seed == 7
        assert config.round.retry is None
        assert config.sharding.num_shards == 1
        assert config.sharding.flat

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServerConfig().seed = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            ShardingConfig().num_shards = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            RoundConfig().rule = "median"

    def test_sharding_validates(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardingConfig(num_shards=0)
        assert ShardingConfig(num_shards=2).flat is False


class TestLegacyShim:
    def test_config_path_emits_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_server(config=ServerConfig(seed=3))

    def test_legacy_kwargs_are_a_type_error(self):
        with pytest.raises(TypeError):
            make_server(retry=RetryPolicy(max_retries=2))
        with pytest.raises(TypeError):
            make_server(seed=3)
        model = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=0)
        with pytest.raises(TypeError):
            FLServer(model, TrainingPlan(lr=0.1, batch_size=4), None, True)

    def test_server_config_drives_sharding(self):
        server = make_server(
            config=ServerConfig(sharding=ShardingConfig(num_shards=4))
        )
        assert server.config.sharding.num_shards == 4
