"""Tests for the typed FLServer configuration (``config=`` is the only spelling)."""

import dataclasses

import pytest

from repro.fl import (
    AdmissionConfig,
    BufferConfig,
    FLServer,
    RetryPolicy,
    RoundConfig,
    ServerConfig,
    ShardingConfig,
    TrainingPlan,
)
from repro.nn import mlp
from repro.serve import BreakerConfig, ChaosConfig


def make_server(**kwargs):
    model = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=0)
    return FLServer(model, TrainingPlan(lr=0.1, batch_size=4), **kwargs)


class TestConfigTypes:
    def test_defaults(self):
        config = ServerConfig()
        assert config.allow_legacy is False
        assert config.seed == 7
        assert config.round == RoundConfig()
        assert config.round.rule == "fedavg"
        assert config.round.admission is None

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


# Every public config dataclass whose float fields a range check alone let
# NaN or inf through (every comparison with NaN is false).
NON_FINITE_CASES = [
    (TrainingPlan, "lr"),
    (AdmissionConfig, "max_norm"),
    (RoundConfig, "clip_norm"),
    (BufferConfig, "exponent"),
    (ChaosConfig, "reorder_window"),
    (BreakerConfig, "window"),
    (BreakerConfig, "cooldown"),
    (RetryPolicy, "backoff_seconds"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "config, field", NON_FINITE_CASES, ids=[f"{c.__name__}.{f}" for c, f in NON_FINITE_CASES]
)
def test_non_finite_float_fields_are_refused(config, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        config(**{field: value})
