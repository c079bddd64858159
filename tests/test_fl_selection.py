"""Tests for attestation-gated client selection."""

import pytest

from repro.core import StaticPolicy
from repro.data import synthetic_cifar
from repro.fl import FLClient, TEESelector
from repro.nn import mlp
from repro.tee import AttestationVerifier


def make_client(client_id, has_tee=True, seed=0):
    dataset = synthetic_cifar(num_samples=8, num_classes=3, seed=seed)
    model = mlp(num_classes=3, input_shape=(3, 32, 32), hidden=(4,), seed=seed)
    return FLClient(client_id, dataset, model, has_tee=has_tee, seed=seed)


def make_verifier(clients):
    verifier = AttestationVerifier()
    for client in clients:
        verifier.register_device(client.client_id, client.device.key)
        verifier.allow_measurement(client.ta_measurement())
    return verifier


class TestTEESelector:
    def test_admits_attested_tee_clients(self):
        clients = [make_client("a"), make_client("b")]
        selector = TEESelector(make_verifier(clients))
        result = selector.select(clients)
        assert result.admitted == ["a", "b"]
        assert result.rejected == []

    def test_rejects_non_tee_clients(self):
        clients = [make_client("a"), make_client("legacy", has_tee=False)]
        selector = TEESelector(make_verifier(clients))
        result = selector.select(clients)
        assert result.admitted == ["a"]
        assert result.rejected == [("legacy", "no TEE")]

    def test_hybrid_mode_admits_legacy_separately(self):
        clients = [make_client("a"), make_client("legacy", has_tee=False)]
        selector = TEESelector(make_verifier(clients), allow_legacy=True)
        result = selector.select(clients)
        assert result.admitted == ["a"]
        assert result.legacy == ["legacy"]
        assert result.rejected == []

    def test_rejects_unknown_device(self):
        known = make_client("a")
        unknown = make_client("ghost")
        selector = TEESelector(make_verifier([known]))
        result = selector.select([known, unknown])
        assert result.admitted == ["a"]
        assert result.rejected[0][0] == "ghost"

    def test_rejects_unapproved_measurement(self):
        client = make_client("a")
        verifier = AttestationVerifier()
        verifier.register_device("a", client.device.key)
        # measurement not allow-listed
        result = TEESelector(verifier).select([client])
        assert result.admitted == []
        assert "allow-list" in result.rejected[0][1]


class TestClientPolicyGuard:
    def test_legacy_client_cannot_take_protected_policy(self):
        dataset = synthetic_cifar(num_samples=8, num_classes=3, seed=0)
        model = mlp(num_classes=3, input_shape=(3, 32, 32), hidden=(4,), seed=0)
        with pytest.raises(ValueError, match="no TEE"):
            FLClient(
                "legacy",
                dataset,
                model,
                policy=StaticPolicy(model, ["L1"]),
                has_tee=False,
            )
