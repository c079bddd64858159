"""Failure-injection integration tests across subsystem boundaries.

Each test breaks one link in the end-to-end chain and checks the system
fails *closed* (protected data stays protected, errors are loud).
"""

import pytest

from repro.core import ShieldedModel, StaticPolicy
from repro.data import synthetic_cifar
from repro.fl import FLClient, FLServer, TrainingPlan
from repro.nn import lenet5, mlp
from repro.tee import (
    IntegrityError,
    SecureMemoryExhausted,
    SecureMemoryPool,
    SecureWorldViolation,
    TrustedIOPath,
    secure_world,
)
from repro.tee.crypto import CryptoError


def tiny_shielded(protected, pool=None, seed=0):
    model = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=seed)
    return model, ShieldedModel(
        model,
        StaticPolicy(model, [f"L{i}" for i in protected], max_slices=None),
        pool=pool,
        batch_size=6,
    )


class TestEnclaveMemoryPressure:
    def test_oom_leaves_no_partial_state_observable(self):
        """If provisioning runs out of secure memory, the attempt fails and
        nothing of the protected weights is readable from the normal world."""
        # Big enough for L1's weights but not for everything.
        pool = SecureMemoryPool(1200)
        model, shielded = tiny_shielded([1, 2, 3], pool=pool)
        with pytest.raises(SecureMemoryExhausted):
            shielded.begin_cycle()
        # Any buffer that was created is only readable in the secure world.
        for (index, name), buffer in shielded.ta._buffers.items():
            with pytest.raises(SecureWorldViolation):
                buffer.read()


class TestTamperedTransport:
    def test_corrupted_sealed_weights_rejected(self):
        model, shielded = tiny_shielded([2])
        iopath = TrustedIOPath()
        sealed = iopath.seal([{}, model.layer(2).get_weights(), {}])
        corrupted = sealed[:-3] + bytes(3)
        with pytest.raises(CryptoError):
            shielded.begin_cycle(sealed_weights=corrupted, iopath=iopath)

    def test_update_from_wrong_session_rejected_at_server(self):
        dataset = synthetic_cifar(num_samples=16, num_classes=4, seed=0)
        model = lenet5(num_classes=4, seed=0, scale=0.5)
        client = FLClient(
            "c", dataset, model.clone(), policy=StaticPolicy(model, ["L2"]), seed=0,
        )
        plan = TrainingPlan(lr=0.1, batch_size=8, local_steps=1)
        server = FLServer(model, plan, StaticPolicy(model, ["L2"]))
        server.register(client)
        download = server._make_download(client, frozenset({2}))
        update = client.run_cycle(download, plan)
        # A MITM swaps in ciphertext sealed under a different key.
        update.sealed_weights = TrustedIOPath().seal([{}] * 5)
        with pytest.raises(CryptoError):
            server._merge_update(client, update, model.get_weights())


class TestStorageFailures:
    def test_client_detects_tampered_training_data(self):
        dataset = synthetic_cifar(num_samples=8, num_classes=3, seed=0)
        client = FLClient(
            "c", dataset, lenet5(num_classes=3, seed=0, scale=0.5), seed=0
        )
        key = client.storage.objects()[0]
        blob = bytearray(client.storage.backend.get(key))
        blob[len(blob) // 2] ^= 0x01
        client.storage.backend.put(key, bytes(blob))
        with pytest.raises(IntegrityError):
            client._load_data()


class TestEnclaveProtocolAbuse:
    def test_direct_ta_invocation_from_normal_world_blocked(self):
        model, shielded = tiny_shielded([2])
        shielded.begin_cycle()
        with pytest.raises(SecureWorldViolation):
            shielded.ta.invoke("export_weights", iopath=TrustedIOPath())
        shielded.end_cycle()

    def test_release_twice_is_safe(self):
        model, shielded = tiny_shielded([2])
        shielded.begin_cycle()
        shielded.end_cycle()
        # A second release SMC finds nothing to free and must not corrupt
        # the pool.
        with secure_world():
            shielded.ta.invoke("release", restore=False)
        assert shielded.pool.used_bytes == 0
