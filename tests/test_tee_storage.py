"""Tests for OP-TEE-style secure storage (SSK -> TSK -> FEK hierarchy)."""

import os

import pytest

from repro import obs
from repro.tee import InMemoryBackend, IntegrityError, ReeFsBackend, SecureStorage


class TestSecureStorage:
    def setup_method(self):
        self.storage = SecureStorage()
        self.ta = "ta-uuid-1234"

    def test_missing_object_raises_keyerror(self):
        with pytest.raises(KeyError, match="no secure object"):
            self.storage.get(self.ta, "nothing")

    def test_delete(self):
        self.storage.put(self.ta, "k", b"v")
        self.storage.delete(self.ta, "k")
        with pytest.raises(KeyError):
            self.storage.get(self.ta, "k")

    def test_per_ta_isolation(self):
        """A TA cannot read another TA's objects — TSK derives from UUID."""
        self.storage.put("ta-A", "secret", b"A's data")
        # Same object name under a different TA: absent.
        with pytest.raises(KeyError):
            self.storage.get("ta-B", "secret")

    def test_cross_device_blobs_unreadable(self):
        """Blobs sealed under one device's SSK fail on another device."""
        other = SecureStorage()
        self.storage.put(self.ta, "k", b"data")
        key = SecureStorage._key(self.ta, "k")
        other.backend.put(key, self.storage.backend.get(key))
        with pytest.raises(IntegrityError):
            other.get(self.ta, "k")

    def test_backend_sees_only_ciphertext(self):
        self.storage.put(self.ta, "k", b"PLAINTEXT-MARKER")
        raw = self.storage.backend.get(SecureStorage._key(self.ta, "k"))
        assert b"PLAINTEXT-MARKER" not in raw

    def test_objects_listing(self):
        self.storage.put(self.ta, "a", b"1")
        self.storage.put(self.ta, "b", b"2")
        assert len(self.storage.objects()) == 2


class TestReeFsBackend:
    def test_roundtrip_via_files(self, tmp_path):
        storage = SecureStorage(backend=ReeFsBackend(str(tmp_path)))
        storage.put("ta", "weights", b"blob" * 100)
        assert storage.get("ta", "weights") == b"blob" * 100
        assert any(name.endswith(".sec") for name in os.listdir(tmp_path))

    def test_atomic_replace_leaves_single_file(self, tmp_path):
        backend = ReeFsBackend(str(tmp_path))
        backend.put("k", b"v1")
        backend.put("k", b"v2")
        files = [n for n in os.listdir(tmp_path) if n.endswith(".sec")]
        assert len(files) == 1
        assert backend.get("k") == b"v2"

    def test_delete_removes_file(self, tmp_path):
        backend = ReeFsBackend(str(tmp_path))
        backend.put("k", b"v")
        backend.delete("k")
        assert backend.get("k") is None

    def test_keys_listing(self, tmp_path):
        backend = ReeFsBackend(str(tmp_path))
        backend.put("alpha", b"1")
        backend.put("beta", b"2")
        assert backend.keys() == ("alpha", "beta")

    def test_distinct_keys_never_share_a_file(self, tmp_path):
        """``/`` used to be mangled to ``_``: ``ta:a/b`` overwrote ``ta:a_b``."""
        storage = SecureStorage(backend=ReeFsBackend(str(tmp_path)))
        storage.put("ta", "a/b", b"slash")
        storage.put("ta", "a_b", b"underscore")
        assert storage.get("ta", "a/b") == b"slash"
        assert storage.get("ta", "a_b") == b"underscore"
        assert storage.objects() == ("ta:a/b", "ta:a_b")

    def test_keys_returns_original_keys(self, tmp_path):
        backend = ReeFsBackend(str(tmp_path))
        keys = ("../../evil", "a%2Fb", "a/b", "ta:obj.v1", "ünï")
        for key in keys:
            backend.put(key, key.encode())
        assert backend.keys() == tuple(sorted(keys))
        assert all(backend.get(key) == key.encode() for key in keys)

    def test_path_traversal_neutralised(self, tmp_path):
        backend = ReeFsBackend(str(tmp_path))
        backend.put("../../evil", b"x")
        # Everything stays inside the directory.
        for name in os.listdir(tmp_path):
            assert ".." not in name
            assert "/" not in name


class TestInMemoryBackend:
    def test_missing_returns_none(self):
        assert InMemoryBackend().get("k") is None

    def test_delete_missing_is_noop(self):
        InMemoryBackend().delete("nothing")


class TestRollbackProtection:
    """RPMB-style replay protection: stale-but-genuine blobs are rejected."""

    def test_current_version_reads_fine_after_many_writes(self):
        from repro.tee import SecureStorage

        storage = SecureStorage()
        for i in range(5):
            storage.put("ta", "k", f"v{i}".encode())
        assert storage.get("ta", "k") == b"v4"

    def test_counter_survives_delete(self):
        """An RPMB counter never decreases: ``delete`` must not let a blob
        sealed before it be replayed over whatever is written after it."""
        from repro.tee import RollbackError, SecureStorage

        storage = SecureStorage()
        storage.put("ta", "k", b"OLD")
        key = SecureStorage._key("ta", "k")
        old_blob = storage.backend.get(key)
        storage.delete("ta", "k")
        with pytest.raises(KeyError):
            storage.get("ta", "k")
        storage.backend.put(key, old_blob)  # resurrecting the deleted object
        with pytest.raises(RollbackError):
            storage.get("ta", "k")
        storage.put("ta", "k", b"NEW")
        assert storage.get("ta", "k") == b"NEW"
        storage.backend.put(key, old_blob)  # replaying it over its successor
        with pytest.raises(RollbackError, match="version 1, trusted counter says 3"):
            storage.get("ta", "k")

    @pytest.mark.parametrize(
        "text", ["[]", '{"k": null}', '{"k": "x"}', '{"k": true}', '{"k": -3}', "{"]
    )
    def test_malformed_counter_file_is_an_integrity_error(self, tmp_path, text):
        counters = tmp_path / "counters.json"
        counters.write_text(text)
        with pytest.raises(IntegrityError, match=f"trusted counter file {counters}"):
            SecureStorage(counters_path=str(counters))


class TestMetrics:
    """``tee.storage.*`` counters are exact, so tests assert them with ``==``."""

    def test_bytes_and_verify_failures(self):
        from repro.tee import RollbackError

        with obs.fresh() as ctx:
            storage = SecureStorage()
            bytes_moved = ctx.registry.counter("tee.storage.bytes")
            failures = ctx.registry.counter("tee.storage.verify_failures")
            # Registered at construction: exported (empty) before any traffic.
            obs.validate_metrics(
                ctx.registry.snapshot(),
                required=("tee.storage.bytes", "tee.storage.verify_failures"),
            )
            storage.put("ta", "k", b"x" * 100)
            old = storage.backend.get("ta:k")
            storage.put("ta", "k", b"y" * 40)
            storage.get("ta", "k")
            assert bytes_moved.value(op="put") == 140
            assert bytes_moved.value(op="get") == 40

            storage.backend.put("ta:k", old)
            with pytest.raises(RollbackError):
                storage.get("ta", "k")
            storage.backend.put("ta:k", old[:-1])
            with pytest.raises(IntegrityError):
                storage.get("ta", "k")
            assert failures.value(kind="rollback") == 1
            assert failures.value(kind="integrity") == 1
            assert bytes_moved.value(op="get") == 40  # refused reads move nothing

    def test_fleet_unseals_every_shard_every_cycle(self):
        """6 clients x 2 cycles = 12 verified reads of the full sealed shard."""
        from repro.data import synthetic_cifar
        from repro.fl import FLClient, FLServer, TrainingPlan
        from repro.fl.client import _dataset_to_bytes
        from repro.nn import lenet5

        with obs.fresh() as ctx:
            shards = synthetic_cifar(num_samples=48, num_classes=5, seed=0).shard(6)
            model = lenet5(num_classes=5, seed=7, scale=0.5)
            server = FLServer(model, TrainingPlan(lr=0.1, batch_size=8, local_steps=1))
            clients = [
                FLClient(f"client-{i}", shard, model.clone(), seed=i)
                for i, shard in enumerate(shards)
            ]
            for _ in range(2):
                server.run_cycle(clients)
            shard_bytes = len(_dataset_to_bytes(shards[0]))
            assert all(len(_dataset_to_bytes(s)) == shard_bytes for s in shards)
            bytes_moved = ctx.registry.counter("tee.storage.bytes")
            assert bytes_moved.value(op="put") == 6 * shard_bytes
            assert bytes_moved.value(op="get") == 12 * shard_bytes
            assert ctx.registry.counter("tee.storage.verify_failures").total() == 0
