"""Fuzz suite for sealed state: hostile stored bytes only ever fail verification.

What the untrusted backend hands back is attacker-controlled.  For a plain
:class:`SecureStorage` object and for a :class:`ServeHarness` checkpoint:

* every single-bit flip of the stored blob (exhaustive on the small object;
  the whole header plus a seeded sample of the body on the checkpoint) and
  every truncation length raise :class:`IntegrityError`;
* a replayed older *genuine* blob raises :class:`RollbackError`;
* ``ServeHarness.restore()`` answers ``False`` to all of them and loads
  nothing — the same harness then resumes from the genuine blob and finishes
  byte-identical to an uninterrupted run.

No other exception type is acceptable: ``restore`` discards a checkpoint only
on those two.
"""

import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.obs import VirtualClock
from repro.serve import LoadSpec, ServeHarness
from repro.serve.coordinator import TA_UUID
from repro.serve.loadgen import HARNESS_CHECKPOINT
from repro.tee import IntegrityError, RollbackError
from repro.tee.storage import InMemoryBackend, SecureStorage


def bit_flips(blob: bytes, bits):
    for bit in bits:
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        yield bytes(damaged)


def truncations(blob: bytes):
    return (blob[:length] for length in range(len(blob)))


class TestSecureObject:
    def setup_method(self):
        self.storage = SecureStorage()
        self.storage.put("ta", "obj", b"v1: twenty-four bytes!!!")
        self.key = SecureStorage._key("ta", "obj")
        self.genuine = self.storage.backend.get(self.key)

    def assert_refused(self, blob, error):
        self.storage.backend.put(self.key, blob)
        with pytest.raises(error):
            self.storage.get("ta", "obj")

    def test_every_bit_flip_fails_integrity(self):
        for damaged in bit_flips(self.genuine, range(8 * len(self.genuine))):
            self.assert_refused(damaged, IntegrityError)
        self.storage.backend.put(self.key, self.genuine)
        assert self.storage.get("ta", "obj") == b"v1: twenty-four bytes!!!"

    def test_every_truncation_fails_integrity(self):
        for damaged in truncations(self.genuine):
            self.assert_refused(damaged, IntegrityError)

    def test_replayed_genuine_blob_fails_rollback(self):
        self.storage.put("ta", "obj", b"v2")
        self.assert_refused(self.genuine, RollbackError)


@pytest.mark.serve
class TestHarnessCheckpoint:
    SPEC = dict(
        tenant="t0", job_id="j0", clients=30, commits=2,
        buffer_size=4, concurrency=8, seed=11,
    )

    @pytest.fixture
    def killed(self, tmp_path):
        """A run killed after two checkpoints: (storage, key, older blob, latest blob)."""
        storage = SecureStorage(
            InMemoryBackend(),
            ssk=hashlib.sha256(b"storage-fuzz").digest(),
            counters_path=os.path.join(tmp_path, "counters.json"),
        )
        key = SecureStorage._key(TA_UUID, HARNESS_CHECKPOINT)
        with obs.fresh(clock=VirtualClock()) as ctx:
            harness = ServeHarness([LoadSpec(**self.SPEC)], storage=storage, clock=ctx.clock)
            harness.run(max_events=3)
            older = storage.backend.get(key)
            harness.run(max_events=4)
            assert not harness.finished
        return storage, key, older, storage.backend.get(key)

    def test_hostile_checkpoints_are_discarded_whole(self, killed):
        storage, key, older, genuine = killed
        rng = np.random.default_rng(0)
        header = 8 * (5 + 4 + 80 + 48)  # magic, FEK length, wrapped FEK, payload nonce + tag
        sampled = rng.choice(np.arange(header, 8 * len(genuine)), size=1500, replace=False)
        damaged = itertools.chain(
            bit_flips(genuine, range(header)),
            bit_flips(genuine, sampled.tolist()),
            truncations(genuine),
        )
        with obs.fresh(clock=VirtualClock()) as ctx:
            reference = ServeHarness([LoadSpec(**self.SPEC)], clock=ctx.clock).run()
        with obs.fresh(clock=VirtualClock()) as ctx:
            harness = ServeHarness([LoadSpec(**self.SPEC)], storage=storage, clock=ctx.clock)

            def assert_discarded(blob, error):
                storage.backend.put(key, blob)
                with pytest.raises(error):
                    storage.get(TA_UUID, HARNESS_CHECKPOINT)
                assert harness.restore() is False

            for blob in damaged:
                assert_discarded(blob, IntegrityError)
            assert_discarded(older, RollbackError)
            # Nothing was loaded along the way: the genuine blob still resumes
            # this very harness to the uninterrupted run's exact report.
            storage.backend.put(key, genuine)
            assert harness.restore() is True
            resumed = harness.run()
        assert json.dumps(resumed, sort_keys=True) == json.dumps(reference, sort_keys=True)
