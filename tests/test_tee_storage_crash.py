"""Crash-atomicity of secure storage: a write that dies must not lose data.

:meth:`SecureStorage.put` writes the sealed blob, then advances the trusted
counter.  These tests kill the backend around that blob write
(fault-injected: ``before`` it, ``torn`` through it, ``after`` it) and pin
down the contract: the previous version stays readable, a torn blob is
detected as tampering, a whole blob one ahead of its counter is rolled
forward, and replaying a stale blob after any of them is still caught by
the rollback counter.  The last test enumerates every crash point of four
short engine runs rather than hoping a SIGKILL lands on one.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import VirtualClock
from repro.serve import LoadSpec, ServeHarness
from repro.serve.coordinator import TA_UUID
from repro.serve.loadgen import HARNESS_CHECKPOINT
from repro.sim import FLSimulator, SimConfig
from repro.tee.storage import (
    BackendCrash,
    FaultInjectedBackend,
    InMemoryBackend,
    ReeFsBackend,
    RollbackError,
    SecureStorage,
)
from repro.tee.world import IntegrityError

TA = "ta-crash-tests"
SSK = b"\x42" * 32


class TestCrashBeforeWrite:
    def test_previous_version_survives(self):
        backend = FaultInjectedBackend(fail_on_put={1}, mode="before")
        storage = SecureStorage(backend, ssk=SSK)
        storage.put(TA, "obj", b"version-1")
        with pytest.raises(BackendCrash):
            storage.put(TA, "obj", b"version-2")
        assert storage.get(TA, "obj") == b"version-1"

    def test_crash_on_first_write_leaves_nothing(self):
        backend = FaultInjectedBackend(fail_on_put={0}, mode="before")
        storage = SecureStorage(backend, ssk=SSK)
        with pytest.raises(BackendCrash):
            storage.put(TA, "obj", b"never-lands")
        with pytest.raises(KeyError):
            storage.get(TA, "obj")

    def test_storage_usable_after_crash(self):
        backend = FaultInjectedBackend(fail_on_put={1}, mode="before")
        storage = SecureStorage(backend, ssk=SSK)
        storage.put(TA, "obj", b"v1")
        with pytest.raises(BackendCrash):
            storage.put(TA, "obj", b"v2-dies")
        storage.put(TA, "obj", b"v2-retry")
        assert storage.get(TA, "obj") == b"v2-retry"


class TestTornWrite:
    def test_torn_blob_fails_integrity_not_rollback(self):
        backend = FaultInjectedBackend(fail_on_put={1}, mode="torn")
        storage = SecureStorage(backend, ssk=SSK)
        storage.put(TA, "obj", b"version-1" * 50)
        with pytest.raises(BackendCrash):
            storage.put(TA, "obj", b"version-2" * 50)
        # the half-written blob replaced v1 on the medium; the MAC check
        # must reject it loudly rather than return garbage
        with pytest.raises(IntegrityError):
            storage.get(TA, "obj")

    def test_recovery_after_torn_write(self):
        backend = FaultInjectedBackend(fail_on_put={1}, mode="torn")
        storage = SecureStorage(backend, ssk=SSK)
        storage.put(TA, "obj", b"v1")
        with pytest.raises(BackendCrash):
            storage.put(TA, "obj", b"v2-dies")
        storage.put(TA, "obj", b"v2-good")
        assert storage.get(TA, "obj") == b"v2-good"


class TestRollbackAfterCrash:
    def test_replayed_stale_blob_rejected(self):
        """A crash must not open a replay window: after recovery, serving
        the old (genuinely sealed) blob still trips the counter."""
        inner = InMemoryBackend()
        backend = FaultInjectedBackend(inner, fail_on_put={1}, mode="before")
        storage = SecureStorage(backend, ssk=SSK)
        storage.put(TA, "obj", b"version-1")
        key = SecureStorage._key(TA, "obj")
        stale = inner.get(key)
        with pytest.raises(BackendCrash):
            storage.put(TA, "obj", b"version-2")
        storage.put(TA, "obj", b"version-2")  # recovery write (counter -> 2)
        # attacker swaps the current blob for the pre-crash one
        inner.put(key, stale)
        with pytest.raises(RollbackError):
            storage.get(TA, "obj")

    def test_counter_not_advanced_by_failed_put(self):
        backend = FaultInjectedBackend(fail_on_put={1}, mode="before")
        storage = SecureStorage(backend, ssk=SSK)
        storage.put(TA, "obj", b"v1")
        with pytest.raises(BackendCrash):
            storage.put(TA, "obj", b"v2")
        # v1 is still the trusted version — reads keep succeeding, which
        # they could not if the counter had advanced past the stored blob
        assert storage.get(TA, "obj") == b"v1"
        assert storage.get(TA, "obj") == b"v1"


class TestPersistentCounters:
    def test_counters_survive_restart(self, tmp_path):
        counters = str(tmp_path / "counters.json")
        backend = ReeFsBackend(str(tmp_path / "blobs"))
        first = SecureStorage(backend, ssk=SSK, counters_path=counters)
        first.put(TA, "obj", b"v1")
        first.put(TA, "obj", b"v2")
        # a fresh instance (new process) trusts the persisted counter
        second = SecureStorage(backend, ssk=SSK, counters_path=counters)
        assert second.get(TA, "obj") == b"v2"

    def test_replay_rejected_across_restart(self, tmp_path):
        counters = str(tmp_path / "counters.json")
        blob_dir = tmp_path / "blobs"
        backend = ReeFsBackend(str(blob_dir))
        first = SecureStorage(backend, ssk=SSK, counters_path=counters)
        first.put(TA, "obj", b"v1")
        key = SecureStorage._key(TA, "obj")
        stale = backend.get(key)
        first.put(TA, "obj", b"v2")
        backend.put(key, stale)  # attacker rolls the file back
        second = SecureStorage(backend, ssk=SSK, counters_path=counters)
        with pytest.raises(RollbackError):
            second.get(TA, "obj")

    def test_without_counter_file_fresh_instance_trusts_nothing(self, tmp_path):
        backend = ReeFsBackend(str(tmp_path / "blobs"))
        first = SecureStorage(backend, ssk=SSK)
        first.put(TA, "obj", b"v1")
        second = SecureStorage(backend, ssk=SSK)
        with pytest.raises(RollbackError):
            second.get(TA, "obj")


class TestFaultInjectedBackendPlumbing:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            FaultInjectedBackend(mode="sideways")

    def test_delegates_when_healthy(self):
        inner = InMemoryBackend()
        backend = FaultInjectedBackend(inner)
        backend.put("k", b"blob")
        assert backend.get("k") == b"blob"
        assert backend.keys() == ("k",)
        backend.delete("k")
        assert backend.get("k") is None
        assert backend.puts == 1

    def test_simulator_checkpoint_crash_leaves_resumable_state(self):
        """End-to-end: the simulator's checkpoint write dies, the previous
        checkpoint still resumes the run to the exact reference weights."""
        config = SimConfig(num_clients=40, rounds=3, seed=5, cohort=8)
        with obs.fresh(clock=VirtualClock()) as ctx:
            reference = FLSimulator(config, clock=ctx.clock).run()

        # checkpoint writes are puts #0,#1,#2; kill the one after round 2
        backend = FaultInjectedBackend(fail_on_put={1}, mode="before")
        storage = SecureStorage(backend, ssk=SSK)
        with obs.fresh(clock=VirtualClock()) as ctx:
            sim = FLSimulator(config, storage=storage, clock=ctx.clock)
            sim.step_round()
            with pytest.raises(BackendCrash):
                sim.step_round()  # round 1 trains fine, checkpoint dies
        with obs.fresh(clock=VirtualClock()) as ctx:
            resumed = FLSimulator(config, storage=storage, clock=ctx.clock)
            assert resumed.resumed_from == 1  # round 0's checkpoint survived
            report = resumed.run()
        assert report["weights_sha256"] == reference["weights_sha256"]
        assert report["rounds"] == reference["rounds"]


class TestRollForward:
    """The ``after`` window: the blob landed, its counter did not."""

    def torn_after(self, tmp_path, puts_before_crash=1):
        """A storage whose put #``puts_before_crash`` died in ``after`` mode:
        (inner backend, reopen() -> fresh SecureStorage, blob before the crash)."""
        inner = InMemoryBackend()
        counters = str(tmp_path / "counters.json")

        def reopen(backend=inner):
            return SecureStorage(backend, ssk=SSK, counters_path=counters)

        dying = reopen(FaultInjectedBackend(inner, {puts_before_crash}, "after"))
        for i in range(puts_before_crash):
            dying.put(TA, "obj", f"v{i + 1}".encode())
        previous = inner.get(SecureStorage._key(TA, "obj"))
        with pytest.raises(BackendCrash):
            dying.put(TA, "obj", b"landed")
        return inner, reopen, previous

    def test_get_completes_the_put_and_says_so(self, tmp_path):
        inner, reopen, _ = self.torn_after(tmp_path)
        with obs.fresh() as ctx:
            assert reopen().get(TA, "obj") == b"landed"
            assert ctx.registry.counter("tee.storage.recoveries").total() == 1
            # a recovery is not a refusal
            assert ctx.registry.counter("tee.storage.verify_failures").series() == {}
            # the advanced counter was persisted: a later process reads the
            # object as current, without recovering anything again
            assert reopen().get(TA, "obj") == b"landed"
            assert ctx.registry.counter("tee.storage.recoveries").total() == 1

    def test_torn_first_put_rolls_forward(self, tmp_path):
        _, reopen, previous = self.torn_after(tmp_path, puts_before_crash=0)
        assert previous is None
        assert reopen().get(TA, "obj") == b"landed"

    def test_previous_blob_is_stale_after_roll_forward(self, tmp_path):
        inner, reopen, previous = self.torn_after(tmp_path)
        assert reopen().get(TA, "obj") == b"landed"
        inner.put(SecureStorage._key(TA, "obj"), previous)
        with pytest.raises(RollbackError):
            reopen().get(TA, "obj")  # a new process: the counter was persisted

    def test_two_ahead_is_refused(self, tmp_path):
        """Only ``counter + 1`` can be this device's torn put; a blob further
        ahead is refused like any other version mismatch."""
        inner, reopen, _ = self.torn_after(tmp_path)
        key = SecureStorage._key(TA, "obj")
        ahead = SecureStorage(InMemoryBackend(), ssk=SSK)
        for payload in (b"1", b"2", b"3"):
            ahead.put(TA, "obj", payload)
        inner.put(key, ahead.backend.get(key))
        with pytest.raises(RollbackError, match="version 3, trusted counter says 1"):
            reopen().get(TA, "obj")

    def test_no_trusted_record_no_roll_forward(self, tmp_path):
        """Version 1 over *no* record is a foreign blob, not a torn first put."""
        inner, _, _ = self.torn_after(tmp_path, puts_before_crash=0)
        with pytest.raises(RollbackError):
            SecureStorage(inner, ssk=SSK).get(TA, "obj")

    def test_latest_verifiable_is_get_or_none(self, tmp_path):
        inner, reopen, previous = self.torn_after(tmp_path)
        key = SecureStorage._key(TA, "obj")
        with obs.fresh() as ctx:
            storage = reopen()
            failures = ctx.registry.counter("tee.storage.verify_failures")
            assert storage.latest_verifiable(TA, "absent") is None
            assert failures.series() == {}
            assert storage.latest_verifiable(TA, "obj") == b"landed"
            genuine = inner.get(key)
            inner.put(key, previous)
            assert storage.latest_verifiable(TA, "obj") is None
            inner.put(key, genuine[:-1])
            assert storage.latest_verifiable(TA, "obj") is None
            assert failures.value(kind="rollback") == 1
            assert failures.value(kind="integrity") == 1
            with pytest.raises(IntegrityError):  # get itself still raises
                storage.get(TA, "obj")


def _simulate(**config):
    def drive(storage, clock):
        sim = FLSimulator(SimConfig(**config), storage=storage, clock=clock)
        report = sim.run()
        del report["resumed_from_round"]
        return report, sim.resumed_from is not None

    return drive, (FLSimulator.TA_UUID, "fl-round-checkpoint")


def _serve(**spec):
    spec = dict(
        tenant="t0", job_id="j0", clients=12, commits=2,
        buffer_size=3, concurrency=4, seed=11, **spec,
    )

    def drive(storage, clock):
        harness = ServeHarness(
            [LoadSpec(**spec)], storage=storage, checkpoint_every=1, clock=clock
        )
        resumed = harness.restore()
        return harness.run(), resumed

    return drive, (TA_UUID, HARNESS_CHECKPOINT)


RUNS = {
    "sim-sync": _simulate(num_clients=40, rounds=3, seed=5, cohort=8),
    "sim-async": _simulate(
        num_clients=16, rounds=3, seed=5, cohort=6, async_mode=True, buffer_size=4
    ),
    "serve-clean": _serve(),
    # chaos seed 3: reorders, a truncation and a retransmit inside 26 puts
    "serve-chaos": _serve(chaos=True, chaos_rate=0.1, chaos_seed=3),
}


@pytest.mark.parametrize("run", RUNS)
def test_every_crash_point_resumes_to_the_uninterrupted_report(run, tmp_path):
    """For every backend put *k* of the run and every way it can die: the run
    dies with it, a fresh process over the same medium and counters resumes
    without raising and reports the uninterrupted run's bytes."""
    drive, (ta, name) = RUNS[run]
    key = SecureStorage._key(ta, name)
    healthy = FaultInjectedBackend()
    with obs.fresh(clock=VirtualClock()) as ctx:
        reference, _ = drive(SecureStorage(healthy, ssk=SSK), ctx.clock)
    assert healthy.puts >= 3

    for k in range(healthy.puts):
        for mode in ("before", "torn", "after"):
            inner = InMemoryBackend()
            counters = str(tmp_path / f"counters-{k}-{mode}.json")

            def reopen(backend):
                return SecureStorage(backend, ssk=SSK, counters_path=counters)

            with obs.fresh(clock=VirtualClock()) as ctx:
                with pytest.raises(BackendCrash):
                    drive(reopen(FaultInjectedBackend(inner, {k}, mode)), ctx.clock)
            at_crash = inner.get(key)

            case = f"{run}: put #{k} died {mode}"
            counting = FaultInjectedBackend(inner)
            with obs.fresh(clock=VirtualClock()) as ctx:
                storage = reopen(counting)
                report, resumed = drive(storage, ctx.clock)
                recoveries = ctx.registry.counter("tee.storage.recoveries")
                failures = ctx.registry.counter("tee.storage.verify_failures")
                assert recoveries.total() == (mode == "after"), case
                assert failures.series() == (
                    {"kind=integrity": 1} if mode == "torn" else {}
                ), case
            assert report == reference, case
            if mode == "after" or (mode == "before" and k > 0):
                # From a checkpoint, not from zero: at most the one interval
                # that died is redone.
                assert resumed, case
                assert counting.puts <= healthy.puts - k, case
            if at_crash is not None and counting.puts:
                # No version number is reused after a torn write: whatever
                # sat on the medium at the crash instant is stale once the
                # resumed run has checkpointed again.
                inner.put(key, at_crash)
                refused = IntegrityError if mode == "torn" else RollbackError
                with pytest.raises(refused):
                    storage.get(ta, name)
