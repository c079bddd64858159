"""Coordinator suite: lifecycle, quotas, exactness, crash recovery."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.fl.admission import AdmissionConfig
from repro.fl.buffer import BufferedAggregator
from repro.fl.config import BufferConfig, ShardingConfig
from repro.nn import mlp
from repro.obs import VirtualClock, validate_metrics
from repro.serve import (
    ClientUpdateMsg,
    Coordinator,
    Encoding,
    FrameError,
    JobState,
    LoadSpec,
    ServeHarness,
    TenantQuota,
    WireVector,
    decode_frame,
    encode_frame,
)
from repro.tee.storage import ReeFsBackend, SecureStorage

pytestmark = pytest.mark.serve

REQUIRED_METRICS = (
    "serve.jobs.active",
    "serve.queue.depth",
    "serve.backpressure.rejects",
)


@pytest.fixture
def fresh_obs():
    with obs.fresh(clock=VirtualClock()) as ctx:
        yield ctx


@pytest.fixture
def weights():
    return mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=0).get_weights()


def update_frame(
    job, dispatch, *, client=None, base_version=None, scale=0.01, num_samples=32
):
    """A deterministic dense f64 update frame for ``job``."""
    base_version = job.version if base_version is None else base_version
    client = dispatch % 10 if client is None else client
    delta = scale * np.random.default_rng((1234, dispatch)).standard_normal(job.size)
    return encode_frame(
        ClientUpdateMsg(
            job.job_id,
            client,
            dispatch,
            base_version,
            num_samples,
            WireVector.dense(delta),
        )
    )


def drive(coordinator, job, dispatches, **kwargs):
    """Submit + pump a batch of updates; return all commit events."""
    commits = []
    for dispatch in dispatches:
        assert coordinator.submit(update_frame(job, dispatch, **kwargs)).accepted
        commits.extend(coordinator.pump(job.job_id).commits)
    return commits


class TestLifecycle:
    def test_create_run_commit_done(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job(
            "t0", "j0", weights, buffer=BufferConfig(size=4), target_commits=2
        )
        assert job.state is JobState.RUNNING
        commits = drive(coordinator, job, range(8))
        assert [event.version for event in commits] == [1, 2]
        assert all(event.folds == 4 for event in commits)
        assert job.state is JobState.DONE
        assert job.version == 2
        # after DONE further submissions are refused
        result = coordinator.submit(update_frame(job, 99))
        assert not result.accepted and result.reason == "state"

    def test_drain_commits_partial_window(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights, buffer=BufferConfig(size=8))
        drive(coordinator, job, range(3))
        assert job.window.pending == 3
        result = coordinator.drain("j0")
        assert len(result.commits) == 1 and result.commits[0].folds == 3
        assert job.state is JobState.DONE

    def test_commit_changes_model_and_download_tracks_it(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights, buffer=BufferConfig(size=2))
        before = job.flat.copy()
        drive(coordinator, job, range(2))
        assert not np.array_equal(job.flat, before)
        message, _ = decode_frame(coordinator.model_frame("j0"))
        assert message.version == 1
        assert np.array_equal(message.vector.flat64(), job.flat)

    def test_multi_tenant_jobs_are_independent(self, fresh_obs, weights):
        coordinator = Coordinator()
        a = coordinator.create_job("t0", "a", weights, buffer=BufferConfig(size=2))
        b = coordinator.create_job("t1", "b", weights, buffer=BufferConfig(size=2))
        drive(coordinator, a, range(2))
        assert a.version == 1 and b.version == 0
        # same updates into b produce the same model: jobs share nothing
        drive(coordinator, b, range(2))
        assert np.array_equal(a.flat, b.flat)


class TestQuotas:
    def test_tenant_job_quota(self, fresh_obs, weights):
        coordinator = Coordinator(quota=TenantQuota(max_jobs=2))
        coordinator.create_job("t0", "a", weights)
        coordinator.create_job("t0", "b", weights)
        with pytest.raises(ValueError, match="quota"):
            coordinator.create_job("t0", "c", weights)
        # another tenant is unaffected
        coordinator.create_job("t1", "c", weights)

    def test_backpressure_sheds_load(self, fresh_obs, weights):
        coordinator = Coordinator(quota=TenantQuota(max_queue_depth=3))
        job = coordinator.create_job("t0", "j0", weights, buffer=BufferConfig(size=64))
        for dispatch in range(3):
            assert coordinator.submit(update_frame(job, dispatch)).accepted
        result = coordinator.submit(update_frame(job, 3))
        assert not result.accepted and result.reason == "backpressure"
        snapshot = fresh_obs.registry.snapshot()
        assert sum(snapshot["counters"]["serve.backpressure.rejects"].values()) == 1.0
        assert job.rejects == {"backpressure": 1}

    def test_stale_base_version_is_refused(self, fresh_obs, weights):
        coordinator = Coordinator(quota=TenantQuota(max_version_lag=1))
        job = coordinator.create_job("t0", "j0", weights, buffer=BufferConfig(size=1))
        drive(coordinator, job, range(3))  # version == 3
        ok = coordinator.submit(update_frame(job, 10, base_version=2))
        assert ok.accepted
        stale = coordinator.submit(update_frame(job, 11, base_version=1))
        assert not stale.accepted and stale.reason == "stale"
        future = coordinator.submit(update_frame(job, 12, base_version=9))
        assert not future.accepted and future.reason == "stale"

    def test_trailing_bytes_are_a_frame_error_before_anything_is_charged(
        self, fresh_obs, weights
    ):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights)
        frame = update_frame(job, 0)
        for tail in (b"junk", b"\x00" * 37, frame):
            with pytest.raises(FrameError, match="one frame"):
                coordinator.submit(frame + tail)
        assert job.bytes_up == 0 and not job.queue and not job.rejects
        assert coordinator.submit(frame).accepted
        assert job.bytes_up == len(frame)

    def test_zero_sample_update_is_a_structure_reject(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights, buffer=BufferConfig(size=2))
        assert coordinator.submit(update_frame(job, 0, num_samples=0)).accepted
        result = coordinator.pump("j0")
        assert result.rejected == ((0, "structure"),)
        assert job.rejects == {"structure": 1}
        assert job.folds == 0 and job.window.pending == 0
        rejected = fresh_obs.registry.counter("serve.submit.rejected")
        assert rejected.value(reason="structure") == 1
        # Nothing was folded, and the job keeps folding and committing.
        assert [event.version for event in drive(coordinator, job, [1, 2])] == [1]

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_update_without_admission_is_a_structure_reject(
        self, fresh_obs, weights, scale
    ):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights, buffer=BufferConfig(size=2))
        assert coordinator.submit(update_frame(job, 0, scale=scale)).accepted
        result = coordinator.pump("j0")
        assert result.rejected == ((0, "structure"),)
        assert job.rejects == {"structure": 1}
        assert job.folds == 0 and job.window.pending == 0
        rejected = fresh_obs.registry.counter("serve.submit.rejected")
        assert rejected.value(reason="structure") == 1
        assert [event.version for event in drive(coordinator, job, [1, 2])] == [1]
        assert np.isfinite(job.flat).all()

    def test_unknown_job_is_refused(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights)
        frame = update_frame(job, 0)
        coordinator2 = Coordinator()
        result = coordinator2.submit(frame)
        assert not result.accepted and result.reason == "unknown_job"


class TestAdmission:
    def test_over_norm_update_rejected_then_quarantined(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job(
            "t0",
            "j0",
            weights,
            buffer=BufferConfig(size=4),
            admission=AdmissionConfig(max_norm=0.5),
        )
        # one hostile client (7) sends huge deltas; honest ones pass
        for dispatch in range(12):
            client = 7 if dispatch % 4 == 3 else dispatch % 3
            scale = 100.0 if client == 7 else 0.001
            coordinator.submit(
                update_frame(job, dispatch, client=client, scale=scale)
            )
        coordinator.pump("j0")
        assert job.rejects.get("admission", 0) >= 2
        assert job.admitted > 0
        # repeated rejections quarantine the client
        assert job.reputation.is_blocked("client-7", job.version) or job.rejects.get(
            "quarantined", 0
        ) >= 0  # ledger reachable either way

    def test_clip_folds_rescaled_update(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job(
            "t0",
            "j0",
            weights,
            buffer=BufferConfig(size=1),
            admission=AdmissionConfig(max_norm=0.5, clip=True),
        )
        drive(coordinator, job, [0], scale=100.0)
        assert job.version == 1
        assert job.rejects.get("admission", 0) == 0
        delta_norm = float(np.linalg.norm(job.flat - job.versions[0]))
        assert delta_norm <= 0.5 + 1e-9


class TestCheckpointResume:
    """``state_dict()`` → JSON → ``load_state()`` is the coordinator's whole
    durability surface; sealing the JSON is :class:`ServeHarness`'s job."""

    def _kill_mid_window_and_resume(self, weights, **config):
        """12 updates into 4-wide windows, killed after 6 (1.5 windows).

        Returns the checkpointed snapshot and the resumed job; asserts the
        resumed coordinator ends bit-for-bit where an uninterrupted one does.
        """
        config.update(buffer=BufferConfig(size=4), target_commits=3)
        with obs.fresh(clock=VirtualClock()):
            coordinator = Coordinator()
            job = coordinator.create_job("t0", "j0", weights, **config)
            frames = [update_frame(job, dispatch) for dispatch in range(12)]
            for frame in frames:
                coordinator.submit(frame)
                coordinator.pump("j0")
            reference = coordinator.state_dict()

        with obs.fresh(clock=VirtualClock()):
            coordinator = Coordinator()
            coordinator.create_job("t0", "j0", weights, **config)
            for frame in frames[:6]:
                coordinator.submit(frame)
                coordinator.pump("j0")
            snapshot = coordinator.state_dict()
            checkpoint = json.dumps(snapshot, sort_keys=True)

        with obs.fresh(clock=VirtualClock()):
            resumed = Coordinator()
            resumed.load_state(json.loads(checkpoint))
            job = resumed.jobs["j0"]
            assert job.window.pending == 2
            for frame in frames[6:]:
                resumed.submit(frame)
                resumed.pump("j0")
            assert job.version == 3
            assert resumed.state_dict() == reference
        return snapshot, job

    def test_mid_window_checkpoint_resumes_bitwise(self, weights):
        self._kill_mid_window_and_resume(weights)

    def test_sharded_mid_window_checkpoint_resumes_and_commits(self, weights):
        """A ``--shards 4`` job resumes from the checkpoint alone: the window
        kind is no longer an option a checkpoint and a command line can
        disagree on."""
        snapshot, job = self._kill_mid_window_and_resume(
            weights, sharding=ShardingConfig(num_shards=4)
        )
        assert "workers" not in snapshot
        assert "gathered" not in snapshot["jobs"][0]
        assert isinstance(job.window, BufferedAggregator)

    @pytest.mark.parametrize("marker", ["flag", "window"])
    def test_gathered_snapshot_is_refused(self, weights, marker):
        """Checkpoints written by the removed worker-pool window are schema-1
        checkpoints: refused with the typed schema error, never mis-loaded
        into the streaming window."""
        with obs.fresh(clock=VirtualClock()):
            coordinator = Coordinator()
            coordinator.create_job(
                "t0",
                "j0",
                weights,
                buffer=BufferConfig(size=4),
                sharding=ShardingConfig(num_shards=2),
            )
            state = json.loads(json.dumps(coordinator.state_dict()))
            state["schema"] = 1
            if marker == "flag":
                state["workers"] = 2
                state["jobs"][0]["gathered"] = True
            state["jobs"][0]["window"] = {
                "kind": "gathered",
                "pending": 0,
                "peak_bytes": 0,
                "rows": [[], []],
            }
            with pytest.raises(ValueError, match="schema"):
                Coordinator().load_state(state)

    SPEC = dict(
        tenant="t0", job_id="j0", clients=30, commits=2,
        buffer_size=4, concurrency=8, seed=11,
    )

    def _harness(self, ctx, storage):
        return ServeHarness([LoadSpec(**self.SPEC)], storage=storage, clock=ctx.clock)

    def test_restore_without_checkpoint_is_false(self):
        with obs.fresh(clock=VirtualClock()) as ctx:
            assert self._harness(ctx, SecureStorage()).restore() is False

    def test_torn_counter_checkpoint_is_discarded(self, tmp_path):
        # The trusted counters are lost outright (not merely one put behind,
        # which rolls forward): no record for the object, so nothing is
        # trusted.  Restore answers "no checkpoint", never crashes or loads.
        ssk = hashlib.sha256(b"serve-torn").digest()
        blob_dir = str(tmp_path / "blobs")
        counters = str(tmp_path / "counters.json")

        def reopen():
            return SecureStorage(
                ReeFsBackend(blob_dir), ssk=ssk, counters_path=counters
            )

        with obs.fresh(clock=VirtualClock()) as ctx:
            self._harness(ctx, reopen()).run(max_events=3)
        os.unlink(counters)
        with obs.fresh(clock=VirtualClock()) as ctx:
            reopened = reopen()
            resumed = self._harness(ctx, reopened)
            assert resumed.restore() is False
            assert resumed.events_processed == 0
            # and the next checkpoint simply overwrites the orphaned object
            resumed.run(max_events=3)
            assert self._harness(ctx, reopened).restore() is True

    def test_checkpoint_preserves_staged_queue(self, weights):
        with obs.fresh(clock=VirtualClock()):
            coordinator = Coordinator()
            job = coordinator.create_job(
                "t0", "j0", weights, buffer=BufferConfig(size=8)
            )
            for dispatch in range(3):
                coordinator.submit(update_frame(job, dispatch))
            # 3 staged, none folded
            checkpoint = json.dumps(coordinator.state_dict(), sort_keys=True)
        with obs.fresh(clock=VirtualClock()):
            resumed = Coordinator()
            resumed.load_state(json.loads(checkpoint))
            assert len(resumed.jobs["j0"].queue) == 3
            resumed.pump("j0")
            assert resumed.jobs["j0"].folds == 3


class TestMetrics:
    def test_required_serve_metrics_always_present(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights, buffer=BufferConfig(size=2))
        drive(coordinator, job, range(2))
        snapshot = fresh_obs.registry.snapshot()
        validate_metrics(snapshot, required=REQUIRED_METRICS)
        assert snapshot["gauges"]["serve.jobs.active"][""] == 1.0

    def test_gauges_track_a_recount_through_every_transition(self, fresh_obs, weights):
        """The running totals behind the gauges equal a recount over the jobs
        after each call that can stage, fold, finish or restore."""
        coordinator = Coordinator(quota=TenantQuota(max_queue_depth=3))

        def check(who=None):
            who = who or coordinator
            gauges = obs.get_registry().snapshot()["gauges"]
            assert gauges["serve.jobs.active"][""] == sum(
                1 for job in who.jobs.values() if job.active
            )
            assert gauges["serve.queue.depth"][""] == sum(
                len(job.queue) for job in who.jobs.values()
            )

        check()
        idle = coordinator.create_job("t0", "idle", weights, start=False)
        check()
        a = coordinator.create_job(
            "t0", "a", weights, buffer=BufferConfig(size=2), target_commits=1
        )
        b = coordinator.create_job("t1", "b", weights, buffer=BufferConfig(size=8))
        check()
        for dispatch in range(4):  # fills a's queue, the 4th is shed
            coordinator.submit(update_frame(a, dispatch))
            check()
        coordinator.submit(update_frame(b, 0))
        check()
        coordinator.pump()  # a commits once, finishes, drops its staged third
        assert a.state is JobState.DONE and not a.queue
        check()
        coordinator.submit(update_frame(b, 1))
        snapshot = coordinator.state_dict()
        coordinator.drain("b")
        check()
        coordinator.drain("idle")  # created -> draining -> done in one call
        assert idle.state is JobState.DONE
        check()
        resumed = Coordinator(quota=TenantQuota(max_queue_depth=3))
        resumed.load_state(snapshot)
        check(resumed)
        assert len(resumed.jobs["b"].queue) == 1
