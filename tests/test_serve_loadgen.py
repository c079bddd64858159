"""Load-generator / harness suite: determinism, compression, kill/resume."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.obs import VirtualClock
from repro.serve import LoadSpec, ServeHarness, TenantQuota
from repro.serve.coordinator import TA_UUID
from repro.serve.loadgen import HARNESS_CHECKPOINT
from repro.serve.wire import encode_frame
from repro.tee.storage import InMemoryBackend, SecureStorage

pytestmark = pytest.mark.serve


def run_harness(specs, *, storage=None, resume=False, max_events=None, **kwargs):
    with obs.fresh(clock=VirtualClock()) as ctx:
        harness = ServeHarness(specs, storage=storage, clock=ctx.clock, **kwargs)
        if resume:
            assert harness.restore(), "expected a checkpoint to resume from"
        report = harness.run(max_events=max_events)
        return report, harness.finished


def report_bytes(report):
    return json.dumps(report, sort_keys=True).encode()


def spec(**overrides):
    base = dict(
        tenant="t0",
        job_id="j0",
        clients=60,
        commits=3,
        buffer_size=8,
        concurrency=16,
        seed=11,
    )
    base.update(overrides)
    return LoadSpec(**base)


def storage_for(tmp_path, backend=None):
    return SecureStorage(
        backend or InMemoryBackend(),
        ssk=hashlib.sha256(b"loadgen-test").digest(),
        counters_path=os.path.join(tmp_path, "counters.json"),
    )


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        specs = [spec(dropout=0.05, straggler=0.1, byzantine=0.1, max_norm=50.0)]
        a, _ = run_harness(specs)
        b, _ = run_harness(specs)
        assert report_bytes(a) == report_bytes(b)

    def test_seed_changes_the_report(self):
        a, _ = run_harness([spec()])
        b, _ = run_harness([spec(seed=12)])
        assert a["jobs"][0]["weights_sha256"] != b["jobs"][0]["weights_sha256"]

    def test_multi_tenant_concurrent_jobs(self):
        specs = [
            spec(tenant="t0", job_id="a", seed=1),
            spec(tenant="t1", job_id="b", seed=2),
            spec(tenant="t1", job_id="c", seed=2),
        ]
        report, finished = run_harness(specs)
        assert finished
        by_id = {job["job_id"]: job for job in report["jobs"]}
        assert all(job["commits"] == 3 for job in by_id.values())
        # same spec + same seed → same model, even interleaved with others
        assert by_id["b"]["weights_sha256"] == by_id["c"]["weights_sha256"]
        assert by_id["a"]["weights_sha256"] != by_id["b"]["weights_sha256"]

    def test_shards_do_not_change_the_committed_bytes(self):
        a, _ = run_harness([spec()])
        b, _ = run_harness([spec(shards=4)])
        assert a["jobs"][0]["weights_sha256"] == b["jobs"][0]["weights_sha256"]
        assert a["jobs"][0]["latency_p99_s"] == b["jobs"][0]["latency_p99_s"]


class TestCompression:
    def test_ratio_one_f64_commits_identical_weights(self):
        dense, _ = run_harness([spec()])
        sparse, _ = run_harness([spec(ratio=1.0, encoding="f64")])
        assert (
            dense["jobs"][0]["weights_sha256"]
            == sparse["jobs"][0]["weights_sha256"]
        )

    def test_topk_f32_cuts_uplink_bytes_4x(self):
        dense, _ = run_harness([spec()])
        compressed, _ = run_harness([spec(ratio=0.125, encoding="f32")])
        assert (
            dense["jobs"][0]["bytes_up_per_client"]
            >= 4.0 * compressed["jobs"][0]["bytes_up_per_client"]
        )
        # compression changes the bits (f32 quantization) but still commits
        assert compressed["jobs"][0]["commits"] == 3

    def test_latency_and_bytes_are_reported(self):
        report, _ = run_harness([spec()])
        job = report["jobs"][0]
        assert job["latency_p50_s"] > 0
        assert job["latency_p99_s"] >= job["latency_p50_s"]
        assert job["bytes_up"] > 0 and job["bytes_down"] > 0
        assert job["aggregator_peak_bytes"] > 0


class TestFaults:
    def test_dropouts_are_counted_not_fatal(self):
        report, finished = run_harness([spec(dropout=0.2)])
        assert finished
        assert report["jobs"][0]["drops"] > 0
        assert report["jobs"][0]["commits"] == 3

    def test_admission_rejects_byzantine_updates(self):
        report, _ = run_harness(
            [spec(byzantine=0.3, attack="scale", attack_strength=100.0, max_norm=5.0)]
        )
        job = report["jobs"][0]
        assert job["rejects"].get("admission", 0) > 0
        assert job["commits"] == 3


class TestKillResume:
    def test_resume_at_every_cut_point_matches(self, tmp_path):
        # the strong form: whatever event the process dies on, the resumed
        # run finishes with byte-identical output
        specs = [spec(clients=30, commits=2, buffer_size=4, concurrency=8)]
        uninterrupted, _ = run_harness(specs)
        for cut in (1, 7, 19):
            storage = storage_for(tmp_path / str(cut) if False else tmp_path)
            _, finished = run_harness(specs, storage=storage, max_events=cut)
            if finished:
                continue
            resumed, _ = run_harness(specs, storage=storage, resume=True)
            assert report_bytes(resumed) == report_bytes(uninterrupted), cut

    def test_checkpoint_every_n_still_resumes_identically(self, tmp_path):
        specs = [spec()]
        uninterrupted, _ = run_harness(specs)
        storage = storage_for(tmp_path)
        _, finished = run_harness(
            specs, storage=storage, max_events=20, checkpoint_every=5
        )
        assert not finished
        resumed, _ = run_harness(
            specs, storage=storage, resume=True, checkpoint_every=5
        )
        assert report_bytes(resumed) == report_bytes(uninterrupted)


def pending(generator):
    """Everything a generator holds per unlanded dispatch, ``==``-comparable."""
    table = generator.unacked if generator.chaos else generator._inflight
    return {
        key: {
            field: value.tobytes() if isinstance(value, np.ndarray) else value
            for field, value in info.items()
        }
        for key, info in table.items()
    }


def kill_after_every_event(specs, tmp_path, **kwargs):
    """Kill the run after each event in turn; every resume must rebuild the
    pending frames the victim held and finish on the uninterrupted report.

    Returns the uninterrupted report, at how many cuts some in-flight
    dispatch's base version had already been dropped by its job, and at how
    many the victim's reorder stash was non-empty.
    """
    uninterrupted, _ = run_harness(specs, **kwargs)
    storage = storage_for(tmp_path)
    # One checkpoint per run() call (its last line), none in between.
    kwargs.update(storage=storage, checkpoint_every=10**9)
    dropped_base_cuts = stash_cuts = 0
    with obs.fresh(clock=VirtualClock()) as ctx:
        victim = ServeHarness(specs, clock=ctx.clock, **kwargs)
        while True:
            cut = victim.events_processed
            victim.run(max_events=1)
            if victim.events_processed == cut:
                break
            with obs.fresh(clock=VirtualClock()) as inner:
                resumed = ServeHarness(specs, clock=inner.clock, **kwargs)
                assert resumed.restore()
                for live, rebuilt in zip(victim.generators, resumed.generators):
                    assert pending(rebuilt) == pending(live), cut
                    job = victim.coordinator.jobs[live.spec.job_id]
                    dropped_base_cuts += any(
                        info["base_version"] not in job.versions
                        for info in live._inflight.values()
                    )
                    # The stash is sealed as bytes and decoded on load.
                    stash = resumed.coordinator.jobs[live.spec.job_id].stash
                    assert sorted(stash) == sorted(job.stash), cut
                    for seq, (frame, message) in stash.items():
                        assert frame == job.stash[seq][0], cut
                        assert encode_frame(message, dispatch=seq) == frame, cut
                    stash_cuts += bool(job.stash)
                assert report_bytes(resumed.run()) == report_bytes(uninterrupted), cut
    return uninterrupted, dropped_base_cuts, stash_cuts


class RecordingBackend(InMemoryBackend):
    """Remembers the length of every sealed blob written."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def put(self, key, blob):
        self.sizes.append(len(blob))
        super().put(key, blob)


class TestCheckpointHoldsStateNotFrames:
    """The checkpoint describes who is in flight; frames are rebuilt."""

    @pytest.mark.parametrize(
        "specs",
        [
            [spec(dropout=0.05, straggler=0.2)],
            [spec(ratio=0.25, encoding="f32")],
            [spec(), spec(tenant="t1", job_id="j1", seed=12)],
            [spec(clients=40, chaos=True, chaos_rate=0.1, chaos_seed=3)],
        ],
        ids=["dropout-stragglers", "topk-f32", "two-tenants", "chaos-10pct"],
    )
    def test_resume_after_every_event_rebuilds_the_same_frames(self, tmp_path, specs):
        kill_after_every_event(specs, tmp_path)

    def test_stashed_frames_are_restored_byte_for_byte(self, tmp_path):
        # Reorders and drops leave gaps, so deliveries wait in the stash as
        # (frame, decoded message); a kill there must restore both.
        _, _, stash_cuts = kill_after_every_event(
            [spec(clients=40, commits=2, chaos=True, chaos_rate=0.3, chaos_seed=5)],
            tmp_path,
        )
        assert stash_cuts > 0

    def test_frame_whose_base_the_job_dropped_is_rebuilt_exactly(self, tmp_path):
        # Slow stragglers against a one-version window: their frames are
        # refused ``stale`` on arrival, but their bytes are charged to
        # ``bytes_up`` — what they contained still has to be exact.
        uninterrupted, dropped_base_cuts, _ = kill_after_every_event(
            [spec(commits=6, buffer_size=2, straggler=0.3, straggler_factor=60.0)],
            tmp_path,
            quota=TenantQuota(max_version_lag=1),
        )
        assert dropped_base_cuts > 0
        assert uninterrupted["jobs"][0]["rejects"]["stale"] > 0

    def test_sealed_size_has_no_concurrency_times_frame_term(self, tmp_path):
        sizes = {}
        for concurrency in (16, 32):
            backend = RecordingBackend()
            (tmp_path / str(concurrency)).mkdir()
            with obs.fresh(clock=VirtualClock()) as ctx:
                harness = ServeHarness(
                    [spec(concurrency=concurrency)],
                    storage=storage_for(tmp_path / str(concurrency), backend),
                    clock=ctx.clock,
                )
                harness.run(max_events=0)  # filled, nothing landed yet
                inflight = harness.generators[0]._inflight
                assert len(inflight) == concurrency
                frame_bytes = min(len(info["frame"]) for info in inflight.values())
            sizes[concurrency] = backend.sizes[-1]
        # 16 more dispatches in flight: 8 float64 columns each (6 descriptor
        # + 2 sent), base64 — 86 B; a frame alone is several times that.
        assert 0 < sizes[32] - sizes[16] <= 16 * 96 < 16 * frame_bytes / 4

    def test_bench_quick_config_seals_under_the_pinned_ceiling(self, tmp_path):
        # bench/workloads.py ServeDurable, --quick: the parent sealed 309 kB.
        backend = RecordingBackend()
        specs = [
            LoadSpec(tenant=f"tenant-{i}", job_id=f"job-{i}", clients=200,
                     commits=2, buffer_size=64, concurrency=128, seed=7 + i)
            for i in range(2)
        ]
        run_harness(
            specs,
            storage=storage_for(tmp_path, backend),
            quota=TenantQuota(max_queue_depth=4096),
            checkpoint_every=32,
            max_events=160,
        )
        assert len(backend.sizes) > 5
        assert max(backend.sizes) <= 70_000

    def test_schema_1_checkpoint_is_refused_with_the_typed_error(self, tmp_path):
        storage = storage_for(tmp_path)
        run_harness([spec()], storage=storage, max_events=3)
        state = json.loads(storage.get(TA_UUID, HARNESS_CHECKPOINT).decode())
        for stale in ({**state, "schema": 1},
                      {**state, "coordinator": {**state["coordinator"], "schema": 1}}):
            storage.put(TA_UUID, HARNESS_CHECKPOINT, json.dumps(stale).encode())
            with obs.fresh(clock=VirtualClock()) as ctx:
                harness = ServeHarness([spec()], storage=storage, clock=ctx.clock)
                with pytest.raises(ValueError, match="schema"):
                    harness.restore()
                assert_untouched(harness)


def assert_untouched(harness):
    """A refused restore left the harness exactly as constructed."""
    assert harness.clock.time == 0.0 and harness.events_processed == 0
    assert not harness._started and len(harness.loop) == 0
    assert [g.spec.job_id for g in harness.generators] == list(harness.coordinator.jobs)
    for generator in harness.generators:
        job = harness.coordinator.jobs[generator.spec.job_id]
        assert job is generator.job and job.version == 0 and job.folds == 0
        assert generator.next_dispatch == 0 and not generator._inflight


class TestMismatchedCheckpoint:
    """A checkpoint of other jobs is one typed error, raised before the
    harness has moved its clock, replaced a job or loaded a generator."""

    def _refused(self, tmp_path, written, restoring):
        storage = storage_for(tmp_path)
        run_harness(written, storage=storage, max_events=5)
        with obs.fresh(clock=VirtualClock()) as ctx:
            harness = ServeHarness(restoring, storage=storage, clock=ctx.clock)
            with pytest.raises(ValueError) as refusal:
                harness.restore()
            assert_untouched(harness)
            # and it still runs, from the start
            assert harness.run(max_events=2)["events"] == 2
        return str(refusal.value)

    def test_fewer_jobs_than_the_harness_runs(self, tmp_path):
        message = self._refused(
            tmp_path, [spec()], [spec(), spec(tenant="t1", job_id="j1")]
        )
        assert "['j0']" in message and "['j0', 'j1']" in message

    def test_a_different_job_id(self, tmp_path):
        message = self._refused(tmp_path, [spec(job_id="other")], [spec()])
        assert "['other']" in message and "['j0']" in message


class TestBackpressure:
    def test_tight_queue_sheds_but_completes(self):
        report, finished = run_harness(
            [spec(concurrency=32)], quota=TenantQuota(max_queue_depth=2)
        )
        assert finished
        assert report["jobs"][0]["commits"] == 3


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1001])
@pytest.mark.parametrize("q", [50, 99])
def test_report_percentile_is_numpys_bit_for_bit(n, q):
    from repro.serve.loadgen import _percentile

    rng = np.random.default_rng(n)
    for values in (rng.exponential(size=n), np.round(rng.uniform(size=n), 2)):
        expected = np.float64(np.percentile(values, q))
        assert np.float64(_percentile(values, q)).tobytes() == expected.tobytes()
