"""Load-generator / harness suite: determinism, compression, kill/resume."""

import hashlib
import json
import os

import pytest

from repro import obs
from repro.obs import VirtualClock
from repro.serve import LoadSpec, ServeHarness, TenantQuota
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


def storage_for(tmp_path):
    return SecureStorage(
        InMemoryBackend(),
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
    def test_in_process_kill_resume_is_bitwise_identical(self, tmp_path):
        specs = [spec(dropout=0.05, straggler=0.1)]
        uninterrupted, _ = run_harness(specs)

        storage = storage_for(tmp_path)
        partial, finished = run_harness(specs, storage=storage, max_events=15)
        assert not finished
        resumed, finished = run_harness(specs, storage=storage, resume=True)
        assert finished
        assert report_bytes(resumed) == report_bytes(uninterrupted)

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


class TestBackpressure:
    def test_tight_queue_sheds_but_completes(self):
        report, finished = run_harness(
            [spec(concurrency=32)], quota=TenantQuota(max_queue_depth=2)
        )
        assert finished
        assert report["jobs"][0]["commits"] == 3
