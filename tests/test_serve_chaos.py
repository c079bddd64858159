"""End-to-end chaos: faults never change the committed bytes.

The headline invariant of the chaos transport: for ANY chaos seed and
fault rate, the final weights (and their sha256) are bitwise identical
to the fault-free run — drops, duplicates, reorders, corruption,
truncation and stale replays only cost retransmissions and virtual
time, never correctness.  The fault-free baseline is the same pipeline
at ``chaos_rate=0`` (same seq-ordered ledger, zero faults).
"""

import hashlib
import json
import os

import pytest

from repro import obs
from repro.obs import VirtualClock
from repro.serve import BreakerConfig, LoadSpec, ServeHarness
from repro.tee.storage import InMemoryBackend, SecureStorage

pytestmark = [pytest.mark.serve, pytest.mark.chaos]


def spec(**overrides):
    base = dict(
        tenant="t0",
        job_id="j0",
        clients=40,
        commits=3,
        buffer_size=8,
        concurrency=16,
        seed=11,
        chaos=True,
    )
    base.update(overrides)
    return LoadSpec(**base)


def run_harness(specs, *, storage=None, resume=False, max_events=None, **kwargs):
    with obs.fresh(clock=VirtualClock()) as ctx:
        h = ServeHarness(specs, storage=storage, clock=ctx.clock, **kwargs)
        if resume:
            assert h.restore(), "expected a checkpoint to resume from"
        report = h.run(max_events=max_events)
        return report, h.finished


def report_bytes(report):
    return json.dumps(report, sort_keys=True).encode()


def storage_for(tmp_path):
    return SecureStorage(
        InMemoryBackend(),
        ssk=hashlib.sha256(b"chaos-test").digest(),
        counters_path=os.path.join(tmp_path, "counters.json"),
    )


@pytest.fixture(scope="module")
def baseline():
    report, finished = run_harness([spec(chaos_rate=0.0)])
    assert finished
    return report


class TestWeightsBitwiseInvariant:
    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("chaos_seed", [0, 1])
    def test_sha_matches_fault_free_at_any_rate_and_seed(
        self, baseline, rate, chaos_seed
    ):
        report, finished = run_harness(
            [spec(chaos_rate=rate, chaos_seed=chaos_seed)]
        )
        assert finished
        job = report["jobs"][0]
        assert job["weights_sha256"] == baseline["jobs"][0]["weights_sha256"]
        transport = job["transport"]
        # Channel-side and ledger-side duplicate counts must agree when
        # nothing was shed or refused: every redundant clean delivery is
        # exactly one dedup hit.
        assert transport["shed"] == 0 and transport["refused"] == 0
        assert transport["dedup_hits"] == transport["dup_clean_deliveries"]
        # Delivery conservation: every uplink arrival is accounted exactly
        # once by the ingest path (folded, deduped, terminal, or rejected).
        assert transport["deliveries"] == (
            transport["inserts"]
            + transport["dedup_hits"]
            + transport["terminal"]
            + transport["shed"]
            + transport["refused"]
            + transport["corrupt_frames"]
        )
        # The drain never outruns what was inserted.
        assert transport["cursor"] <= transport["inserts"]

    def test_same_chaos_seed_is_byte_identical(self):
        specs = [spec(chaos_rate=0.15, chaos_seed=5)]
        a, _ = run_harness(specs)
        b, _ = run_harness(specs)
        assert report_bytes(a) == report_bytes(b)

    def test_different_chaos_seed_changes_the_weather_not_the_weights(self):
        a, _ = run_harness([spec(chaos_rate=0.2, chaos_seed=0)])
        b, _ = run_harness([spec(chaos_rate=0.2, chaos_seed=9)])
        ja, jb = a["jobs"][0], b["jobs"][0]
        assert ja["weights_sha256"] == jb["weights_sha256"]
        assert ja["transport"]["drops"] != jb["transport"]["drops"] or (
            ja["transport"]["sends"] != jb["transport"]["sends"]
        )

    def test_faults_cost_retransmissions(self):
        report, _ = run_harness([spec(chaos_rate=0.2, chaos_seed=0)])
        transport = report["jobs"][0]["transport"]
        assert transport["drops"] > 0
        assert transport["retransmits"] > 0
        assert transport["copies"] >= transport["sends"]
        assert 0 < transport["goodput"] <= 1
        assert transport["retransmit_overhead"] > 0


class TestKillResumeUnderChaos:
    def test_mid_chaos_resume_is_report_byte_identical(self, tmp_path):
        specs = [spec(chaos_rate=0.15, chaos_seed=3)]
        uninterrupted, _ = run_harness(specs)
        for cut in (5, 37, 90):
            storage = storage_for(tmp_path)
            _, finished = run_harness(specs, storage=storage, max_events=cut)
            if finished:
                continue
            resumed, finished = run_harness(specs, storage=storage, resume=True)
            assert finished
            assert report_bytes(resumed) == report_bytes(uninterrupted), cut


class TestBreakerUnderChaos:
    def test_breaker_trips_but_weights_are_unchanged(self, baseline):
        report, finished = run_harness(
            [spec(chaos_rate=0.2, chaos_seed=0)],
            breaker=BreakerConfig(error_budget=1, window=60.0, cooldown=2.0),
        )
        assert finished
        job = report["jobs"][0]
        transport = job["transport"]
        assert transport["breaker_trips"] >= 1
        assert transport["shed"] >= 1
        # Shedding only delays deliveries; the ledger keeps the committed
        # bytes identical to the breakerless fault-free run.
        assert job["weights_sha256"] == baseline["jobs"][0]["weights_sha256"]


class TestFaultFreeByteAccounting:
    """Satellite 3: the classic (non-chaos) wire path costs what it did
    before the chaos transport landed — v1 frames kept their byte length
    (the strengthened CRC covers more bytes without adding any), so these
    totals are pinned to the pre-chaos goldens."""

    GOLDEN_BYTES_UP = 25056
    GOLDEN_BYTES_DOWN = 41280

    def test_v1_pipeline_byte_totals_are_pinned(self):
        report, finished = run_harness([spec(chaos=False)])
        assert finished
        job = report["jobs"][0]
        assert job["bytes_up"] == self.GOLDEN_BYTES_UP
        assert job["bytes_down"] == self.GOLDEN_BYTES_DOWN
        assert "transport" not in job  # no chaos section on the clean path

    def test_chaos_accounting_charges_every_physical_copy(self):
        report, _ = run_harness([spec(chaos_rate=0.1, chaos_seed=1)])
        job = report["jobs"][0]
        transport = job["transport"]
        # Uplink bytes must exceed the pure-payload cost whenever the
        # channel duplicated or retransmitted anything.
        assert transport["copies"] > transport["sends"] - transport["drops"] or (
            transport["retransmits"] == 0
        )
        assert job["bytes_up"] > 0 and job["bytes_down"] > 0
