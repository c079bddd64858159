"""Transport layer: chaos channel, dedup ledger, breaker, backoff unity."""

import numpy as np
import pytest

from repro import obs
from repro.fl.config import BufferConfig
from repro.fl.resilience import RetryPolicy, collect_with_retries
from repro.nn import mlp
from repro.obs import VirtualClock
from repro.serve import (
    BreakerConfig,
    BreakerState,
    ChaosChannel,
    ChaosConfig,
    ClientUpdateMsg,
    Coordinator,
    Encoding,
    FrameError,
    TenantBreaker,
    TenantQuota,
    WireVector,
    decode_frame,
    encode_frame,
)
from repro.serve.loadgen import LoadSpec, ServeHarness
from repro.sim.events import EventLoop

pytestmark = pytest.mark.serve


@pytest.fixture
def fresh_obs():
    with obs.fresh(clock=VirtualClock()) as ctx:
        yield ctx


@pytest.fixture
def weights():
    return mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=0).get_weights()


def chaos_frame(job, seq, *, base_version=None, scale=0.01, num_samples=32):
    """A deterministic v2 uplink frame carrying transport seq ``seq``."""
    base_version = job.version if base_version is None else base_version
    delta = scale * np.random.default_rng((4321, seq)).standard_normal(job.size)
    message = ClientUpdateMsg(
        job.job_id, seq % 10, seq, base_version, num_samples, WireVector.dense(delta)
    )
    return encode_frame(message, dispatch=seq)


def drain_channel(config, payloads, *, seed=0, stream=1, attempt=0):
    """Push ``payloads`` through one channel, drain the loop, and return
    the delivered payloads plus the channel itself."""
    loop = EventLoop(VirtualClock())
    delivered = []
    channel = ChaosChannel(
        config, seed=seed, stream=stream, loop=loop, deliver=delivered.append
    )
    for key, data in enumerate(payloads):
        channel.send(data, key=key, attempt=attempt, delay=0.01)
    while loop.step():
        pass
    return delivered, channel


class TestChaosConfig:
    def test_uniform_splits_rate_evenly(self):
        config = ChaosConfig.uniform(0.12)
        for kind in ("drop", "duplicate", "reorder", "corrupt", "truncate", "replay"):
            assert getattr(config, kind) == pytest.approx(0.02)
        assert config.total == pytest.approx(0.12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(drop=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(drop=0.6, corrupt=0.6)
        with pytest.raises(ValueError):
            ChaosConfig(reorder_window=0.0)
        with pytest.raises(ValueError):
            ChaosConfig.uniform(1.5)


class TestChaosChannel:
    def test_clean_channel_delivers_exactly_once(self, fresh_obs):
        payloads = [bytes([i]) * 40 for i in range(20)]
        delivered, channel = drain_channel(ChaosConfig(), payloads)
        assert delivered == payloads
        assert channel.counters["sends"] == 20
        assert channel.counters["copies"] == 20
        assert channel.counters["deliveries"] == 20
        assert channel.counters["dup_clean"] == 0

    def test_all_drop_delivers_nothing_but_charges(self, fresh_obs):
        charged = []
        loop = EventLoop(VirtualClock())
        channel = ChaosChannel(
            ChaosConfig(drop=1.0),
            seed=0,
            stream=1,
            loop=loop,
            deliver=lambda _: pytest.fail("dropped frame delivered"),
            charge=charged.append,
        )
        channel.send(b"x" * 64, key=0, attempt=0, delay=0.0)
        while loop.step():
            pass
        assert channel.counters["drops"] == 1
        assert channel.counters["deliveries"] == 0
        assert charged == [64]  # dropped bytes still burned uplink

    def test_all_duplicate_delivers_twice_and_counts_dup_clean(self, fresh_obs):
        payloads = [bytes([i]) * 16 for i in range(10)]
        delivered, channel = drain_channel(ChaosConfig(duplicate=1.0), payloads)
        assert len(delivered) == 20
        assert channel.counters["duplicates"] == 10
        assert channel.counters["dup_clean"] == 10
        assert channel.counters["copies"] == 20

    def test_all_replay_lands_a_stale_copy_after_the_window(self, fresh_obs):
        loop = EventLoop(VirtualClock())
        arrivals = []
        channel = ChaosChannel(
            ChaosConfig(replay=1.0, reorder_window=1.0),
            seed=0,
            stream=1,
            loop=loop,
            deliver=lambda data: arrivals.append((loop.now, data)),
        )
        channel.send(b"frame", key=0, attempt=0, delay=0.0)
        while loop.step():
            pass
        assert len(arrivals) == 2
        assert arrivals[1][0] - arrivals[0][0] >= 1.0  # beyond the window
        assert channel.counters["replays"] == 1
        assert channel.counters["dup_clean"] == 1

    def test_corruption_always_caught_by_decoder(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights)
        payloads = [chaos_frame(job, seq) for seq in range(30)]
        delivered, channel = drain_channel(ChaosConfig(corrupt=1.0), payloads)
        assert channel.counters["corruptions"] == 30
        assert len(delivered) == 30
        for damaged in delivered:
            with pytest.raises(FrameError):
                decode_frame(damaged)

    def test_truncation_shortens_the_payload(self, fresh_obs):
        payloads = [b"q" * 100]
        delivered, channel = drain_channel(ChaosConfig(truncate=1.0), payloads)
        assert channel.counters["truncations"] == 1
        assert len(delivered) == 1
        assert len(delivered[0]) < 100

    def test_same_seed_same_fates(self, fresh_obs):
        payloads = [bytes([i % 251]) * 50 for i in range(120)]
        config = ChaosConfig.uniform(0.5)
        a, chan_a = drain_channel(config, payloads, seed=7)
        b, chan_b = drain_channel(config, payloads, seed=7)
        assert a == b
        assert chan_a.counters == chan_b.counters
        c, chan_c = drain_channel(config, payloads, seed=8)
        assert chan_c.counters != chan_a.counters

    def test_retransmit_attempt_draws_fresh_fate(self, fresh_obs):
        # key 0 attempt 0 drops under this seed/config; a later attempt of
        # the same key draws from a different stream and can get through.
        config = ChaosConfig.uniform(0.9)
        loop = EventLoop(VirtualClock())
        delivered = []
        channel = ChaosChannel(
            config, seed=3, stream=1, loop=loop, deliver=delivered.append
        )
        fates = set()
        for attempt in range(12):
            before = dict(channel.counters)
            channel.send(b"z" * 30, key=0, attempt=attempt, delay=0.0)
            after = channel.counters
            fates.add(
                tuple(k for k in after if after[k] != before.get(k, 0) and k
                      not in ("sends", "copies", "deliveries", "dup_clean"))
            )
        assert len(fates) > 1  # attempts are not fate-locked

    def test_checkpoint_restore_mid_flight_is_identical(self, fresh_obs):
        config = ChaosConfig.uniform(0.4)
        payloads = [bytes([i]) * 33 for i in range(40)]

        # Uninterrupted reference run.
        reference, _ = drain_channel(config, payloads, seed=11)

        # Run again, snapshot with deliveries still pending, then restore
        # onto a fresh loop/channel and drain.
        loop = EventLoop(VirtualClock())
        first = []
        channel = ChaosChannel(
            config, seed=11, stream=1, loop=loop, deliver=first.append
        )
        for key, data in enumerate(payloads):
            channel.send(data, key=key, attempt=0, delay=0.01)
        for _ in range(15):
            loop.step()
        state = channel.state_dict()
        assert state["pending"]  # something really was in flight

        clock = VirtualClock()
        clock.advance_to(loop.now)
        loop2 = EventLoop(clock)
        second = []
        resumed = ChaosChannel(
            config, seed=11, stream=1, loop=loop2, deliver=second.append
        )
        resumed.load_state(state)
        resumed.reschedule()
        while loop2.step():
            pass
        assert first + second == reference


class TestTenantBreaker:
    def config(self, **kwargs):
        base = dict(error_budget=2, window=10.0, cooldown=5.0, probes=2)
        base.update(kwargs)
        return BreakerConfig(**base)

    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(error_budget=0)
        with pytest.raises(ValueError):
            BreakerConfig(window=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(probes=0)

    def test_trips_when_budget_exceeded(self):
        breaker = TenantBreaker(self.config())
        assert not breaker.record_error(1.0)
        assert not breaker.record_error(1.1)
        assert breaker.record_error(1.2)  # third error > budget of 2
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(2.0)

    def test_window_slides_old_errors_out(self):
        breaker = TenantBreaker(self.config())
        breaker.record_error(0.0)
        breaker.record_error(0.1)
        # 10s later the early errors have aged out of the window.
        assert not breaker.record_error(11.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probes_close(self):
        breaker = TenantBreaker(self.config())
        for t in (0.0, 0.1, 0.2):
            breaker.record_error(t)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(4.0)  # still cooling down
        assert breaker.allow(5.5)  # cooldown elapsed -> half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_ok(5.6)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_ok(5.7)
        assert breaker.state is BreakerState.CLOSED

    def test_error_during_half_open_retrips(self):
        breaker = TenantBreaker(self.config())
        for t in (0.0, 0.1, 0.2):
            breaker.record_error(t)
        assert breaker.allow(5.5)
        assert breaker.record_error(5.6)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_state_round_trip(self):
        breaker = TenantBreaker(self.config())
        for t in (0.0, 0.1, 0.2):
            breaker.record_error(t)
        clone = TenantBreaker(self.config())
        clone.load_state(breaker.state_dict())
        assert clone.state is breaker.state
        assert clone.trips == breaker.trips
        assert clone.state_dict() == breaker.state_dict()


class TestIngestLedger:
    def test_in_order_frames_advance_the_cursor(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job(
            "t0", "j0", weights, buffer=BufferConfig(size=64)
        )
        for seq in range(5):
            outcome = coordinator.ingest(chaos_frame(job, seq))
            assert outcome.status == "accepted"
            assert outcome.ack.status == "accepted"
            assert outcome.processed == ((seq, 0),)
        assert job.cursor == 5
        assert job.folds == 5

    def test_out_of_order_frames_stash_then_drain_in_seq_order(
        self, fresh_obs, weights
    ):
        coordinator = Coordinator()
        job = coordinator.create_job(
            "t0", "j0", weights, buffer=BufferConfig(size=64)
        )
        frames = {seq: chaos_frame(job, seq) for seq in range(4)}
        for seq in (2, 1, 3):
            outcome = coordinator.ingest(frames[seq])
            assert outcome.status == "accepted"
            assert outcome.processed == ()  # gap at seq 0 blocks the drain
        assert job.cursor == 0 and len(job.stash) == 3
        outcome = coordinator.ingest(frames[0])
        assert [seq for seq, _ in outcome.processed] == [0, 1, 2, 3]
        assert job.cursor == 4 and not job.stash

    def test_zero_sample_update_is_consumed_and_later_seqs_fold(
        self, fresh_obs, weights
    ):
        coordinator = Coordinator()
        job = coordinator.create_job(
            "t0", "j0", weights, buffer=BufferConfig(size=64)
        )
        outcome = coordinator.ingest(chaos_frame(job, 0, num_samples=0))
        assert outcome.status == "accepted" and outcome.ack.status == "accepted"
        assert outcome.pumped.rejected == ((0, "structure"),)
        assert outcome.processed == ((0, 0),)
        for seq in range(1, 4):
            assert coordinator.ingest(chaos_frame(job, seq)).processed == ((seq, 0),)
        assert job.cursor == 4 and not job.stash
        assert job.folds == 3 and job.rejects == {"structure": 1}

    def test_non_finite_update_is_consumed_and_later_seqs_fold(
        self, fresh_obs, weights
    ):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights, buffer=BufferConfig(size=2))
        outcome = coordinator.ingest(chaos_frame(job, 0, scale=np.nan))
        assert outcome.status == "accepted" and outcome.ack.status == "accepted"
        assert outcome.pumped.rejected == ((0, "structure"),)
        assert outcome.processed == ((0, 0),)
        for seq in (1, 2):
            coordinator.ingest(chaos_frame(job, seq))
        assert job.cursor == 3 and job.version == 1
        assert job.folds == 2 and job.rejects == {"structure": 1}
        assert np.isfinite(job.flat).all()

    def test_duplicates_hit_the_ledger_everywhere(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job(
            "t0", "j0", weights, buffer=BufferConfig(size=64)
        )
        frames = {seq: chaos_frame(job, seq) for seq in range(3)}
        coordinator.ingest(frames[0])
        coordinator.ingest(frames[2])  # stashed
        # Below the cursor, in the stash: both are duplicates.
        for seq in (0, 2):
            outcome = coordinator.ingest(frames[seq])
            assert outcome.status == "duplicate"
            assert outcome.ack.status == "duplicate"
        assert job.transport["dedup_hits"] == 2
        assert job.folds == 1  # nothing folded twice

    def test_corrupt_frame_counted_and_unacked(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights)
        frame = bytearray(chaos_frame(job, 0))
        frame[len(frame) // 2] ^= 0x10
        outcome = coordinator.ingest(bytes(frame), job_hint="j0")
        assert outcome.status == "corrupt"
        assert outcome.ack is None
        assert job.transport["corrupt"] == 1
        assert job.folds == 0

    def test_trailing_bytes_after_the_frame_are_corrupt(self, fresh_obs, weights):
        # One delivery is one frame.  The CRC covers only the declared body,
        # so bytes after it need their own check: counted, breaker-charged,
        # unacked, nothing folded — and the clean frame still lands after.
        coordinator = Coordinator(breaker=BreakerConfig(error_budget=2))
        job = coordinator.create_job("t0", "j0", weights)
        frame = chaos_frame(job, 0)
        for tail in (b"\x00" * 37, b"junk", frame):
            outcome = coordinator.ingest(frame + tail, now=1.0, job_hint="j0")
            assert outcome.status == "corrupt" and outcome.ack is None
        assert job.transport["corrupt"] == 3
        assert job.transport["breaker_trips"] == 1
        assert job.folds == 0 and job.cursor == 0 and not job.stash
        assert coordinator.ingest(frame, now=100.0).status == "accepted"
        assert job.folds == 1

    def test_v1_frame_without_dispatch_is_rejected(self, fresh_obs, weights):
        coordinator = Coordinator()
        job = coordinator.create_job("t0", "j0", weights)
        delta = np.zeros(job.size)
        frame = encode_frame(
            ClientUpdateMsg("j0", 0, 0, 0, 32, WireVector.dense(delta))
        )
        assert coordinator.ingest(frame, job_hint="j0").status == "corrupt"

    def test_backpressure_refuses_without_ack(self, fresh_obs, weights):
        coordinator = Coordinator(quota=TenantQuota(max_queue_depth=2))
        job = coordinator.create_job(
            "t0", "j0", weights, buffer=BufferConfig(size=64)
        )
        # seqs 1..3 all stash (seq 0 missing); depth 2 refuses the third.
        assert coordinator.ingest(chaos_frame(job, 1)).status == "accepted"
        assert coordinator.ingest(chaos_frame(job, 2)).status == "accepted"
        refused = coordinator.ingest(chaos_frame(job, 3))
        assert refused.status == "refused:backpressure"
        assert refused.ack is None  # silence -> client retransmits later
        assert job.transport["refused"] == 1

    def test_terminal_ledger_is_bounded_after_done(self, fresh_obs, weights):
        import json

        depth = 8
        coordinator = Coordinator(quota=TenantQuota(max_queue_depth=depth))
        job = coordinator.create_job(
            "t0", "j0", weights, buffer=BufferConfig(size=2), target_commits=1
        )
        for seq in range(2):
            assert coordinator.ingest(chaos_frame(job, seq)).status == "accepted"
        assert job.state.name == "DONE"
        # A peer inventing 10x the cap of distinct post-DONE seqs: the first
        # `depth` are remembered and acked, the rest get silence.
        statuses = [
            coordinator.ingest(chaos_frame(job, seq, base_version=0)).status
            for seq in range(2, 2 + 10 * depth)
        ]
        assert statuses[:depth] == ["rejected:done"] * depth
        assert set(statuses[depth:]) == {"refused:backpressure"}
        assert len(job.terminal) == depth
        assert job.transport["terminal"] == depth
        assert job.transport["refused"] == 9 * depth
        size_at_cap = len(json.dumps(coordinator.state_dict()))
        refused = coordinator.ingest(chaos_frame(job, 10_000, base_version=0))
        assert refused.status == "refused:backpressure" and refused.ack is None
        assert len(json.dumps(coordinator.state_dict())) == size_at_cap
        # Seqs already in the ledger still dedup (and still ack).
        again = coordinator.ingest(chaos_frame(job, 2, base_version=0))
        assert again.status == "duplicate" and again.ack.status == "duplicate"

    def test_breaker_sheds_after_corruption_storm(self, fresh_obs, weights):
        coordinator = Coordinator(
            breaker=BreakerConfig(error_budget=1, window=30.0, cooldown=5.0)
        )
        job = coordinator.create_job("t0", "j0", weights)
        bad = bytearray(chaos_frame(job, 0))
        bad[-1] ^= 0x01
        assert coordinator.ingest(bytes(bad), now=1.0, job_hint="j0").status == "corrupt"
        assert coordinator.ingest(bytes(bad), now=1.1, job_hint="j0").status == "corrupt"
        assert job.transport["breaker_trips"] == 1
        # Clean frame while OPEN is shed without an ack...
        shed = coordinator.ingest(chaos_frame(job, 0), now=2.0)
        assert shed.status == "shed"
        assert shed.ack is None
        assert job.transport["shed"] == 1
        # ...and gets through once the cooldown elapses (half-open probe).
        ok = coordinator.ingest(chaos_frame(job, 0), now=7.0)
        assert ok.status == "accepted"
        assert job.folds == 1

    def test_ledger_survives_coordinator_state_round_trip(
        self, fresh_obs, weights
    ):
        coordinator = Coordinator(breaker=BreakerConfig(error_budget=1))
        job = coordinator.create_job(
            "t0", "j0", weights, buffer=BufferConfig(size=64)
        )
        coordinator.ingest(chaos_frame(job, 0))
        coordinator.ingest(chaos_frame(job, 2))  # stashed out of order
        bad = bytearray(chaos_frame(job, 1))
        bad[-1] ^= 0x01
        coordinator.ingest(bytes(bad), now=1.0, job_hint="j0")

        clone = Coordinator(breaker=BreakerConfig(error_budget=1))
        clone.load_state(coordinator.state_dict())
        restored = clone.jobs["j0"]
        assert restored.cursor == 1
        assert set(restored.stash) == {2}
        # Bytes ride the checkpoint; the message is decoded (and so
        # re-verified) on load, never trusted from the snapshot.
        frame, message = restored.stash[2]
        assert frame == job.stash[2][0] == chaos_frame(job, 2)
        assert encode_frame(message, dispatch=2) == frame
        assert restored.transport == job.transport
        assert clone.breakers["t0"].state_dict() == (
            coordinator.breakers["t0"].state_dict()
        )
        # Duplicate of seq 0 still dedups after the restore.
        assert clone.ingest(chaos_frame(job, 0)).status == "duplicate"


class TestBackoffUnity:
    """One backoff schedule across fl.resilience and serve retransmission."""

    def test_backoff_for_doubles_from_base(self):
        policy = RetryPolicy(max_retries=4, backoff_seconds=0.25)
        assert [policy.backoff_for(a) for a in range(1, 6)] == [
            0.25, 0.5, 1.0, 2.0, 4.0
        ]
        with pytest.raises(ValueError):
            policy.backoff_for(0)

    def test_bounded_backoff_plateaus_at_the_cap(self):
        policy = RetryPolicy(max_retries=3, backoff_seconds=0.1)
        unbounded = [policy.backoff_for(a) for a in range(1, 5)]
        bounded = [policy.bounded_backoff_for(a) for a in range(1, 9)]
        assert bounded[:4] == unbounded
        assert bounded[4:] == [unbounded[-1]] * 4  # capped, never runaway

    def test_retry_and_retransmit_paths_share_the_schedule(self, fresh_obs):
        """collect_with_retries' accounted backoff and the load generator's
        retransmit timers must follow the identical delay schedule."""
        policy = RetryPolicy(max_retries=3, backoff_seconds=0.25)

        attempts = {"n": 0}

        def always_fails(_):
            attempts["n"] += 1
            raise RuntimeError("down")

        collect_with_retries(always_fails, ["x"], policy)
        accounted = fresh_obs.registry.counter(
            "fl.retry.backoff_seconds"
        ).total()
        retry_schedule = [policy.backoff_for(a) for a in range(1, 4)]
        assert accounted == pytest.approx(sum(retry_schedule))

        spec = LoadSpec(
            tenant="t0",
            job_id="j0",
            clients=4,
            commits=1,
            buffer_size=4,
            concurrency=2,
            chaos=True,
            retry_backoff=0.25,
            retry_cap=3,
            retransmit_timeout=2.0,
        )
        generator = ServeHarness([spec]).generators[0]
        transmit_schedule = [
            generator.policy.bounded_backoff_for(a) for a in range(1, 4)
        ]
        # Identical schedule while attempts remain within budget; the
        # transport side then plateaus instead of backing off forever.
        assert transmit_schedule == retry_schedule
        assert generator.policy.bounded_backoff_for(9) == policy.backoff_for(4)
