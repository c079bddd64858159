"""Deterministic load generation against a live coordinator.

:class:`LoadGenerator` drives one tenant job with a simulated client
fleet — per-client network links, sample counts, dropouts, stragglers
and Byzantine attackers all reuse the `repro.sim` models — entirely on
virtual time, so 10^5–10^6 clients cost seconds of wall-clock and the
run is byte-reproducible.  :class:`ServeHarness` wires N generators, one
:class:`~repro.serve.coordinator.Coordinator` and one discrete-event
loop together, optionally checkpointing the *whole* ensemble (clock,
coordinator, who is in flight) through SecureStorage after every
``checkpoint_every``-th event so a ``kill -9`` anywhere resumes to a
bitwise-identical final report.  The checkpoint holds state, never derived
data: an in-flight frame is rebuilt on restore from its descriptor and the
base vector it trained against (DESIGN.md, "Durable state").

Determinism discipline: every random draw is
``np.random.default_rng((seed, stream, dispatch[, client]))`` — evaluated a
block of dispatches at a time by :mod:`repro.sim.keyed` — so there is no
evolving generator state to checkpoint, and an update's bytes are a pure
function of its dispatch number and the model version it trained against.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..fl.admission import AdmissionConfig
from ..fl.buffer import decode_flat, encode_flat
from ..fl.compression import TopKCompressor
from ..fl.config import BufferConfig, ShardingConfig, require_finite
from ..fl.resilience import RetryPolicy
from ..nn.zoo import mlp
from ..obs import VirtualClock, get_registry
from ..sim import keyed
from ..sim.events import EventLoop
from ..sim.faults import FaultKind, FaultPlan, FaultRates
from ..sim.network import NetworkModel
from .coordinator import TA_UUID, Coordinator, JobState, TenantQuota
from .transport import BreakerConfig, ChaosChannel, ChaosConfig
from .wire import (
    AckMsg,
    ClientUpdateMsg,
    Encoding,
    FrameError,
    WireVector,
    decode_frame,
    encode_frame,
)

__all__ = ["LoadSpec", "LoadGenerator", "ServeHarness"]

HARNESS_CHECKPOINT = "serve-harness-checkpoint"

# Dedicated draw streams (disjoint from repro.sim's engine streams).
_STREAM_TRAITS = 9101
_STREAM_TEACHER = 9102
_STREAM_CLIENT = 9103
_STREAM_UPDATE = 9104
_STREAM_CHAOS_UP = 9105
_STREAM_CHAOS_DOWN = 9106
_STREAM_ACK_DELAY = 9107

_ENCODINGS = {
    "f64": Encoding.F64,
    "f32": Encoding.F32,
    "f16": Encoding.F16,
    "q8": Encoding.Q8,
}


def _rows(blob: str, width: int) -> List[List[float]]:
    """A per-dispatch table back from its float64 matrix.  Every column is an
    int < 2**53 or a float64 virtual time, so the round trip is exact."""
    return decode_flat(blob).reshape(-1, width).tolist()


@dataclass(frozen=True)
class LoadSpec:
    """One tenant job's load profile.

    ``clients`` is the fleet size; ``commits`` the target commit count
    (the job finishes itself when it gets there); ``concurrency`` how
    many dispatches are kept in flight.  ``ratio`` switches the uplink
    to top-k sparse frames (``None`` = dense) and ``encoding`` picks the
    wire value dtype for the uplink delta.
    """

    tenant: str
    job_id: str
    clients: int = 1000
    commits: int = 10
    buffer_size: int = 64
    shards: int = 1
    seed: int = 0
    concurrency: int = 128
    ratio: Optional[float] = None
    encoding: str = "f64"
    drift: float = 0.2
    update_scale: float = 0.05
    dropout: float = 0.0
    straggler: float = 0.0
    straggler_factor: float = 4.0
    byzantine: float = 0.0
    attack: str = "sign_flip"
    attack_strength: float = 10.0
    max_norm: Optional[float] = None
    clip: bool = False
    chaos: bool = False
    chaos_rate: float = 0.0
    chaos_seed: int = 0
    reorder_window: float = 1.0
    retransmit_timeout: float = 2.0
    retry_backoff: float = 0.25
    retry_cap: int = 5

    def __post_init__(self) -> None:
        require_finite(self)
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.commits < 1:
            raise ValueError("commits must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.encoding not in _ENCODINGS:
            raise ValueError(
                f"unknown encoding {self.encoding!r}; expected one of "
                f"{sorted(_ENCODINGS)}"
            )
        if self.ratio is not None and not 0.0 < self.ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if not 0.0 <= self.drift <= 1.0:
            raise ValueError("drift must be in [0, 1]")
        if self.update_scale <= 0:
            raise ValueError("update_scale must be positive")
        if self.straggler_factor <= 1.0:
            raise ValueError("straggler_factor must exceed 1")
        if not 0.0 <= self.chaos_rate <= 1.0:
            raise ValueError("chaos_rate must be in [0, 1]")
        if self.chaos_rate > 0.0 and not self.chaos:
            raise ValueError("chaos_rate requires chaos=True")
        if self.retransmit_timeout <= 0:
            raise ValueError("retransmit_timeout must be positive")
        if self.retry_cap < 0:
            raise ValueError("retry_cap cannot be negative")


class LoadGenerator:
    """Simulated client fleet for one job, on virtual time.

    Creates the job on the coordinator, keeps ``spec.concurrency``
    dispatches in flight, and on each arrival submits the frame and
    pumps the coordinator.  Dispatch→commit latency is measured from
    the virtual send time to the commit that folded the dispatch.
    """

    def __init__(
        self, spec: LoadSpec, coordinator: Coordinator, loop: EventLoop
    ) -> None:
        self.spec = spec
        self.coordinator = coordinator
        self.loop = loop
        model = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=spec.seed)
        weights = model.get_weights()
        self.job = coordinator.create_job(
            spec.tenant,
            spec.job_id,
            weights,
            buffer=BufferConfig(size=spec.buffer_size),
            sharding=ShardingConfig(num_shards=spec.shards),
            admission=(
                AdmissionConfig(max_norm=spec.max_norm, clip=spec.clip)
                if spec.max_norm is not None
                else None
            ),
            target_commits=spec.commits,
        )
        self.size = self.job.size
        self.teacher = self.job.flat + np.random.default_rng(
            (spec.seed, _STREAM_TEACHER)
        ).standard_normal(self.size)
        traits = np.random.default_rng((spec.seed, _STREAM_TRAITS))
        self.network = NetworkModel.sample(spec.clients, traits)
        self.num_samples = traits.integers(16, 129, size=spec.clients)
        self.plan = FaultPlan(
            rates=FaultRates(dropout=spec.dropout, straggler=spec.straggler),
            seed=spec.seed,
            byzantine=spec.byzantine,
            attack=spec.attack,
            attack_strength=spec.attack_strength,
        )
        self._rngs = keyed.Generators()
        self._lookahead = keyed.Lookahead(
            (spec.seed, _STREAM_CLIENT), (spec.seed, _STREAM_UPDATE),
            spec.clients, self.plan, self._rngs,
        )
        self.encoding = _ENCODINGS[spec.encoding]
        self.compressor = (
            TopKCompressor(spec.ratio) if spec.ratio is not None else None
        )
        self.download_bytes = len(
            coordinator.model_frame(spec.job_id, Encoding.F64)
        )
        self._latency_hist = get_registry().histogram(
            "serve.dispatch.latency", "virtual seconds from dispatch to commit"
        )
        self.next_dispatch = 0
        self.done = False
        self.drops = 0
        self.latencies: List[float] = []
        self._inflight: Dict[int, Dict[str, object]] = {}
        self._sent_at: Dict[int, float] = {}
        self.chaos = spec.chaos
        if spec.chaos:
            # In-order folding needs every retained base version to stay
            # within the staleness window: between building a frame for
            # seq s (base = version after s - concurrency folds) and
            # folding it, at most ceil(concurrency / buffer) commits can
            # fire.  Refuse configs where stale rejects could ever fire —
            # they would break the exactly-once weight invariant.
            lag_needed = math.ceil(spec.concurrency / spec.buffer_size) + 1
            if lag_needed > self.job.quota.max_version_lag:
                raise ValueError(
                    "chaos mode needs max_version_lag >= "
                    f"ceil(concurrency/buffer_size)+1 = {lag_needed}, got "
                    f"{self.job.quota.max_version_lag}"
                )
            self.policy = RetryPolicy(
                max_retries=spec.retry_cap,
                backoff_seconds=spec.retry_backoff,
            )
            chaos_config = ChaosConfig.uniform(
                spec.chaos_rate, reorder_window=spec.reorder_window
            )
            self.uplink = ChaosChannel(
                chaos_config,
                seed=spec.chaos_seed,
                stream=_STREAM_CHAOS_UP,
                loop=loop,
                deliver=self._deliver_uplink,
                charge=lambda n: coordinator.charge_upload(spec.job_id, n),
            )
            self.downlink = ChaosChannel(
                chaos_config,
                seed=spec.chaos_seed,
                stream=_STREAM_CHAOS_DOWN,
                loop=loop,
                deliver=self._receive_ack,
                charge=lambda n: coordinator.charge_download(spec.job_id, n),
            )
            self._retransmit_counter = get_registry().counter(
                "serve.transport.retransmits", "frames retransmitted after timeout"
            )
            self.next_seq = 0
            # version_history[p] = the job's model version after the first
            # p seqs were folded — a pure function of the seq prefix, so
            # frame contents never depend on chaos timing.
            self.version_history: List[int] = [0]
            self.unacked: Dict[int, Dict[str, object]] = {}
            self.retransmits = 0
            self.acks = 0
            self.corrupt_acks = 0
            self.ack_index = 0
            # Every armed retransmit timer, including ones that will fire
            # as no-ops because the ack beat them: they must replay after
            # a restore too, or the resumed run's event count drifts.
            self._timers: Dict[int, List[float]] = {}
            self._next_timer = 0

    # -- dispatching -------------------------------------------------------
    def fill(self) -> None:
        """Top the in-flight pipeline back up to ``spec.concurrency``."""
        if self.chaos:
            # Gate on the coordinator's cursor: at most ``concurrency``
            # seqs may be unfolded at once, which bounds the reorder
            # stash AND guarantees version_history already holds the
            # base version every new frame needs.
            job = self.coordinator.jobs[self.spec.job_id]
            while (
                not self.done
                and self.next_seq - job.cursor < self.spec.concurrency
            ):
                self._dispatch_chaos()
            return
        while not self.done and len(self._inflight) < self.spec.concurrency:
            self._dispatch_next()

    def _dispatch_next(self) -> None:
        spec = self.spec
        dispatch = self.next_dispatch
        self.next_dispatch += 1
        client = self._lookahead.start(dispatch)
        fault = self.plan.fault_for(dispatch, client)
        if fault in (FaultKind.DROP, FaultKind.FAIL_ATTESTATION):
            self.drops += 1
            return
        job = self.coordinator.jobs[spec.job_id]
        frame = self._build_frame(dispatch, client, job.version, job.flat)
        self.coordinator.charge_download(spec.job_id, self.download_bytes)
        factor = self.plan.delay_factor(dispatch, client, spec.straggler_factor)
        delay = (
            self.network.transfer_seconds(client, self.download_bytes)
            + self.network.transfer_seconds(client, len(frame))
        ) * factor
        sent_at = self.loop.now
        arrival = sent_at + delay
        self._inflight[dispatch] = {
            "client": client,
            "at": arrival,
            "frame": frame,
            "sent_at": sent_at,
            "base_version": job.version,
            "base": job.flat,
        }
        self._sent_at[dispatch] = sent_at
        self.loop.schedule_at(arrival, lambda d=dispatch: self._arrive(d))

    def _dispatch_chaos(self) -> None:
        """Send the next update through the chaos uplink.

        Client dropout consumes a dispatch draw but no transport seq, so
        seqs stay contiguous over frames actually put on the wire — the
        cursor never waits on a frame that was never sent, and the
        dispatch→(client, fault) mapping matches the fault-free run.
        """
        spec = self.spec
        dispatch = self.next_dispatch
        self.next_dispatch += 1
        client = self._lookahead.start(dispatch)
        fault = self.plan.fault_for(dispatch, client)
        if fault in (FaultKind.DROP, FaultKind.FAIL_ATTESTATION):
            self.drops += 1
            return
        seq = self.next_seq
        self.next_seq += 1
        base_version = self.version_history[max(0, seq - spec.concurrency)]
        job = self.coordinator.jobs[spec.job_id]
        frame = self._build_frame(
            dispatch, client, base_version, job.versions[base_version], seq=seq
        )
        self.coordinator.charge_download(spec.job_id, self.download_bytes)
        factor = self.plan.delay_factor(dispatch, client, spec.straggler_factor)
        delay = (
            self.network.transfer_seconds(client, self.download_bytes)
            + self.network.transfer_seconds(client, len(frame))
        ) * factor
        self._sent_at[dispatch] = self.loop.now
        self.unacked[seq] = {
            "frame": frame,
            "client": client,
            "dispatch": dispatch,
            "attempts": 0,
            "next_at": 0.0,
            "base_version": base_version,
            "base": job.versions[base_version],
        }
        self.uplink.send(frame, key=seq, attempt=0, delay=delay)
        self._arm_retransmit(seq, 1)

    def _arm_retransmit(self, seq: int, attempt: int) -> None:
        info = self.unacked.get(seq)
        if info is None:
            return
        wait = self.spec.retransmit_timeout + self.policy.bounded_backoff_for(
            attempt
        )
        at = self.loop.now + wait
        info["attempts"] = attempt
        info["next_at"] = at
        timer = self._next_timer
        self._next_timer += 1
        self._timers[timer] = [at, float(seq), float(attempt)]
        self.loop.schedule_at(at, lambda t=timer: self._timer_fire(t))

    def _timer_fire(self, timer: int) -> None:
        entry = self._timers.pop(timer, None)
        if entry is None:
            return
        _, seq, attempt = entry
        self._retransmit(int(seq), int(attempt))

    def _retransmit(self, seq: int, attempt: int) -> None:
        info = self.unacked.get(seq)
        if info is None:
            return
        if self.done:
            # The job finished without this seq; nothing left to deliver.
            self.unacked.pop(seq, None)
            return
        if info["attempts"] != attempt:
            return  # a newer timer superseded this one
        self.retransmits += 1
        self._retransmit_counter.inc(job=self.spec.job_id)
        factor = self.plan.delay_factor(
            int(info["dispatch"]), int(info["client"]), self.spec.straggler_factor
        )
        delay = (
            self.network.transfer_seconds(int(info["client"]), len(info["frame"]))
            * factor
        )
        self.uplink.send(info["frame"], key=seq, attempt=attempt, delay=delay)
        self._arm_retransmit(seq, attempt + 1)

    def _deliver_uplink(self, data: bytes) -> None:
        outcome = self.coordinator.ingest(
            data, now=self.loop.now, job_hint=self.spec.job_id
        )
        if outcome.ack is not None:
            self._send_ack(outcome.ack)
        for seq, version_after in outcome.processed:
            self.version_history.append(int(version_after))
        if outcome.pumped is not None:
            now = self.loop.now
            for event in outcome.pumped.commits:
                for committed in event.dispatches:
                    sent = self._sent_at.pop(committed, None)
                    if sent is not None:
                        latency = now - sent
                        self.latencies.append(latency)
                        self._latency_hist.observe(latency, job=self.spec.job_id)
            for rejected, _reason in outcome.pumped.rejected:
                self._sent_at.pop(rejected, None)
        job = self.coordinator.jobs[self.spec.job_id]
        if job.state is JobState.DONE:
            self.done = True
        else:
            self.fill()

    def _send_ack(self, ack: AckMsg) -> None:
        frame = encode_frame(ack)
        index = self.ack_index
        self.ack_index += 1
        delay = float(
            keyed.generator(
                (self.spec.chaos_seed, _STREAM_ACK_DELAY, index)
            ).uniform(0.005, 0.05)
        )
        self.downlink.send(frame, key=index, attempt=0, delay=delay)

    def _receive_ack(self, data: bytes) -> None:
        try:
            message, _ = decode_frame(data)
        except FrameError:
            self.corrupt_acks += 1
            return  # the retransmit timer covers a lost/corrupted ack
        if not isinstance(message, AckMsg):
            return
        self.acks += 1
        # Any ack — accepted, duplicate, or terminal — stops retransmission.
        self.unacked.pop(int(message.dispatch), None)

    def _build_frame(
        self,
        dispatch: int,
        client: int,
        base_version: int,
        base_flat: np.ndarray,
        seq: Optional[int] = None,
    ) -> bytes:
        spec = self.spec
        noise = self._rngs.at(
            (spec.seed, _STREAM_UPDATE, dispatch, client)
        ).standard_normal(self.size)
        delta = spec.drift * (self.teacher - base_flat) + spec.update_scale * noise
        delta = self.plan.attack_delta(dispatch, client, delta)
        if self.compressor is not None:
            sparse = self.compressor.compress(delta)
            vector = WireVector.from_sparse_update(sparse, encoding=self.encoding)
        else:
            vector = WireVector.dense(delta, self.encoding)
        return encode_frame(
            ClientUpdateMsg(
                spec.job_id,
                client,
                dispatch,
                base_version,
                int(self.num_samples[client]),
                vector,
            ),
            dispatch=seq,
        )

    # -- arrivals ----------------------------------------------------------
    def _arrive(self, dispatch: int) -> None:
        info = self._inflight.pop(dispatch, None)
        if info is None:
            return
        if self.done:
            self._sent_at.pop(dispatch, None)
            return
        result = self.coordinator.submit(info["frame"])
        if not result.accepted:
            self._sent_at.pop(dispatch, None)
        else:
            pumped = self.coordinator.pump(self.spec.job_id)
            now = self.loop.now
            for event in pumped.commits:
                for committed in event.dispatches:
                    sent = self._sent_at.pop(committed, None)
                    if sent is not None:
                        latency = now - sent
                        self.latencies.append(latency)
                        self._latency_hist.observe(latency, job=self.spec.job_id)
            for rejected, _reason in pumped.rejected:
                self._sent_at.pop(rejected, None)
        job = self.coordinator.jobs[self.spec.job_id]
        if job.state is JobState.DONE:
            self.done = True
        else:
            self.fill()

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """State only: a pending frame is a pure function of its descriptor
        and base vector, so it is described here and rebuilt by
        :meth:`load_state`; each base vector is written once, not per frame."""
        pending = self.unacked if self.chaos else self._inflight
        bases = {info["base_version"]: info["base"] for info in pending.values()}
        return {
            "job_id": self.spec.job_id,
            "next_dispatch": self.next_dispatch,
            "done": self.done,
            "drops": self.drops,
            "latencies": encode_flat(self.latencies),
            "sent": encode_flat(sorted(self._sent_at.items())),
            "bases": [[v, encode_flat(bases[v])] for v in sorted(bases)],
            "inflight": encode_flat(
                [
                    [dispatch, info["client"], info["base_version"],
                     len(info["frame"]), info["at"], info["sent_at"]]
                    for dispatch, info in sorted(self._inflight.items())
                ]
            ),
            **(
                {
                    "chaos": {
                        "next_seq": self.next_seq,
                        "version_history": list(self.version_history),
                        "retransmits": self.retransmits,
                        "acks": self.acks,
                        "corrupt_acks": self.corrupt_acks,
                        "ack_index": self.ack_index,
                        "unacked": encode_flat(
                            [
                                [info["dispatch"], info["client"],
                                 info["base_version"], len(info["frame"]),
                                 seq, info["attempts"], info["next_at"]]
                                for seq, info in sorted(self.unacked.items())
                            ]
                        ),
                        "timers": encode_flat(
                            [[t, *entry] for t, entry in sorted(self._timers.items())]
                        ),
                        "next_timer": self._next_timer,
                        "uplink": self.uplink.state_dict(),
                        "downlink": self.downlink.state_dict(),
                    }
                }
                if self.chaos
                else {}
            ),
        }

    def _rebuilt(self, bases, row, seq=None) -> Dict[str, object]:
        """The pending entry a descriptor row stands for, frame regenerated."""
        dispatch, client, version, nbytes = (int(x) for x in row)
        frame = self._build_frame(dispatch, client, version, bases[version], seq=seq)
        if len(frame) != nbytes:
            raise ValueError(
                f"dispatch {dispatch} rebuilt to {len(frame)} bytes, "
                f"checkpoint recorded {nbytes}"
            )
        return {
            "frame": frame,
            "client": client,
            "base_version": version,
            "base": bases[version],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        if state["job_id"] != self.spec.job_id:
            raise ValueError("checkpoint belongs to a different job")
        self.next_dispatch = int(state["next_dispatch"])
        self.done = bool(state["done"])
        self.drops = int(state["drops"])
        self.latencies = decode_flat(state["latencies"]).tolist()
        self._sent_at = {int(d): at for d, at in _rows(state["sent"], 2)}
        bases = {int(v): decode_flat(flat) for v, flat in state["bases"]}
        self._inflight = {
            int(row[0]): {**self._rebuilt(bases, row), "at": at, "sent_at": sent_at}
            for *row, at, sent_at in _rows(state["inflight"], 6)
        }
        if self.chaos:
            chaos = state["chaos"]
            self.next_seq = int(chaos["next_seq"])
            self.version_history = [int(v) for v in chaos["version_history"]]
            self.retransmits = int(chaos["retransmits"])
            self.acks = int(chaos["acks"])
            self.corrupt_acks = int(chaos["corrupt_acks"])
            self.ack_index = int(chaos["ack_index"])
            self.unacked = {
                int(seq): {
                    **self._rebuilt(bases, row, seq=int(seq)),
                    "dispatch": int(row[0]),
                    "attempts": int(attempts),
                    "next_at": next_at,
                }
                for *row, seq, attempts, next_at in _rows(chaos["unacked"], 7)
            }
            self._timers = {
                int(timer): entry for timer, *entry in _rows(chaos["timers"], 4)
            }
            self._next_timer = int(chaos["next_timer"])
            self.uplink.load_state(chaos["uplink"])
            self.downlink.load_state(chaos["downlink"])


class ServeHarness:
    """Coordinator + event loop + N load generators, checkpointable.

    With ``storage`` set, the full ensemble state is persisted after
    every ``checkpoint_every``-th event; :meth:`restore` picks the run
    back up mid-stream (in-flight frames are rebuilt, then re-scheduled at
    their stored virtual arrival times, ordered ``(at, job, dispatch)``, which
    matches the original heap order because distinct-time arrivals
    dominate — latencies are continuous draws, so exact ties across
    dispatches have measure zero).
    """

    def __init__(
        self,
        specs: Sequence[LoadSpec],
        *,
        quota: Optional[TenantQuota] = None,
        storage=None,
        checkpoint_every: int = 1,
        clock: Optional[VirtualClock] = None,
        breaker: Optional[BreakerConfig] = None,
    ) -> None:
        if not specs:
            raise ValueError("at least one LoadSpec is required")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.clock = clock if clock is not None else VirtualClock()
        self.loop = EventLoop(self.clock)
        self.coordinator = Coordinator(quota=quota, breaker=breaker)
        self.generators = [
            LoadGenerator(spec, self.coordinator, self.loop) for spec in specs
        ]
        self.storage = storage
        self.checkpoint_every = int(checkpoint_every)
        self.events_processed = 0
        self._started = False

    # -- running -----------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> Dict[str, object]:
        """Drive the loop until all jobs finish (or ``max_events``)."""
        if not self._started:
            for generator in self.generators:
                generator.fill()
            self._started = True
            self.checkpoint()
        events = 0
        while max_events is None or events < max_events:
            if not self.loop.step():
                break
            events += 1
            self.events_processed += 1
            if (
                self.storage is not None
                and self.events_processed % self.checkpoint_every == 0
            ):
                self.checkpoint()
        self.checkpoint()
        return self.report()

    @property
    def finished(self) -> bool:
        return self._started and all(g.done for g in self.generators)

    def close(self) -> None:
        """Nothing to release; ``bench/`` still calls it after each run."""

    # -- checkpoint / resume ----------------------------------------------
    def checkpoint(self) -> None:
        if self.storage is None:
            return
        state = {
            "schema": 2,
            "clock": self.clock.time,
            "events": self.events_processed,
            "started": self._started,
            "coordinator": self.coordinator.state_dict(),
            "generators": [g.state_dict() for g in self.generators],
        }
        blob = json.dumps(state, sort_keys=True).encode()
        self.storage.put(TA_UUID, HARNESS_CHECKPOINT, blob)

    def restore(self) -> bool:
        """Resume from the latest verifiable checkpoint; True when found."""
        if self.storage is None:
            return False
        blob = self.storage.latest_verifiable(TA_UUID, HARNESS_CHECKPOINT)
        if blob is None:
            return False
        state = json.loads(blob.decode())
        if state.get("schema") != 2:
            raise ValueError("unknown harness checkpoint schema")
        # Refuse a checkpoint of other jobs before anything is touched;
        # the coordinator checks its own schema before it loads a job.
        ours = [generator.spec.job_id for generator in self.generators]
        theirs = [snapshot["job_id"] for snapshot in state["generators"]]
        if theirs != ours:
            raise ValueError(
                f"checkpoint holds jobs {theirs}, this harness runs {ours}"
            )
        self.coordinator.load_state(state["coordinator"])
        self.clock.advance_to(float(state["clock"]))
        for generator, snapshot in zip(self.generators, state["generators"]):
            generator.load_state(snapshot)
        self.events_processed = int(state["events"])
        self._started = bool(state["started"])
        self.loop.clear()
        pending = []
        for index, generator in enumerate(self.generators):
            for dispatch, info in generator._inflight.items():
                pending.append((float(info["at"]), index, dispatch))
        for at, index, dispatch in sorted(pending):
            generator = self.generators[index]
            self.loop.schedule_at(
                at, lambda g=generator, d=dispatch: g._arrive(d)
            )
        for generator in self.generators:
            if not generator.chaos:
                continue
            generator.uplink.reschedule()
            generator.downlink.reschedule()
            for timer, (at, _, _) in sorted(
                generator._timers.items(), key=lambda kv: (kv[1][0], kv[0])
            ):
                self.loop.schedule_at(
                    at, lambda g=generator, t=timer: g._timer_fire(t)
                )
        return True

    # -- reporting ---------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Byte-reproducible run summary (never embeds live metrics —
        resumed processes would disagree on counter history)."""
        jobs = []
        total_commits = 0
        for generator in self.generators:
            job = self.coordinator.jobs[generator.spec.job_id]
            latencies = np.asarray(generator.latencies, dtype=np.float64)
            total_commits += job.version
            transport = None
            if generator.chaos:
                up = generator.uplink.counters
                sends = up["sends"]
                originals = sends - generator.retransmits
                inserts = job.transport.get("inserts", 0)
                breaker = self.coordinator.breakers.get(job.tenant)
                transport = {
                    "chaos_rate": generator.spec.chaos_rate,
                    "chaos_seed": generator.spec.chaos_seed,
                    "cursor": job.cursor,
                    "sends": sends,
                    "copies": up["copies"],
                    "deliveries": up["deliveries"],
                    "drops": up["drops"],
                    "duplicates": up["duplicates"],
                    "reorders": up["reorders"],
                    "corruptions": up["corruptions"],
                    "truncations": up["truncations"],
                    "replays": up["replays"],
                    "dup_clean_deliveries": up["dup_clean"],
                    "retransmits": generator.retransmits,
                    "acks_received": generator.acks,
                    "corrupt_acks": generator.corrupt_acks,
                    "dedup_hits": job.transport.get("dedup_hits", 0),
                    "inserts": inserts,
                    "shed": job.transport.get("shed", 0),
                    "refused": job.transport.get("refused", 0),
                    "terminal": job.transport.get("terminal", 0),
                    "corrupt_frames": job.transport.get("corrupt", 0),
                    "breaker_trips": 0 if breaker is None else breaker.trips,
                    "goodput": (
                        round(inserts / sends, 9) if sends else None
                    ),
                    "retransmit_overhead": (
                        round(generator.retransmits / originals, 9)
                        if originals
                        else None
                    ),
                }
            jobs.append(
                {
                    "tenant": job.tenant,
                    "job_id": job.job_id,
                    "state": job.state.value,
                    "clients": generator.spec.clients,
                    "dispatches": generator.next_dispatch,
                    "drops": generator.drops,
                    "commits": job.version,
                    "folds": job.folds,
                    "admitted": job.admitted,
                    "rejects": dict(sorted(job.rejects.items())),
                    "bytes_up": job.bytes_up,
                    "bytes_down": job.bytes_down,
                    "bytes_up_per_client": round(
                        job.bytes_up / generator.spec.clients, 3
                    ),
                    "bytes_down_per_client": round(
                        job.bytes_down / generator.spec.clients, 3
                    ),
                    "latency_p50_s": (
                        round(float(np.percentile(latencies, 50)), 9)
                        if latencies.size
                        else None
                    ),
                    "latency_p99_s": (
                        round(float(np.percentile(latencies, 99)), 9)
                        if latencies.size
                        else None
                    ),
                    "aggregator_peak_bytes": job.aggregator_peak_bytes,
                    "weights_sha256": hashlib.sha256(
                        np.ascontiguousarray(job.flat, dtype="<f8").tobytes()
                    ).hexdigest(),
                    **({"transport": transport} if transport is not None else {}),
                }
            )
        elapsed = float(self.clock.time)
        return {
            "jobs": jobs,
            "events": self.events_processed,
            "virtual_seconds": round(elapsed, 9),
            "commits_per_virtual_second": (
                round(total_commits / elapsed, 9) if elapsed > 0 else None
            ),
        }
