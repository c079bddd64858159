"""The persistent multi-tenant FL coordinator.

A :class:`Coordinator` owns many concurrent FL **jobs** (one per tenant
stream), each an independent FedBuff-style buffered aggregation pipeline
over the exact compensated reduce.  Clients talk to it exclusively in
wire frames (:mod:`repro.serve.wire`); every decoded delta is widened to
canonical float64 before anything touches an accumulator, so the
committed aggregate of each job is a pure function of the admitted
update multiset — bitwise independent of arrival order, shard routing,
and value encoding round-trips at ratio 1.0.

Lifecycle: ``create → run → drain → checkpoint → resume``.

* **create/run** — :meth:`Coordinator.create_job` registers a job under
  a tenant (per-tenant job quota enforced) and starts accepting frames.
* **submit** — frames land in a per-job staging queue.  Over-depth
  queues shed load (``serve.backpressure.rejects``); updates based on a
  version older than the retained window are refused as stale.
* **pump** — staged updates flow through admission control (norm
  ceiling, reputation/quarantine) into the buffered window; every K
  admitted folds the window commits and the model version advances.
* **drain** — stop accepting, flush the queue, commit the final partial
  window, finish.
* **checkpoint/resume** — :meth:`state_dict` captures every job
  mid-window (expansion components, staged frames, retained versions,
  reputation ledger) as JSON; :class:`~repro.serve.loadgen.ServeHarness`
  seals it into its own checkpoint, and a coordinator given it back
  through :meth:`load_state` finishes the run with byte-identical commits.
"""

from __future__ import annotations

import base64
import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..fl.admission import AdmissionConfig, AdmissionController, ReputationTracker
from ..fl.buffer import BufferedAggregator, decode_flat, encode_flat
from ..fl.config import BufferConfig, ConfigError, ShardingConfig, knob
from ..nn.model import WeightsList
from ..nn.serialize import flatten_weights
from ..obs import get_registry, get_tracer
from .transport import BreakerConfig, TenantBreaker
from .wire import (
    AckMsg,
    ClientUpdateMsg,
    Encoding,
    FrameError,
    WireVector,
    decode_frame,
    encode_frame,
    verify_frame,
)

__all__ = [
    "TenantQuota",
    "JobState",
    "SubmitResult",
    "CommitEvent",
    "PumpResult",
    "IngestResult",
    "Job",
    "Coordinator",
]

TA_UUID = "gradsec-serve-coordinator"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits the coordinator enforces.

    Attributes
    ----------
    max_jobs:
        Concurrent jobs a tenant may own.
    max_queue_depth:
        Staged (not yet folded) updates per job before backpressure
        rejects new submissions.
    max_version_lag:
        Oldest base version accepted, relative to the job's head: an
        update trained on ``version < head - max_version_lag`` is refused
        as stale (and its base weights are no longer retained anyway).
    """

    max_jobs: int = 4
    max_queue_depth: int = knob(
        4096, "staged updates per job before backpressure rejects"
    )
    max_version_lag: int = 8

    def __post_init__(self) -> None:
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if self.max_queue_depth < 1:
            raise ConfigError("max_queue_depth must be >= 1")
        if self.max_version_lag < 0:
            raise ValueError("max_version_lag cannot be negative")


class JobState(str, enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    DRAINING = "draining"
    DONE = "done"


@dataclass(frozen=True)
class SubmitResult:
    accepted: bool
    reason: Optional[str] = None


@dataclass(frozen=True)
class CommitEvent:
    """One committed window: which dispatches became this model version."""

    tenant: str
    job_id: str
    version: int
    folds: int
    dispatches: Tuple[int, ...]


@dataclass(frozen=True)
class PumpResult:
    """What one pump pass did: commits fired, dispatches rejected."""

    commits: Tuple[CommitEvent, ...]
    rejected: Tuple[Tuple[int, str], ...]


@dataclass(frozen=True)
class IngestResult:
    """What :meth:`Coordinator.ingest` did with one delivered frame.

    ``status`` is one of ``accepted`` / ``duplicate`` / ``rejected:done``
    / ``corrupt`` / ``shed`` / ``refused:*``.  ``ack`` is the
    acknowledgement to send back (None for corrupt/shed/refused frames —
    silence makes the client retransmit).  ``processed`` lists every
    ``(seq, version_after)`` the in-order drain advanced past, and
    ``pumped`` carries the commits/rejects those folds produced.
    """

    status: str
    seq: Optional[int] = None
    ack: Optional[AckMsg] = None
    pumped: Optional[PumpResult] = None
    processed: Tuple[Tuple[int, int], ...] = ()


class Job:
    """One tenant's FL aggregation stream.

    Owns the current global model (``flat``, the canonical float64
    vector every fold, commit and admission check works on), the retained
    base versions clients may still train against, the staged frame
    queue, the open buffered window, and — when a norm ceiling is
    configured — the admission controller and reputation ledger.
    """

    def __init__(
        self,
        tenant: str,
        job_id: str,
        weights: WeightsList,
        *,
        buffer: Optional[BufferConfig] = None,
        sharding: Optional[ShardingConfig] = None,
        admission: Optional[AdmissionConfig] = None,
        quota: Optional[TenantQuota] = None,
        target_commits: Optional[int] = None,
    ) -> None:
        self.tenant = tenant
        self.job_id = job_id
        # What a checkpoint needs of the model: names and shapes, in order.
        self._layout = [
            [[key, list(np.shape(value))] for key, value in layer.items()]
            for layer in weights
        ]
        self.flat = np.asarray(flatten_weights(weights), dtype=np.float64)
        self.size = int(self.flat.size)
        self.buffer_config = buffer or BufferConfig()
        self.sharding = sharding or ShardingConfig()
        self.quota = quota or TenantQuota()
        self.target_commits = target_commits
        self.state = JobState.CREATED
        self.version = 0
        self.versions: Dict[int, np.ndarray] = {0: self.flat}
        self.queue: Deque[Tuple[bytes, ClientUpdateMsg]] = deque()
        self.window = BufferedAggregator(
            self.size, self.buffer_config, self.sharding
        )
        self.admission: Optional[AdmissionController] = None
        self.reputation: Optional[ReputationTracker] = None
        self.admission_config = admission
        if admission is not None:
            self.admission = AdmissionController(admission)
            self.reputation = ReputationTracker()
        self.window_dispatches: List[int] = []
        self.folds = 0
        self.admitted = 0
        self.rejects: Dict[str, int] = {}
        self.bytes_up = 0
        self.bytes_down = 0
        # Exactly-once dedup ledger (chaos transport): ``cursor`` is the
        # next transport seq to fold, ``stash`` the bounded reorder
        # buffer of received-but-not-yet-in-order frames, ``terminal``
        # the seqs acked ``rejected:done`` after the job finished (capped
        # at ``quota.max_queue_depth``).  A seq is a duplicate iff it is
        # below the cursor, stashed, or terminal.  All three ride the
        # checkpoint.
        self.cursor = 0
        self.stash: Dict[int, Tuple[bytes, ClientUpdateMsg]] = {}
        self.terminal: set = set()
        self.transport: Dict[str, int] = {}

    @property
    def active(self) -> bool:
        return self.state in (JobState.RUNNING, JobState.DRAINING)

    @property
    def aggregator_peak_bytes(self) -> int:
        return int(self.window.peak_bytes)

    def _count_reject(self, reason: str) -> None:
        self.rejects[reason] = self.rejects.get(reason, 0) + 1

    def _count_transport(self, reason: str) -> None:
        self.transport[reason] = self.transport.get(reason, 0) + 1

    def _advance(self, flat: np.ndarray) -> None:
        self.version += 1
        self.flat = flat
        self.versions[self.version] = flat
        floor = self.version - self.quota.max_version_lag
        for version in [v for v in self.versions if v < floor]:
            del self.versions[version]

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        state: Dict[str, object] = {
            "tenant": self.tenant,
            "job_id": self.job_id,
            "state": self.state.value,
            "version": self.version,
            "target_commits": self.target_commits,
            "buffer": {
                "size": self.buffer_config.size,
                "staleness": self.buffer_config.staleness,
                "exponent": self.buffer_config.exponent,
            },
            "shards": self.sharding.num_shards,
            "max_norm": None
            if self.admission_config is None
            else self.admission_config.max_norm,
            "clip": False
            if self.admission_config is None
            else self.admission_config.clip,
            "layout": self._layout,
            "versions": [
                [version, encode_flat(flat)]
                for version, flat in sorted(self.versions.items())
            ],
            "queue": [
                base64.b64encode(frame).decode() for frame, _ in self.queue
            ],
            "window": self.window.state_dict(),
            "window_dispatches": list(self.window_dispatches),
            "counters": {
                "folds": self.folds,
                "admitted": self.admitted,
                "rejects": dict(sorted(self.rejects.items())),
                "bytes_up": self.bytes_up,
                "bytes_down": self.bytes_down,
            },
            "reputation": None
            if self.reputation is None
            else self.reputation.state_dict(),
            "transport": {
                "cursor": self.cursor,
                "stash": [
                    [seq, base64.b64encode(self.stash[seq][0]).decode("ascii")]
                    for seq in sorted(self.stash)
                ],
                "terminal": sorted(self.terminal),
                "counters": dict(sorted(self.transport.items())),
            },
        }
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        self.state = JobState(state["state"])
        self.version = int(state["version"])
        self.versions = {
            int(version): decode_flat(flat) for version, flat in state["versions"]
        }
        self.flat = self.versions[self.version]
        self.queue = deque(
            (frame, decode_frame(frame)[0])
            for frame in (
                base64.b64decode(encoded) for encoded in state["queue"]
            )
        )
        self.window.load_state(state["window"])
        self.window_dispatches = [int(d) for d in state["window_dispatches"]]
        counters = state["counters"]
        self.folds = int(counters["folds"])
        self.admitted = int(counters["admitted"])
        self.rejects = {k: int(v) for k, v in counters["rejects"].items()}
        self.bytes_up = int(counters["bytes_up"])
        self.bytes_down = int(counters["bytes_down"])
        if self.reputation is not None and state["reputation"] is not None:
            self.reputation.load_state(state["reputation"])
        transport = state["transport"]
        self.cursor = int(transport["cursor"])
        self.stash = {}
        for seq, encoded in transport["stash"]:
            frame = base64.b64decode(encoded)
            self.stash[int(seq)] = (frame, decode_frame(frame)[0])
        self.terminal = {int(seq) for seq in transport["terminal"]}
        self.transport = {k: int(v) for k, v in transport["counters"].items()}


class Coordinator:
    """Owns concurrent tenant jobs; enforces quotas; commits exactly.

    Parameters
    ----------
    quota:
        Default :class:`TenantQuota` for every tenant (per-tenant
        overrides via ``quotas``).
    """

    def __init__(
        self,
        *,
        quota: Optional[TenantQuota] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        breaker: Optional[BreakerConfig] = None,
    ) -> None:
        self.default_quota = quota or TenantQuota()
        self.quotas = dict(quotas or {})
        self.jobs: Dict[str, Job] = {}
        self.breaker_config = breaker
        self.breakers: Dict[str, TenantBreaker] = {}
        self._active = self._queued = 0  # running totals behind the two gauges
        registry = get_registry()
        self._jobs_gauge = registry.gauge(
            "serve.jobs.active", "jobs currently running or draining"
        )
        self._queue_gauge = registry.gauge(
            "serve.queue.depth", "staged updates across all job queues"
        )
        self._backpressure = registry.counter(
            "serve.backpressure.rejects", "submissions shed by queue backpressure"
        )
        self._rejected = registry.counter(
            "serve.submit.rejected", "submissions refused (any reason)"
        )
        self._commits = registry.counter("serve.commits", "windows committed")
        self._folds = registry.counter("serve.folds", "updates folded into windows")
        self._bytes_up = registry.counter("serve.bytes.up", "client→coordinator bytes")
        self._bytes_down = registry.counter(
            "serve.bytes.down", "coordinator→client bytes"
        )
        self._t_corrupt = registry.counter(
            "serve.transport.corrupt", "frames rejected as malformed on ingest"
        )
        self._t_dedup = registry.counter(
            "serve.transport.dedup.hits", "duplicate deliveries absorbed by the ledger"
        )
        self._t_shed = registry.counter(
            "serve.transport.shed", "deliveries shed by an open tenant breaker"
        )
        self._t_trips = registry.counter(
            "serve.transport.breaker.trips", "tenant circuit breakers tripped open"
        )
        self._jobs_gauge.set(0.0)
        self._queue_gauge.set(0.0)

    # -- bookkeeping -------------------------------------------------------
    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _set_state(self, job: Job, state: JobState) -> None:
        """Move ``job`` to ``state``, keeping the active-jobs gauge in step."""
        was = job.active
        job.state = state
        if job.active != was:
            self._active += job.active - was
            self._jobs_gauge.set(float(self._active))

    # -- lifecycle ---------------------------------------------------------
    def create_job(
        self,
        tenant: str,
        job_id: str,
        weights: WeightsList,
        *,
        buffer: Optional[BufferConfig] = None,
        sharding: Optional[ShardingConfig] = None,
        admission: Optional[AdmissionConfig] = None,
        target_commits: Optional[int] = None,
        start: bool = True,
    ) -> Job:
        """Register (and by default start) a new job under ``tenant``."""
        if job_id in self.jobs:
            raise ValueError(f"job {job_id!r} already exists")
        quota = self.quota_for(tenant)
        owned = sum(
            1
            for job in self.jobs.values()
            if job.tenant == tenant and job.state is not JobState.DONE
        )
        if owned >= quota.max_jobs:
            raise ValueError(
                f"tenant {tenant!r} is at its job quota ({quota.max_jobs})"
            )
        job = Job(
            tenant,
            job_id,
            weights,
            buffer=buffer,
            sharding=sharding,
            admission=admission,
            quota=quota,
            target_commits=target_commits,
        )
        self.jobs[job_id] = job
        if start:
            self.start(job_id)
        return job

    def start(self, job_id: str) -> None:
        job = self.jobs[job_id]
        if job.state is not JobState.CREATED:
            raise ValueError(f"job {job_id!r} is {job.state.value}, not created")
        self._set_state(job, JobState.RUNNING)

    def drain(self, job_id: str) -> PumpResult:
        """Stop accepting, flush the queue, commit the partial window."""
        job = self.jobs[job_id]
        if job.state is JobState.DONE:
            return PumpResult((), ())
        self._set_state(job, JobState.DRAINING)
        return self.pump(job_id)

    # -- ingest ------------------------------------------------------------
    def submit(self, frame: bytes) -> SubmitResult:
        """Stage one client-update frame (decode, quota-check, enqueue)."""
        message, end = decode_frame(frame)
        if end != len(frame):
            raise FrameError("one delivery is one frame: trailing bytes")
        if not isinstance(message, ClientUpdateMsg):
            return self._refuse(None, "msg_type")
        job = self.jobs.get(message.job_id)
        if job is None:
            return self._refuse(None, "unknown_job")
        job.bytes_up += len(frame)
        self._bytes_up.inc(len(frame), tenant=job.tenant)
        if job.state is not JobState.RUNNING:
            return self._refuse(job, "state")
        quota = job.quota
        if len(job.queue) >= quota.max_queue_depth:
            self._backpressure.inc(tenant=job.tenant)
            return self._refuse(job, "backpressure")
        if message.base_version < job.version - quota.max_version_lag or (
            message.base_version > job.version
        ):
            return self._refuse(job, "stale")
        job.queue.append((frame, message))
        self._queued += 1
        self._queue_gauge.set(float(self._queued))
        return SubmitResult(True)

    def _refuse(self, job: Optional[Job], reason: str) -> SubmitResult:
        self._rejected.inc(reason=reason)
        if job is not None:
            job._count_reject(reason)
        return SubmitResult(False, reason)

    # -- chaos-transport ingest --------------------------------------------
    def breaker_for(self, tenant: str) -> Optional[TenantBreaker]:
        if self.breaker_config is None:
            return None
        breaker = self.breakers.get(tenant)
        if breaker is None:
            breaker = self.breakers[tenant] = TenantBreaker(self.breaker_config)
        return breaker

    def ingest(
        self,
        data: bytes,
        *,
        now: float = 0.0,
        job_hint: Optional[str] = None,
    ) -> IngestResult:
        """Exactly-once ingest of one chaos-channel delivery.

        Unlike :meth:`submit`, this path assumes a hostile wire: the
        frame is CRC-verified first (malformed bytes are counted against
        ``job_hint``'s tenant breaker and dropped without an ack), the
        header dispatch id is run through the job's dedup ledger, and
        accepted frames are stashed then folded strictly in seq order —
        which makes the committed weights a pure function of the seq
        prefix, bitwise independent of delivery order, duplication, or
        retransmission timing.  Byte accounting happens at the channel
        (every physical copy), never here.
        """
        try:
            header = verify_frame(data)
            if header.dispatch is None:
                raise FrameError(
                    "chaos ingest requires a v2 frame with a dispatch id"
                )
            if header.end != len(data):
                raise FrameError("one delivery is one frame: trailing bytes")
            message, _ = decode_frame(data, header=header)
        except FrameError:
            self._t_corrupt.inc()
            job = self.jobs.get(job_hint) if job_hint is not None else None
            if job is not None:
                job._count_transport("corrupt")
                breaker = self.breaker_for(job.tenant)
                if breaker is not None and breaker.record_error(now):
                    job._count_transport("breaker_trips")
                    self._t_trips.inc(tenant=job.tenant)
            return IngestResult("corrupt")
        if not isinstance(message, ClientUpdateMsg):
            return IngestResult("refused:msg_type")
        job = self.jobs.get(message.job_id)
        if job is None:
            return IngestResult("refused:unknown_job")
        seq = int(header.dispatch)
        breaker = self.breaker_for(job.tenant)
        if breaker is not None:
            if not breaker.allow(now):
                job._count_transport("shed")
                self._t_shed.inc(tenant=job.tenant)
                return IngestResult("shed", seq=seq)
            breaker.record_ok(now)
        if seq < job.cursor or seq in job.stash or seq in job.terminal:
            job._count_transport("dedup_hits")
            self._t_dedup.inc(tenant=job.tenant)
            return IngestResult(
                "duplicate",
                seq=seq,
                ack=AckMsg(job.job_id, seq, "duplicate"),
            )
        # Both ledgers are bounded by the tenant's queue depth: the stash of
        # a running job, and the terminal set of a finished one.  An honest
        # fleet has at most ``concurrency`` seqs outstanding at DONE, so
        # only a peer inventing seqs fills the latter — and gets what a
        # full stash gets: no ack, nothing remembered.
        done = job.state is JobState.DONE
        if len(job.terminal if done else job.stash) >= job.quota.max_queue_depth:
            self._backpressure.inc(tenant=job.tenant)
            job._count_transport("refused")
            return IngestResult("refused:backpressure", seq=seq)
        if done:
            # Terminal: the job finished without this seq; remember it so
            # replayed copies dedup, and tell the client to stop retrying.
            job.terminal.add(seq)
            job._count_transport("terminal")
            return IngestResult(
                "rejected:done",
                seq=seq,
                ack=AckMsg(job.job_id, seq, "rejected:done"),
            )
        job.stash[seq] = (data, message)
        job._count_transport("inserts")
        ack = AckMsg(job.job_id, seq, "accepted")
        processed: List[Tuple[int, int]] = []
        commits: List[CommitEvent] = []
        rejected: List[Tuple[int, str]] = []
        while job.cursor in job.stash and job.state is not JobState.DONE:
            staged = job.stash.pop(job.cursor)
            if job.state is JobState.RUNNING:
                job.queue.append(staged)
                self._queued += 1
                result = self.pump(job.job_id)
                commits.extend(result.commits)
                rejected.extend(result.rejected)
            processed.append((job.cursor, job.version))
            job.cursor += 1
        return IngestResult(
            "accepted",
            seq=seq,
            ack=ack,
            pumped=PumpResult(tuple(commits), tuple(rejected)),
            processed=tuple(processed),
        )

    # -- processing --------------------------------------------------------
    def pump(self, job_id: Optional[str] = None) -> PumpResult:
        """Flow staged updates through admission into windows; commit.

        Processes jobs in sorted ``job_id`` order (deterministic), each
        queue FIFO.  Returns every commit fired and every staged dispatch
        rejected during this pass.
        """
        targets = (
            [self.jobs[job_id]]
            if job_id is not None
            else [self.jobs[key] for key in sorted(self.jobs)]
        )
        commits: List[CommitEvent] = []
        rejected: List[Tuple[int, str]] = []
        for job in targets:
            if not job.active:
                continue
            while job.queue:
                _, message = job.queue.popleft()
                self._queued -= 1
                outcome = self._fold_one(job, message)
                if outcome is not None:
                    rejected.append((message.dispatch, outcome))
                if job.window.ready:
                    commits.append(self._commit(job))
                    if self._maybe_finish(job):
                        break
            if (
                job.state is JobState.DRAINING
                and not job.queue
            ):
                if job.window.pending > 0:
                    commits.append(self._commit(job))
                self._set_state(job, JobState.DONE)
        self._queue_gauge.set(float(self._queued))
        return PumpResult(tuple(commits), tuple(rejected))

    def _fold_one(self, job: Job, message: ClientUpdateMsg) -> Optional[str]:
        """Admit one staged update into the open window; reason if refused."""
        base = job.versions.get(message.base_version)
        if base is None:
            return self._refuse(job, "stale").reason
        delta = message.delta.flat64()
        if delta.size != job.size or message.num_samples < 1:
            return self._refuse(job, "structure").reason
        flat = base + delta
        client_id = f"client-{message.client}"
        if job.reputation is not None and job.reputation.is_blocked(
            client_id, job.version
        ):
            return self._refuse(job, "quarantined").reason
        if job.admission is not None:
            decision = job.admission.check(client_id, flat, reference=base)
            if not decision.admitted:
                job.reputation.record_rejection(client_id, job.version)
                return self._refuse(job, "admission").reason
            job.reputation.record_admission(client_id)
            flat = decision.flat
        elif not np.isfinite(flat).all():
            # The admission gate checks finiteness itself; without it, a
            # NaN/inf update would fold silently and poison the commit.
            return self._refuse(job, "structure").reason
        shard_id = int(message.client) % job.sharding.num_shards
        job.window.fold(
            shard_id,
            flat,
            message.num_samples,
            staleness=job.version - message.base_version,
            sort_key=message.dispatch,
        )
        job.window_dispatches.append(message.dispatch)
        job.folds += 1
        job.admitted += 1
        self._folds.inc(tenant=job.tenant)
        return None

    def _commit(self, job: Job) -> CommitEvent:
        with get_tracer().span(
            "serve.commit", job=job.job_id, version=job.version + 1
        ):
            flat = job.window.commit()
        dispatches = tuple(job.window_dispatches)
        job.window_dispatches = []
        job._advance(flat)
        self._commits.inc(tenant=job.tenant)
        return CommitEvent(
            job.tenant, job.job_id, job.version, len(dispatches), dispatches
        )

    def _maybe_finish(self, job: Job) -> bool:
        if (
            job.target_commits is not None
            and job.version >= job.target_commits
            and job.state in (JobState.RUNNING, JobState.DRAINING)
        ):
            self._set_state(job, JobState.DONE)
            self._queued -= len(job.queue)
            job.queue.clear()
            return True
        return False

    # -- downloads ---------------------------------------------------------
    def model_frame(
        self, job_id: str, encoding: Encoding = Encoding.F64
    ) -> bytes:
        """The current global model as a ModelDownload frame."""
        from .wire import ModelDownloadMsg

        job = self.jobs[job_id]
        frame = encode_frame(
            ModelDownloadMsg(
                job_id, job.version, WireVector.dense(job.flat, encoding)
            )
        )
        job.bytes_down += len(frame)
        self._bytes_down.inc(len(frame), tenant=job.tenant)
        return frame

    def charge_download(self, job_id: str, num_bytes: int) -> None:
        """Account a (cached) model download without re-encoding it."""
        job = self.jobs[job_id]
        job.bytes_down += int(num_bytes)
        self._bytes_down.inc(int(num_bytes), tenant=job.tenant)

    def charge_upload(self, job_id: str, num_bytes: int) -> None:
        """Account uplink bytes put on the wire by a chaos channel.

        Under chaos, bytes are charged per physical copy at send time
        (originals, retransmits, channel-made duplicates) rather than at
        receipt — the real cost of an unreliable uplink.
        """
        job = self.jobs[job_id]
        job.bytes_up += int(num_bytes)
        self._bytes_up.inc(int(num_bytes), tenant=job.tenant)

    # -- checkpoint / resume ----------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "schema": 2,
            "jobs": [self.jobs[key].state_dict() for key in sorted(self.jobs)],
            "breakers": {
                tenant: self.breakers[tenant].state_dict()
                for tenant in sorted(self.breakers)
            },
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Rebuild every job bit-for-bit from a :meth:`state_dict`."""
        if state.get("schema") != 2:
            raise ValueError("unknown coordinator checkpoint schema")
        self.jobs = {}
        for snapshot in state["jobs"]:
            # Shapes only: every value comes from the job's retained versions.
            weights = [
                {key: np.zeros(shape) for key, shape in layer}
                for layer in snapshot["layout"]
            ]
            buffer = BufferConfig(
                size=int(snapshot["buffer"]["size"]),
                staleness=snapshot["buffer"]["staleness"],
                exponent=float(snapshot["buffer"]["exponent"]),
            )
            admission = (
                AdmissionConfig(
                    max_norm=snapshot["max_norm"], clip=bool(snapshot["clip"])
                )
                if snapshot["max_norm"] is not None
                else None
            )
            job = Job(
                snapshot["tenant"],
                snapshot["job_id"],
                weights,
                buffer=buffer,
                sharding=ShardingConfig(num_shards=int(snapshot["shards"])),
                admission=admission,
                quota=self.quota_for(snapshot["tenant"]),
                target_commits=snapshot["target_commits"],
            )
            job.load_state(snapshot)
            self.jobs[job.job_id] = job
        self.breakers = {}
        for tenant, snapshot in state["breakers"].items():
            breaker = self.breaker_for(tenant)
            if breaker is not None:
                breaker.load_state(snapshot)
        self._active = sum(1 for job in self.jobs.values() if job.active)
        self._queued = sum(len(job.queue) for job in self.jobs.values())
        self._jobs_gauge.set(float(self._active))
        self._queue_gauge.set(float(self._queued))
