"""Event-driven FL fleet simulator with a resilient round engine.

:class:`FLSimulator` scales the FL loop to thousands of clients without
wall-clock cost by replacing *execution* with *accounting* while keeping the
server-side control loop real:

* **time** comes from a :class:`~repro.obs.clock.VirtualClock` advanced by a
  priority-queue :class:`~repro.sim.events.EventLoop`;
* **transfer time** is charged through a seeded per-client
  :class:`~repro.sim.network.NetworkModel` from the two payload sizes of
  the model structure (download, upload), serialised once per run;
* **compute time** comes from the TEE :class:`~repro.tee.costmodel.CostModel`
  under the deployment's protection policy, scaled by a per-client device
  speed factor;
* **updates** are deterministic pseudo-training deltas derived from
  ``(seed, round, client)`` — flat float64 vectors from production to
  fold — streamed into the real
  :class:`~repro.fl.sharding.HierarchicalAggregator` the moment they
  arrive — the bounded-memory exact reduce the production server uses, so
  a round never materializes O(clients × model) state and any shard count
  yields the same bits as flat :func:`~repro.fl.aggregation.fedavg`;
* **faults** come from a :class:`~repro.sim.faults.FaultPlan`, including
  dead shard aggregators whose lost uploads feed the retry machinery and
  **Byzantine clients** (sign-flip / scale / noise / collusion attacks on
  the updates they produce — see :class:`~repro.sim.faults.AttackKind`);
* **learning progress** is observable: honest pseudo-updates drift toward a
  seed-derived *teacher* model and every round reports the global model's
  accuracy on a teacher-labelled eval set, so attacks (and the robust rules
  that defeat them — ``rule=median|trimmed_mean|krum|clipped_fedavg``,
  composed with sharding by the same
  :class:`~repro.fl.sharding.HierarchicalAggregator`) have a measurable
  effect, not just a byte-level one;
* **admission control** (``max_norm``) puts the production
  :class:`~repro.fl.admission.AdmissionController` and its reputation
  ledger in the loop: rejected updates strike their sender, repeat
  offenders are quarantined out of future cohorts, and the ledger rides
  the round checkpoint so a resumed run quarantines identically.

The round engine mirrors what the production retrofit in
:mod:`repro.fl.server` does, but event-driven: it over-provisions the cohort
(asks ``ceil(k * overprovision)`` clients, aggregates the first ``k`` to
report), enforces a per-round deadline, retries transient failures with
exponential backoff (bounded), degrades gracefully below quorum (the
previous global model is reused for that cycle), and checkpoints every round
through :class:`~repro.tee.storage.SecureStorage` so a killed coordinator
resumes mid-training and produces bitwise-identical final weights.

Every random draw is keyed on ``(seed, stream, round[, client])`` — no
evolving generator crosses a round boundary — which is what makes resume
exact and two same-seed runs byte-identical.

``SimConfig(async_mode=True)`` replaces the round barrier with a
FedBuff-style buffered pipeline: dispatches stream continuously (selection
keyed on the dispatch index), arrivals fold straight into a
:class:`~repro.fl.buffer.BufferedAggregator`, and a commit fires whenever
``buffer_size`` admitted updates have accumulated — late (straggling)
updates arrive *stale* and are folded with their staleness weight instead
of being dropped.  The same determinism discipline applies, and the
mid-window buffer state rides the secure-storage checkpoint, so kill/resume
reproduces the uninterrupted run bit-for-bit.

Both steppers drive one client lifecycle — attempt → retry or give up →
admission gate → fold → record — through a single implementation of each
step; :meth:`FLSimulator.step_round` keeps what only a barrier has
(deadline, over-provisioning, quorum, dead-shard routing) and
:meth:`FLSimulator.step_commit` what only a stream has (checkpointable
descriptors, the version ledger, staleness, refill).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.policy import NoProtection, ProtectionPolicy
from ..fl.admission import AdmissionConfig, AdmissionController, ReputationTracker
from ..fl.buffer import BufferedAggregator, decode_flat, encode_flat
from ..fl.config import (
    STALENESS_KINDS,
    BufferConfig,
    ConfigError,
    ShardingConfig,
    check_switches,
    knob,
    require_finite,
    section,
)
from ..fl.robust import RULES
from ..fl.sharding import HierarchicalAggregator, shard_of
from ..fl.transport import ClientUpdate, ModelDownload
from ..nn.model import Sequential, WeightsList
from ..nn.serialize import (
    flatten_weights,
    unflatten_weights,
    weights_from_bytes,
    weights_to_bytes,
)
from ..nn.zoo import MODEL_CHOICES, mlp
from ..obs import get_registry, get_tracer
from ..obs.clock import VirtualClock
from ..tee.costmodel import CostModel
from ..tee.storage import SecureStorage
from . import keyed
from .events import EventLoop
from .faults import ATTACK_KINDS, AttackKind, FaultKind, FaultPlan, FaultRates
from .network import NetworkModel

__all__ = ["SimConfig", "SimRun", "FLSimulator", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 4

# Independent derivation streams off (seed, stream, ...); values are
# arbitrary distinct constants.
_STREAM_TRAITS = 11
_STREAM_SELECT = 12
_STREAM_UPDATE = 13
_STREAM_SHARD_TRAITS = 14
_STREAM_TEACHER = 15
_STREAM_EVAL = 16
_STREAM_ASYNC_SELECT = 17

_EVAL_SAMPLES = 256

_CHECKPOINT_OBJECT = "fl-round-checkpoint"


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulated deployment.

    Each knob's help text is the ``repro simulate`` flag's; beyond those:

    * ``seed`` fully determines the run (fleet traits, cohort draws,
      faults, pseudo-updates).
    * A round asks ``ceil(cohort * overprovision)`` clients and aggregates
      the first ``cohort`` to report; below ``quorum * cohort`` by the
      deadline it degrades (the previous global model is reused).
    * ``shards`` never changes the final weights at a seed (the streaming
      reduce is exact), while peak aggregator memory stays O(shards × model
      size), independent of the cohort and fleet size.
    * ``drift``/``teacher_scale`` are the honest pseudo-updates' learning
      signal: each pulls the global model ``drift`` of the way toward a
      seed-derived *teacher* (per-coordinate offset std ``teacher_scale``
      from the initial weights), plus ``update_scale`` noise, so accuracy
      on a teacher-labelled eval set makes attacks measurable.
    * ``byzantine``/``attack``/``attack_strength`` choose the attackers of
      the default :class:`~repro.sim.faults.FaultPlan`, which reads them
      from this config (``FaultPlan(attackers=config)``).
    * ``max_norm`` puts the production
      :class:`~repro.fl.admission.AdmissionController` and a reputation
      ledger (quarantining repeat offenders) in the loop.
    * ``compile``/``client_batch`` are execution knobs, not deployment
      semantics: :meth:`FLSimulator.report` omits them, and every batch
      size is bitwise-identical to the sequential eager loop.
    * ``async_mode`` replaces the round barrier with a stream of
      dispatches: up to ``concurrency`` clients in flight, each trained
      against the global model current at its dispatch, a commit whenever
      ``buffer_size`` admitted updates have folded (``rounds`` counts
      commits), and a late update folded with the
      :meth:`~repro.fl.config.BufferConfig.weight` of its staleness.
    * ``max_retries``/``retry_backoff_seconds`` bound the exponential
      retry of transient client failures; ``straggler_factor`` slows a
      straggler's round; ``batch_size``/``local_steps`` feed the TEE cost
      model's per-cycle compute time.  These have no flag.
    """

    num_clients: int = knob(100, "fleet size")
    rounds: int = knob(5, "FL rounds")
    seed: int = knob(0, "simulation seed")
    cohort: Optional[int] = knob(None, "updates aggregated per round")
    overprovision: float = knob(1.25, "selection surplus factor")
    quorum: float = knob(0.5, "min fraction of cohort to aggregate")
    deadline_seconds: float = knob(5.0, "round deadline (virtual seconds)")
    max_retries: int = 2
    retry_backoff_seconds: float = 0.5
    straggler_factor: float = 20.0
    update_scale: float = knob(0.05, "noise std of honest pseudo-updates")
    batch_size: int = 32
    local_steps: int = 1
    shards: int = knob(1, "shard aggregators in the reduce tree (1 = flat)")
    drift: float = knob(0.2, "per-round honest pull toward the teacher model")
    teacher_scale: float = 1.0
    byzantine: float = knob(0.0, "Byzantine fraction of the fleet (persistent)")
    attack: str = knob("sign_flip", "Byzantine attack", choices=ATTACK_KINDS)
    attack_strength: float = knob(10.0, "scale factor / noise multiplier")
    rule: str = knob("fedavg", "aggregation rule", choices=RULES)
    trim: Optional[int] = knob(
        None,
        "per-side trim of trimmed_mean (default: the assumed attacker count)",
        requires=("rule", "trimmed_mean"),
    )
    num_byzantine: Optional[int] = knob(
        None,
        "attackers trimmed_mean/krum assume (default: ceil(byzantine * cohort))",
        requires=("rule", "trimmed_mean", "krum"),
    )
    max_norm: Optional[float] = knob(
        None, "admission-control delta-norm ceiling (enables the reputation ledger)"
    )
    clip: bool = knob(
        False, "rescale over-norm updates onto the ceiling", requires="max_norm"
    )
    compile: bool = knob(
        False, "produce client updates through the compiled graph VM (same report)"
    )
    client_batch: int = knob(
        1, "clients stacked per batched VM execution", requires="compile"
    )
    async_mode: bool = knob(
        False, "FedBuff-style buffered aggregation: no round barrier"
    )
    buffer_size: Optional[int] = knob(
        None, "admitted updates per commit (default: cohort)", requires="async_mode"
    )
    staleness: str = knob(
        "constant",
        "staleness weighting of late updates",
        choices=STALENESS_KINDS,
        requires="async_mode",
    )
    staleness_exponent: float = knob(
        0.5, "polynomial decay exponent a of (1+tau)^-a", requires="async_mode"
    )
    concurrency: Optional[int] = knob(
        None, "max in-flight clients (default: the asked cohort)", requires="async_mode"
    )

    def __post_init__(self) -> None:
        require_finite(self)
        check_switches(self)
        if self.num_clients <= 0:
            raise ConfigError("num_clients must be positive")
        if self.rounds <= 0:
            raise ConfigError("rounds must be positive")
        if self.seed < 0:
            raise ConfigError("seed cannot be negative")
        if self.cohort is None:
            object.__setattr__(self, "cohort", min(32, self.num_clients))
        if not 1 <= self.cohort <= self.num_clients:
            raise ConfigError(
                f"cohort must be in 1..{self.num_clients}, got {self.cohort}"
            )
        if self.overprovision < 1.0:
            raise ConfigError("overprovision must be >= 1")
        if not 0.0 < self.quorum <= 1.0:
            raise ConfigError("quorum must be in (0, 1]")
        if self.deadline_seconds <= 0:
            raise ConfigError("deadline_seconds must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries cannot be negative")
        if self.retry_backoff_seconds <= 0:
            raise ConfigError("retry_backoff_seconds must be positive")
        if self.straggler_factor <= 1.0:
            raise ConfigError("straggler_factor must exceed 1")
        if self.update_scale <= 0:
            raise ConfigError("update_scale must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.local_steps < 1:
            raise ConfigError("local_steps must be positive")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if not 0.0 <= self.drift <= 1.0:
            raise ConfigError("drift must be in [0, 1]")
        if self.teacher_scale < 0:
            raise ConfigError("teacher_scale cannot be negative")
        if not 0.0 <= self.byzantine <= 1.0:
            raise ConfigError("byzantine must be in [0, 1]")
        AttackKind(self.attack)  # raises on unknown kinds
        if self.rule not in RULES:
            raise ConfigError(
                f"unknown aggregation rule {self.rule!r}; expected one of {RULES}",
                "rule",
            )
        if self.trim is not None and self.trim < 0:
            raise ConfigError("trim must be non-negative")
        if self.num_byzantine is not None and self.num_byzantine < 0:
            raise ConfigError("num_byzantine must be non-negative")
        if self.max_norm is not None and self.max_norm <= 0:
            raise ConfigError("max_norm must be positive when set")
        if self.client_batch < 1:
            raise ConfigError("client_batch must be >= 1")
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ConfigError("buffer_size must be >= 1")
        if self.buffer_size is None:
            object.__setattr__(self, "buffer_size", self.cohort)
        if self.staleness_exponent < 0:
            raise ConfigError("staleness_exponent cannot be negative")
        # BufferConfig validates the staleness kind on construction.
        self.buffer_config  # noqa: B018 — construction is the validation
        if self.concurrency is not None and self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1 when set")
        if self.async_mode and self.compile:
            raise ConfigError(
                "compile is a sync-only knob; not valid with async_mode",
                "compile",
                "async_mode",
            )

    @property
    def asked(self) -> int:
        """Clients contacted per round (over-provisioned cohort)."""
        return min(self.num_clients, math.ceil(self.cohort * self.overprovision))

    @property
    def quorum_count(self) -> int:
        """Minimum collected updates for a round to aggregate."""
        return max(1, math.ceil(self.quorum * self.cohort))

    @property
    def assumed_byzantine(self) -> int:
        """Attacker count the robust rules assume (explicit or derived)."""
        if self.num_byzantine is not None:
            return self.num_byzantine
        if self.byzantine > 0:
            return max(1, math.ceil(self.byzantine * self.cohort))
        return 1

    @property
    def effective_trim(self) -> int:
        """Per-side trim for ``trimmed_mean`` (explicit or derived)."""
        return self.trim if self.trim is not None else self.assumed_byzantine

    @property
    def effective_concurrency(self) -> int:
        """Max in-flight clients in async mode (explicit or ``asked``)."""
        return self.concurrency if self.concurrency is not None else self.asked

    @property
    def buffer_config(self) -> BufferConfig:
        """The commit buffer the async pipeline aggregates through."""
        return BufferConfig(
            size=self.buffer_size,
            staleness=self.staleness,
            exponent=self.staleness_exponent,
        )


@dataclass(frozen=True)
class SimRun:
    """One ``repro simulate`` run: the deployment, its fault rates, and the
    model, protection policy and state directory it runs with."""

    config: SimConfig = section(SimConfig)
    rates: FaultRates = section(FaultRates)
    model: Optional[str] = knob(
        None, "zoo model to train (default: a small MLP)", choices=MODEL_CHOICES
    )
    policy: Optional[str] = knob(
        None,
        "protection policy spec: none, static:SEL+SEL, darknetz:SEL, mw:K, "
        "pelta, pelta:BLOCK, pelta-mw:K",
        metavar="SPEC",
    )
    state_dir: Optional[str] = knob(None, "checkpoint directory (kill/resume)")


@dataclass
class _RoundState:
    """Mutable bookkeeping of one in-flight round.

    ``collected`` maps client index → sample count only: the update payload
    itself is folded into the shard tree the moment it arrives and then
    dropped, so a round never holds O(clients × model) weight state.
    ``pending`` holds the members still owed an outcome; whoever is left
    in it when the round settles straggled.
    """

    index: int
    tree: HierarchicalAggregator
    positions: Dict[int, int]
    dead_shards: frozenset
    compute_base: float
    base_flat: np.ndarray
    counts: Dict[str, int]
    pending: set = field(default_factory=set)
    collected: Dict[int, int] = field(default_factory=dict)
    done: bool = False
    aggregated_at: float = 0.0


# Every per-round (or per-commit-window) tally that is mirrored by a
# registry counter: tally key -> (metric name, help).  One table, so the
# record and the metrics snapshot cannot drift apart.
_TALLY_METRICS = {
    "dropouts": ("sim.dropouts", "cohort members that went silent mid-round"),
    "stragglers": ("sim.stragglers", "cohort members that missed the round deadline"),
    "corrupted": ("sim.corruptions", "updates rejected for failing integrity checks"),
    "pool_exhausted": (
        "sim.pool_exhaustions",
        "local training aborts from secure-pool exhaustion",
    ),
    "evicted": (
        "sim.attestation_failures",
        "cohort members evicted for failing round attestation",
    ),
    "retries": ("fl.retry.attempts", "client round attempts retried"),
    "giveups": ("fl.retry.giveups", "clients abandoned after exhausting retries"),
    "shard_down": ("sim.shard.losses", "uploads lost to dead shard aggregators"),
    "attacked": ("sim.attacked", "cohort slots held by Byzantine clients"),
    "admission_rejected": (
        "sim.admission.rejected",
        "arrived updates refused by admission control",
    ),
    "quarantined": (
        "sim.quarantined",
        "cohort slots denied to quarantined/evicted clients",
    ),
}

# ``admission_clipped`` has no sim.* counter of its own: the admission
# controller already counts clips under ``fl.admission.clipped``.
_COUNT_KEYS = (*_TALLY_METRICS, "admission_clipped")


def _items_to_sorted(template: WeightsList) -> np.ndarray:
    """Permutation from ``items()`` order onto ``flatten_weights`` order.

    Update noise is drawn as one vector in the model's ``items()`` order
    (the order the pinned bit stream was defined in); indexing the draw
    with these flattened ``items()``-order indices lays it out in the
    sorted-key order every flat vector in the engine uses.
    """
    index: WeightsList = []
    offset = 0
    for layer in template:
        index.append({})
        for key, value in layer.items():
            index[-1][key] = np.arange(offset, offset + value.size)
            offset += value.size
    return flatten_weights(index).astype(np.intp)


class FLSimulator:
    """Deterministic event-driven simulation of a federated deployment.

    Parameters
    ----------
    config:
        The deployment knobs; ``config.seed`` fully determines the run.
    model:
        Global model whose weights are trained (default: a small MLP — the
        simulator studies *fleet* behaviour, not learning curves; any
        :class:`~repro.nn.model.Sequential` works and payload sizes follow).
    policy:
        Protection policy; decides the protected set the cost model charges.
    fault_plan:
        Fault schedule (default: a fault-free fleet).
    network:
        Per-client link table (default: sampled from the config seed).
    storage:
        When given, every round is checkpointed into this
        :class:`~repro.tee.storage.SecureStorage`; a simulator constructed
        over storage holding a checkpoint resumes from it.
    cost_model:
        TEE cost model for per-cycle compute time.
    clock:
        The virtual clock to drive (share it with ``obs.fresh`` to get
        simulated-time spans).
    """

    TA_UUID = "gradsec-fl-coordinator"

    def __init__(
        self,
        config: SimConfig,
        model: Optional[Sequential] = None,
        policy: Optional[ProtectionPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        network: Optional[NetworkModel] = None,
        storage: Optional[SecureStorage] = None,
        cost_model: Optional[CostModel] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.config = config
        self.clock = clock or VirtualClock()
        self.loop = EventLoop(self.clock)
        self.model = model or mlp(
            num_classes=4, input_shape=(6,), hidden=(8, 5), seed=config.seed
        )
        self.policy = policy or NoProtection(self.model)
        self.fault_plan = fault_plan or FaultPlan(seed=config.seed, attackers=config)
        if config.async_mode and self.fault_plan.shard_down > 0:
            # The buffered pipeline's shards are server-side accumulator
            # lanes with no per-round life cycle; it never consults
            # shard_fault_for, so the rate would be silently ignored.
            raise ConfigError(
                f"shard_down={self.fault_plan.shard_down:g} is not valid with "
                "async_mode: async shards are accumulator lanes that cannot die",
                "shard_down",
                "async_mode",
            )
        self.storage = storage
        self.cost_model = cost_model or CostModel(
            batch_size=config.batch_size, batches_per_cycle=config.local_steps
        )
        traits = np.random.default_rng((config.seed, _STREAM_TRAITS))
        self.network = network or NetworkModel.sample(config.num_clients, traits)
        # Device heterogeneity: per-client compute speed and shard size.
        self.speed = traits.uniform(0.75, 2.5, config.num_clients)
        self.num_samples = traits.integers(16, 129, config.num_clients)
        # Shard aggregators are edge nodes with their own (better) links;
        # the shard→root hop is priced through this table.  Sampled from a
        # dedicated stream so enabling sharding never perturbs the fleet.
        self.shard_network = (
            NetworkModel.sample(
                config.shards,
                np.random.default_rng((config.seed, _STREAM_SHARD_TRAITS)),
                median_latency_seconds=0.02,
                min_bandwidth=20e6,
                max_bandwidth=100e6,
            )
            if config.shards > 1
            else None
        )
        # Learning signal: a seed-derived teacher the honest fleet drifts
        # toward, and an eval set it labels.  Accuracy of the global model
        # on this set is the run's figure of merit under attack.
        teacher_rng = np.random.default_rng((config.seed, _STREAM_TEACHER))
        initial = self.model.get_weights()
        self.teacher_weights: WeightsList = [
            {
                key: value
                + config.teacher_scale * teacher_rng.standard_normal(value.shape)
                for key, value in layer.items()
            }
            for layer in initial
        ]
        eval_rng = np.random.default_rng((config.seed, _STREAM_EVAL))
        self._eval_x = eval_rng.standard_normal(
            (_EVAL_SAMPLES, *self.model.input_shape)
        )
        teacher = self.model.clone()
        teacher.set_weights(self.teacher_weights)
        # Re-centre the teacher's output bias on the eval set: without
        # this the random bias offsets dominate the logits and the teacher
        # labels everything with one class, which would make accuracy a
        # trivially-satisfied metric.  The correction is folded back into
        # the teacher weights, so "global == teacher" still scores 1.0.
        logit_means = teacher.forward(self._eval_x).data.mean(axis=0)
        last = self.teacher_weights[-1]
        if "bias" in last and last["bias"].shape == logit_means.shape:
            last["bias"] = last["bias"] - logit_means
            teacher.set_weights(self.teacher_weights)
        # Keep only the samples the teacher labels confidently (top-1 vs
        # top-2 logit margin at or above the median margin).  Borderline
        # samples flip under tiny weight perturbations and would drown the
        # attack signal in metric noise; on the confident half, a model
        # that tracks the teacher scores ~1.0 and one pulled off course by
        # an attack visibly does not.
        logits = teacher.forward(self._eval_x).data
        ordered = np.sort(logits, axis=1)
        margin = ordered[:, -1] - ordered[:, -2]
        keep = margin >= np.median(margin)
        self._eval_x = self._eval_x[keep]
        labels = teacher.predict(self._eval_x)
        classes = int(self.model.output_shape[-1])
        self._eval_y = np.eye(classes)[labels]
        # Admission control + reputation (the production gate, in the loop).
        self.admission: Optional[AdmissionController] = None
        self.reputation: Optional[ReputationTracker] = None
        if config.max_norm is not None:
            self.admission = AdmissionController(
                AdmissionConfig(max_norm=config.max_norm, clip=config.clip)
            )
            self.reputation = ReputationTracker()
        self.round = 0
        self.history: List[Dict[str, object]] = []
        self.resumed_from: Optional[int] = None
        # Updates are flat float64 vectors (flatten_weights order) from
        # production through admission to fold; WeightsList appears only at
        # the model and in the checkpoint.  Constants of the model
        # structure, computed once per run: the structure, the noise
        # permutation, the teacher vector and the two npz payload sizes.
        self._template: WeightsList = initial
        self._perm = _items_to_sorted(initial)
        self._teacher_flat = flatten_weights(self.teacher_weights)
        self._download_bytes = ModelDownload(
            cycle=0, plain_weights=initial
        ).wire_bytes()
        self._upload_bytes = ClientUpdate(
            client_id="sim-0", cycle=0, num_samples=1, plain_weights=initial
        ).wire_bytes()
        # Compiled update production (config.compile): the round's batch of
        # (round, client) -> flat update, and the traced delta program + VM.
        self._update_cache: Dict[tuple, np.ndarray] = {}
        self._delta_exec = None
        self._rngs = keyed.Generators()  # noise; prefetched per cohort / per block
        resumed = self._load_checkpoint() if self.storage is not None else None
        if config.async_mode:
            self._init_async()
            if resumed:
                self._restore_async(resumed)

    # -- deterministic derivations ----------------------------------------
    def _select_cohort(self, round_index: int) -> List[int]:
        rng = np.random.default_rng((self.config.seed, _STREAM_SELECT, round_index))
        picked = rng.choice(
            self.config.num_clients, size=self.config.asked, replace=False
        )
        return sorted(int(i) for i in picked)

    def _noise(self, key: int, client: int) -> np.ndarray:
        """The client's keyed noise draw, in ``items()`` order (one flat
        draw fills from the same bit stream as per-parameter draws would)."""
        rng = self._rngs.at((self.config.seed, _STREAM_UPDATE, key, client))
        return rng.standard_normal(self._perm.size)

    def _make_update(
        self, key: int, client: int, base_flat: np.ndarray
    ) -> np.ndarray:
        """The client's pseudo-trained weights as a flat vector: drift
        toward the teacher plus seeded noise — and, for a Byzantine client,
        the attack applied to that honest delta *at production time* (so
        every retry re-sends the same poisoned bytes and deliveries are
        never re-perturbed).

        Keyed on ``(seed, key, client)`` only (``key`` is the round in sync
        mode, the dispatch index in async mode), so a retried attempt
        re-sends the exact same payload and resume replays it bitwise.
        Under ``config.compile`` the round's batch already holds the same
        bits (see :meth:`_precompute_updates`).
        """
        cached = self._update_cache.get((key, client))
        if cached is not None:
            return cached
        cfg = self.config
        delta = (
            cfg.drift * (self._teacher_flat - base_flat)
            + cfg.update_scale * self._noise(key, client)[self._perm]
        )
        if self.fault_plan.attack_for(client) is not None:
            delta = self.fault_plan.attack_delta(key, client, delta)
        return base_flat + delta

    # -- compiled (batched) update production ------------------------------
    def _delta_vm(self):
        """The client-batched VM of the traced honest-delta program.

        Traces ``drift * (teacher - global) + scale * noise`` once over
        flat parameter vectors, then lifts the noise placeholder along a
        leading client axis — elementwise throughout, so each batched row
        equals the eager per-client arithmetic bitwise.
        """
        if self._delta_exec is None:
            from ..autodiff.ops import add, mul, sub
            from ..graph.vm import BatchedVM, trace_callable

            total = self._perm.size
            drift = self.config.drift
            scale = self.config.update_scale

            def delta_fn(global_flat, teacher_flat, noise):
                return add(
                    mul(sub(teacher_flat, global_flat), drift),
                    mul(noise, scale),
                )

            with get_tracer().span(
                "graph.compile", model="sim-update-delta", inputs=str((total,))
            ):
                program = trace_callable(
                    delta_fn,
                    [np.zeros(total), np.zeros(total), np.zeros(total)],
                )
            self._delta_exec = BatchedVM(program, [2])
        return self._delta_exec

    def _precompute_updates(
        self, round_index: int, members: List[int], base_flat: np.ndarray
    ) -> None:
        """Produce the cohort's pseudo-updates through the batched VM.

        Bitwise-identical to per-client :meth:`_make_update`: the same
        noise draws, the traced program replays the eager arithmetic
        elementwise, and attacks are applied per client on its row.
        """
        vm = self._delta_vm()
        batch = self.config.client_batch
        with get_tracer().span(
            "graph.execute",
            program="sim-update-delta",
            cycle=round_index,
            clients=len(members),
            batch=batch,
        ):
            for start in range(0, len(members), batch):
                chunk = members[start : start + batch]
                noise = np.empty((len(chunk), self._perm.size))
                for j, client in enumerate(chunk):
                    noise[j] = self._noise(round_index, client)
                deltas = vm.run(
                    [base_flat, self._teacher_flat, noise[:, self._perm]]
                )[0]
                # One broadcast add prices the whole chunk; each row is the
                # same IEEE elementwise sum the eager path computes.
                trained = base_flat + deltas
                for j, client in enumerate(chunk):
                    if self.fault_plan.attack_for(client) is not None:
                        trained[j] = base_flat + self.fault_plan.attack_delta(
                            round_index, client, deltas[j]
                        )
                    self._update_cache[(round_index, client)] = trained[j]

    def accuracy(self) -> float:
        """Global-model accuracy on the teacher-labelled eval set."""
        return self.model.accuracy(self._eval_x, self._eval_y)

    # -- the client lifecycle both steppers share --------------------------
    # Each helper below is the only implementation of its step.

    def _tally(self, counts: Dict[str, int], key: str, amount: int = 1) -> None:
        """Count ``key`` in the open record and on its registry counter."""
        counts[key] += amount
        get_registry().counter(*_TALLY_METRICS[key]).inc(amount)

    def _time_attempt(
        self,
        key: int,
        client: int,
        attempt: int,
        fault: Optional[FaultKind],
        start_at: float,
        compute_base: float,
    ) -> tuple:
        """When one download→train→upload attempt resolves, and how.

        Returns ``(at, failure, straggled)``; ``failure`` is the tally key
        of what goes wrong (``None`` = the upload arrives).  A pool-exhausted
        enclave aborts halfway through local training and reports at once;
        a corrupted upload travels the whole way and fails its integrity
        check on arrival; both hit the first attempt only.  A straggler's
        attempt is stretched by the plan's delay factor (exactly ``1.0``,
        a bitwise no-op, for a healthy client).
        """
        download_t = self.network.transfer_seconds(client, self._download_bytes)
        compute_t = compute_base * float(self.speed[client])
        if fault is FaultKind.EXHAUST_POOL and attempt == 0:
            return start_at + download_t + 0.5 * compute_t, "pool_exhausted", False
        upload_t = self.network.transfer_seconds(client, self._upload_bytes)
        delay = self.fault_plan.delay_factor(
            key, client, self.config.straggler_factor
        )
        failure = "corrupted" if fault is FaultKind.CORRUPT and attempt == 0 else None
        at = start_at + (download_t + compute_t + upload_t) * delay
        return at, failure, delay != 1.0

    def _retry_at(
        self, counts: Dict[str, int], attempt: int, reason: str
    ) -> Optional[float]:
        """Tally a failed attempt; when its retry starts (None = give up).

        Bounded retries with exponential backoff from *now*.
        """
        self._tally(counts, reason)
        if attempt < self.config.max_retries:
            self._tally(counts, "retries")
            return self.clock.time + self.config.retry_backoff_seconds * (2**attempt)
        self._tally(counts, "giveups")
        return None

    def _admit(
        self,
        counts: Dict[str, int],
        key: int,
        client: int,
        base_flat: np.ndarray,
        strike_round: int,
    ) -> Optional[np.ndarray]:
        """The arrived update after the production admission gate: the
        vector to fold, or None.

        Checked against the model the client trained from.  A rejected
        update is NOT retried: the payload is a pure function of
        ``(seed, key, client)``, so the same bytes would be rejected again
        — the client just strikes its reputation at ``strike_round``.
        """
        flat = self._make_update(key, client, base_flat)
        if self.admission is None:
            return flat
        client_id = f"sim-{client}"
        decision = self.admission.check(client_id, flat, reference=base_flat)
        if not decision.admitted:
            self.reputation.record_rejection(client_id, strike_round)
            self._tally(counts, "admission_rejected")
            return None
        self.reputation.record_admission(client_id)
        if decision.clipped:
            counts["admission_clipped"] += 1
        return decision.flat

    def _price_shard_hop(self, aggregator, sent_at: float) -> tuple:
        """Price the shard→root transfer: ``(shard_bytes, settled_at)``.

        Each non-empty shard's partial is a real transfer over the shard
        links; the aggregate settles when the slowest one lands.
        """
        shard_bytes, settled_at = 0, sent_at
        if self.shard_network is not None:
            counter = get_registry().counter(
                "sim.shard.bytes", "bytes shards sent to the root"
            )
            for partial in aggregator.partials():
                size = partial.wire_bytes()
                shard_bytes += size
                counter.inc(size)
                hop = self.shard_network.transfer_seconds(partial.shard_id, size)
                settled_at = max(settled_at, sent_at + hop)
        return shard_bytes, settled_at

    def _record(
        self,
        span,
        counts: Dict[str, int],
        *,
        asked: int,
        folded: int,
        degraded: bool,
        started_at: float,
        settled_at: float,
        peak_bytes: int,
        **fields,
    ) -> Dict[str, object]:
        """Score the new global model and close the round/commit record."""
        cfg = self.config
        registry = get_registry()
        accuracy = self.accuracy()
        registry.gauge(
            "sim.accuracy", "global-model accuracy on the teacher-labelled eval set"
        ).set(accuracy)
        span.set_attribute("collected", folded)
        span.set_attribute("degraded", degraded)
        span.set_attribute("accuracy", accuracy)
        registry.counter(
            "fl.aggregate.rule", "rounds aggregated, labelled per rule"
        ).inc(rule=cfg.rule)
        registry.counter("sim.rounds", "simulated FL rounds").inc()
        registry.counter(
            "sim.clients.selected", "cohort slots asked across all rounds"
        ).inc(asked)
        registry.counter(
            "sim.clients.collected", "client updates aggregated across all rounds"
        ).inc(folded)
        registry.histogram(
            "sim.round.virtual_seconds", "simulated wall time per round"
        ).observe(settled_at - started_at)
        outcome: Dict[str, object] = {
            "round": self.round,
            "asked": asked,
            "degraded": degraded,
            "started_at": started_at,
            "aggregated_at": settled_at,
            "virtual_seconds": settled_at - started_at,
            "shards": cfg.shards,
            "aggregator_peak_bytes": int(peak_bytes),
            "rule": cfg.rule,
            "accuracy": accuracy,
            **fields,
            **counts,
        }
        self.history.append(outcome)
        self.round += 1
        return outcome

    # -- one round ---------------------------------------------------------
    def step_round(self) -> Dict[str, object]:
        """Simulate one full round; returns its outcome record."""
        cfg = self.config
        if cfg.async_mode:
            raise RuntimeError(
                "step_round is the synchronous engine; async runs advance "
                "through step_commit"
            )
        rnd = self.round
        base_flat = flatten_weights(self.model.get_weights())
        started_at = self.clock.time
        counts = dict.fromkeys(_COUNT_KEYS, 0)
        with get_tracer().span(
            "sim.round", cycle=rnd, asked=cfg.asked, rule=cfg.rule
        ) as span:
            members = self._select_cohort(rnd)
            if self.reputation is not None:
                # The selection draw is untouched (pure function of the
                # seed); quarantined clients are filtered *after* it, so
                # the honest cohort is identical across runs.
                blocked = {
                    i for i in members if self.reputation.is_blocked(f"sim-{i}", rnd)
                }
                if blocked:
                    members = [i for i in members if i not in blocked]
                    self._tally(counts, "quarantined", len(blocked))
            self.fault_plan.prefetch(rnd, members)  # one kernel call each
            self._rngs.prefetch(cfg.seed, _STREAM_UPDATE, rnd, members)
            dead_shards = frozenset(
                shard
                for shard in range(cfg.shards)
                if self.fault_plan.shard_fault_for(rnd, shard)
            )
            if dead_shards:
                get_registry().counter(
                    "sim.shard.down", "shard aggregators dead for a round"
                ).inc(len(dead_shards))
            state = _RoundState(
                index=rnd,
                tree=HierarchicalAggregator(
                    base_flat.size,
                    ShardingConfig(num_shards=cfg.shards, track_memory=False),
                    rule=cfg.rule,
                    trim=cfg.effective_trim,
                    num_byzantine=cfg.assumed_byzantine,
                ),
                positions={index: pos for pos, index in enumerate(members)},
                dead_shards=dead_shards,
                compute_base=self.cost_model.cycle_cost(
                    self.model, self.policy.layers_for_cycle(rnd)
                ).total_seconds,
                base_flat=base_flat,
                counts=counts,
            )
            # Deadline first: a completion landing exactly on the deadline
            # is late, deterministically.
            self.loop.schedule_at(
                started_at + cfg.deadline_seconds, lambda: self._finish(state)
            )
            for index in members:
                if self.fault_plan.attack_for(index) is not None:
                    self._tally(counts, "attacked")
                fault = self.fault_plan.fault_for(rnd, index)
                if fault is FaultKind.FAIL_ATTESTATION:
                    self._tally(counts, "evicted")
                elif fault is FaultKind.DROP:
                    self._tally(counts, "dropouts")
                else:
                    state.pending.add(index)
                    self._schedule_attempt(state, index, 0, started_at, fault)
            if cfg.compile:  # only for members that will attempt an upload at all
                self._precompute_updates(rnd, sorted(state.pending), base_flat)

            # No event runs after _finish (the loop re-checks after each),
            # and the queued deadline event guarantees one: if everyone
            # resolved early — or nobody was schedulable — the round settles
            # at the deadline.
            while not state.done and self.loop.step():
                pass
            # Anything still queued is a straggler arriving after the round
            # settled; the tally below counts it, the event is moot.
            self.loop.clear()
            if state.pending:
                self._tally(counts, "stragglers", len(state.pending))

            degraded = len(state.collected) < cfg.quorum_count
            shard_bytes = 0
            if degraded:
                get_registry().counter(
                    "sim.rounds.degraded",
                    "rounds below quorum that reused the previous global model",
                ).inc()
            else:
                # The round settles when the slowest shard partial lands.
                shard_bytes, state.aggregated_at = self._price_shard_hop(
                    state.tree, state.aggregated_at
                )
                self.clock.advance_to(state.aggregated_at)
                self.model.set_weights(
                    unflatten_weights(state.tree.reduce(), self._template)
                )
            outcome = self._record(
                span,
                counts,
                asked=len(members),
                folded=len(state.collected),
                degraded=degraded,
                started_at=started_at,
                settled_at=state.aggregated_at,
                peak_bytes=state.tree.peak_bytes,
                cohort=members,
                collected=sorted(state.collected),
                dead_shards=sorted(dead_shards),
                shard_bytes=shard_bytes,
            )
        self._update_cache.clear()
        self._save_checkpoint()
        return outcome

    def _schedule_attempt(
        self,
        state: _RoundState,
        index: int,
        attempt: int,
        start_at: float,
        fault: Optional[FaultKind],
    ) -> None:
        """Queue one download→train→upload attempt for a cohort member."""
        at, failure, _ = self._time_attempt(
            state.index, index, attempt, fault, start_at, state.compute_base
        )
        self.loop.schedule_at(
            at, lambda: self._on_attempt_end(state, index, attempt, failure)
        )

    def _on_attempt_end(
        self, state: _RoundState, index: int, attempt: int, failure: Optional[str]
    ) -> None:
        shard = None if failure else self._route_shard(state, index, attempt)
        if shard is None:
            # A lost upload (integrity failure, or a dead shard aggregator)
            # or an aborted enclave: the client re-enters the retry
            # machinery; retries are re-routed to a surviving shard, if any.
            start_at = self._retry_at(state.counts, attempt, failure or "shard_down")
            if start_at is None:
                state.pending.discard(index)
            else:
                self._schedule_attempt(state, index, attempt + 1, start_at, None)
            return
        state.pending.discard(index)
        flat = self._admit(
            state.counts, state.index, index, state.base_flat, state.index
        )
        if flat is None:
            return
        num_samples = int(self.num_samples[index])
        state.tree.fold(shard, flat, num_samples, position=state.positions[index])
        state.collected[index] = num_samples
        if len(state.collected) >= self.config.cohort:
            self._finish(state)

    def _route_shard(
        self, state: _RoundState, index: int, attempt: int
    ) -> Optional[int]:
        """The shard aggregator this upload lands on (None = lost).

        First attempts go to the client's home shard (contiguous balanced
        routing over the cohort).  If that shard is dead this round the
        upload is lost; retries scan cyclically for the first surviving
        shard.  Which shard folds an update cannot affect the aggregate —
        the reduce is exact — so re-routing is free of aggregation skew.
        """
        cfg = self.config
        home = shard_of(state.positions[index], len(state.positions), cfg.shards)
        if home not in state.dead_shards:
            return home
        if attempt == 0:
            return None
        for offset in range(1, cfg.shards):
            candidate = (home + offset) % cfg.shards
            if candidate not in state.dead_shards:
                return candidate
        return None

    def _finish(self, state: _RoundState) -> None:
        state.done = True
        state.aggregated_at = self.clock.time

    # -- asynchronous buffered mode (FedBuff-style) ------------------------
    #
    # No round barrier: up to ``effective_concurrency`` clients are in
    # flight at once, each training against the global model *version*
    # (commit index) current at its dispatch.  Arrivals stream straight
    # into a BufferedAggregator; the K-th admitted fold triggers a commit,
    # which advances the version and re-weights later arrivals by their
    # staleness.  Determinism comes from the same discipline as the sync
    # engine: selection is keyed on (seed, stream, dispatch_index), faults
    # on (seed, dispatch_index, client), payloads on the dispatch's model
    # version — so the whole run is a pure function of the seed, and the
    # in-flight set (plain JSON descriptors) plus the buffer expansion can
    # be checkpointed mid-window and resumed bit-for-bit.
    #
    # Simplifications vs sync, by design: shard aggregators are server-side
    # accumulator lanes (no per-round shard deaths — a plan with
    # ``shard_down`` is refused at construction), the shard→root hop is
    # priced into ``shard_bytes``/``aggregated_at`` without advancing the
    # global clock (earlier-scheduled client events forbid it), and compute
    # time is priced under the cycle-0 protected set.

    def _init_async(self) -> None:
        cfg = self.config
        head = flatten_weights(self.model.get_weights())
        self._buffer = BufferedAggregator(
            head.size,
            cfg.buffer_config,
            ShardingConfig(num_shards=cfg.shards, track_memory=False),
            rule=cfg.rule,
            trim=cfg.effective_trim,
            num_byzantine=cfg.assumed_byzantine,
        )
        self._inflight: Dict[int, Dict[str, object]] = {}
        self._dispatch_counter = 0
        self._lookahead = keyed.Lookahead(
            (cfg.seed, _STREAM_ASYNC_SELECT), (cfg.seed, _STREAM_UPDATE),
            cfg.num_clients, self.fault_plan, self._rngs,
        )
        # Model version (commit index) -> the flat weights dispatched then.
        self._version_flat: Dict[int, np.ndarray] = {self.round: head}
        self._async_compute_base = self.cost_model.cycle_cost(
            self.model, self.policy.layers_for_cycle(0)
        ).total_seconds
        self._fresh_window()

    def _fresh_window(self) -> None:
        self._window: Dict[str, object] = {
            "counts": dict.fromkeys(_COUNT_KEYS, 0),
            "updates": [],  # [dispatch, client, staleness] per admitted fold
            "started_at": self.clock.time,
            "dispatched": 0,
        }

    def _next_client(self) -> Optional[int]:
        """The client the next dispatch goes to (None = nobody available).

        One uniform draw keyed on ``(seed, stream, dispatch)`` picks a
        start; linear probing past busy/quarantined clients keeps the
        draw itself a pure function of the dispatch index (hence the lookahead).
        """
        cfg = self.config
        start = self._lookahead.start(self._dispatch_counter)
        for offset in range(cfg.num_clients):
            client = (start + offset) % cfg.num_clients
            if client in self._inflight:
                continue
            if self.reputation is not None and self.reputation.is_blocked(
                f"sim-{client}", self.round
            ):
                self._tally(self._window["counts"], "quarantined")
                continue
            return client
        return None

    def _fill_pipeline(self) -> None:
        """Dispatch new clients until the concurrency window is full."""
        cfg = self.config
        if self.round >= cfg.rounds:
            return
        counts = self._window["counts"]
        while len(self._inflight) < cfg.effective_concurrency:
            client = self._next_client()
            if client is None:
                break
            dispatch = self._dispatch_counter
            self._dispatch_counter += 1
            self._window["dispatched"] += 1
            if self.fault_plan.attack_for(client) is not None:
                self._tally(counts, "attacked")
            fault = self.fault_plan.fault_for(dispatch, client)
            if fault is FaultKind.FAIL_ATTESTATION:
                self._tally(counts, "evicted")
                continue
            entry: Dict[str, object] = {
                "client": client,
                "dispatch": dispatch,
                "version": self.round,
                "attempt": 0,
            }
            if fault is FaultKind.DROP:
                # Silence is only detected when the server times the
                # dispatch out; the slot is then freed without retry.
                timeout_at = self.clock.time + cfg.deadline_seconds
                entry.update(kind="failure", reason="drop", at=timeout_at)
            else:
                self._plan_attempt(entry, fault, start_at=self.clock.time)
            self._inflight[client] = entry
            self._schedule_async_event(entry)

    def _plan_attempt(
        self,
        entry: Dict[str, object],
        fault: Optional[FaultKind],
        start_at: float,
    ) -> None:
        """Stamp the entry with its next event (arrival or failure)."""
        entry["at"], failure, straggled = self._time_attempt(
            int(entry["dispatch"]),
            int(entry["client"]),
            int(entry["attempt"]),
            fault,
            start_at,
            self._async_compute_base,
        )
        if failure == "pool_exhausted":
            entry.update(kind="failure", reason=failure)
            return
        if straggled:
            entry["straggled"] = True
        entry.update(kind="arrival", corrupted=failure == "corrupted")

    def _schedule_async_event(self, entry: Dict[str, object]) -> None:
        self.loop.schedule_at(
            float(entry["at"]), lambda: self._on_async_event(entry)
        )

    def _on_async_event(self, entry: Dict[str, object]) -> None:
        # Stale-event guard: an entry is retired by its own event only, but
        # resume re-schedules from descriptors, so be defensive.
        if self._inflight.get(int(entry["client"])) is not entry:
            return
        if entry["kind"] == "failure":
            self._async_failure(entry, str(entry["reason"]))
        else:
            self._async_arrival(entry)
        self._save_checkpoint()

    def _async_failure(self, entry: Dict[str, object], reason: str) -> None:
        counts = self._window["counts"]
        attempt = int(entry["attempt"])
        if reason == "drop":
            self._tally(counts, "dropouts")
            start_at = None
        else:
            start_at = self._retry_at(counts, attempt, reason)
        if start_at is None:
            self._inflight.pop(int(entry["client"]), None)
            self._fill_pipeline()
            return
        entry["attempt"] = attempt + 1
        entry.pop("reason", None)
        # Transient faults only hit the first attempt; the retry keeps
        # the dispatch's model version (its payload is unchanged).
        self._plan_attempt(entry, None, start_at=start_at)
        self._schedule_async_event(entry)

    def _async_arrival(self, entry: Dict[str, object]) -> None:
        cfg = self.config
        if entry.get("corrupted"):
            self._async_failure(entry, "corrupted")  # a retry re-stamps the flag
            return
        client = int(entry["client"])
        dispatch = int(entry["dispatch"])
        version = int(entry["version"])
        counts = self._window["counts"]
        # Gated against the model version the client trained from; the
        # strike lands on the *current* commit index, so quarantine windows
        # are expressed in commits.
        flat = self._admit(
            counts, dispatch, client, self._version_flat[version], self.round
        )
        if flat is not None:
            if entry.get("straggled"):
                self._tally(counts, "stragglers")
            staleness = self.round - version
            shard = shard_of(self._buffer.pending, cfg.buffer_size, cfg.shards)
            self._buffer.fold(
                shard,
                flat,
                int(self.num_samples[client]),
                staleness=staleness,
                sort_key=dispatch,
            )
            self._window["updates"].append([dispatch, client, staleness])
        # Folded or refused, the slot is free; the K-th fold commits.
        self._inflight.pop(client, None)
        if self._buffer.ready:
            self._commit()
        self._fill_pipeline()

    def _commit(self, degraded: bool = False) -> None:
        """Close the buffer window: aggregate, advance the model version."""
        cfg = self.config
        window = self._window
        folds = self._buffer.pending
        with get_tracer().span(
            "sim.commit", cycle=self.round, folds=folds, rule=cfg.rule
        ) as span:
            # The commit settles when the slowest partial lands (without
            # rewinding pending client events: the global clock stays put).
            shard_bytes, settled_at = self._price_shard_hop(
                self._buffer, self.clock.time
            )
            flat = self._buffer.commit()
            self.model.set_weights(unflatten_weights(flat, self._template))
            updates = sorted(window["updates"])
            stale_values = [int(u[2]) for u in updates]
            histogram: Dict[str, int] = {}
            for value in stale_values:
                histogram[str(value)] = histogram.get(str(value), 0) + 1
            self._record(
                span,
                window["counts"],
                asked=int(window["dispatched"]),
                folded=folds,
                degraded=bool(degraded),
                started_at=float(window["started_at"]),
                settled_at=settled_at,
                peak_bytes=self._buffer.peak_bytes,
                collected=sorted({int(u[1]) for u in updates}),
                updates=updates,
                dead_shards=[],
                shard_bytes=shard_bytes,
                buffer_size=cfg.buffer_size,
                staleness=histogram,
                staleness_max=max(stale_values, default=0),
                staleness_mean=(
                    sum(stale_values) / len(stale_values) if stale_values else 0.0
                ),
            )
        # Keep only the versions an in-flight dispatch still trains from,
        # plus the new head: resident versions are bounded by the
        # concurrency window, never by the commit count or the fleet size.
        live = {int(e["version"]) for e in self._inflight.values()}
        self._version_flat = {v: f for v, f in self._version_flat.items() if v in live}
        self._version_flat[self.round] = flat
        self._fresh_window()

    def step_commit(self) -> Dict[str, object]:
        """Advance the async pipeline until the next commit; return it."""
        if not self.config.async_mode:
            raise RuntimeError("step_commit requires SimConfig(async_mode=True)")
        first = self._dispatch_counter == 0
        target = self.round + 1
        self._fill_pipeline()
        if first:
            self._save_checkpoint()
        while self.round < target:
            if self.loop.step():
                continue
            if self._buffer.pending > 0:
                # Nothing left in flight but a partial window remains
                # (e.g. the whole fleet quarantined): commit what we have,
                # flagged degraded, rather than stalling forever.
                self._commit(degraded=True)
                self._save_checkpoint()
                break
            raise RuntimeError(
                "async pipeline stalled: no events pending and empty buffer"
            )
        return self.history[-1]

    # -- checkpoint / resume ----------------------------------------------
    def _save_checkpoint(self) -> None:
        """Persist round cursor + weights + history through secure storage.

        A single ``put`` keeps the checkpoint atomic (meta and weights can
        never disagree), and the storage layer's rollback counter means a
        replayed older checkpoint is detected, not silently resumed.
        """
        if self.storage is None:
            return
        meta = {
            "schema": REPORT_SCHEMA_VERSION,
            "round": self.round,
            "virtual_time": self.clock.time,
            "history": self.history,
            # The reputation ledger must survive a coordinator restart or a
            # resumed run would re-admit clients the original quarantined.
            "reputation": (
                self.reputation.state_dict()
                if self.reputation is not None
                else None
            ),
        }
        if self.config.async_mode:
            meta["async"] = self._async_state()
        blob = (
            json.dumps(meta, sort_keys=True).encode()
            + b"\x00"
            + weights_to_bytes(self.model.get_weights())
        )
        self.storage.put(self.TA_UUID, _CHECKPOINT_OBJECT, blob)
        get_registry().counter(
            "sim.checkpoints", "round checkpoints sealed into secure storage"
        ).inc()

    def _load_checkpoint(self) -> Optional[Dict[str, object]]:
        """Resume from the stored checkpoint, if any; its async section."""
        blob = self.storage.latest_verifiable(self.TA_UUID, _CHECKPOINT_OBJECT)
        if blob is None:
            return None
        meta_raw, _, weights_blob = blob.partition(b"\x00")
        meta = json.loads(meta_raw)
        self.model.set_weights(weights_from_bytes(weights_blob))
        self.round = int(meta["round"])
        self.history = list(meta["history"])
        if self.reputation is not None and meta.get("reputation"):
            self.reputation.load_state(meta["reputation"])
        self.clock.advance_to(float(meta["virtual_time"]))
        self.resumed_from = self.round
        get_registry().counter(
            "sim.resumes", "simulations resumed from a secure-storage checkpoint"
        ).inc()
        return meta.get("async")

    def _async_state(self) -> Dict[str, object]:
        """JSON-safe view of the mid-window async pipeline (serialise it
        at once: the descriptors and the window are the live objects).

        Everything needed to resume *between events*: the dispatch cursor,
        the in-flight descriptors (plain dicts — their payloads are pure
        functions of ``(seed, dispatch, client)`` plus a stored model
        version, so events are rebuilt, not serialised), the referenced
        model versions, the open commit window's tallies, and the buffer's
        expansion state.
        """
        return {
            "dispatch": self._dispatch_counter,
            "inflight": sorted(
                self._inflight.values(), key=lambda e: int(e["dispatch"])
            ),
            "versions": {
                str(version): encode_flat(flat)
                for version, flat in sorted(self._version_flat.items())
            },
            "buffer": self._buffer.state_dict(),
            "window": self._window,
        }

    def _restore_async(self, state: Dict[str, object]) -> None:
        """Rebuild the async pipeline from :meth:`_async_state` bits."""
        self._dispatch_counter = int(state["dispatch"])
        self._version_flat = {
            int(version): decode_flat(blob) for version, blob in state["versions"].items()
        }
        self._buffer.load_state(state["buffer"])
        self._window = state["window"]
        self._inflight = {}
        # Deterministic re-scheduling: pending events sorted by (time,
        # dispatch) reproduce the original queue order (ties on distinct
        # continuous durations do not occur in practice).
        for entry in sorted(
            state["inflight"], key=lambda e: (float(e["at"]), int(e["dispatch"]))
        ):
            self._inflight[int(entry["client"])] = entry
            self._schedule_async_event(entry)

    # -- whole runs --------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Run (or finish) all configured rounds/commits; return the report."""
        step = self.step_commit if self.config.async_mode else self.step_round
        while self.round < self.config.rounds:
            step()
        return self.report()

    def weights_digest(self) -> str:
        """SHA-256 over the flattened global weights (order-stable)."""
        return hashlib.sha256(
            flatten_weights(self.model.get_weights()).tobytes()
        ).hexdigest()

    def report(self) -> Dict[str, object]:
        """JSON-ready, byte-reproducible summary of the whole run."""
        totals: Dict[str, object] = {
            key: sum(int(outcome.get(key, 0)) for outcome in self.history)
            for key in _COUNT_KEYS
        }
        totals["rounds"] = len(self.history)
        totals["degraded"] = sum(1 for o in self.history if o["degraded"])
        totals["collected"] = sum(len(o["collected"]) for o in self.history)
        totals["asked"] = sum(int(o["asked"]) for o in self.history)
        totals["shard_bytes"] = sum(int(o["shard_bytes"]) for o in self.history)
        if self.config.async_mode:
            # Commit-level aggregates: updates folded (a client can land in
            # several windows) and the merged staleness histogram.
            totals["commits"] = len(self.history)
            totals["updates"] = sum(len(o["updates"]) for o in self.history)
            staleness: Dict[str, int] = {}
            for outcome in self.history:
                for bucket, count in outcome["staleness"].items():
                    staleness[bucket] = staleness.get(bucket, 0) + int(count)
            totals["staleness"] = staleness
            totals["staleness_max"] = max(
                (int(o["staleness_max"]) for o in self.history), default=0
            )
        config = asdict(self.config)
        # Execution knobs, not deployment semantics: a compiled/batched run
        # must report the same bytes as the eager loop it reproduces.
        for knob in ("compile", "client_batch"):
            config.pop(knob, None)
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "mode": "async" if self.config.async_mode else "sync",
            "config": config,
            "fault_plan": self.fault_plan.describe(),
            "rounds": self.history,
            "totals": totals,
            "rule": self.config.rule,
            "final_accuracy": self.accuracy(),
            # Computed from the per-round records (not live state) so a
            # resumed run reports the same bytes as an uninterrupted one.
            "aggregator_peak_bytes": max(
                (int(o["aggregator_peak_bytes"]) for o in self.history), default=0
            ),
            "virtual_seconds": self.clock.time,
            "weights_sha256": self.weights_digest(),
            "resumed_from_round": self.resumed_from,
        }
