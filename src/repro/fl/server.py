"""FL server.

Implements the coordinator of Figure 2: attestation-gated client selection,
model + plan distribution (protected layers sealed through each client's
trusted I/O path), update collection and FedAvg aggregation, plus the
snapshot history every participant observes (DPIA's raw material).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.policy import NoProtection, ProtectionPolicy
from ..nn.model import Sequential, WeightsList
from ..nn.serialize import flatten_weights, unflatten_weights
from ..obs import get_clock, get_registry, get_tracer
from ..tee.attestation import AttestationVerifier
from .admission import AdmissionController, ReputationTracker
from .aggregation import merge_plain_and_sealed
from .client import FLClient
from .config import ServerConfig
from .history import SnapshotHistory
from .plan import TrainingPlan
from .resilience import RetryPolicy, collect_with_retries
from .selection import SelectionResult, TEESelector
from .sharding import HierarchicalAggregator
from .transport import Channel, ClientUpdate, ModelDownload

__all__ = ["FLServer"]


def _same_layout(weights: WeightsList, template: WeightsList) -> bool:
    """Whether ``weights`` has ``template``'s layer count, keys and shapes."""
    return len(weights) == len(template) and all(
        layer.keys() == expected.keys()
        and all(np.shape(layer[key]) == np.shape(expected[key]) for key in layer)
        for layer, expected in zip(weights, template)
    )


class FLServer:
    """Coordinates federated training of one global model.

    Parameters
    ----------
    model:
        The global model (mutated in place by aggregation).
    plan:
        Hyper-parameters distributed to the clients.
    policy:
        Protection policy the deployment mandates (server fixes the static
        set or the moving-window parameters, §7.2).
    config:
        A :class:`~repro.fl.config.ServerConfig` — admission, resilience,
        sampling-seed, and sharding behaviour.
    """

    def __init__(
        self,
        model: Sequential,
        plan: TrainingPlan,
        policy: Optional[ProtectionPolicy] = None,
        *,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.model = model
        self.plan = plan
        self.policy = policy or NoProtection(model)
        self.verifier = AttestationVerifier()
        self.selector = TEESelector(
            self.verifier, allow_legacy=self.config.allow_legacy
        )
        self.history = SnapshotHistory()
        self.channel = Channel()
        self.retry = self.config.round.retry
        self.reattest = self.config.round.reattest
        self.admission: Optional[AdmissionController] = None
        self.reputation: Optional[ReputationTracker] = None
        if self.config.round.admission is not None:
            self.admission = AdmissionController(self.config.round.admission)
            self.reputation = ReputationTracker(self.config.round.reputation)
        self.cycle = 0
        self._rng = np.random.default_rng(self.config.seed)
        self._registered: Dict[str, FLClient] = {}

    # -- enrolment --------------------------------------------------------
    def register(self, client: FLClient) -> None:
        """Provision a client's device key and TA measurement."""
        self._registered[client.client_id] = client
        self.verifier.register_device(client.client_id, client.device.key)
        self.verifier.allow_measurement(client.ta_measurement())

    def select(self, clients: Sequence[FLClient]) -> SelectionResult:
        """Attestation-gated selection (§5 step 1)."""
        for client in clients:
            if client.client_id not in self._registered:
                self.register(client)
        return self.selector.select(clients)

    def _admit(self, participants: Sequence[FLClient]) -> List[FLClient]:
        """Per-cycle re-attestation gate (when enabled).

        Unknown clients are enrolled first (mirroring :meth:`select`, so ad
        hoc deployments keep working); already-known clients are *not*
        re-enrolled — a tampered TA presenting a new measurement must fail
        verification, not get its measurement allow-listed.  Evicted
        clients are counted into ``fl.selection.evicted`` and dropped from
        the round.  Clients the reputation ledger holds in quarantine (or
        has evicted permanently) are excluded first — they don't even get
        the model download.
        """
        if self.reputation is not None:
            registry = get_registry()
            cleared = []
            for client in participants:
                if self.reputation.is_blocked(client.client_id, self.cycle):
                    registry.counter(
                        "fl.reputation.blocked",
                        "round slots denied to quarantined/evicted clients",
                    ).inc(client=client.client_id)
                else:
                    cleared.append(client)
            if not cleared:
                raise ValueError(
                    f"cycle {self.cycle}: every participant is quarantined"
                )
            participants = cleared
        if not self.reattest:
            return list(participants)
        for client in participants:
            if client.client_id not in self._registered and client.has_tee():
                self.register(client)
        outcome = self.selector.reattest(participants)
        if not outcome.evicted:
            return list(participants)
        registry = get_registry()
        evicted_ids = set()
        for client_id, reason in outcome.evicted:
            evicted_ids.add(client_id)
            registry.counter(
                "fl.selection.evicted",
                "admitted clients expelled at per-cycle re-attestation",
            ).inc(client=client_id)
        survivors = [c for c in participants if c.client_id not in evicted_ids]
        if not survivors:
            raise ValueError(
                f"cycle {self.cycle}: every participant failed re-attestation"
            )
        return survivors

    # -- one FL cycle -------------------------------------------------------
    def _make_download(self, client: FLClient, protected: frozenset) -> ModelDownload:
        weights = self.model.get_weights()
        plain: WeightsList = []
        sealed_src: WeightsList = []
        for index, layer_weights in enumerate(weights, start=1):
            if index in protected:
                plain.append({})
                sealed_src.append(layer_weights)
            else:
                plain.append(layer_weights)
                sealed_src.append({})
        sealed = client.iopath.seal(sealed_src) if protected else None
        return ModelDownload(
            cycle=self.cycle,
            plain_weights=plain,
            sealed_weights=sealed,
        )

    def _merge_update(
        self, client: FLClient, update: ClientUpdate, template: WeightsList
    ) -> Optional[np.ndarray]:
        """The client's plain and unsealed layers as one flat vector.

        This is where an update is last a :data:`WeightsList`, so the
        layout rule runs here: an update whose layer count, keys or shapes
        differ from ``template`` is the admission gate's ``structure``
        rejection (``None``) or, without a gate, a ``ValueError``.
        """
        weights = update.plain_weights
        if update.sealed_weights is not None:
            unsealed = client.iopath.unseal_remote(update.sealed_weights)
            weights = merge_plain_and_sealed(update.plain_weights, unsealed)
        if _same_layout(weights, template):
            return flatten_weights(weights)
        if self.admission is None:
            raise ValueError(
                f"client {client.client_id!r} sent an update whose layers, "
                "keys or shapes differ from the global model's"
            )
        return None

    def run_cycle(self, participants: Sequence[FLClient]) -> List[ClientUpdate]:
        """One full cycle: distribute, train, collect, aggregate.

        Downloads are prepared before any client trains (they only read
        the frozen global weights); clients train and their updates are
        merged in participant order.
        """
        if not participants:
            raise ValueError("no participants in this cycle")
        participants = self._admit(participants)
        if len(self.history) == 0:
            self.history.record(self.model.get_weights())
        protected = self.policy.layers_for_cycle(self.cycle)
        registry = get_registry()
        round_start = get_clock().now()
        with get_tracer().span(
            "fl.round",
            cycle=self.cycle,
            participants=len(participants),
            protected=sorted(protected),
        ) as round_span:
            downloads: List[ModelDownload] = []
            with get_tracer().span("fl.distribute", cycle=self.cycle):
                for client in participants:
                    effective = protected if client.has_tee() else frozenset()
                    downloads.append(
                        self.channel.send_download(
                            self._make_download(client, effective),
                            client_id=client.client_id,
                        )
                    )

            def train(pair) -> ClientUpdate:
                client, download = pair
                return client.run_cycle(download, self.plan)

            pairs = list(zip(participants, downloads))
            if self.retry is None:
                # Fail-fast path: any client exception aborts the cycle.
                survivors = participants
                collected = [train(pair) for pair in pairs]
            else:
                delivered = collect_with_retries(
                    train,
                    pairs,
                    self.retry,
                    label_for=lambda pair: pair[0].client_id,
                )
                survivors = [participants[i] for i, _ in delivered]
                collected = [update for _, update in delivered]

            updates: List[ClientUpdate] = []
            round_cfg = self.config.round
            quorum_short = (
                self.retry is not None
                and len(collected) < self.retry.quorum_count(len(participants))
            )
            admitted = 0
            with get_tracer().span(
                "fl.aggregate",
                cycle=self.cycle,
                shards=self.config.sharding.num_shards,
                rule=round_cfg.rule,
            ):
                registry.counter(
                    "fl.aggregate.rule", "rounds aggregated, labelled per rule"
                ).inc(rule=round_cfg.rule)
                # Stream every delivered update straight into its shard —
                # for fedavg a bounded exact accumulator (O(model) state
                # per shard, any shard count produces the same bits as the
                # flat fold); for a robust rule the shard-level collect
                # feeding the root robust combine (see repro.fl.sharding).
                # With admission control enabled, each merged update passes
                # the gate first: rejects strike the reputation ledger and
                # never reach an accumulator.
                reference = self.model.get_weights()
                reference_flat = flatten_weights(reference)
                tree = HierarchicalAggregator(
                    reference_flat.size,
                    self.config.sharding,
                    rule=round_cfg.rule,
                    trim=round_cfg.trim,
                    num_byzantine=round_cfg.num_byzantine,
                    clip_norm=round_cfg.clip_norm,
                )
                cohort_size = max(1, len(collected))
                for position, (client, update) in enumerate(
                    zip(survivors, collected)
                ):
                    update = self.channel.send_update(update)
                    updates.append(update)
                    if quorum_short:
                        continue
                    flat = self._merge_update(client, update, reference)
                    if self.admission is not None:
                        decision = self.admission.check(
                            client.client_id,
                            flat,
                            reference=reference_flat,
                            attested=client.has_tee(),
                        )
                        if not decision.admitted:
                            self.reputation.record_rejection(
                                client.client_id, self.cycle
                            )
                            continue
                        self.reputation.record_admission(client.client_id)
                        flat = decision.flat
                    tree.fold(
                        tree.shard_for(position, cohort_size),
                        flat,
                        update.num_samples,
                        position=position,
                    )
                    admitted += 1
                # Below quorum — or every update rejected at admission — a
                # biased average would hurt more than a stale one, so the
                # previous global model stands.
                degraded = quorum_short or admitted == 0
                if self.retry is not None:
                    degraded = degraded or admitted < self.retry.quorum_count(
                        len(participants)
                    )
                if degraded:
                    new_global = self.model.get_weights()
                    registry.counter(
                        "fl.rounds.degraded",
                        "cycles below quorum that kept the previous global model",
                    ).inc()
                else:
                    if not self.config.sharding.flat:
                        # Shard -> root hop is a real network message in a
                        # hierarchical deployment; price it like any other.
                        for partial in tree.partials():
                            self.channel.send_partial(partial)
                    new_global = unflatten_weights(tree.reduce(), reference)
                    self.model.set_weights(new_global)
            round_span.set_attribute("collected", len(updates))
            round_span.set_attribute("admitted", admitted)
            round_span.set_attribute("degraded", degraded)
        self.history.record(new_global)
        registry.counter("fl.rounds", "completed FL cycles").inc()
        registry.histogram(
            "fl.round.seconds", "coordinator wall time per FL cycle"
        ).observe(get_clock().now() - round_start)
        self.cycle += 1
        return updates

    def run(self, participants: Sequence[FLClient], cycles: int) -> None:
        """Run several cycles with a fixed participant set."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        for _ in range(cycles):
            self.run_cycle(participants)

    def sample_participants(
        self,
        pool: Sequence[FLClient],
        fraction: float,
        rng=None,
    ) -> List[FLClient]:
        """Per-cycle client sampling (production FL trains on a subset).

        Draws ``ceil(fraction * len(pool))`` clients uniformly without
        replacement; at least one client is always selected.  Without an
        explicit ``rng`` the server's own seeded generator is used, so a
        deployment's whole sampling schedule is a function of its seed.
        """
        if not pool:
            raise ValueError("client pool is empty")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = rng if rng is not None else self._rng
        count = max(1, math.ceil(fraction * len(pool)))
        indices = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in sorted(indices)]

    def run_sampled(
        self,
        pool: Sequence[FLClient],
        cycles: int,
        fraction: float = 0.5,
        rng=None,
    ) -> None:
        """Run cycles, sampling a fresh participant subset each time."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        rng = rng if rng is not None else self._rng
        for _ in range(cycles):
            self.run_cycle(self.sample_participants(pool, fraction, rng))
