"""FL server.

Implements the coordinator of Figure 2: attestation-gated client selection,
model + plan distribution (protected layers sealed through each client's
trusted I/O path), update collection and FedAvg aggregation.
"""

from __future__ import annotations

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
from .plan import TrainingPlan
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
        A :class:`~repro.fl.config.ServerConfig` — legacy-client admission,
        the default model's seed, and the per-cycle aggregation rule and
        admission gate.

    A cycle is fail-fast: a client that raises aborts it, and the global
    model is left as it was.  Retry, quorum, participant sampling and
    shard trees are the event-driven engines' (:mod:`repro.sim`,
    :mod:`repro.serve`), not this coordinator's.
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
        self.channel = Channel()
        self.admission: Optional[AdmissionController] = None
        self.reputation: Optional[ReputationTracker] = None
        if self.config.round.admission is not None:
            self.admission = AdmissionController(self.config.round.admission)
            self.reputation = ReputationTracker(self.config.round.reputation)
        self.cycle = 0
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
        """Per-cycle re-attestation gate.

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
        folded in participant order.  Any client exception aborts the
        cycle before anything is aggregated.
        """
        if not participants:
            raise ValueError("no participants in this cycle")
        participants = self._admit(participants)
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
            collected = [
                client.run_cycle(download, self.plan)
                for client, download in zip(participants, downloads)
            ]

            updates: List[ClientUpdate] = []
            round_cfg = self.config.round
            admitted = 0
            with get_tracer().span(
                "fl.aggregate", cycle=self.cycle, shards=1, rule=round_cfg.rule
            ):
                registry.counter(
                    "fl.aggregate.rule", "rounds aggregated, labelled per rule"
                ).inc(rule=round_cfg.rule)
                # Stream every update straight into one flat node — for
                # fedavg the bounded exact accumulator, for a robust rule
                # the collect the pure rule runs over (see repro.fl.sharding).
                # With admission control enabled, each merged update passes
                # the gate first: rejects strike the reputation ledger and
                # never reach the fold.
                reference = self.model.get_weights()
                reference_flat = flatten_weights(reference)
                tree = HierarchicalAggregator(
                    reference_flat.size,
                    rule=round_cfg.rule,
                    trim=round_cfg.trim,
                    num_byzantine=round_cfg.num_byzantine,
                    clip_norm=round_cfg.clip_norm,
                )
                for position, (client, update) in enumerate(
                    zip(participants, collected)
                ):
                    update = self.channel.send_update(update)
                    updates.append(update)
                    flat = self._merge_update(client, update, reference)
                    if self.admission is not None:
                        decision = self.admission.check(
                            client.client_id, flat, reference=reference_flat
                        )
                        if not decision.admitted:
                            self.reputation.record_rejection(
                                client.client_id, self.cycle
                            )
                            continue
                        self.reputation.record_admission(client.client_id)
                        flat = decision.flat
                    tree.fold(0, flat, update.num_samples, position=position)
                    admitted += 1
                # Every update rejected at admission: no average is better
                # than a biased one, so the previous global model stands.
                degraded = admitted == 0
                if degraded:
                    registry.counter(
                        "fl.rounds.degraded",
                        "cycles with every update rejected, keeping the "
                        "previous global model",
                    ).inc()
                else:
                    self.model.set_weights(
                        unflatten_weights(tree.reduce(), reference)
                    )
            round_span.set_attribute("collected", len(updates))
            round_span.set_attribute("admitted", admitted)
            round_span.set_attribute("degraded", degraded)
        registry.counter("fl.rounds", "completed FL cycles").inc()
        registry.histogram(
            "fl.round.seconds", "coordinator wall time per FL cycle"
        ).observe(get_clock().now() - round_start)
        self.cycle += 1
        return updates
