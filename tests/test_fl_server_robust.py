"""Server end-to-end: robust rules + admission against hostile clients.

The deployment-level claims: a sign-flip minority visibly drags plain
FedAvg away from the honest aggregate while ``median``/``krum`` stay
close (sign-flips preserve the update norm, so only the rule can stop
them); a norm-inflating client is stopped at the admission gate instead,
and repeated rejections walk it through quarantine to eviction.
"""

import numpy as np
import pytest

from repro.core import NoProtection
from repro.data import synthetic_cifar
from repro.fl import (
    AdmissionConfig,
    FLClient,
    FLServer,
    ReputationConfig,
    RoundConfig,
    ServerConfig,
    TrainingPlan,
)
from repro.nn import lenet5
from repro.nn.serialize import flatten_weights
from repro.obs import FakeClock, fresh

NUM_CLASSES = 5


@pytest.fixture
def obs_ctx():
    with fresh(clock=FakeClock()) as ctx:
        yield ctx


class SignFlipClient(FLClient):
    """Trains honestly, then reflects its update across the global weights."""

    def run_cycle(self, download, plan):
        update = super().run_cycle(download, plan)
        flipped = [
            {key: 2.0 * reference[key] - value for key, value in layer.items()}
            if layer
            else layer
            for layer, reference in zip(update.plain_weights, download.plain_weights)
        ]
        return update.__class__(
            client_id=update.client_id,
            cycle=update.cycle,
            num_samples=update.num_samples,
            plain_weights=flipped,
            sealed_weights=update.sealed_weights,
        )


class ScalingClient(FLClient):
    """Inflates its delta from the global weights by a large factor."""

    def __init__(self, *args, factor=50.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.factor = factor

    def run_cycle(self, download, plan):
        update = super().run_cycle(download, plan)
        scaled = [
            {
                key: reference[key] + self.factor * (value - reference[key])
                for key, value in layer.items()
            }
            if layer
            else layer
            for layer, reference in zip(update.plain_weights, download.plain_weights)
        ]
        return update.__class__(
            client_id=update.client_id,
            cycle=update.cycle,
            num_samples=update.num_samples,
            plain_weights=scaled,
            sealed_weights=update.sealed_weights,
        )


def build_fleet(
    rule="fedavg",
    hostile=0,
    client_cls=SignFlipClient,
    config=None,
    clients=6,
    iid=False,
):
    # ``iid=True`` hands every client the full dataset (they draw different
    # seeded batches): honest updates then agree closely, which isolates
    # the attack's effect on the aggregate from data heterogeneity.
    dataset = synthetic_cifar(num_samples=96, num_classes=NUM_CLASSES, seed=0)
    shards = dataset.shard(clients)
    global_model = lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5)
    plan = TrainingPlan(lr=0.2, batch_size=16, local_steps=1)
    cfg = config or ServerConfig(round=RoundConfig(rule=rule))
    server = FLServer(global_model, plan, policy=NoProtection(global_model), config=cfg)
    fleet = []
    for i in range(clients):
        cls = client_cls if i < hostile else FLClient
        fleet.append(
            cls(
                f"client-{i}",
                dataset if iid else shards[i],
                lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5),
                policy=NoProtection(global_model),
                seed=i,
            )
        )
    return server, fleet


def final_flat(server):
    return flatten_weights(server.model.get_weights())


class TestRobustRulesEndToEnd:
    def one_cycle_shift(self, rule):
        """How far 2/8 sign-flippers move one cycle's aggregate."""
        aggregates = {}
        for hostile in (0, 2):
            with fresh(clock=FakeClock()):
                cfg = ServerConfig(
                    round=RoundConfig(rule=rule, trim=2, num_byzantine=2)
                )
                server, fleet = build_fleet(
                    config=cfg, hostile=hostile, clients=8, iid=True
                )
                server.run_cycle(fleet)
                aggregates[hostile] = final_flat(server)
        return float(np.linalg.norm(aggregates[2] - aggregates[0]))

    def test_sign_flip_moves_fedavg_but_not_median_or_trimmed(self, obs_ctx):
        # SignFlipClient trains honestly first, so the hostile/honest runs
        # differ only in the flip — the shift isolates the attack's pull.
        fedavg_shift = self.one_cycle_shift("fedavg")
        assert fedavg_shift > 2 * self.one_cycle_shift("median")
        assert fedavg_shift > 2 * self.one_cycle_shift("trimmed_mean")

    def test_krum_selects_an_honest_update(self, obs_ctx):
        cfg = ServerConfig(round=RoundConfig(rule="krum", num_byzantine=2))
        server, fleet = build_fleet(config=cfg, hostile=2, clients=8, iid=True)
        merged = {}
        original = server._merge_update

        def spy(client, update):
            weights = original(client, update)
            merged[client.client_id] = flatten_weights(weights)
            return weights

        server._merge_update = spy
        server.run_cycle(fleet)
        aggregate = final_flat(server)
        winners = [
            cid for cid, w in merged.items() if np.array_equal(w, aggregate)
        ]
        assert len(winners) == 1
        assert winners[0] not in ("client-0", "client-1")  # the flippers

    def test_rule_recorded_in_metrics(self, obs_ctx):
        server, fleet = build_fleet(rule="median")
        server.run_cycle(fleet)
        counter = obs_ctx.registry.counter("fl.aggregate.rule")
        assert counter.series() == {"rule=median": 1.0}


class TestAdmissionEndToEnd:
    def admission_config(self, **reputation):
        return ServerConfig(
            round=RoundConfig(
                admission=AdmissionConfig(max_norm=5.0),
                reputation=ReputationConfig(**reputation) if reputation else None,
            )
        )

    def test_scaled_update_rejected_and_excluded(self, obs_ctx):
        config = self.admission_config()
        server, fleet = build_fleet(
            hostile=1, client_cls=ScalingClient, config=config
        )
        server.run_cycle(fleet)
        rejected = obs_ctx.registry.counter("fl.admission.rejected")
        assert rejected.total() == 1
        assert server.reputation.status("client-0", server.cycle) == "ok"

        # The same fleet *without* the attacker aggregates to the same
        # global weights: the rejected update left no trace in the fold.
        with fresh(clock=FakeClock()):
            clean_server, clean_fleet = build_fleet(config=self.admission_config())
            clean_server.run_cycle(clean_fleet[1:])
        np.testing.assert_array_equal(
            final_flat(server), final_flat(clean_server)
        )

    def test_repeat_offender_quarantined_then_evicted(self, obs_ctx):
        config = self.admission_config(
            max_strikes=2, quarantine_rounds=1, evict_after=2
        )
        server, fleet = build_fleet(
            hostile=1, client_cls=ScalingClient, config=config
        )
        statuses = []
        for _ in range(6):
            server.run_cycle(fleet)
            statuses.append(server.reputation.status("client-0", server.cycle))
        assert "quarantined" in statuses
        assert statuses[-1] == "evicted"
        blocked = obs_ctx.registry.counter("fl.reputation.blocked")
        assert blocked.total() > 0

    def test_all_quarantined_cohort_raises(self, obs_ctx):
        config = self.admission_config(
            max_strikes=1, quarantine_rounds=10, evict_after=10
        )
        server, fleet = build_fleet(
            hostile=6, client_cls=ScalingClient, config=config
        )
        server.run_cycle(fleet)  # everyone strikes out
        with pytest.raises(ValueError, match="quarantined"):
            server.run_cycle(fleet)
