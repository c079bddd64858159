#!/usr/bin/env python
"""Full federated deployment: attested clients, sealed weights, FedAvg.

Reproduces the workflow of the paper's Figure 2 end to end:

1. the server attests candidate clients and rejects a legacy device;
2. each cycle, protected layers travel to the enclave through the trusted
   I/O path (the normal world only relays ciphertext);
3. clients train under static GradSec {L2, L5};
4. updates return with the protected part sealed; the server unseals,
   merges, and FedAvg-aggregates.

Run:  python examples/fl_simulation.py
"""

from repro.core import StaticPolicy
from repro.data import synthetic_cifar
from repro.fl import FLClient, FLServer, TrainingPlan
from repro.nn import lenet5

NUM_CLASSES = 10
CLIENTS = 3
CYCLES = 8


def main() -> None:
    print("=== Federated GradSec deployment ===\n")
    dataset = synthetic_cifar(num_samples=240, num_classes=NUM_CLASSES, seed=0)
    shards = dataset.shard(CLIENTS)

    plan = TrainingPlan(lr=0.05, batch_size=16, local_steps=4)
    make_model = lambda: lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5, activation="relu")
    global_model = make_model()
    # The policy object is the protection half of the plan: L2 and L5.
    policy = StaticPolicy(global_model, ["L2", "L5"])
    server = FLServer(global_model, plan, policy)

    clients = [
        FLClient(
            f"device-{i}",
            shards[i],
            make_model(),
            policy=policy,
            seed=i,
        )
        for i in range(CLIENTS)
    ]
    legacy = FLClient(
        "legacy-device",
        shards[0],
        make_model(),
        has_tee=False,
        seed=99,
    )

    selection = server.select(clients + [legacy])
    print(f"admitted : {selection.admitted}")
    print(f"rejected : {selection.rejected}\n")

    x_eval = dataset.x[:160]
    y_eval = dataset.one_hot_labels()[:160]
    print(f"initial accuracy: {server.model.accuracy(x_eval, y_eval):.3f}")

    participants = [c for c in clients if c.client_id in selection.admitted]
    hidden = {client.client_id: set() for client in participants}
    for cycle in range(CYCLES):
        updates = server.run_cycle(participants)
        for client in participants:
            hidden[client.client_id].update(client.last_leakage.protected)
        sealed = sum(1 for u in updates if u.sealed_weights is not None)
        print(
            f"cycle {cycle}: accuracy={server.model.accuracy(x_eval, y_eval):.3f} "
            f"({sealed}/{len(updates)} updates carried sealed layers)"
        )

    print(
        f"\ntraffic: {server.channel.downlink_bytes / 1024:.0f} KiB down, "
        f"{server.channel.uplink_bytes / 1024:.0f} KiB up over "
        f"{server.channel.downloads} downloads / {server.channel.uploads} uploads"
    )

    print("\n--- per-client leakage audit ---")
    for client in participants:
        layers = sorted(f"L{i}" for i in hidden[client.client_id])
        print(
            f"  {client.client_id}: gradients of {layers} never appeared "
            "in normal-world memory"
        )


if __name__ == "__main__":
    main()
