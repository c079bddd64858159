#!/usr/bin/env python
"""Dynamic GradSec against the property inference attack (DPIA).

The paper's §8.2 result: no static configuration defeats DPIA (the
property's gradient footprint spans layers and cycles), but a *moving
window* of just two layers — with a protection distribution tuned via the
search procedure — degrades it sharply at a fraction of the enclave cost.

This example runs the victim FL simulation under four policies, attacks
each run, and prints the AUC next to the TEE cost of the policy.

Run:  python examples/dynamic_dpia_defense.py   (~2 minutes)
"""

from repro.bench.experiments import DPIA_BEST_V_MW, dpia_experiment, v_mw_search
from repro.core import DynamicPolicy, NoProtection, StaticPolicy, policy_overhead
from repro.nn import lenet5
from repro.tee import CostModel


def main() -> None:
    print("=== Dynamic GradSec vs DPIA ===\n")

    print("step 1: search V_MW for the moving window (paper §8.2) ...")
    result = v_mw_search(size_mw=2, cycles=16, random_candidates=3, fast=False)
    tuned = result.best_v_mw
    print(f"  best V_MW found: {tuple(round(p, 2) for p in tuned)} "
          f"(validation AUC {result.best_score:.3f})")
    print(f"  paper's vector : {DPIA_BEST_V_MW[2]}\n")

    model = lenet5()
    policies = [
        ("no protection", NoProtection(model)),
        ("static L3+L4", StaticPolicy(model, ["L3", "L4"])),
        ("static L2-L5", StaticPolicy(model, ["L2", "L3", "L4", "L5"])),
        ("dynamic MW=2 (searched)", DynamicPolicy(model, 2, tuned, seed=3)),
        ("dynamic MW=2 (paper V_MW)", DynamicPolicy(model, 2, DPIA_BEST_V_MW[2], seed=3)),
    ]

    print("step 2: run the victim + attack under each policy ...")
    rows = dpia_experiment(policies, cycles=36, batches_per_snapshot=3)

    cost_model = CostModel(batch_size=32)
    print(f"\n{'policy':<28} {'DPIA AUC':>9}  {'cycle time':>11}  {'TEE memory':>10}")
    for (label, policy), row in zip(policies, rows):
        overhead = policy_overhead(model, policy, cost_model)
        print(
            f"{label:<28} {row.score:9.3f}  "
            f"{overhead.cost.total_seconds:10.3f}s  "
            f"{overhead.cost.tee_memory_mib:8.3f} MiB"
        )

    print(
        "\ntakeaway: the moving window protects *all* layers across cycles, so\n"
        "the attacker's feature columns keep disappearing — at ~2 layers' cost."
    )


if __name__ == "__main__":
    main()
