#!/usr/bin/env python
"""Audit protection policies with the attack suite.

Answers the deployment question the paper's Table 1 answers for its
configurations: *given a protection policy, which attacks still succeed?*
Audits four policies — none, DarkneTZ-style contiguous tail, GradSec's
non-successive {L2, L5}, and full protection — with DRIA + MIA.

Run:  python examples/security_audit.py   (~2 minutes)
"""

from repro.attacks import AttackSuite
from repro.core import DarknetzPolicy, NoProtection, StaticPolicy
from repro.nn import lenet5
from repro.tee import CostModel


def main() -> None:
    suite = AttackSuite(seed=0)
    model = lenet5()
    cost_model = CostModel(batch_size=32)
    baseline = cost_model.cycle_cost(model)

    policies = [
        NoProtection(model),
        DarknetzPolicy(model, ["L4", "L5"]),  # a contiguous tail slice
        StaticPolicy(model, ["L2", "L5"]),  # GradSec's non-successive pick
        StaticPolicy(model, ["L1", "L2", "L3", "L4", "L5"]),
    ]
    for policy in policies:
        report = suite.audit(policy)
        print(report.format())
        protected = tuple(sorted(policy.layers_for_cycle(0)))
        cost = cost_model.cycle_cost(model, protected)
        print(
            f"  cost: {cost.total_seconds:.2f}s/cycle "
            f"({cost.overhead_percent(baseline):+.0f}%), "
            f"{cost.tee_memory_mib:.2f} MiB TEE\n"
        )


if __name__ == "__main__":
    main()
