"""The paper's table and figure experiments, by command name.

``repro <name>`` runs one through the CLI and
:func:`repro.api.run_experiment` through the library; both read
:data:`EXPERIMENTS`.  Each handler takes the parsed arguments (``fast``,
``rounds``, ``batch_size``, ``seed`` and its own) and returns the JSON
payload ``--out`` writes, printing the human-readable table as it goes.
Handlers import what they run, so loading this module loads nothing else.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

__all__ = ["EXPERIMENTS"]


def _row_dicts(rows) -> List[dict]:
    """ExperimentRow list -> JSON-safe row dicts (stable key order)."""
    return [
        {
            "label": row.label,
            "protected": list(row.protected),
            "score": float(row.score),
            "metric": row.metric,
        }
        for row in rows
    ]


def _cost_dict(cost) -> dict:
    return {
        "user_seconds": float(cost.user_seconds),
        "kernel_seconds": float(cost.kernel_seconds),
        "alloc_seconds": float(cost.alloc_seconds),
        "total_seconds": float(cost.total_seconds),
        "tee_memory_mib": float(cost.tee_memory_mib),
    }


def _cmd_table6(args: argparse.Namespace) -> Optional[dict]:
    from .bench.reference import TABLE6_STATIC
    from .bench.tables import layers_label, print_table
    from .nn import lenet5
    from .tee import CostModel

    model = lenet5()
    cost_model = CostModel(batch_size=args.batch_size)
    baseline = cost_model.cycle_cost(model)
    rows = [
        f"  {'baseline':<14} {baseline.user_seconds:5.3f}+{baseline.kernel_seconds:5.3f}+0.000s  0.000 MiB"
    ]
    results = [{"label": "baseline", **_cost_dict(baseline)}]
    for config in sorted(TABLE6_STATIC):
        cost = cost_model.cycle_cost(model, config)
        rows.append(
            f"  {layers_label(config):<14} {cost.user_seconds:5.3f}+"
            f"{cost.kernel_seconds:5.3f}+{cost.alloc_seconds:5.3f}s  "
            f"{cost.tee_memory_mib:5.3f} MiB ({cost.overhead_percent(baseline):+.0f}%)"
        )
        results.append({"label": layers_label(config), **_cost_dict(cost)})
    print_table(f"Table 6 (batch {args.batch_size})", rows)
    return {"command": "table6", "batch_size": args.batch_size, "rows": results}


def _cmd_fig5(args: argparse.Namespace) -> Optional[dict]:
    from .bench.experiments import dria_experiment
    from .bench.tables import layers_label, print_table

    protected_sets = [(), (1,), (2,), (1, 2), (5,)]
    rows = dria_experiment(
        protected_sets,
        iterations=30 if args.fast else 150,
        num_classes=10,
        model_scale=0.5 if args.fast else 1.0,
        seed=args.seed,
    )
    print_table(
        "Figure 5 (a): DRIA ImageLoss (LeNet-5)",
        [f"  {layers_label(r.protected):<8} ImageLoss={r.score:7.3f}" for r in rows],
    )
    return {"command": "fig5", "seed": args.seed, "rows": _row_dicts(rows)}


def _cmd_fig6(args: argparse.Namespace) -> Optional[dict]:
    from .bench.experiments import mia_experiment
    from .bench.tables import layers_label, print_table

    protected_sets = [(), (5,), (4, 5), (2, 3, 4, 5), (1, 2, 3, 4, 5)]
    rows = mia_experiment(protected_sets, fast=args.fast, seed=args.seed)
    print_table(
        "Figure 6 (a): MIA AUC (LeNet-5)",
        [f"  {layers_label(r.protected):<16} AUC={r.score:.3f}" for r in rows],
    )
    return {"command": "fig6", "seed": args.seed, "rows": _row_dicts(rows)}


def _cmd_table5(args: argparse.Namespace) -> Optional[dict]:
    from .bench.experiments import DPIA_BEST_V_MW, dpia_experiment
    from .bench.reference import TABLE5_DYNAMIC, TABLE5_STATIC
    from .bench.tables import format_comparison, print_table
    from .core import DynamicPolicy, NoProtection, StaticPolicy
    from .nn import lenet5

    layout = lenet5().layout()
    policies = [
        ("none", NoProtection(layout)),
        ("L4", StaticPolicy(layout, ["L4"])),
        ("L3+L4", StaticPolicy(layout, ["L3", "L4"])),
        ("L2+L3+L4+L5", StaticPolicy(layout, ["L2", "L3", "L4", "L5"])),
        ("MW=2", DynamicPolicy(layout, 2, DPIA_BEST_V_MW[2], seed=3)),
        ("MW=3", DynamicPolicy(layout, 3, DPIA_BEST_V_MW[3], seed=3)),
        ("MW=4", DynamicPolicy(layout, 4, DPIA_BEST_V_MW[4], seed=3)),
    ]
    rows = dpia_experiment(
        policies, cycles=args.rounds, seed=args.seed, fast=args.fast
    )
    paper = {**TABLE5_STATIC, **TABLE5_DYNAMIC}
    print_table(
        "Table 5: DPIA AUC",
        [format_comparison(r.label, r.score, paper.get(r.label), "AUC") for r in rows],
    )
    return {
        "command": "table5",
        "rounds": args.rounds,
        "seed": args.seed,
        "rows": _row_dicts(rows),
    }


def _cmd_fig8(args: argparse.Namespace) -> Optional[dict]:
    from .bench.experiments import DPIA_BEST_V_MW
    from .bench.tables import print_table
    from .core import DynamicPolicy
    from .nn import lenet5
    from .tee import CostModel

    model = lenet5()
    cost_model = CostModel(batch_size=32)
    gradsec = cost_model.cycle_cost(model, (2, 5))
    darknetz = cost_model.cycle_cost(model, (2, 3, 4, 5))
    policy = DynamicPolicy(model, 2, DPIA_BEST_V_MW[2], seed=0)
    dynamic, _ = cost_model.dynamic_cost(model, policy.windows, policy.v_mw)
    print_table(
        "Figure 8: GradSec vs DarkneTZ",
        [
            f"  static  GradSec {{L2,L5}}: {gradsec.total_seconds:6.3f}s  {gradsec.tee_memory_mib:5.3f} MiB",
            f"  dynamic GradSec (MW=2) : {dynamic.total_seconds:6.3f}s  {dynamic.tee_memory_mib:5.3f} MiB",
            f"  DarkneTZ {{L2-L5}}      : {darknetz.total_seconds:6.3f}s  {darknetz.tee_memory_mib:5.3f} MiB",
        ],
    )
    return {
        "command": "fig8",
        "rows": [
            {"label": "gradsec_static", **_cost_dict(gradsec)},
            {"label": "gradsec_dynamic_mw2", **_cost_dict(dynamic)},
            {"label": "darknetz", **_cost_dict(darknetz)},
        ],
    }


def _cmd_summary(args: argparse.Namespace) -> Optional[dict]:
    payload = _cmd_fig8(args)
    print("\nAttack side (use 'fig5', 'fig6', 'table5' for details);")
    print("'--fast' runs every experiment at reduced budget.")
    if payload is not None:
        payload = {**payload, "command": "summary"}
    return payload


def _cmd_blocks(args: argparse.Namespace) -> Optional[dict]:
    """Attack sweep over transformer block-shielding policies.

    Audits a transformer from the model zoo under no protection, per-block
    static Pelta shielding, all-blocks static shielding, and a moving
    window over block positions — reporting each attack's score next to
    the policy's cost-model footprint, the static-vs-moving-window
    trade-off of §8 recast with attention blocks as the protection unit.
    """
    from .attacks.suite import AttackSuite
    from .bench.tables import print_table
    from .core import NoProtection, PeltaPolicy
    from . import nn as _nn
    from .tee import CostModel

    entry = getattr(_nn, args.model)
    factory = lambda num_classes, seed: entry(  # noqa: E731
        num_classes=num_classes, seed=seed
    )
    model = factory(10, args.seed + 1)
    layout = model.layout()
    blocks = layout.block_names()
    roles = tuple(r for r in args.roles.split(",") if r) if args.roles else None

    policies = [("none", NoProtection(layout))]
    for block in blocks:
        policies.append(
            (f"static {block}", PeltaPolicy(layout, blocks=[block], roles=roles))
        )
    policies.append(("static all-blocks", PeltaPolicy(layout, roles=roles)))
    size = args.mw_size
    positions = len(blocks) - size + 1
    policies.append(
        (
            f"MW={size}",
            PeltaPolicy(
                layout,
                roles=roles,
                size_mw=size,
                v_mw=(1.0 / positions,) * positions,
                seed=args.seed + 3,
            ),
        )
    )

    suite = AttackSuite(seed=args.seed, fast=args.fast, model_factory=factory)
    cost_model = CostModel(batch_size=args.batch_size)
    results, lines = [], []
    for label, policy in policies:
        report = suite.audit(policy)
        if args.dpia:
            report.verdicts["DPIA"] = suite.audit_dpia(policy, cycles=args.rounds)
        cost = cost_model.cycle_cost(model, policy.layers_for_cycle(0))
        scores = {
            name: float(verdict.result.score)
            for name, verdict in report.verdicts.items()
        }
        results.append(
            {
                "label": label,
                "policy": policy.describe(),
                "protected": sorted(policy.layers_for_cycle(0)),
                "scores": scores,
                "secure": report.secure,
                **_cost_dict(cost),
            }
        )
        pretty = " ".join(f"{k}={v:7.3f}" for k, v in scores.items())
        lines.append(
            f"  {label:<20} {pretty}  {cost.tee_memory_mib:5.3f} MiB  "
            f"{'SECURE' if report.secure else 'not secure'}"
        )
    print_table(f"Block shielding sweep ({args.model}, batch {args.batch_size})", lines)
    return {
        "command": "blocks",
        "model": args.model,
        "roles": list(roles or PeltaPolicy.DEFAULT_ROLES),
        "mw_size": size,
        "seed": args.seed,
        "rows": results,
    }


#: ``blocks``' own flags: flag -> ``add_argument`` keywords; each default is
#: also what :func:`repro.api.run_experiment` passes for an omitted keyword.
_BLOCKS_FLAGS = {
    "--model": dict(
        default="vit_tiny",
        choices=["vit_tiny", "gpt_tiny"],
        help="transformer zoo entry to audit",
    ),
    "--mw-size": dict(type=int, default=1, help="moving-window width in blocks"),
    "--roles": dict(
        default=None,
        help="comma-separated sublayer roles to shield per block "
        "(default: the Pelta set ln1,softmax,ln2)",
    ),
    "--dpia": dict(
        action="store_true",
        default=False,
        help="also run the multi-cycle DPIA pipeline per policy",
    ),
}

#: name -> (handler, one-line help, the experiment's own flags).
EXPERIMENTS = {
    "table5": (_cmd_table5, "DPIA AUC, static vs dynamic GradSec", {}),
    "table6": (_cmd_table6, "CPU time and TEE memory per configuration", {}),
    "fig5": (_cmd_fig5, "DRIA ImageLoss vs protected layers", {}),
    "fig6": (_cmd_fig6, "MIA AUC vs protected layers", {}),
    "fig8": (_cmd_fig8, "GradSec vs DarkneTZ comparison", {}),
    "summary": (_cmd_summary, "headline comparison (Table 1 flavour)", {}),
    "blocks": (
        _cmd_blocks,
        "attack sweep over transformer block-shielding policies",
        _BLOCKS_FLAGS,
    ),
}
