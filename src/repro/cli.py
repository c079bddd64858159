"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro list                  # what can be regenerated
    python -m repro table6                # cost-model Table 6
    python -m repro fig5 --fast           # DRIA sweep, reduced budget
    python -m repro table5 --rounds 24    # DPIA, custom round count
    python -m repro fig8                  # GradSec vs DarkneTZ
    python -m repro summary               # Table 1 headline
    python -m repro simulate --clients 100000 --shards 64

Every subcommand spells the shared knobs the same way: ``--seed``,
``--clients``, ``--rounds``, ``--out``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import List, Optional

MODEL_CHOICES = ("lenet5", "alexnet", "mlp", "vit_tiny", "gpt_tiny")


def _zoo_model(name: str, seed: int = 0, num_classes: int = 10):
    """Build a model-zoo entry by CLI name."""
    from . import nn as _nn

    if name not in MODEL_CHOICES:
        raise ValueError(f"unknown model {name!r}; expected one of {MODEL_CHOICES}")
    factory = getattr(_nn, name)
    if name == "mlp":
        return factory(num_classes=num_classes, input_shape=(6,), seed=seed)
    return factory(num_classes=num_classes, seed=seed)

__all__ = ["main"]


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


def _write_payload(out: Optional[str], payload: dict, echo: bool = False) -> None:
    """Write ``payload`` to ``out``; without one, print it when ``echo``."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")
    elif echo:
        print(text)


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


def _cmd_trace(args: argparse.Namespace) -> None:
    """Run a tiny FL fleet under a fake clock and emit its trace + metrics.

    The whole run executes inside a fresh observability context with a
    deterministic clock, so two invocations with the same arguments emit
    byte-identical JSON — the trace is validated against the schema before
    anything is written.
    """
    from .data.synthetic import synthetic_cifar
    from .fl import (
        AdmissionConfig,
        FLClient,
        FLServer,
        RoundConfig,
        ServerConfig,
        TrainingPlan,
    )
    from .core import StaticPolicy
    from .nn import lenet5 as make_lenet5
    from .obs import FakeClock, fresh, validate_metrics, validate_trace

    protect = tuple(int(p) for p in args.protect.split(",") if p.strip())
    shape = (3, 16, 16)

    # Admission is always in the loop for traces so the `fl.admission.*`
    # and `fl.reputation.*` counters appear in the metrics snapshot even
    # on a healthy fleet (zero-valued); --max-norm arms the norm ceiling.
    server_config = ServerConfig(
        seed=args.seed,
        round=RoundConfig(
            rule=args.rule,
            admission=AdmissionConfig(max_norm=args.max_norm),
        ),
    )

    with fresh(clock=FakeClock()) as ctx:
        global_model = make_lenet5(num_classes=10, input_shape=shape, seed=args.seed)
        plan = TrainingPlan(lr=0.05, batch_size=4, local_steps=args.steps)
        layout = global_model.layout()
        policy = StaticPolicy(layout, [layout.ref(i) for i in protect]) if protect else None
        server = FLServer(global_model, plan, policy=policy, config=server_config)
        dataset = synthetic_cifar(
            num_samples=8 * args.clients,
            num_classes=10,
            shape=shape,
            seed=args.seed,
        )
        clients = [
            FLClient(
                f"client-{i}",
                shard,
                global_model.clone(),
                policy=policy,
                seed=args.seed + 100 + i,
            )
            for i, shard in enumerate(dataset.shard(args.clients))
        ]
        for client in clients:
            server.register(client)
        for _ in range(args.rounds):
            server.run_cycle(clients)
        trace = ctx.tracer.export()
        metrics = ctx.registry.snapshot()
        traffic = {
            "downlink_bytes": server.channel.downlink_bytes,
            "uplink_bytes": server.channel.uplink_bytes,
            "downloads": server.channel.downloads,
            "uploads": server.channel.uploads,
        }
    validate_trace(trace)
    validate_metrics(
        metrics,
        required=(
            "fl.admission.rejected",
            "fl.reputation.quarantined",
            "fl.aggregate.rule",
            "tee.storage.bytes",
            "tee.storage.verify_failures",
        ),
    )
    payload = {
        "schema": 1,
        "command": "trace",
        "config": {
            "clients": args.clients,
            "rounds": args.rounds,
            "seed": args.seed,
            "steps": args.steps,
            "protected_layers": list(protect),
            "rule": args.rule,
            "max_norm": args.max_norm,
        },
        "trace": trace,
        "metrics": metrics,
        "traffic": traffic,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def _api_kwargs(fn, args: argparse.Namespace) -> dict:
    """The parsed flags ``fn`` takes — flag dests are its parameter names."""
    return {
        name: getattr(args, name)
        for name in inspect.signature(fn).parameters
        if hasattr(args, name)
    }


def _checkpoint_events() -> dict:
    """What ``tee.storage`` has said so far about the state dir's checkpoint:
    reads refused (by kind) and torn writes rolled forward."""
    from .obs import get_registry

    counters = get_registry().snapshot()["counters"]
    return {
        **counters.get("tee.storage.verify_failures", {}),
        "recovered": sum(counters.get("tee.storage.recoveries", {}).values()),
    }


def _say_checkpoint_events(args: argparse.Namespace, before: dict) -> None:
    """One stderr line per thing that happened to the checkpoint on resume."""
    unit = "round" if args.command == "simulate" else "event"
    for event, count in _checkpoint_events().items():
        if count == before.get(event, 0):
            continue
        if event == "recovered":
            what = "checkpoint write cut short by a crash was rolled forward"
        else:
            kind = event.partition("=")[2]
            what = f"checkpoint failed verification ({kind}), starting from {unit} 0"
        print(
            f"repro {args.command}: state dir {args.state_dir}: {what}",
            file=sys.stderr,
        )


def _cmd_simulate(args: argparse.Namespace) -> None:
    """Simulate a large FL fleet in virtual time and emit a JSON report.

    Parses, calls :func:`repro.api.simulate` (every flag is that
    function's parameter of the same name) and writes the report with the
    run's metrics snapshot embedded.  Two invocations with the same
    arguments produce byte-identical reports; with ``--state-dir`` a killed
    run can be re-invoked and resumes where it stopped.
    """
    from .api import simulate

    report = simulate(**_api_kwargs(simulate, args), include_metrics=True)
    _write_payload(
        args.out, {"schema": 1, "command": "simulate", **report}, echo=True
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    """Run the multi-tenant coordinator service under synthetic load.

    Parses, calls :func:`repro.api.serve` (every flag is that function's
    parameter of the same name) and writes the report.  Entirely
    deterministic: two invocations with the same arguments emit
    byte-identical JSON, and with ``--state-dir`` a ``kill -9`` mid-commit
    can be re-invoked with the same command line and finishes with a report
    bitwise identical to an uninterrupted run.
    """
    from .api import serve

    report = serve(**_api_kwargs(serve, args))
    _write_payload(args.out, {"schema": 1, "command": "serve", **report}, echo=True)


_COMMANDS = {
    "table5": (_cmd_table5, "DPIA AUC, static vs dynamic GradSec"),
    "table6": (_cmd_table6, "CPU time and TEE memory per configuration"),
    "fig5": (_cmd_fig5, "DRIA ImageLoss vs protected layers"),
    "fig6": (_cmd_fig6, "MIA AUC vs protected layers"),
    "fig8": (_cmd_fig8, "GradSec vs DarkneTZ comparison"),
    "summary": (_cmd_summary, "headline comparison (Table 1 flavour)"),
    "blocks": (_cmd_blocks, "attack sweep over transformer block-shielding policies"),
}


def _cmd_list(parser: argparse.ArgumentParser) -> None:
    """Print every registered subcommand with its help line."""
    print("available experiments:")
    for action in parser._subparsers._group_actions[0]._get_subactions():
        if action.dest != "list":
            print(f"  {action.dest:<8} {action.help}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the GradSec paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    for name, (_, description) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument("--fast", action="store_true", help="reduced budget")
        sub.add_argument("--rounds", type=int, default=36, help="FL rounds (DPIA)")
        sub.add_argument("--batch-size", type=int, default=32, help="batch size")
        sub.add_argument("--seed", type=int, default=0, help="experiment seed")
        sub.add_argument("--out", default=None, help="write result rows as JSON here")
        if name == "blocks":
            sub.add_argument(
                "--model",
                default="vit_tiny",
                choices=["vit_tiny", "gpt_tiny"],
                help="transformer zoo entry to audit",
            )
            sub.add_argument(
                "--mw-size",
                type=int,
                default=1,
                help="moving-window width in blocks",
            )
            sub.add_argument(
                "--roles",
                default=None,
                help="comma-separated sublayer roles to shield per block "
                "(default: the Pelta set ln1,softmax,ln2)",
            )
            sub.add_argument(
                "--dpia",
                action="store_true",
                help="also run the multi-cycle DPIA pipeline per policy",
            )
    trace = subparsers.add_parser(
        "trace", help="deterministic FL-round trace + metrics as JSON"
    )
    trace.add_argument("--clients", type=int, default=2, help="FL participants")
    trace.add_argument("--rounds", type=int, default=1, help="FL rounds to trace")
    trace.add_argument("--seed", type=int, default=0, help="trace seed")
    trace.add_argument("--steps", type=int, default=1, help="local steps per client")
    trace.add_argument(
        "--protect",
        default="2,3",
        help="comma-separated protected layer indices ('' for none)",
    )
    trace.add_argument(
        "--rule",
        default="fedavg",
        choices=["fedavg", "median", "trimmed_mean", "krum", "clipped_fedavg"],
        help="aggregation rule for the traced rounds",
    )
    trace.add_argument(
        "--max-norm",
        type=float,
        default=None,
        help="admission-control L2 ceiling on update deltas",
    )
    trace.add_argument("--out", default=None, help="write the JSON here")
    simulate = subparsers.add_parser(
        "simulate", help="event-driven FL fleet simulation with fault injection"
    )
    simulate.add_argument("--clients", type=int, default=100, help="fleet size")
    simulate.add_argument("--rounds", type=int, default=5, help="FL rounds")
    simulate.add_argument("--seed", type=int, default=0, help="simulation seed")
    simulate.add_argument(
        "--model",
        default=None,
        choices=list(MODEL_CHOICES),
        help="client model architecture (default: the simulator's small MLP)",
    )
    simulate.add_argument(
        "--policy",
        default=None,
        metavar="SPEC",
        help="protection policy spec: none, static:SEL+SEL, darknetz:SEL, "
        "mw:K, pelta, pelta:BLOCK, pelta-mw:K (e.g. "
        "--model vit_tiny --policy pelta-mw:1)",
    )
    simulate.add_argument(
        "--cohort", type=int, default=None, help="updates aggregated per round"
    )
    simulate.add_argument(
        "--overprovision", type=float, default=1.25, help="selection surplus factor"
    )
    simulate.add_argument(
        "--quorum", type=float, default=0.5, help="min fraction of cohort to aggregate"
    )
    simulate.add_argument(
        "--deadline", type=float, default=5.0, help="round deadline (virtual seconds)"
    )
    simulate.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard aggregators in the hierarchical reduce tree (1 = flat)",
    )
    simulate.add_argument("--dropout", type=float, default=0.0, help="dropout rate")
    simulate.add_argument(
        "--straggler", type=float, default=0.0, help="straggler rate"
    )
    simulate.add_argument(
        "--corrupt", type=float, default=0.0, help="payload-corruption rate"
    )
    simulate.add_argument(
        "--pool-exhaust", type=float, default=0.0, help="secure-pool exhaustion rate"
    )
    simulate.add_argument(
        "--attestation", type=float, default=0.0, help="attestation-failure rate"
    )
    simulate.add_argument(
        "--shard-down",
        type=float,
        default=0.0,
        help="per-round probability a shard aggregator is dead",
    )
    simulate.add_argument(
        "--byzantine",
        type=float,
        default=0.0,
        help="fraction of the fleet that is Byzantine (persistent identity)",
    )
    simulate.add_argument(
        "--attack",
        default="sign_flip",
        choices=["sign_flip", "scale", "gauss_noise", "collude"],
        help="attack Byzantine clients mount on their updates",
    )
    simulate.add_argument(
        "--attack-strength",
        type=float,
        default=10.0,
        help="attack strength parameter (scale factor / noise multiplier)",
    )
    simulate.add_argument(
        "--rule",
        default="fedavg",
        choices=["fedavg", "median", "trimmed_mean", "krum", "clipped_fedavg"],
        help="aggregation rule",
    )
    simulate.add_argument(
        "--trim",
        type=int,
        default=None,
        help="per-side trim for trimmed_mean (default: assumed attacker count)",
    )
    simulate.add_argument(
        "--num-byzantine",
        type=int,
        default=None,
        help="attacker count Krum assumes (default: ceil(byzantine * cohort))",
    )
    simulate.add_argument(
        "--max-norm",
        type=float,
        default=None,
        help="admission-control delta-norm ceiling (enables the reputation ledger)",
    )
    simulate.add_argument(
        "--clip",
        action="store_true",
        help="rescale over-norm updates onto the ceiling instead of rejecting",
    )
    simulate.add_argument(
        "--drift",
        type=float,
        default=0.2,
        help="per-round honest pull toward the teacher model",
    )
    simulate.add_argument(
        "--update-scale",
        type=float,
        default=0.05,
        help="noise std of honest pseudo-updates",
    )
    simulate.add_argument(
        "--compile",
        action="store_true",
        help="produce client updates through the compiled graph VM "
        "(bitwise-identical report, faster)",
    )
    simulate.add_argument(
        "--client-batch",
        type=int,
        default=1,
        help="clients stacked per batched VM execution (requires --compile)",
    )
    simulate.add_argument(
        "--async",
        dest="async_mode",
        action="store_true",
        help="FedBuff-style asynchronous buffered aggregation: no round "
        "barrier; commit every --buffer-size admitted updates, folding "
        "stale arrivals with their staleness weight",
    )
    simulate.add_argument(
        "--buffer-size",
        type=int,
        default=None,
        help="admitted updates per async commit (default: the cohort size)",
    )
    simulate.add_argument(
        "--staleness",
        default="constant",
        choices=["constant", "polynomial"],
        help="staleness weighting of late async updates",
    )
    simulate.add_argument(
        "--staleness-exponent",
        type=float,
        default=0.5,
        help="decay exponent a of the polynomial weighting (1+tau)^-a",
    )
    simulate.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="max in-flight clients in async mode (default: the asked cohort)",
    )
    simulate.add_argument(
        "--state-dir",
        default=None,
        help="checkpoint directory (enables kill/resume across invocations)",
    )
    simulate.add_argument("--out", default=None, help="write the JSON report here")
    serve = subparsers.add_parser(
        "serve", help="multi-tenant coordinator service under synthetic load"
    )
    serve.add_argument(
        "--tenants", type=int, default=2, help="concurrent tenant jobs"
    )
    serve.add_argument(
        "--clients", type=int, default=1000, help="simulated clients per tenant"
    )
    serve.add_argument(
        "--commits", type=int, default=10, help="commits each job runs to"
    )
    serve.add_argument(
        "--buffer-size", type=int, default=64, help="admitted updates per commit"
    )
    serve.add_argument(
        "--shards", type=int, default=1, help="aggregation shards per job"
    )
    serve.add_argument(
        "--concurrency", type=int, default=128, help="in-flight dispatches per job"
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=4096,
        help="staged updates per job before backpressure rejects",
    )
    serve.add_argument(
        "--ratio",
        type=float,
        default=None,
        help="top-k sparsification ratio for uplink deltas (default: dense)",
    )
    serve.add_argument(
        "--encoding",
        default="f64",
        choices=["f64", "f32", "f16", "q8"],
        help="wire value encoding of uplink deltas",
    )
    serve.add_argument("--seed", type=int, default=0, help="base seed (tenant i adds i)")
    serve.add_argument("--dropout", type=float, default=0.0, help="dropout rate")
    serve.add_argument(
        "--straggler", type=float, default=0.0, help="straggler rate"
    )
    serve.add_argument(
        "--byzantine", type=float, default=0.0, help="Byzantine fleet fraction"
    )
    serve.add_argument(
        "--attack",
        default="sign_flip",
        choices=["sign_flip", "scale", "gauss_noise", "collude"],
        help="attack Byzantine clients mount",
    )
    serve.add_argument(
        "--attack-strength", type=float, default=10.0, help="attack strength"
    )
    serve.add_argument(
        "--max-norm",
        type=float,
        default=None,
        help="admission-control delta-norm ceiling (enables reputation)",
    )
    serve.add_argument(
        "--clip",
        action="store_true",
        help="rescale over-norm updates onto the ceiling instead of rejecting",
    )
    serve.add_argument(
        "--drift", type=float, default=0.2, help="honest pull toward the teacher"
    )
    serve.add_argument(
        "--update-scale", type=float, default=0.05, help="honest update noise std"
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="checkpoint directory (enables kill/resume across invocations)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="events between checkpoints when --state-dir is set",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="route frames through the seeded chaos transport "
        "(exactly-once delivery: committed weights stay bitwise identical "
        "to a --chaos-rate 0 run for any rate/seed)",
    )
    serve.add_argument(
        "--chaos-rate",
        type=float,
        default=0.1,
        help="aggregate per-send fault probability, split evenly across "
        "drop/duplicate/reorder/corrupt/truncate/replay",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0, help="chaos fault-stream seed"
    )
    serve.add_argument(
        "--chaos-breaker-budget",
        dest="breaker_budget",
        type=int,
        default=0,
        help="malformed frames tolerated per tenant in a 30s sliding window "
        "before the circuit breaker sheds it (0 = breaker off)",
    )
    serve.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _cmd_list(parser)
        return 0
    if args.command == "trace":
        _cmd_trace(args)
        return 0
    if args.command in ("simulate", "serve"):
        from .tee.world import IntegrityError

        before = _checkpoint_events()
        try:
            (_cmd_simulate if args.command == "simulate" else _cmd_serve)(args)
        # a rejected configuration or an unusable counter file, not a crash
        except (ValueError, IntegrityError) as error:
            print(f"repro {args.command}: error: {error}", file=sys.stderr)
            return 2
        _say_checkpoint_events(args, before)
        return 0
    handler, _ = _COMMANDS[args.command]
    payload = handler(args)
    if payload is not None and args.out:
        _write_payload(args.out, {"schema": 1, **payload})
    return 0


if __name__ == "__main__":
    sys.exit(main())
