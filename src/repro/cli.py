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
import json
import math
import re
import sys
from typing import List, Optional

__all__ = ["main"]

#: The commands whose flags are the knobs of a run config.
_KNOB_COMMANDS = {
    "simulate": "event-driven FL fleet simulation with fault injection",
    "serve": "multi-tenant coordinator service under synthetic load",
}


def _write_payload(out: Optional[str], payload: dict, echo: bool = False) -> None:
    """Write ``payload`` to ``out``; without one, print it when ``echo``."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")
    elif echo:
        print(text)


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
    from .core import PolicyError, StaticPolicy
    from .nn import lenet5 as make_lenet5
    from .obs import FakeClock, fresh, validate_metrics, validate_trace

    for flag in ("clients", "rounds", "steps"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be positive")
    if args.max_norm is not None and not 0 < args.max_norm < math.inf:
        raise ValueError(f"--max-norm must be positive and finite, got {args.max_norm}")
    try:
        protect = tuple(int(p) for p in args.protect.split(",") if p.strip())
    except ValueError:
        raise ValueError(
            f"--protect takes comma-separated layer indices, got {args.protect!r}"
        ) from None
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
        try:
            refs = [layout.ref(i) for i in protect]
        except PolicyError as error:
            raise ValueError(f"--protect: {error}") from None
        policy = StaticPolicy(layout, refs) if protect else None
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


def _knob_error(command: str, error: ValueError) -> str:
    """``error``'s message, each config field it names written as the
    ``repro command`` flag that sets it."""
    flags = {item.name: flag for flag, _, item in _knob_table(command)}
    named = [name for name in getattr(error, "fields", ()) if name in flags]
    if not named:
        return str(error)
    pattern = r"\b(%s)\b" % "|".join(named)
    return re.sub(pattern, lambda match: flags[match.group()], str(error))


def _knob_table(command: str):
    from .api import knob_table
    from .serve import ServeRun
    from .sim import SimRun

    return knob_table(SimRun if command == "simulate" else ServeRun)


def _run(args: argparse.Namespace) -> None:
    """``repro simulate``/``serve``: compose the run config from the flags
    (one per knob of :class:`~repro.sim.SimRun` /
    :class:`~repro.serve.ServeRun`), run it through :mod:`repro.api` and
    write the report.  Same flags, same bytes; with ``--state-dir`` a
    killed run re-invoked with the same command line resumes and ends on
    the uninterrupted run's report."""
    from . import api

    knobs = {
        keyword: getattr(args, keyword)
        for _, keyword, _ in _knob_table(args.command)
    }
    if args.command == "simulate":
        report = api.simulate(include_metrics=True, **knobs)
    else:
        report = api.serve(**knobs)
    payload = {"schema": 1, "command": args.command, **report}
    _write_payload(args.out, payload, echo=True)


def _cmd_experiment(args: argparse.Namespace) -> None:
    """A paper table or figure: run its handler and write its payload."""
    from .experiments import EXPERIMENTS

    if args.batch_size < 1:
        raise ValueError("--batch-size must be positive")
    handler, _, _ = EXPERIMENTS[args.command]
    payload = handler(args)
    if payload is not None and args.out:
        _write_payload(args.out, {"schema": 1, **payload})


def _cmd_list(parser: argparse.ArgumentParser) -> None:
    """Print every registered subcommand with its help line."""
    print("available experiments:")
    for action in parser._subparsers._group_actions[0]._get_subactions():
        if action.dest != "list":
            print(f"  {action.dest:<8} {action.help}")


def build_parser() -> argparse.ArgumentParser:
    from .experiments import EXPERIMENTS
    from .fl.config import knob_type

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the GradSec paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    for name, (_, description, flags) in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument("--fast", action="store_true", help="reduced budget")
        sub.add_argument("--rounds", type=int, default=36, help="FL rounds (DPIA)")
        sub.add_argument("--batch-size", type=int, default=32, help="batch size")
        sub.add_argument("--seed", type=int, default=0, help="experiment seed")
        sub.add_argument("--out", default=None, help="write result rows as JSON here")
        for flag, spec in flags.items():
            sub.add_argument(flag, **spec)
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
    for command, description in _KNOB_COMMANDS.items():
        sub = subparsers.add_parser(command, help=description)
        for flag, keyword, item in _knob_table(command):
            spec, kind = item.metadata, knob_type(item)
            if kind is bool:
                sub.add_argument(
                    flag, dest=keyword, action="store_true", help=spec["help"]
                )
                continue
            sub.add_argument(
                flag,
                dest=keyword,
                type=kind,
                default=item.default,
                choices=spec["choices"] and list(spec["choices"]),
                metavar=spec["metavar"],
                help=spec["help"],
            )
        sub.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _cmd_list(parser)
        return 0
    if args.command in _KNOB_COMMANDS:
        from .tee.world import IntegrityError

        before = _checkpoint_events()
        try:
            _run(args)
        # a rejected configuration or an unusable counter file, not a crash
        except (ValueError, IntegrityError) as error:
            message = _knob_error(args.command, error)
            print(f"repro {args.command}: error: {message}", file=sys.stderr)
            return 2
        _say_checkpoint_events(args, before)
        return 0
    command = _cmd_trace if args.command == "trace" else _cmd_experiment
    try:
        command(args)
    except ValueError as error:  # a refused flag, not a crash
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
