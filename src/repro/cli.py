"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro list                  # what can be regenerated
    python -m repro table6                # cost-model Table 6
    python -m repro fig5 --fast           # DRIA sweep, reduced budget
    python -m repro table5 --rounds 24    # DPIA, custom round count
    python -m repro fig8                  # GradSec vs DarkneTZ
    python -m repro summary               # Table 1 headline
    python -m repro simulate --clients 100000 --shards 64

Every subcommand's flags are the knobs of its run config, so the shared
knobs are spelt the same way everywhere: ``--seed``, ``--clients``,
``--rounds``; ``--out`` is each command's own.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial
from typing import List, Optional

__all__ = ["main"]


#: ``--out``'s help line: the command's own, or a paper command's.
_OUT_HELP = {
    "trace": "write the JSON here",
    "simulate": "write the JSON report here",
    "serve": "write the JSON report here",
}


def _commands() -> dict:
    """Every command but ``list``, in ``repro list`` order: name ->
    (handler, help line, run config class).  A handler takes the run
    config and returns the JSON payload ``--out`` writes."""
    from . import api
    from .experiments import EXPERIMENTS, TraceRun, trace
    from .serve import ServeRun
    from .sim import SimRun

    return {
        **EXPERIMENTS,
        "trace": (trace, "deterministic FL-round trace + metrics as JSON", TraceRun),
        "simulate": (
            partial(api.simulate, include_metrics=True),
            "event-driven FL fleet simulation with fault injection",
            SimRun,
        ),
        "serve": (
            api.serve,
            "multi-tenant coordinator service under synthetic load",
            ServeRun,
        ),
    }


def run_config(args: argparse.Namespace):
    """The run config the flags in ``args`` (from :func:`build_parser`)
    spell; a refused value raises ``ConfigError`` or ``PolicyError``."""
    from .api import knob_table
    from .fl.config import compose

    run_cls = _commands()[args.command][2]
    return compose(run_cls, {
        item.name: getattr(args, keyword) for _, keyword, item in knob_table(run_cls)
    })


def _checkpoint_events() -> dict:
    """What ``tee.storage`` has said so far about the state dir's checkpoint:
    reads refused (by kind) and torn writes rolled forward."""
    from .obs import get_registry

    counters = get_registry().snapshot()["counters"]
    return {
        **counters.get("tee.storage.verify_failures", {}),
        "recovered": sum(counters.get("tee.storage.recoveries", {}).values()),
    }


def _say_checkpoint_events(command: str, state_dir: str, before: dict) -> None:
    """One stderr line per thing that happened to the checkpoint on resume."""
    unit = "round" if command == "simulate" else "event"
    for event, count in _checkpoint_events().items():
        if count == before.get(event, 0):
            continue
        if event == "recovered":
            what = "checkpoint write cut short by a crash was rolled forward"
        else:
            kind = event.partition("=")[2]
            what = f"checkpoint failed verification ({kind}), starting from {unit} 0"
        print(f"repro {command}: state dir {state_dir}: {what}", file=sys.stderr)


def _knob_error(run_cls, error: ValueError) -> str:
    """``error``'s message, the first mention of each config field it
    names written as the flag that sets it."""
    from .api import knob_table

    flags = {item.name: flag for flag, _, item in knob_table(run_cls)}
    named = [name for name in getattr(error, "fields", ()) if name in flags]
    if not named:
        return str(error)
    seen = set()

    def flag(match) -> str:
        name = match.group()
        if name in seen:
            return name
        seen.add(name)
        return flags[name]

    return re.sub(r"\b(%s)\b" % "|".join(named), flag, str(error))


def build_parser() -> argparse.ArgumentParser:
    from .api import knob_table
    from .fl.config import knob_type

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the GradSec paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    for command, (_, description, run_cls) in _commands().items():
        sub = subparsers.add_parser(command, help=description)
        for flag, keyword, item in knob_table(run_cls):
            spec, kind = item.metadata, knob_type(item)
            valued = dict(
                type=kind,
                default=item.default,
                choices=spec["choices"] and list(spec["choices"]),
                metavar=spec["metavar"],
            )
            sub.add_argument(
                flag,
                dest=keyword,
                help=spec["help"],
                **(dict(action="store_true") if kind is bool else valued),
            )
        out_help = _OUT_HELP.get(command, "write result rows as JSON here")
        sub.add_argument("--out", default=None, help=out_help)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .experiments import EXPERIMENTS
    from .tee.world import IntegrityError

    parser = build_parser()
    args = parser.parse_args(argv)
    commands = _commands()
    if args.command == "list":
        print("available experiments:")
        for name, (_, description, _) in commands.items():
            print(f"  {name:<8} {description}")
        return 0
    handler, _, run_cls = commands[args.command]
    before = _checkpoint_events()
    try:
        run = run_config(args)
        payload = {"schema": 1, "command": args.command, **handler(run)}
    # a refused value or an unusable counter file, not a crash
    except (ValueError, IntegrityError) as error:
        message = _knob_error(run_cls, error)
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return 2
    if getattr(run, "state_dir", None):
        _say_checkpoint_events(args.command, run.state_dir, before)
    # ``trace`` keeps its payload's own key order
    text = json.dumps(payload, indent=2, sort_keys=args.command != "trace")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    elif args.command not in EXPERIMENTS:  # a paper command printed its table
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
