"""Execution census: which functions of ``src/repro`` does a gated run enter?

Runs every gated command that is not a test (CI's CLI smokes, the examples,
the quick sweeps, the paper benchmarks, the perf ledger and the paper's CLI
commands), then the test suites, with a ``sys.setprofile`` /
``threading.setprofile`` recorder installed in every Python process through
a temporary ``sitecustomize.py`` on ``PYTHONPATH``.  Each process appends
the ``(file, first line, name)`` of every code object it entered to a file
when it exits.  ``ast`` then sizes every function under ``src/repro`` and
sorts it into one of three classes:

* ``gated`` — entered by a non-test command;
* ``tests_only`` — entered only while the tests ran;
* ``never`` — entered by nothing.

A function's size is its own lines, from its first decorator to its last
line, without the lines of the functions and classes nested in it (those
count as their own entries).  The result is written to ``tools/census.json``
next to this script: per-module line counts of each class, and the
``tests_only`` and ``never`` functions by name.

Usage (from anywhere; stdlib only, no flags; about six minutes on an idle
2-core machine)::

    python tools/census.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().with_name("census.json")

#: Loaded by every child interpreter whose PYTHONPATH holds its directory.
HOOK = '''\
import atexit
import os
import sys
import threading

_CALLS = os.environ.get("CENSUS_CALLS")
_SRC = os.environ.get("CENSUS_SRC", "")
_entered = {}


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    # A script that puts ``<dir>/../src`` on sys.path names the code objects
    # it imports by that un-normalised path: normalise before the prefix test.
    rows = sorted(
        {
            f"{code.co_filename}\\t{code.co_firstlineno}\\t{code.co_name}"
            for code in _entered.values()
            if os.path.normpath(code.co_filename).startswith(_SRC)
        }
    )
    with open(os.path.join(_CALLS, f"{os.getpid()}.txt"), "a") as handle:
        handle.write("".join(row + "\\n" for row in rows))


if _CALLS:
    atexit.register(_dump)
    threading.setprofile(_record)
    sys.setprofile(_record)
'''

Command = Tuple[str, ...]


def _cli(*args: str) -> Command:
    return ("-m", "repro", *args)


def _twice(*commands: Command) -> List[Command]:
    return [command for command in commands for _ in range(2)]


_SYNC = ("--clients", "500", "--rounds", "5", "--seed", "7")
_SERVE = ("--tenants", "2", "--clients", "200", "--commits", "5", "--seed", "7",
          "--dropout", "0.05", "--straggler", "0.1")

#: The gated runs that are not tests.  Paths are relative to the repository
#: root; every command runs in a scratch directory, so ``--out`` files land
#: there.  The ``--state-dir`` runs are listed twice: the second invocation
#: finds the first one's checkpoint and takes the resume path.
GATED: List[Command] = [
    # CI sweeps job: same-seed simulate and serve smokes.
    _cli("simulate", *_SYNC, "--dropout", "0.2", "--straggler", "0.1",
         "--corrupt", "0.05", "--out", "sync.json"),
    _cli("simulate", "--clients", "60", "--rounds", "10", "--seed", "0",
         "--byzantine", "0.3", "--attack", "scale", "--rule", "trimmed_mean",
         "--max-norm", "6", "--out", "byz.json"),
    _cli("simulate", *_SYNC, "--async", "--buffer-size", "64", "--dropout",
         "0.2", "--straggler", "0.1", "--out", "async.json"),
    _cli("simulate", *_SYNC, "--pool-exhaust", "0.05", "--attestation", "0.03",
         "--shards", "4", "--shard-down", "0.2", "--out", "life1.json"),
    _cli("simulate", *_SYNC, "--async", "--buffer-size", "32", "--max-norm", "3",
         "--clip", "--byzantine", "0.3", "--attack", "scale", "--rule", "median",
         "--shards", "2", "--out", "life2.json"),
    _cli("simulate", *_SYNC, "--async", "--corrupt", "0.05", "--pool-exhaust",
         "0.05", "--attestation", "0.02", "--staleness", "polynomial",
         "--shards", "4", "--out", "life3.json"),
    _cli("simulate", *_SYNC, "--byzantine", "0.2", "--rule", "clipped_fedavg",
         "--out", "life4.json"),
    _cli("simulate", *_SYNC, "--byzantine", "0.2", "--rule", "krum",
         "--out", "life5.json"),
    _cli("simulate", *_SYNC, "--byzantine", "0.2", "--rule", "trimmed_mean",
         "--shards", "4", "--out", "life6.json"),
    _cli("simulate", "--clients", "300", "--rounds", "4", "--seed", "7",
         "--dropout", "0.1", "--corrupt", "0.05", "--shards", "4",
         "--shard-down", "0.2", "--out", "cli1.json"),
    _cli("simulate", "--clients", "300", "--rounds", "4", "--seed", "7",
         "--async", "--buffer-size", "32", "--max-norm", "3", "--byzantine",
         "0.3", "--attack", "scale", "--out", "cli2.json"),
    _cli("simulate", "--clients", "256", "--rounds", "3", "--seed", "5",
         "--dropout", "0.1", "--straggler", "0.1", "--compile",
         "--client-batch", "64", "--out", "compiled.json"),
    _cli("serve", *_SERVE, "--out", "serve.json"),
    _cli("serve", "--tenants", "2", "--clients", "500", "--commits", "4",
         "--seed", "7", "--chaos", "--chaos-rate", "0.1", "--chaos-seed", "3",
         "--out", "chaos.json"),
    _cli("serve", "--tenants", "2", "--clients", "200", "--commits", "4",
         "--seed", "7", "--ratio", "0.25", "--encoding", "f32", "--shards", "4",
         "--out", "codec1.json"),
    _cli("serve", "--tenants", "2", "--clients", "200", "--commits", "4",
         "--seed", "7", "--ratio", "0.25", "--encoding", "q8", "--out", "codec2.json"),
    _cli("serve", "--tenants", "2", "--clients", "500", "--commits", "4",
         "--seed", "7", "--chaos", "--chaos-rate", "0.2", "--chaos-seed", "3",
         "--chaos-breaker-budget", "5", "--out", "codec3.json"),
    *_twice(
        _cli("simulate", *_SYNC, "--async", "--buffer-size", "64",
             "--state-dir", "sim-state", "--out", "resume.json"),
        _cli("serve", *_SERVE, "--state-dir", "serve-state",
             "--out", "serve-resume.json"),
        _cli("serve", "--tenants", "2", "--clients", "500", "--commits", "4",
             "--seed", "7", "--chaos", "--chaos-rate", "0.2", "--chaos-seed", "3",
             "--chaos-breaker-budget", "5", "--checkpoint-every", "8",
             "--state-dir", "chaos-state", "--out", "chaos-resume.json"),
    ),
    # A zoo model under a named policy, an admission-gated resume and the
    # command list.
    _cli("simulate", "--clients", "300", "--rounds", "3", "--seed", "7",
         "--model", "vit_tiny", "--policy", "pelta-mw:1", "--out", "zoo.json"),
    *_twice(
        _cli("simulate", "--clients", "300", "--rounds", "4", "--seed", "7",
             "--async", "--buffer-size", "32", "--max-norm", "3", "--byzantine",
             "0.3", "--attack", "scale", "--state-dir", "admit-state",
             "--out", "admit-resume.json"),
    ),
    _cli("list"),
    _cli("simulate", "--clients", "100000", "--shards", "64", "--rounds", "2",
         "--cohort", "512", "--out", "shard_smoke.json"),
    # CI sweeps job: every example, the quick sweeps, the paper benchmarks
    # and the perf ledger with its traced count pins.
    *[
        ("-W", "error::DeprecationWarning", f"examples/{name}.py")
        for name in ("attack_gallery", "defense_comparison",
                     "dynamic_dpia_defense", "fl_simulation", "quickstart",
                     "secure_storage_tour", "security_audit")
    ],
    *[
        (f"benchmarks/bench_{name}.py", "--quick", "--out", f"BENCH_{name}.json")
        for name in ("shard_scale", "robust", "async", "serve", "chaos",
                     "transformer")
    ],
    ("-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks"),
    ("bench/run.py", "--quick", "--out", "ledger.json"),
    *[
        ("bench/run.py", "--quick", "--workload", name, "--trace", "1")
        for name in ("shielded_fl", "serve_clean", "sim_sync", "serve_durable",
                     "serve_chaos")
    ],
    # The paper's tables and figures through the CLI.
    _cli("table5", "--fast", "--rounds", "12"),
    _cli("table6"),
    _cli("fig5", "--fast"),
    _cli("fig6", "--fast"),
    _cli("fig8"),
    _cli("summary"),
    _cli("blocks", "--fast"),
    _cli("trace"),
]

#: Tier-1 as CI splits it: the suites without, then with, the property marker.
TESTS: List[Command] = [
    ("-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "not property", "tests"),
    ("-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "property", "tests"),
]

Entry = Tuple[str, int, str]  # (path under src/, first line, name)


def install_hook(directory: Path) -> None:
    """Write the recorder as ``directory/sitecustomize.py``."""
    (directory / "sitecustomize.py").write_text(HOOK)


def hook_env(hook_dir: Path, calls_dir: Path) -> Dict[str, str]:
    """Environment under which a child interpreter records what it enters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC)])
    env["CENSUS_CALLS"] = str(calls_dir)
    env["CENSUS_SRC"] = str(SRC) + os.sep
    return env


def run(commands: Iterable[Command], env: Dict[str, str], cwd: Path) -> List[str]:
    """Run each command under ``env``; return the ones that failed."""
    failed = []
    for command in commands:
        line = " ".join(command)
        # Only scripts and the two suite directories are repository paths;
        # an --out name must stay relative (the root holds BENCH_*.json).
        argv = [
            str(ROOT / part) if part.endswith(".py") or part in ("benchmarks", "tests")
            else part
            for part in command
        ]
        print("census:", line, file=sys.stderr, flush=True)
        done = subprocess.run(
            [sys.executable, *argv], env=env, cwd=cwd,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if done.returncode:
            failed.append(line)
            tail = done.stdout.splitlines()[-20:]
            print("\n".join(["census: failed:", *tail]), file=sys.stderr)
    return failed


def recorded(calls_dir: Path) -> Set[Entry]:
    """Every ``src/repro`` code object the recorded processes entered."""
    entries: Set[Entry] = set()
    for path in calls_dir.glob("*.txt"):
        for row in path.read_text().splitlines():
            filename, line, name = row.split("\t")
            rel = Path(filename).resolve().relative_to(SRC).as_posix()
            entries.add((rel, int(line), name))
    return entries


def functions() -> Dict[Entry, Tuple[str, int]]:
    """``{(path, first line, name): (qualified name, own lines)}`` under src/repro."""
    table: Dict[Entry, Tuple[str, int]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        _collect(ast.parse(path.read_text()), rel, "", table)
    return table


def _span(node: ast.AST) -> Set[int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(first, node.end_lineno + 1))


def _nested_defs(node: ast.AST) -> Iterable[ast.AST]:
    """Definitions directly nested in ``node`` (not inside another definition)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
        else:
            yield from _nested_defs(child)


def _collect(node: ast.AST, rel: str, prefix: str, table: Dict) -> None:
    for child in _nested_defs(node):
        if isinstance(child, ast.ClassDef):
            _collect(child, rel, f"{prefix}{child.name}.", table)
            continue
        own = _span(child)
        for inner in _nested_defs(child):
            own -= _span(inner)
        first = min(_span(child))
        table[(rel, first, child.name)] = (f"{prefix}{child.name}", len(own))
        _collect(child, rel, f"{prefix}{child.name}.<locals>.", table)


def census(gated: Set[Entry], tested: Set[Entry], failed: List[str]) -> Dict:
    """Classify every function and total the lines per module."""
    modules: Dict[str, Dict[str, int]] = {}
    lists: Dict[str, List[Dict]] = {"tests_only": [], "never": []}
    for entry, (qualname, lines) in sorted(functions().items()):
        if entry in gated:
            kind = "gated"
        elif entry in tested:
            kind = "tests_only"
        else:
            kind = "never"
        counts = modules.setdefault(entry[0], {"gated": 0, "tests_only": 0, "never": 0})
        counts[kind] += lines
        if kind != "gated":
            lists[kind].append({"module": entry[0], "function": qualname,
                                "line": entry[1], "lines": lines})
    totals = {kind: sum(m[kind] for m in modules.values())
              for kind in ("gated", "tests_only", "never")}
    return {
        "schema": 1,
        "python": ".".join(map(str, sys.version_info[:3])),
        "gated_commands": [" ".join(c) for c in GATED],
        "test_commands": [" ".join(c) for c in TESTS],
        "failed_commands": failed,
        "totals": {"function_lines": sum(totals.values()), **totals},
        "modules": modules,
        **lists,
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        scratch = Path(scratch)
        hook, work = scratch / "hook", scratch / "work"
        gated_calls, test_calls = scratch / "gated", scratch / "tests"
        for directory in (hook, work, gated_calls, test_calls):
            directory.mkdir()
        install_hook(hook)
        failed = run(GATED, hook_env(hook, gated_calls), work)
        failed += run(TESTS, hook_env(hook, test_calls), work)
        result = census(recorded(gated_calls), recorded(test_calls), failed)
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    totals = result["totals"]
    print(
        f"census: {totals['function_lines']} function lines: {totals['gated']} "
        f"gated, {totals['tests_only']} tests only, {totals['never']} never; "
        f"{len(failed)} commands failed -> {OUT.relative_to(ROOT)}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
