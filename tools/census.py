"""Execution census: which functions of ``src/repro`` does a gated run enter?

Runs every gated command that is not a test (the argv lines of the gate
table, ``tools/gates.py``), then the test suites, with a ``sys.setprofile`` /
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
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

import gates  # tools/gates.py: the gate table

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

#: Every argv line of the gate table, run from a scratch directory; a
#: ``--state-dir`` line twice, so the second run takes the resume path.
GATED: List[Command] = [
    argv for argv in gates.argvs() for _ in range(2 if "--state-dir" in argv else 1)
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
    runner = gates.Runner(cwd, env)
    return [" ".join(command) for command in commands if runner.run(command).returncode]


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
