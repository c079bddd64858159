"""Execution census: which functions of ``src/repro`` does a gated run enter?

Runs every gated command that is not a test (the argv lines of the gate
table, ``tools/gates.py``), then the test suites, with a ``sys.setprofile`` /
``threading.setprofile`` recorder installed in every Python process through
a temporary ``sitecustomize.py`` on ``PYTHONPATH``.  Each process writes
the ``(file, first line, name)`` of every ``src/`` code object it entered to
a file when it exits, keyed by the pytest node id it ran under: a pytest
plugin beside the recorder (``-p census_tests``) names the current test, and
exports it in ``CENSUS_TEST`` so a child the test spawns records under the
same id.  ``ast`` then sizes every function under ``src/repro`` and sorts it
into one of three classes:

* ``gated`` — entered by a non-test command;
* ``tests_only`` — entered only while the tests ran;
* ``never`` — entered by nothing.

A function's size is its own lines, from its first decorator to its last
line, without the lines of the functions and classes nested in it (those
count as their own entries).  The result is written to ``tools/census.json``
next to this script: per-module line counts of each class, the
``tests_only`` and ``never`` functions by name, and ``covered_tests``: each
test whose entered functions all lie inside another test's, with one such
test (the per-test sets themselves are not written).

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
import json
import os
import sys
import tempfile
import threading

_CALLS = os.environ.get("CENSUS_CALLS")
_SRC = os.environ.get("CENSUS_SRC", "")
_test = os.environ.get("CENSUS_TEST", "")  # a child a test spawns records as that test
_entered = {}
_by_test = {}  # node id ("" outside a test) -> (file, first line, name) of src/ code
_in_src = {}


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered[id(code)] = code


def _close():
    """File what was entered since the last call under the current test."""
    global _entered
    previous, _entered = _entered, {}
    rows = _by_test.setdefault(_test, set())
    for code in list(previous.values()):
        name = code.co_filename
        if name not in _in_src:
            # A script that puts ``<dir>/../src`` on sys.path names the code
            # objects it imports by that un-normalised path: normalise first.
            _in_src[name] = os.path.normpath(name).startswith(_SRC)
        if _in_src[name]:
            rows.add((name, code.co_firstlineno, code.co_name))


def attribute(test):
    """Attribute what is entered from now on to ``test`` (a pytest node id)."""
    global _test
    _close()
    _test = test


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    _close()
    rows = sorted(set().union(*_by_test.values()))
    index = {row: i for i, row in enumerate(rows)}
    record = {"rows": rows,
              "tests": {test: sorted(index[row] for row in entered)
                        for test, entered in _by_test.items()}}
    handle, _ = tempfile.mkstemp(suffix=".json", dir=_CALLS)
    with os.fdopen(handle, "w") as out:
        json.dump(record, out)


if _CALLS:
    atexit.register(_dump)
    threading.setprofile(_record)
    sys.setprofile(_record)
'''

#: A pytest plugin (``-p census_tests``) that keys what each test enters,
#: and what any child it spawns enters, by the test's node id.
PLUGIN = '''\
import os

import pytest
import sitecustomize


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    os.environ["CENSUS_TEST"] = item.nodeid
    sitecustomize.attribute(item.nodeid)
    yield
    sitecustomize.attribute("")
    os.environ.pop("CENSUS_TEST", None)
'''

Command = Tuple[str, ...]

#: Every argv line of the gate table, run from a scratch directory; a
#: ``--state-dir`` line twice, so the second run takes the resume path.
GATED: List[Command] = [
    argv for argv in gates.argvs() for _ in range(2 if "--state-dir" in argv else 1)
]

#: The tests that check the committed ``census.json`` against the tree.  That
#: is tier-1's job, not an input to the census, which is about to rewrite the
#: file: after a deletion they would fail here on the stale copy.
READS_CENSUS: Command = (
    "--deselect",
    "tests/test_census.py::test_design_table_lists_exactly_the_census_non_gated_functions",
    "--deselect",
    "tests/test_census.py::test_every_test_the_census_names_still_exists",
)

#: Tier-1 as CI splits it: the suites without, then with, the property marker.
TESTS: List[Command] = [
    ("-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "census_tests",
     "-m", "not property", *READS_CENSUS, "tests"),
    ("-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "census_tests",
     "-m", "property", "tests"),
]

Entry = Tuple[str, int, str]  # (path under src/, first line, name)


def install_hook(directory: Path) -> None:
    """Write the recorder as ``directory/sitecustomize.py``, its pytest plugin beside it."""
    (directory / "sitecustomize.py").write_text(HOOK)
    (directory / "census_tests.py").write_text(PLUGIN)


def hook_env(hook_dir: Path, calls_dir: Path) -> Dict[str, str]:
    """Environment under which a child interpreter records what it enters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC)])
    env["CENSUS_CALLS"] = str(calls_dir)
    env["CENSUS_SRC"] = str(SRC) + os.sep
    env.pop("CENSUS_TEST", None)
    return env


def run(commands: Iterable[Command], env: Dict[str, str], cwd: Path) -> List[str]:
    """Run each command under ``env``; return the ones that failed."""
    runner = gates.Runner(cwd, env)
    return [" ".join(command) for command in commands if runner.run(command).returncode]


def recorded(calls_dir: Path) -> Dict[str, Set[Entry]]:
    """The ``src/repro`` code objects the recorded processes entered, by test.

    Keyed by pytest node id; ``""`` holds what ran outside any test.
    """
    by_test: Dict[str, Set[Entry]] = {}
    for path in calls_dir.glob("*.json"):
        record = json.loads(path.read_text())
        rows = [(Path(filename).resolve().relative_to(SRC).as_posix(), line, name)
                for filename, line, name in record["rows"]]
        for test, indices in record["tests"].items():
            by_test.setdefault(test, set()).update(rows[i] for i in indices)
    return by_test


def entered(by_test: Dict[str, Set[Entry]]) -> Set[Entry]:
    """Everything entered, by any test or outside one."""
    return set().union(*by_test.values())


def covered(by_test: Dict[str, Set[Entry]], table: Iterable[Entry]) -> Dict[str, str]:
    """Each test whose functions all lie inside another test's, with one such test.

    Only the functions of ``table`` count.  The covering test named is a
    smallest one; of tests that entered the same set, the last by node id
    is not listed.  A test that entered no function is not compared.
    """
    bit = {entry: 1 << i for i, entry in enumerate(sorted(table))}
    masks = {}
    for test, entries in by_test.items():
        mask = sum(bit[entry] for entry in entries if entry in bit)
        if test and mask:
            masks[test] = mask
    order = sorted(masks, key=lambda test: (masks[test].bit_count(), test))
    rows = {}
    for i, test in enumerate(order):
        mask = masks[test]
        cover = next((other for other in order[i + 1:] if mask & ~masks[other] == 0), None)
        if cover:
            rows[test] = cover
    return dict(sorted(rows.items()))


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


def census(gated: Set[Entry], by_test: Dict[str, Set[Entry]], failed: List[str]) -> Dict:
    """Classify every function, total the lines per module, list covered tests."""
    modules: Dict[str, Dict[str, int]] = {}
    lists: Dict[str, List[Dict]] = {"tests_only": [], "never": []}
    table = functions()
    tested = entered(by_test)
    for entry, (qualname, lines) in sorted(table.items()):
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
        "schema": 2,
        "python": ".".join(map(str, sys.version_info[:3])),
        "gated_commands": [" ".join(c) for c in GATED],
        "test_commands": [" ".join(c) for c in TESTS],
        "failed_commands": failed,
        "totals": {"function_lines": sum(totals.values()), **totals},
        "modules": modules,
        **lists,
        "tests": sum(1 for test in by_test if test),
        "covered_tests": covered(by_test, table),
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
        result = census(entered(recorded(gated_calls)), recorded(test_calls), failed)
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    totals = result["totals"]
    print(
        f"census: {totals['function_lines']} function lines: {totals['gated']} "
        f"gated, {totals['tests_only']} tests only, {totals['never']} never; "
        f"{len(result['covered_tests'])} of {result['tests']} tests covered by another; "
        f"{len(failed)} commands failed -> {OUT.relative_to(ROOT)}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
