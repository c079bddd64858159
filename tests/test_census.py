"""The execution census records exactly the functions a process enters."""

import importlib.util
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def called_by(census, tmp_path, program):
    """Qualified names of the src/ functions a child running ``program`` entered."""
    hook, calls = tmp_path / "hook", tmp_path / "calls"
    hook.mkdir()
    calls.mkdir()
    census.install_hook(hook)
    subprocess.run(
        [sys.executable, "-c", program],
        env=census.hook_env(hook, calls),
        cwd=tmp_path,
        check=True,
    )
    table = census.functions()
    return {table[entry][0] for entry in census.recorded(calls) if entry in table}


def test_hook_records_entered_functions_and_nothing_else(tmp_path):
    census = load_census()
    program = (
        "from repro.fl.config import BufferConfig, ShardingConfig\n"
        "BufferConfig(size=2).weight(1.0)\n"
        "ShardingConfig(num_shards=2).flat\n"
    )
    called = called_by(census, tmp_path, program)
    # A decorated function is keyed by its first decorator's line, which is
    # where its code object starts: the property is found like a plain method.
    # require_finite is reached only through BufferConfig.__post_init__.
    assert {
        "BufferConfig.__post_init__",
        "require_finite",
        "BufferConfig.weight",
        "ShardingConfig.flat",
    } <= called
    assert "RoundConfig.__post_init__" not in called


def test_hook_records_a_script_that_reaches_src_through_a_relative_path(tmp_path):
    # The sweep scripts put ``benchmarks/../src`` first on sys.path; the code
    # objects they import carry that un-normalised path in co_filename.
    census = load_census()
    detour = str(census.ROOT / "benchmarks" / ".." / "src")
    program = (
        f"import sys; sys.path.insert(0, {detour!r})\n"
        "import repro.fl.config as config\n"
        "assert '..' in config.__file__, config.__file__\n"
        "config.BufferConfig(size=2).weight(1.0)\n"
    )
    assert "BufferConfig.weight" in called_by(census, tmp_path, program)


def test_function_sizes_leave_out_nested_definitions():
    census = load_census()
    sizes = {qualname: lines for qualname, lines in census.functions().values()}
    # compile_model_step holds a nested step_fn; each counts its own lines.
    assert sizes["compile_model_step"] > 0
    assert sizes["compile_model_step.<locals>.step_fn"] > 0
    source = (census.SRC / "repro" / "graph" / "vm.py").read_text()
    outer = source[source.index("def compile_model_step"):]
    outer = outer[: outer.index("\n\n\n")]
    assert sizes["compile_model_step"] + sizes[
        "compile_model_step.<locals>.step_fn"
    ] == len(outer.splitlines())


def design_census_table():
    """(module, function, kind, lines) of every row in DESIGN § Execution census."""
    design = (ROOT / "DESIGN.md").read_text()
    section = design.split("\n## Execution census\n", 1)[1].split("\n## ", 1)[0]
    entries = []
    for row in section.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if not row.startswith("| (") or len(cells) != 3:
            continue
        module = cells[1].strip("`")
        for function, kind, lines in re.findall(r"`([^`]+)` \(([tn]) (\d+)\)", cells[2]):
            entries.append((f"repro/{module}", function, kind, int(lines)))
    return entries


def test_design_table_lists_exactly_the_census_non_gated_functions():
    recorded = json.loads((ROOT / "tools" / "census.json").read_text())
    expected = Counter(
        (entry["module"], entry["function"], kind, entry["lines"])
        for key, kind in (("tests_only", "t"), ("never", "n"))
        for entry in recorded[key]
    )
    listed = Counter(design_census_table())
    assert not listed - expected, "DESIGN lists functions the census does not"
    assert not expected - listed, "the census lists functions DESIGN does not"
